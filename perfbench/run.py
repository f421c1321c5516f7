#!/usr/bin/env python3
"""macfluid benchmark: end-to-end and per-layer numbers from one command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
With no arguments every workload runs, traced, for the ``run_seconds`` of
BENCHMARK.json.

A run has four parts.  Each part times one set-up of the workload (the
median of the four is ``setup_s``) and then runs whole episodes for a
quarter of ``--seconds``.  Every set-up and episode is bracketed by
timings of a fixed calibration kernel (``speed.py``), and the gated
metrics are scaled to the kernel's reference speed, so that load from
other tenants of a shared host cancels; raw values are printed too.  With ``--trace 0`` every part is untraced: only
the few functions that delimit a frame or a training sample are timed.
With ``--trace 1`` untraced and traced parts alternate; in the traced
parts every function in ``layers.TARGETS`` is wrapped by the span
recorder.  The per-layer metrics come from the traced parts, and the
tracing overhead from comparing them with the untraced ones.

Every line but the last is a human-readable report: environment, each
named metric with its unit, the output checks, result digests, and with
tracing the per-layer table whose self times, plus the untraced
remainder, add up to the traced wall time.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json without tracing,
its per-layer metrics with tracing.  Spans of a traced run are written to
``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PARTS = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> tuple[int, int]:
    """Cap BLAS/OpenMP threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in THREAD_VARS:
        if os.environ.get(var, "").isdigit() and 0 < int(os.environ[var]) < cap:
            cap = int(os.environ[var])
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def environment(nproc: int, cap: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "blas_threads": cap, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Window:
    """Episodes, spans and times of one kind of measurement, gathered in parts.

    Each episode is bracketed by calibration-kernel timings; ``slices``
    holds (start, end, speed factor) per episode, and ``wall`` sums the
    episodes' durations, calibration excluded.
    """

    def __init__(self, targets: dict, cal):
        from tracer import Tracer
        self.tracer = Tracer(targets)
        self.cal = cal
        self.episodes: list[dict] = []
        self.slices: list[tuple[float, float, float]] = []
        self.wall = self.cpu = 0.0

    def run_part(self, w, seconds: float, first: int) -> None:
        """Run whole episodes until the next one would end nearer past ``seconds``."""
        from speed import speed_factor
        before = self.cal.kernel_ms()
        count, elapsed = 0, 0.0
        with self.tracer:
            while count == 0 or elapsed + 0.5 * elapsed / count < seconds:
                c0, t0 = time.process_time(), time.perf_counter()
                self.episodes.append(w.episode(first + count))
                t1 = time.perf_counter()
                self.cpu += time.process_time() - c0
                after = self.cal.kernel_ms()
                self.slices.append((t0, t1, speed_factor(before, after)))
                before = after
                count += 1
                elapsed += t1 - t0
        self.wall += elapsed

    def end_to_end(self, w, setup_s: float, setup_ref_s: float) -> tuple[dict, dict]:
        """Gated metrics at reference speed, then the raw and per-workload ones."""
        from workloads import percentile
        spans = self.tracer.spans
        starts = [t0 for t0, _, _ in self.slices]
        frames = w.frame_spans(spans)
        raw_ms = [(b - a) * 1e3 for a, b in frames]
        ref_ms = [ms * self.slices[bisect.bisect_right(starts, a) - 1][2]
                  for ms, (a, _) in zip(raw_ms, frames)]
        ref_wall = sum((t1 - t0) * f for t0, t1, f in self.slices)
        s = w.summarize(self.episodes, spans, self.wall)
        metrics = {"setup_s": setup_ref_s,
                   "frame_ms_p50": percentile(ref_ms, 50),
                   "frame_ms_p90": percentile(ref_ms, 90),
                   "frames_per_s": len(frames) / ref_wall,
                   "raw_setup_s": setup_s,
                   "raw_frame_ms_p50": percentile(raw_ms, 50),
                   "raw_frame_ms_p90": percentile(raw_ms, 90),
                   "raw_frames_per_s": len(frames) / self.wall,
                   "machine_speed": ref_wall / self.wall,
                   **s["metrics"],
                   "failed_frac": s["failed"] / s["attempted"] if s["attempted"] else 0.0}
        s["frames"] = len(frames)
        return metrics, s


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 spec: dict, meta: dict) -> dict:
    # numpy may load only after pin_threads, and macfluid only from src/
    from layers import TARGETS, layer_metrics, module_shares
    from speed import Calibrator, speed_factor
    from workloads import WORKLOADS
    w_cls = WORKLOADS[name]
    work = OUT / f"work_{name}_{os.getpid()}"
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: (v["unit"], v["better"]) for k, v in meta["report_metrics"].items()})
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    try:
        w = w_cls(seed, work)
        cal = Calibrator()
        # the traced parts keep the clock's extractors where it has one
        targets = {**TARGETS, **{k: f for k, f in w_cls.clock.items() if f is not None}}
        plain, traced = Window(w_cls.clock, cal), Window(targets, cal)
        # set-ups alternate with parts of the window, so that both sample
        # the whole run rather than one stretch of a shared machine's load;
        # with tracing, untraced and traced parts alternate for the same reason
        setup_times, setup_ref, digests = [], [], []
        for part in range(PARTS):
            before = cal.kernel_ms()
            t0 = time.perf_counter()
            digests.append(w.setup())
            setup_times.append(time.perf_counter() - t0)
            setup_ref.append(setup_times[-1] * speed_factor(before, cal.kernel_ms()))
            win = traced if trace and part % 2 else plain
            win.run_part(w, seconds / PARTS, len(plain.episodes) + len(traced.episodes))
        setup_s = statistics.median(setup_times)
        setup_same = len(set(digests)) == 1
        print(f"setup {PARTS} runs: " + " ".join(f"{t:.4f}" for t in setup_times)
              + f" s; median {setup_s:.4f} s; identical results: {'yes' if setup_same else 'NO'}")
        e2e, summary = plain.end_to_end(w, setup_s, statistics.median(setup_ref))
        checks = dict(summary["checks"], **{"set-ups identical": setup_same})
        attempted, failed = summary["attempted"], summary["failed"]
        print(f"window untraced: {plain.wall:.2f} s wall, {plain.cpu:.2f} s cpu, "
              f"{len(plain.episodes)} episodes, {summary['frames']} frames")
        for metric, value in e2e.items():
            unit, better = units[metric]
            print(f"e2e {metric:<18} {value:>14.6g} {unit:<6} {better}-is-better")
        print(f"failed_frac = {failed} / {attempted} ({meta['failure_definition'][name]})")
        layers = None
        if trace:
            t_e2e, t_summary = traced.end_to_end(w, setup_s, e2e["setup_s"])
            for key, ok in t_summary["checks"].items():
                checks[f"{key} (traced)"] = ok
            attempted += t_summary["attempted"]
            failed += t_summary["failed"]
            spans = traced.tracer.spans
            overhead = 100.0 * (t_e2e["frame_ms_p50"] / e2e["frame_ms_p50"] - 1.0)
            layers = layer_metrics(spans, traced.wall, overhead)
            print(f"window traced: {traced.wall:.2f} s wall, {traced.cpu:.2f} s cpu, "
                  f"{len(traced.episodes)} episodes, {t_summary['frames']} frames, "
                  f"{len(spans)} spans")
            for metric in ("frame_ms_p50", "frame_ms_p90", "frames_per_s"):
                unit = units[metric][0]
                print(f"overhead {metric:<14} untraced {e2e[metric]:.6g} {unit}, traced "
                      f"{t_e2e[metric]:.6g} {unit} "
                      f"({100 * (t_e2e[metric] / e2e[metric] - 1):+.2f}%)")
            print("self time by module, % of traced wall (sums to 100 with the remainder):")
            for module, pct in sorted(module_shares(spans, traced.wall).items(),
                                      key=lambda kv: -kv[1]):
                print(f"share {module:<12} {pct:7.2f} %")
            for metric, value in layers.items():
                unit, better = units[metric]
                print(f"layer {metric:<34} {value:>14.6g} {unit:<12} {better}-is-better")
            write_spans(name, seed, spans)
        for key, ok in checks.items():
            print(f"check {key}: {'ok' if ok else 'FAILED'}")
        for key, digest in summary["digests"].items():
            print(f"digest {key} sha256:{digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gated = layers if trace else {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    return {"correct": all(checks.values()), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in gated.items()}}


def write_spans(name: str, seed: int, spans: list) -> None:
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    rows = [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in spans]
    path = OUT / f"spans_{name}_seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "columns": ["name", "start_s", "end_s", "parent"],
                                "spans": rows}))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((HERE / "metadata.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    nproc, cap = pin_threads()
    src = ROOT / "src"
    if not (src / "macfluid" / "__init__.py").is_file():
        print(f"error: no macfluid package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import macfluid
    if Path(macfluid.__file__).resolve().parent != (src / "macfluid").resolve():
        print(f"error: imported macfluid from {macfluid.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment(nproc, cap)
    sys.stdout.reconfigure(line_buffering=True)
    selected = names if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env, spec, meta)
               for n in selected}
    if len(results) == 1:
        final = results[selected[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
