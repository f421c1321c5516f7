"""Command-line front end: dataset generation, training, simulation,
evaluation, timing, and gradient checking.

Exit codes: 0 on success, 1 on a validation problem (bad flags, bad
config, bad inputs), 2 on a runtime failure (blow-up, training abort,
io errors).  Every subcommand takes --seed and --config; a config file
holds one ``key = value`` per line with ``#`` comments, keys matching
the subcommand's flags, applied between the defaults and the explicit
command line.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .convnet import SIDE_MULTIPLE, NetArch, init_params
from .datagen import SceneConfig, build_scene, generate_dataset, load_dataset
from .evaluate import (WARMUP_FRAMES, BenchRow, bench, eval_divergence_curves,
                       match_divergence, parse_backend)
from .formats import (FormatError, check_model_arch, csv_text, format_row, load_model,
                      save_model, write_frame, write_pgm)
from .grids import GridDims
from .sim import ConvnetProjection, FrameMetrics, SimulationError, plume_scenario, run
from .training import (EpochStats, LossConfig, TrainConfig, gradient_check,
                       train)


class CliError(Exception):
    """Bad invocation or bad input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Exact flag names only: a prefix of a flag is an error, so a new flag
    can never change what an existing command line means."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse takes "-1e-5" for a flag; read it as a (rejected) value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        sys.stderr.write(self.format_usage())
        raise CliError(message)


# ====== Config files ======

_CONFIG_SKIP = {"help", "config"}


def _parse_config_value(action: argparse.Action, key: str, value: str):
    if isinstance(action, argparse._StoreTrueAction):
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise CliError(f"config key {key!r} expects a boolean, got {value!r}")
    if action.type is not None:
        try:
            converted = action.type(value)
        except (TypeError, ValueError):
            raise CliError(f"config key {key!r}: bad value {value!r}") from None
    else:
        converted = value
    if action.choices is not None and converted not in action.choices:
        raise CliError(f"config key {key!r}: {value!r} is not one of "
                       f"{sorted(action.choices)}")
    return converted


def _load_config(path, parser: argparse.ArgumentParser) -> dict:
    """Key=value file checked against one subcommand's flags."""
    actions = {a.dest: a for a in parser._actions if a.dest not in _CONFIG_SKIP
               and not a.dest.startswith("_")}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest not in actions:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[dest] = _parse_config_value(actions[dest], key, value)
    return values


def _make_parent(path) -> None:
    """Create a file's directory before the work that will fill the file."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise CliError(f"--{name} is required")
    return value


# ====== Subcommands ======

def _cmd_gen_data(args) -> int:
    out = _require(args, "out")
    cfg = SceneConfig(dims=GridDims(args.res, args.res), seed=args.seed,
                      pool=args.pool, dt=args.dt,
                      boundary="open-top" if args.open_top else "closed")
    written = generate_dataset(cfg, args.scenes, args.frames, args.stride, out)
    print(f"wrote {len(written)} files under {out}")
    return 0


def _cmd_train(args) -> int:
    data = _require(args, "data")
    out = _require(args, "out")
    cfg = TrainConfig(arch=NetArch(features=args.features, kernel=args.kernel),
                      loss=LossConfig(single_frame=args.single_frame_loss),
                      batch_size=args.batch_size, lr=args.lr, grad_clip=args.grad_clip)
    check_model_arch(cfg.arch)
    if args.epochs < 0:
        raise CliError(f"epochs must be nonnegative, got {args.epochs}")
    scenes = load_dataset(data)
    dataset = [frame for scene in scenes for frame in scene.frames]
    for path in (out, args.log):
        if path is not None:
            _make_parent(path)
    params, stats = train(dataset, cfg, args.epochs, args.seed)
    save_model(out, params)
    if args.log is not None:
        Path(args.log).write_text(csv_text(EpochStats.COLUMNS, [s.row() for s in stats]))
    last = stats[-1].mean_loss if stats else float("nan")
    print(f"saved model to {out} ({params.n_params} parameters, "
          f"{args.epochs} epochs, final mean loss {last:.6g})")
    return 0


def _cmd_simulate(args) -> int:
    out = Path(_require(args, "out"))
    if args.frames < 1:
        raise CliError(f"--frames must be >= 1, got {args.frames}")
    _, projection = parse_backend(args.solver)
    state, cfg = plume_scenario(GridDims(args.res, args.res),
                                open_top=args.open_top,
                                obstacle=None if args.obstacle == "none" else args.obstacle,
                                inflow_speed=args.inflow_speed,
                                buoyancy=args.buoyancy,
                                confinement=args.confinement,
                                projection=projection, dt=args.dt)
    (out / "frames" if args.pgm else out).mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w") as metrics_csv:
        metrics_csv.write(",".join(FrameMetrics.COLUMNS) + "\n")

        def write(m: FrameMetrics, s) -> None:
            metrics_csv.write(",".join(format_row(m.row())) + "\n")
            if args.pgm:
                write_pgm(out / "frames" / f"frame_{s.frame:06d}.pgm", s.density.values)

        try:
            # a blow-up is reported by step's SimulationError below, not by
            # numpy's warnings on the overflowing arithmetic that led to it
            with np.errstate(all="ignore"):
                state, metrics = run(state, cfg, args.frames, (write,))
        except SimulationError as e:  # the initial state is finite, so e.state is set
            dump = out / "blowup.fnf"
            try:
                write_frame(dump, e.state.g, e.state.u, e.state.density, cfg.dt)
                where = f"frame dumped to {dump}"
            except FormatError as f:  # a dt FNF1 cannot store; the blow-up still wins
                where = f"frame not dumped: {f}"
            raise SimulationError(f"{e}; {where}", e.state) from None
    m = metrics[-1]
    bad = sum(f.pcg_converged is False for f in metrics)
    note = f"; PCG did not converge on {bad} of {len(metrics)} frames" if bad else ""
    print(f"simulated {args.frames} frames at {args.res}x{args.res}; "
          f"final mean divergence {m.mean_div_l2:.6g}, max speed {m.max_speed:.6g}; "
          f"metrics in {out / 'metrics.csv'}{note}")
    return 0


def _cmd_eval(args) -> int:
    data = _require(args, "data")
    scenes = load_dataset(data)
    if args.match_divergence:
        model = _require(args, "model")
        target = ConvnetProjection(load_model(model))
        result = match_divergence(scenes, target, args.frames, args.max_iters)
        status = "matched" if result.matched else \
            f"not matched within {args.max_iters} iterations"
        print(f"jacobi iterations matching the model's mean divergence: "
              f"{result.iterations} ({status}; jacobi {result.jacobi_div:.6g}, "
              f"model {result.target_div:.6g})")
        return 0
    out = _require(args, "out")
    backends = [parse_backend(s.strip()) for s in args.backends.split(",") if s.strip()]
    if not backends:
        raise CliError("--backends must name at least one backend")
    if args.frames < 1:
        raise CliError(f"need at least one frame, got {args.frames}")
    _make_parent(out)
    curves = eval_divergence_curves(scenes, backends, args.frames)
    Path(out).write_text(curves.to_csv())
    for name in curves.names:
        print(f"{name}: final mean divergence {curves.mean[name][-1]:.6g} "
              f"({curves.excluded[name]} of {len(scenes)} samples excluded)")
    print(f"curves written to {out}")
    return 0


def _cmd_bench(args) -> int:
    backend = _require(args, "backend")
    name, projection = parse_backend(backend)
    try:
        sizes = [int(s) for s in args.res.split(",") if s.strip()]
    except ValueError:
        raise CliError(f"bad --res list {args.res!r}") from None
    if not sizes:
        raise CliError("--res must list at least one size")
    if args.reps < 1:
        raise CliError(f"need at least one repetition, got {args.reps}")
    for n in sizes:
        if n % SIDE_MULTIPLE:
            raise CliError(f"grid sides must be divisible by {SIDE_MULTIPLE}, got {n}x{n}")
    if args.out is not None:
        _make_parent(args.out)
    rows = bench(projection, [GridDims(n, n) for n in sizes],
                 repetitions=args.reps, name=name)
    text = csv_text(BenchRow.COLUMNS, [r.row() for r in rows])
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"timings written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    state, _ = build_scene(SceneConfig(dims=GridDims(args.res, args.res),
                                       seed=args.seed))
    params = init_params(NetArch(features=args.features, kernel=args.kernel),
                         np.random.SeedSequence(args.seed))
    err = gradient_check(params, state, eps=args.eps, n_checked=args.checks,
                         seed=args.seed)
    print(f"max relative error: {err:.6e} "
          f"({min(args.checks, params.n_params)} parameters checked)")
    return 0 if err <= 1e-4 else 2


# ====== Parser assembly ======

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--config", type=str, default=None,
                   help="key = value file overriding flag defaults")


def _build_parser() -> _Parser:
    parser = _Parser(prog="macfluid",
                     description="MAC-grid fluid solver with a learned "
                                 "pressure projection")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", parents=[], help="generate a scene dataset",
                        description="Write rolled-out scenes as FNF1 frames "
                                    "plus per-scene meta.json.")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--scenes", type=int, default=64, help="number of scenes")
    p.add_argument("--frames", type=int, default=8, help="solver steps per scene")
    p.add_argument("--stride", type=int, default=4, help="record every stride-th frame")
    p.add_argument("--res", type=int, default=32, help="grid side length")
    p.add_argument("--pool", type=str, default="train", choices=("train", "test"),
                   help="seed pool; train and test pools never overlap")
    p.add_argument("--open-top", action="store_true", help="open the top border")
    p.add_argument("--dt", type=float, default=1.0 / 30.0, help="frame time step")
    _add_common(p)
    p.set_defaults(_run=_cmd_gen_data, _sub=p)

    p = subs.add_parser("train", help="train the projection network",
                        description="Train on a generated dataset and write an "
                                    "FNM1 model file.  --log writes a CSV with "
                                    "columns " + ",".join(EpochStats.COLUMNS) + ": "
                                    "per epoch, skipped counts the samples dropped "
                                    "by the speed limit, clipped the batches whose "
                                    "gradient was clipped, and grad_norm is the mean "
                                    "batch gradient norm before clipping.")
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--out", type=str, default=None, help="model file to write")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--features", type=int, default=16, help="network width")
    p.add_argument("--kernel", type=int, default=3, help="conv kernel size")
    p.add_argument("--grad-clip", type=float, default=1.0,
                   help="global gradient norm clip; 0 disables")
    p.add_argument("--single-frame-loss", action="store_true",
                   help="ablation: drop the unrolled future-frame loss term")
    p.add_argument("--log", type=str, default=None, help="training stats CSV")
    _add_common(p)
    p.set_defaults(_run=_cmd_train, _sub=p)

    p = subs.add_parser("simulate", help="run the plume benchmark scene",
                        description="Simulate and write metrics.csv with columns "
                                    + ",".join(FrameMetrics.COLUMNS) + "; the pcg_* "
                                    "columns report each frame's PCG solve and are "
                                    "empty for other solvers.  Unconverged PCG frames "
                                    "add '; PCG did not converge on K of N frames' to "
                                    "the final line; the exit code stays 0.")
    p.add_argument("--res", type=int, default=64, help="grid side length")
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--solver", type=str, default="pcg:1e-4",
                   help="jacobi:<iters> | pcg:<tol> | convnet:<model> | exact | none")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--pgm", action="store_true", help="dump density frames as PGM")
    p.add_argument("--open-top", action="store_true")
    p.add_argument("--obstacle", type=str, default="none",
                   choices=("none", "disc", "box"))
    p.add_argument("--buoyancy", type=float, default=0.5)
    p.add_argument("--confinement", type=float, default=0.0)
    p.add_argument("--inflow-speed", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1.0 / 30.0)
    _add_common(p)
    p.set_defaults(_run=_cmd_simulate, _sub=p)

    p = subs.add_parser("eval", help="divergence curves over a test set",
                        description="Roll each scene's first frame forward under "
                                    "each backend; write CSV columns frame,"
                                    "<backend>_mean,<backend>_std and a final "
                                    "'# excluded:' footer counting failed samples.")
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--backends", type=str, default="pcg:1e-4,jacobi:34,none",
                   help="comma-separated backend specs")
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--out", type=str, default=None, help="curves CSV to write")
    p.add_argument("--match-divergence", action="store_true",
                   help="instead of curves, search the jacobi iteration count "
                        "matching --model's mean divergence")
    p.add_argument("--model", type=str, default=None,
                   help="model file for --match-divergence")
    p.add_argument("--max-iters", type=int, default=4096,
                   help="search cap for --match-divergence")
    _add_common(p)
    p.set_defaults(_run=_cmd_eval, _sub=p)

    p = subs.add_parser("bench", help="time plume frames per backend",
                        description="Median, 10th and 90th percentile ms per "
                                    "sim.step frame of the closed disc plume after "
                                    f"{WARMUP_FRAMES} warm-up frames, "
                                    "checked bit for bit against an untimed rerun; "
                                    "--seed does not change the scene.  CSV columns "
                                    + ",".join(BenchRow.COLUMNS) + ".")
    p.add_argument("--backend", type=str, default=None, help="backend spec")
    p.add_argument("--res", type=str, default="32,64,128",
                   help=f"comma-separated grid side lengths, each divisible by {SIDE_MULTIPLE}")
    p.add_argument("--reps", type=int, default=5, help="timed frames")
    p.add_argument("--out", type=str, default=None, help="CSV to write (else stdout)")
    _add_common(p)
    p.set_defaults(_run=_cmd_bench, _sub=p)

    p = subs.add_parser("gradcheck", help="finite-difference gradient check",
                        description="Compare analytic parameter gradients of the "
                                    "one-step loss against central differences; "
                                    "exits 0 iff the max relative error is at "
                                    "most 1e-4.")
    p.add_argument("--res", type=int, default=8, help="grid side length")
    p.add_argument("--features", type=int, default=3, help="reduced network width")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--checks", type=int, default=120,
                   help="number of sampled parameters")
    p.add_argument("--eps", type=float, default=1e-5, help="probe step")
    _add_common(p)
    p.set_defaults(_run=_cmd_gradcheck, _sub=p)

    return parser


def cli(argv=None) -> int:
    """Run one invocation; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args._sub.set_defaults(**_load_config(args.config, args._sub))
            args = parser.parse_args(argv)
        return args._run(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return 0 if e.code in (0, None) else int(e.code)
    except ValueError as e:  # bad inputs, bad file contents
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as e:  # blow-ups, aborts, io failures
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
