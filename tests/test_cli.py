"""Command-line interface tests; every command runs in process."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from macfluid.cli import CliError, _build_parser, cli
from macfluid.formats import format_row, load_model, read_frame
from macfluid.grids import GridDims
from macfluid.sim import FrameMetrics, JacobiProjection, plume_scenario, run


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clids") / "ds"
    rc = cli(["gen-data", "--out", str(root), "--scenes", "3", "--frames", "4",
              "--stride", "4", "--res", "16", "--seed", "5"])
    assert rc == 0
    return root


def _strip_wall_ms(csv_text: str) -> list[str]:
    rows = [line.split(",") for line in csv_text.splitlines()
            if not line.startswith("#")]
    drop = rows[0].index("wall_ms")
    return [",".join(c for i, c in enumerate(r) if i != drop) for r in rows]


# ====== The package ======

def test_importing_the_package_loads_no_module():
    # each name is imported from its module; the package re-exports nothing.
    # Only the exact backend's factor needs scipy.sparse.linalg, a slow import
    code = ("import importlib, sys, macfluid\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('macfluid.'))\n"
            "assert not loaded, loaded\n"
            "assert callable(importlib.import_module('macfluid.cli').main)\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


# ====== Exit codes and usage ======

def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("gen-data", "train", "simulate", "eval", "bench", "gradcheck"):
        assert sub in out


def test_subcommand_help_documents_flags(capsys):
    assert cli(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--data", "--out", "--epochs", "--seed", "--config",
                 "--single-frame-loss", "--lr"):
        assert flag in out


def test_unknown_flag_exits_one(capsys):
    assert cli(["simulate", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_flag_prefix_is_not_the_flag(capsys):
    # "--frame" is a prefix of eval's --frames, not an abbreviation of it
    with pytest.raises(CliError, match="unrecognized arguments: --frame"):
        _build_parser().parse_args(["eval", "--data", "ds", "--frame", "4"])
    assert cli(["eval", "--data", "ds", "--frame", "4"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert _build_parser().parse_args(["eval", "--data", "ds", "--frames", "4"]).frames == 4


def test_unknown_subcommand_exits_one():
    assert cli(["transmogrify"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert cli(["train"]) == 1
    assert "--data is required" in capsys.readouterr().err


def test_validation_error_exits_one(tmp_path):
    # side not divisible by 4 fails scene validation
    assert cli(["gen-data", "--out", str(tmp_path / "x"), "--res", "18"]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "inf", "dt must be positive and finite"),
    ("--buoyancy", "inf", "buoyancy must be finite"),
    ("--buoyancy", "nan", "buoyancy must be finite"),
    ("--confinement", "inf", "confinement must be finite"),
    ("--inflow-speed", "inf", "inflow velocity must be finite"),
], ids=["dt-inf", "buoyancy-inf", "buoyancy-nan", "confinement-inf", "inflow-speed-inf"])
def test_nonfinite_input_exits_one(flag, value, message, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli(["simulate", "--res", "16", "--frames", "2", "--solver", "none",
              "--out", str(out), flag, value])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()  # rejected before any frame runs


def test_gen_data_with_infinite_dt_creates_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli(["gen-data", "--res", "16", "--out", str(out), "--dt", "inf"]) == 1
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_with_a_dt_float32_cannot_store_creates_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli(["gen-data", "--res", "16", "--out", str(out), "--dt", "1e39"]) == 1
    assert capsys.readouterr().err == "error: frame dt must be a finite float32, got 1e+39\n"
    assert not out.exists()


@pytest.mark.parametrize("arch, message", [
    (["--features", "1", "--kernel", "257"], "1 and 257"),
    (["--features", "65536"], "65536 and 3"),
], ids=["kernel-257", "features-65536"])
def test_train_with_an_arch_a_model_cannot_store_writes_nothing(arch, message, dataset_dir,
                                                               tmp_path, capsys):
    model, log = tmp_path / "out" / "m.fnm", tmp_path / "logs" / "train.csv"
    assert cli(["train", "--data", str(dataset_dir), "--out", str(model), "--log", str(log),
                "--epochs", "0", *arch]) == 1
    assert capsys.readouterr().err == ("error: a model stores at most 65535 features and a "
                                       f"kernel of at most 255, got {message}\n")
    assert not model.parent.exists() and not log.parent.exists()


@pytest.mark.parametrize("lr", ["inf", "1e400"])
def test_train_with_infinite_lr_writes_no_model(lr, dataset_dir, tmp_path, capsys):
    model = tmp_path / "m.fnm"
    assert cli(["train", "--data", str(dataset_dir), "--out", str(model), "--features", "2",
                "--epochs", "1", "--lr", lr]) == 1
    assert "learning rate must be > 0 and finite" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--epochs", "-1", "--out", "new/m.fnm"], "epochs must be nonnegative, got -1"),
    (["eval", "--frames", "0", "--backends", "none", "--out", "new/c.csv"],
     "need at least one frame, got 0"),
    (["eval", "--frames", "-3", "--backends", "none", "--out", "new/c.csv"],
     "need at least one frame, got -3"),
    (["bench", "--backend", "none", "--reps", "0", "--out", "new/b.csv"],
     "need at least one repetition, got 0"),
    (["bench", "--backend", "none", "--res", "30", "--out", "new/b.csv"],
     "grid sides must be divisible by 4, got 30x30"),
], ids=["train-epochs", "eval-frames-0", "eval-frames-negative", "bench-reps", "bench-res"])
def test_a_refused_count_or_size_makes_no_output_directory(argv, message, dataset_dir,
                                                           tmp_path, capsys):
    argv = [str(tmp_path / a) if a.startswith("new/") else a for a in argv]
    data = ["--data", str(dataset_dir)] if argv[0] in ("train", "eval") else []
    assert cli([*argv, *data]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new").exists()


def test_os_failure_exits_two(tmp_path):
    blocker = tmp_path / "sim"
    blocker.write_text("in the way")
    rc = cli(["simulate", "--res", "16", "--frames", "2", "--out", str(blocker)])
    assert rc == 2


# ====== Config files ======

def test_config_overrides_defaults_but_not_flags(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment line\nres = 16\nframes = 2\nsolver = jacobi:5\n")
    out = tmp_path / "sim"
    rc = cli(["simulate", "--config", str(cfg), "--out", str(out), "--frames", "3"])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # explicit --frames beats the config value


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_bad_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frames = soon\n")
    assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "bad value" in capsys.readouterr().err


def test_config_boolean_and_choices(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("open-top = true\npool = test\nscenes = 1\nframes = 4\n"
                   "stride = 4\nres = 16\n")
    out = tmp_path / "ds"
    assert cli(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    meta = (out / "scene_0000" / "meta.json").read_text()
    assert '"boundary": "open-top"' in meta
    assert '"pool": "test"' in meta


# ====== gen-data ======

def test_gen_data_reproducible(tmp_path):
    args = ["gen-data", "--scenes", "2", "--frames", "4", "--stride", "4",
            "--res", "16", "--seed", "9"]
    assert cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli(args + ["--out", str(tmp_path / "b")]) == 0
    for pa in sorted((tmp_path / "a").rglob("*")):
        if pa.is_file():
            pb = tmp_path / "b" / pa.relative_to(tmp_path / "a")
            assert pa.read_bytes() == pb.read_bytes()


def test_gen_data_stride_beyond_frames_exits_one(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli(["gen-data", "--out", str(out), "--scenes", "1", "--frames", "2",
              "--stride", "4", "--res", "16"])
    assert rc == 1
    assert "stride" in capsys.readouterr().err
    assert not out.exists()


# ====== train ======

def test_train_reproducible_and_logged(dataset_dir, tmp_path):
    args = ["train", "--data", str(dataset_dir), "--epochs", "2", "--seed", "7",
            "--features", "2", "--batch-size", "4"]
    rc = cli(args + ["--out", str(tmp_path / "m1.fnm"), "--log", str(tmp_path / "l1.csv")])
    assert rc == 0
    rc = cli(args + ["--out", str(tmp_path / "m2.fnm"), "--log", str(tmp_path / "l2.csv")])
    assert rc == 0
    assert (tmp_path / "m1.fnm").read_bytes() == (tmp_path / "m2.fnm").read_bytes()
    log = (tmp_path / "l1.csv").read_text().splitlines()
    assert log[0] == ("epoch,mean_loss,mean_div_step1,mean_div_stepn,"
                      "skipped,clipped,grad_norm,wall_ms")
    assert len(log) == 3
    assert _strip_wall_ms("\n".join(log)) \
        == _strip_wall_ms((tmp_path / "l2.csv").read_text())
    params = load_model(tmp_path / "m1.fnm")
    assert params.arch.features == 2


def test_train_makes_the_log_directory(dataset_dir, tmp_path):
    log = tmp_path / "logs" / "deeper" / "l.csv"
    assert cli(["train", "--data", str(dataset_dir), "--epochs", "1", "--features", "2",
                "--out", str(tmp_path / "m.fnm"), "--log", str(log)]) == 0
    assert len(log.read_text().splitlines()) == 2


def test_train_unwritable_log_fails_before_training(dataset_dir, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("macfluid.cli.train", lambda *a: calls.append(a))
    (tmp_path / "blocker").write_text("in the way")
    assert cli(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "m.fnm"),
                "--log", str(tmp_path / "blocker" / "l.csv")]) == 2
    assert calls == [] and not (tmp_path / "m.fnm").exists()


def test_train_different_seed_differs(dataset_dir, tmp_path):
    base = ["train", "--data", str(dataset_dir), "--epochs", "1",
            "--features", "2", "--batch-size", "4"]
    assert cli(base + ["--seed", "1", "--out", str(tmp_path / "a.fnm")]) == 0
    assert cli(base + ["--seed", "2", "--out", str(tmp_path / "b.fnm")]) == 0
    assert (tmp_path / "a.fnm").read_bytes() != (tmp_path / "b.fnm").read_bytes()


def test_train_grad_clip_must_be_nonnegative(dataset_dir, tmp_path, capsys):
    base = ["train", "--data", str(dataset_dir), "--epochs", "1",
            "--features", "2", "--batch-size", "4"]
    assert cli(base + ["--grad-clip", "-1", "--out", str(tmp_path / "a.fnm")]) == 1
    assert "grad" in capsys.readouterr().err
    assert not (tmp_path / "a.fnm").exists()
    # 0 is the one value that disables clipping
    assert cli(base + ["--grad-clip", "0", "--out", str(tmp_path / "b.fnm")]) == 0
    assert (tmp_path / "b.fnm").exists()


# ====== simulate ======

def test_simulate_writes_metrics_and_pgm(tmp_path):
    out = tmp_path / "sim"
    rc = cli(["simulate", "--res", "16", "--frames", "5", "--solver", "jacobi:10",
              "--out", str(out), "--pgm"])
    assert rc == 0
    raw = (out / "metrics.csv").read_bytes()
    lines = raw.decode().splitlines()
    assert lines[0] == ("frame,mean_div_l2,std_div_l2,max_div,max_speed,residual,"
                        "pcg_iterations,pcg_relres,pcg_converged,wall_ms")
    assert len(lines) == 1 + 5
    # jacobi reports no solve: the pcg cells are empty
    assert all(line.split(",")[6:9] == ["", "", ""] for line in lines[1:])
    # plain newlines and format_row cells: the rows of the same run in process
    assert b"\r" not in raw and raw.endswith(b"\n")
    state, cfg = plume_scenario(GridDims(16, 16), projection=JacobiProjection(10))
    _, metrics = run(state, cfg, 5)
    want = [",".join(r) for r in [FrameMetrics.COLUMNS, *(format_row(m.row()) for m in metrics)]]
    assert _strip_wall_ms(raw.decode()) == _strip_wall_ms("\n".join(want))
    assert all(format_row([float(line.split(",")[-1])]) == [line.split(",")[-1]]
               for line in lines[1:])
    pgms = sorted(p.name for p in (out / "frames").glob("*.pgm"))
    assert pgms == [f"frame_{i:06d}.pgm" for i in range(1, 6)]


def test_simulate_zero_frames_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sim"
    assert cli(["simulate", "--res", "16", "--frames", "0", "--out", str(out)]) == 1
    assert "--frames must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reproducible_but_for_timing(tmp_path):
    args = ["simulate", "--res", "16", "--frames", "4", "--solver", "pcg:1e-6",
            "--pgm"]
    assert cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli(args + ["--out", str(tmp_path / "b")]) == 0
    ma = _strip_wall_ms((tmp_path / "a" / "metrics.csv").read_text())
    mb = _strip_wall_ms((tmp_path / "b" / "metrics.csv").read_text())
    assert ma == mb
    for pa in sorted((tmp_path / "a" / "frames").glob("*.pgm")):
        pb = tmp_path / "b" / "frames" / pa.name
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("solver", ["pcg:1e-4", "none"])
def test_simulate_blowup_exits_two_and_dumps_the_frame(solver, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli(["simulate", "--res", "16", "--frames", "3", "--buoyancy", "1e308",
              "--dt", "1e10", "--solver", solver, "--out", str(out)])
    assert rc == 2
    dump = out / "blowup.fnf"
    assert capsys.readouterr().err.strip() == (
        f"error: non-finite fields after frame 1; frame dumped to {dump}")
    fd = read_frame(dump)
    assert fd.g.dims.nx == 16
    assert not (np.all(np.isfinite(fd.u.uy)) and np.all(np.isfinite(fd.density.values)))
    assert len((out / "metrics.csv").read_text().splitlines()) == 1  # header only


def test_simulate_blowup_at_a_dt_fnf1_cannot_store_reports_the_blowup(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli(["simulate", "--res", "16", "--frames", "3", "--buoyancy", "1e308",
              "--dt", "1e39", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "error: non-finite fields after frame 1; frame not dumped: "
        "frame dt must be a finite float32, got 1e+39")
    assert not (out / "blowup.fnf").exists()
    assert len((out / "metrics.csv").read_text().splitlines()) == 1  # header only
    # the same dt without a blow-up runs to the end
    assert cli(["simulate", "--res", "16", "--frames", "2", "--dt", "1e39",
                "--out", str(tmp_path / "calm")]) == 0


def _fresh_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, where no logging handler is configured."""
    code = "import sys; from macfluid.cli import cli; sys.exit(cli(sys.argv[1:]))"
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_simulate_pcg_blowup_prints_only_the_error_line(tmp_path):
    out = tmp_path / "sim"
    done = _fresh_cli("simulate", "--res", "16", "--frames", "3", "--buoyancy", "1e308",
                      "--dt", "1e10", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == (f"error: non-finite fields after frame 1; "
                           f"frame dumped to {out / 'blowup.fnf'}\n")


def test_simulate_unconverged_pcg_writes_nothing_to_stderr(tmp_path):
    done = _fresh_cli("simulate", "--res", "16", "--solver", "pcg:1e-300", "--frames", "3",
                      "--out", str(tmp_path / "sim"))
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1].endswith("; PCG did not converge on 3 of 3 frames")


@pytest.mark.parametrize("tol, note", [
    ("1e-300", "; PCG did not converge on 2 of 2 frames"),
    ("1e-4", None),
])
def test_simulate_reports_unconverged_pcg_frames_on_its_final_line(tol, note, tmp_path,
                                                                   capsys):
    out = tmp_path / "sim"
    rc = cli(["simulate", "--res", "16", "--frames", "2", "--solver", f"pcg:{tol}",
              "--out", str(out)])
    assert rc == 0
    last = capsys.readouterr().out.splitlines()[-1]
    if note is None:
        assert "did not converge" not in last
    else:
        assert last.endswith(note)
    assert sorted(q.name for q in out.iterdir()) == ["metrics.csv"]


def test_simulate_bad_solver_spec_exits_one(tmp_path, capsys):
    rc = cli(["simulate", "--solver", "jacobi:many", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "jacobi" in capsys.readouterr().err


def test_simulate_convnet_solver_roundtrip(dataset_dir, tmp_path):
    model = tmp_path / "m.fnm"
    assert cli(["train", "--data", str(dataset_dir), "--out", str(model),
                "--epochs", "1", "--features", "2", "--batch-size", "4"]) == 0
    rc = cli(["simulate", "--res", "16", "--frames", "3",
              "--solver", f"convnet:{model}", "--out", str(tmp_path / "sim")])
    assert rc == 0
    assert len((tmp_path / "sim" / "metrics.csv").read_text().splitlines()) == 4


# ====== eval ======

def test_eval_writes_curves(dataset_dir, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = cli(["eval", "--data", str(dataset_dir), "--frames", "3",
              "--backends", "pcg:1e-6,none", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frame,pcg_1e-6_mean,pcg_1e-6_std,none_mean,none_std"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1] == "# excluded: pcg_1e-6=0,none=0"
    assert "final mean divergence" in capsys.readouterr().out


def test_eval_makes_the_output_directory(dataset_dir, tmp_path):
    out = tmp_path / "new" / "curves.csv"
    assert cli(["eval", "--data", str(dataset_dir), "--frames", "2",
                "--backends", "none", "--out", str(out)]) == 0
    assert out.read_text().startswith("frame,none_mean,none_std\n")


def test_eval_unwritable_output_fails_before_any_rollout(dataset_dir, tmp_path,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr("macfluid.cli.eval_divergence_curves", lambda *a: calls.append(a))
    (tmp_path / "blocker").write_text("in the way")
    assert cli(["eval", "--data", str(dataset_dir), "--backends", "none",
                "--out", str(tmp_path / "blocker" / "curves.csv")]) == 2
    assert calls == []


def test_eval_match_divergence(dataset_dir, tmp_path, capsys):
    model = tmp_path / "m.fnm"
    assert cli(["train", "--data", str(dataset_dir), "--out", str(model),
                "--epochs", "1", "--features", "2", "--batch-size", "4"]) == 0
    rc = cli(["eval", "--data", str(dataset_dir), "--frames", "2",
              "--match-divergence", "--model", str(model), "--max-iters", "64"])
    assert rc == 0
    assert "jacobi iterations matching" in capsys.readouterr().out
    rc = cli(["eval", "--data", str(dataset_dir), "--frames", "0",
              "--match-divergence", "--model", str(model)])
    assert rc == 1
    assert "at least one frame" in capsys.readouterr().err
    for cap in ("0", "-5"):
        rc = cli(["eval", "--data", str(dataset_dir), "--frames", "2",
                  "--match-divergence", "--model", str(model), "--max-iters", cap])
        assert rc == 1
        assert "max_iters must be >= 1" in capsys.readouterr().err


def test_eval_requires_out_or_match(dataset_dir, capsys):
    assert cli(["eval", "--data", str(dataset_dir)]) == 1
    assert "--out is required" in capsys.readouterr().err


# ====== bench ======

def test_bench_csv_output(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli(["bench", "--backend", "jacobi:5", "--res", "16,32", "--reps", "2",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "backend,nx,ny,cells,repetitions,median_ms,p10_ms,p90_ms"
    assert len(lines) == 3


def test_bench_writes_the_csv_it_prints(tmp_path, capsys):
    args = ["bench", "--backend", "jacobi:5", "--res", "16", "--reps", "1"]
    assert cli(args) == 0
    printed = capsys.readouterr().out
    assert cli(args + ["--out", str(tmp_path / "bench.csv")]) == 0
    written = (tmp_path / "bench.csv").read_text()
    # the same columns, up to the three timings
    assert [line.split(",")[:-3] for line in written.splitlines()] \
        == [line.split(",")[:-3] for line in printed.splitlines()]
    assert written.endswith("\n") and printed.endswith("\n")


def test_bench_makes_the_output_directory(tmp_path):
    out = tmp_path / "new" / "bench.csv"
    assert cli(["bench", "--backend", "none", "--res", "8", "--reps", "1",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_bench_unwritable_output_fails_before_timing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("macfluid.cli.bench", lambda *a, **kw: calls.append(a))
    (tmp_path / "blocker").write_text("in the way")
    assert cli(["bench", "--backend", "none", "--res", "8", "--reps", "1",
                "--out", str(tmp_path / "blocker" / "bench.csv")]) == 2
    assert calls == []


def test_bench_stdout_and_bad_backend(capsys):
    assert cli(["bench", "--backend", "jacobi:5", "--res", "16", "--reps", "1"]) == 0
    assert "median_ms,p10_ms,p90_ms" in capsys.readouterr().out
    assert cli(["bench", "--backend", "sorcery", "--res", "16"]) == 1


def test_bench_rejects_a_side_not_divisible_by_four(capsys):
    assert cli(["bench", "--backend", "jacobi:5", "--res", "10", "--reps", "1"]) == 1
    assert "divisible by 4" in capsys.readouterr().err


def test_bench_exact_runs_at_every_default_resolution(capsys):
    assert cli(["bench", "--backend", "exact", "--res", "32,64,128", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["exact", "32", "32"], ["exact", "64", "64"], ["exact", "128", "128"]]


def test_bench_no_projection(capsys):
    assert cli(["bench", "--backend", "none", "--res", "8", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "backend,nx,ny,cells,repetitions,median_ms,p10_ms,p90_ms"
    assert len(lines) == 2 and lines[1].startswith("none,8,8,64,1,")


# ====== gradcheck ======

def test_gradcheck_passes_and_prints(capsys):
    rc = cli(["gradcheck", "--res", "8", "--features", "2",
              "--checks", "25", "--seed", "3"])
    assert rc == 0
    assert "max relative error" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--checks", "0"], ["--eps", "0"]])
def test_gradcheck_that_checks_nothing_exits_one(flags, capsys):
    assert cli(["gradcheck", "--res", "8", "--features", "2"] + flags) == 1
    assert "error:" in capsys.readouterr().err


def test_gradcheck_counts_the_parameters_it_has(capsys):
    # one feature with a 1x1 kernel: 19 parameters, all below the roundoff floor
    assert cli(["gradcheck", "--res", "8", "--features", "1", "--kernel", "1",
                "--checks", "100000"]) == 1
    assert "nothing was compared" in capsys.readouterr().err
    # a 1x1-kernel net of width 2 has 51; asking for more checks all of them
    assert cli(["gradcheck", "--res", "8", "--features", "2", "--kernel", "1",
                "--checks", "1000"]) == 0
    assert "(51 parameters checked)" in capsys.readouterr().out


@pytest.mark.parametrize("argv, what", [
    (["gradcheck", "--eps", "-1e-5"], "eps must be positive"),
    (["train", "--data", "nowhere", "--out", "m.fnm", "--lr", "-1e-3"],
     "learning rate must be > 0"),
])
def test_negative_exponent_value_reaches_its_own_check(argv, what, capsys):
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert what in err
    assert "expected one argument" not in err


# ====== README ======

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """Arguments of every ``macfluid ...`` line in README.md's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "macfluid":
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except CliError as e:
            pytest.fail(f"README command 'macfluid {' '.join(argv)}' does not parse: {e}")
