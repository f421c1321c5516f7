"""Backend parsing, divergence curves, matching, and timing tests."""

from dataclasses import replace

import numpy as np
import pytest

from macfluid import evaluate, sim
from macfluid.convnet import NetArch, init_params
from macfluid.datagen import LoadedScene, SceneConfig, build_scene, generate_dataset, load_dataset
from macfluid.evaluate import (WARMUP_FRAMES, BenchRow, bench,
                               eval_divergence_curves, match_divergence,
                               one_step_loss, parse_backend)
from macfluid.formats import csv_text, save_model
from macfluid.grids import GridDims, MacVelocity, ScalarGrid
from macfluid.sim import (ExactProjection, JacobiProjection, NoProjection,
                          PcgProjection, SimState, plume_scenario, run)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = SceneConfig(dims=GridDims(16, 16), seed=31)
    generate_dataset(cfg, scene_count=3, frames_per_scene=8, stride=4, out_dir=root)
    return load_dataset(root)


# ====== Backend specs ======

def test_parse_backend_jacobi():
    name, proj = parse_backend("jacobi:34")
    assert name == "jacobi_34"
    assert proj == JacobiProjection(34)


def test_parse_backend_pcg():
    name, proj = parse_backend("pcg:1e-06")
    assert name == "pcg_1e-06"
    assert proj == PcgProjection(tol=1e-6)


def test_parse_backend_plain_kinds():
    assert parse_backend("exact") == ("exact", ExactProjection())
    assert parse_backend("none") == ("none", NoProjection())


def test_parse_backend_convnet(tmp_path):
    params = init_params(NetArch(features=2), seed=0)
    path = tmp_path / "m.fnm"
    save_model(path, params)
    name, proj = parse_backend(f"convnet:{path}")
    assert name == "convnet"
    np.testing.assert_array_equal(proj.params.pack(), params.pack())


@pytest.mark.parametrize("spec", [
    "jacobi", "jacobi:", "jacobi:x", "jacobi:0",
    "pcg", "pcg:zero", "pcg:-1", "pcg:0", "pcg:inf", "pcg:1e400",
    "convnet", "convnet:/no/such/model.fnm",
    "exact:1", "none:1", "frobnicate",
])
def test_parse_backend_rejects(spec):
    with pytest.raises(ValueError):
        parse_backend(spec)


# ====== One-step loss ======

def test_one_step_loss_projection_beats_none():
    state, _ = build_scene(SceneConfig(dims=GridDims(16, 16), seed=4))
    none = one_step_loss(state, NoProjection())
    exact = one_step_loss(state, ExactProjection())
    assert none > 1e-8
    assert exact <= 1e-12
    assert exact < 1e-6 * none


# ====== Divergence curves ======

def test_curves_csv_contract(small_dataset):
    frames = 5
    curves = eval_divergence_curves(small_dataset, ["pcg:1e-10", "none"], frames)
    lines = curves.to_csv().splitlines()
    assert lines[0] == "frame,pcg_1e-10_mean,pcg_1e-10_std,none_mean,none_std"
    assert len(lines) == 1 + frames + 1  # header + rows + footer
    assert lines[-1] == "# excluded: pcg_1e-10=0,none=0"
    for f, line in enumerate(lines[1:-1], start=1):
        cells = line.split(",")
        assert len(cells) == 1 + 2 * 2
        assert int(cells[0]) == f
    assert curves.names == ["pcg_1e-10", "none"]
    assert curves.mean["none"].shape == (frames,)


def test_curves_tight_pcg_stays_projected(small_dataset):
    curves = eval_divergence_curves(small_dataset, ["pcg:1e-10"], frames=6)
    assert np.all(curves.mean["pcg_1e-10"] <= 1e-6)


def _blown_up_scene(small_dataset):
    dims = GridDims(16, 16)
    bad_state = SimState(
        MacVelocity(dims, np.full(dims.shape_ux, np.nan), np.zeros(dims.shape_uy)),
        small_dataset[0].frames[0].density.copy(),
        small_dataset[0].frames[0].g)
    return LoadedScene("scene_bad", {"config": {"dt": 1.0 / 30.0}}, [bad_state])


def test_curves_failed_sample_excluded(small_dataset, caplog):
    bad = _blown_up_scene(small_dataset)
    with caplog.at_level("WARNING", logger="macfluid.evaluate"):
        curves = eval_divergence_curves(list(small_dataset) + [bad],
                                        ["pcg:1e-06", "none"], 3)
    assert curves.excluded == {"pcg_1e-06": 1, "none": 1}
    assert np.all(np.isfinite(curves.mean["none"]))
    assert curves.to_csv().splitlines()[-1] == "# excluded: pcg_1e-06=1,none=1"
    assert any("excluded" in r.message for r in caplog.records)


def test_curves_none_accumulates_on_plume_samples():
    # warmed-up plume states carry real motion; with no projection the
    # advected field's divergence builds up instead of being removed
    samples = []
    for warmup in (12, 18, 24):
        state, cfg = plume_scenario(GridDims(16, 16))
        state, _ = run(state, cfg, warmup)
        samples.append(LoadedScene(f"plume_{warmup}",
                                   {"config": {"dt": cfg.dt}}, [state]))
    curves = eval_divergence_curves(samples, ["none", "pcg:1e-06"], frames=24)
    none = curves.mean["none"]
    assert np.all(none >= none[0])
    assert np.all(curves.mean["pcg_1e-06"] <= 0.05 * none)


def test_curves_validation(small_dataset):
    with pytest.raises(ValueError):
        eval_divergence_curves(small_dataset, ["none"], frames=0)
    with pytest.raises(ValueError):
        eval_divergence_curves(small_dataset, [], frames=4)


# ====== Divergence matching ======

def test_match_divergence_finds_reference_count(small_dataset):
    target = JacobiProjection(32)
    result = match_divergence(small_dataset[:2], target, frames=4)
    assert result.matched
    assert 1 <= result.iterations <= 32
    assert result.jacobi_div <= result.target_div


def test_match_divergence_excludes_failed_rollouts(small_dataset, caplog):
    bad = _blown_up_scene(small_dataset)
    target = JacobiProjection(20)
    with caplog.at_level("WARNING", logger="macfluid.evaluate"):
        result = match_divergence(small_dataset[:2] + [bad], target, frames=4)
    assert result == match_divergence(small_dataset[:2], target, frames=4)
    assert any("rollout excluded from divergence average" in r.message
               for r in caplog.records)
    with pytest.raises(RuntimeError, match="every rollout failed"):
        match_divergence([bad], target, frames=4)


def test_match_divergence_unreachable_target(small_dataset):
    result = match_divergence(small_dataset[:1], PcgProjection(tol=1e-10),
                              frames=2, max_iters=4)
    assert not result.matched
    assert result.iterations == 4
    assert result.jacobi_div > result.target_div


def test_match_divergence_finds_the_smallest_count_of_a_non_monotone_statistic(
        small_dataset, monkeypatch):
    # each odd count beats the even count after it, as Jacobi's statistic does
    def statistic(samples, projection, frames):
        if isinstance(projection, JacobiProjection):
            k = projection.iters
            return (0.4 if k % 2 else 0.7) / k
        return 0.05

    monkeypatch.setattr(evaluate, "_mean_rollout_div", statistic)
    result = match_divergence(small_dataset[:1], PcgProjection(), frames=1)
    # doubling brackets 8..16, where bisection would settle on 13
    assert result == evaluate.MatchResult(9, 0.4 / 9, 0.05, matched=True)


def test_match_divergence_rejects_zero_frames(small_dataset):
    with pytest.raises(ValueError, match="at least one frame"):
        match_divergence(small_dataset[:1], JacobiProjection(8), frames=0)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_match_divergence_rejects_a_cap_below_one(small_dataset, max_iters):
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        match_divergence(small_dataset[:1], JacobiProjection(8), frames=1,
                         max_iters=max_iters)


# ====== Timing ======

def test_bench_row_per_resolution():
    _, proj = parse_backend("pcg:1e-04")
    rows = bench(proj, [GridDims(16, 16), GridDims(32, 32)], repetitions=1,
                 name="pcg_1e-04")
    assert [(r.nx, r.cells, r.repetitions) for r in rows] \
        == [(16, 256, 1), (32, 1024, 1)]
    assert all(0 < r.p10_ms <= r.median_ms <= r.p90_ms for r in rows)


def test_bench_percentiles_spread_over_the_timed_frames(monkeypatch):
    calls = []
    real_run = evaluate.run

    def timed_run(start, cfg, frames):
        out, metrics = real_run(start, cfg, frames)
        calls.append(frames)
        if len(calls) == 3:  # after the warm-up and the reference run
            metrics = [replace(m, wall_ms=w) for m, w in zip(metrics, [9.0, 1.0, 4.0, 2.0, 3.0])]
        return out, metrics

    monkeypatch.setattr(evaluate, "run", timed_run)
    (row,) = bench(JacobiProjection(4), [GridDims(8, 8)], repetitions=5)
    assert calls == [WARMUP_FRAMES, 5, 5]
    assert row.median_ms == 3.0
    assert (row.p10_ms, row.p90_ms) == (pytest.approx(1.4), pytest.approx(7.0))


def test_bench_steps_the_warmed_disc_plume(monkeypatch):
    seen = []
    real_step = sim.step

    def counting_step(state, cfg):
        seen.append(state.g)
        return real_step(state, cfg)

    monkeypatch.setattr(sim, "step", counting_step)
    dims_list = [GridDims(8, 8), GridDims(16, 16)]
    bench(JacobiProjection(4), dims_list, repetitions=2)
    # warm-up, reference run and timed run, per resolution
    assert [g.dims for g in seen] == [d for d in dims_list
                                      for _ in range(WARMUP_FRAMES + 2 * 2)]
    for g in seen:
        disc = plume_scenario(g.dims, obstacle="disc")[0].g
        assert not g.open_top
        np.testing.assert_array_equal(g.solid, disc.solid)


def test_bench_rejects_a_timed_run_that_differs_from_its_reference(monkeypatch):
    calls = []
    real_step = sim.step

    def flaky_step(state, cfg):
        out = real_step(state, cfg)
        calls.append(None)
        if len(calls) % 2:
            out.density = ScalarGrid(out.g.dims, out.density.values + 1e-9)
        return out

    monkeypatch.setattr(sim, "step", flaky_step)
    # an odd count of timed frames, so the reference and the timed run
    # are perturbed on different frames
    with pytest.raises(RuntimeError, match="not deterministic"):
        bench(JacobiProjection(4), [GridDims(8, 8)], repetitions=3)


def test_bench_csv():
    rows = [BenchRow("jacobi_34", 32, 32, 1024, 5, 1.25, 1.125, 2.5)]
    lines = csv_text(BenchRow.COLUMNS, [r.row() for r in rows]).splitlines()
    assert lines[0] == "backend,nx,ny,cells,repetitions,median_ms,p10_ms,p90_ms"
    assert lines[1] == "jacobi_34,32,32,1024,5,1.25,1.125,2.5"


def test_bench_jacobi_scaling_not_superlinear():
    # fixed numpy dispatch overhead makes small grids cheaper per cell, so
    # growth from 32^2 to 128^2 sits below linear; assert it never exceeds
    # three times the linear prediction
    _, proj = parse_backend("jacobi:34")
    rows = bench(proj, [GridDims(32, 32), GridDims(128, 128)],
                 repetitions=5, name="jacobi_34")
    t32, t128 = rows[0].median_ms, rows[1].median_ms
    assert t128 > t32
    assert t128 <= 3.0 * (rows[1].cells / rows[0].cells) * t32
