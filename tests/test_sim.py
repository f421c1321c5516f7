"""The per-frame step, its ordering contract, and the simulation driver."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from macfluid import grids, sim
from macfluid.convnet import NetArch, ProjectionTape, init_params, projection_backward
from macfluid.fdops import divergence
from macfluid.forces import ForceConfig
from macfluid.formats import format_row
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid
from macfluid.pressure import PcgInfo, PoissonSystem, make_compatible, solve_pcg
from macfluid.sim import (ConvnetProjection, CsvMetricsSink, ExactProjection,
                          FrameMetrics, InflowRegion, JacobiProjection,
                          NoProjection, PcgProjection, PgmFrameSink, SimConfig,
                          SimState, SimulationError, frame_metrics,
                          plume_scenario, run, step)


def _random_state(seed, nx=8, ny=8, n_solid=3):
    rng = np.random.default_rng(seed)
    dims = GridDims(nx, ny)
    solid = np.zeros(dims.shape, dtype=bool)
    for _ in range(n_solid):
        solid[rng.integers(1, ny - 1), rng.integers(1, nx - 1)] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, rng.standard_normal(dims.shape_ux),
                    rng.standard_normal(dims.shape_uy))
    rho = ScalarGrid(dims, rng.random(dims.shape))
    return SimState(u, rho, g)


def test_step_leaves_input_untouched():
    state = _random_state(0)
    ux0, uy0 = state.u.ux.copy(), state.u.uy.copy()
    rho0 = state.density.values.copy()
    step(state, SimConfig(projection=PcgProjection(1e-8)))
    np.testing.assert_array_equal(state.u.ux, ux0)
    np.testing.assert_array_equal(state.u.uy, uy0)
    np.testing.assert_array_equal(state.density.values, rho0)
    assert state.frame == 0


def test_quiescent_state_stays_quiescent():
    dims = GridDims(8, 8)
    state = SimState(MacVelocity.zeros(dims), ScalarGrid.zeros(dims),
                     OccupancyGrid.empty(dims))
    out = step(state, SimConfig(projection=PcgProjection()))
    assert np.all(out.u.ux == 0.0) and np.all(out.u.uy == 0.0)
    assert np.all(out.density.values == 0.0)
    assert out.frame == 1
    assert out.time == pytest.approx(1.0 / 30.0)


@pytest.mark.parametrize("seed", range(4))
def test_exact_projection_kills_divergence(seed):
    state = _random_state(seed)
    cfg = SimConfig(advection="sl", projection=ExactProjection())
    out = step(state, cfg)
    div = divergence(out.u, out.g).values
    assert np.max(np.abs(div[out.g.fluid])) <= 1e-8


def test_second_projection_is_nearly_free():
    state = _random_state(5)
    cfg = SimConfig(projection=PcgProjection(1e-10))
    out = step(state, cfg)
    sys = make_compatible(PoissonSystem(out.g, divergence(out.u, out.g)))
    p2, _ = solve_pcg(sys, 1e-10)
    assert np.max(np.abs(p2.values)) <= 1e-6


def test_step_ordering_trace(monkeypatch):
    trace = []
    for attr, name in (("_apply_inflow", "inflow"), ("advect_scalar", "advect_density"),
                       ("self_advect", "advect_velocity"), ("add_body_force", "body_force"),
                       ("add_buoyancy", "buoyancy"), ("vorticity_confinement", "confinement"),
                       ("enforce_solid_velocities", "enforce_solids"),
                       ("_project", "project")):
        def noted(*args, _fn=getattr(sim, attr), _name=name, **kwargs):
            trace.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sim, attr, noted)

    state = _random_state(6)
    inlet = InflowRegion(center=(4.0, 2.0), radius=1.5, velocity=(0.0, 1.0))
    cfg = SimConfig(projection=PcgProjection(), inflow=(inlet,))
    step(state, cfg)
    assert trace == ["inflow", "advect_density", "advect_velocity",
                     "body_force", "buoyancy", "confinement",
                     "enforce_solids", "project"]

    trace.clear()
    step(state, dataclasses.replace(cfg, inflow=(), projection=NoProjection()))
    assert trace == ["advect_density", "advect_velocity", "body_force",
                     "buoyancy", "confinement", "enforce_solids", "project"]


_BACKENDS = {"jacobi": JacobiProjection(34), "pcg": PcgProjection(1e-6),
             "none": NoProjection(), "exact": ExactProjection(),
             "convnet": ConvnetProjection(init_params(NetArch(features=4), seed=3))}


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_step_leaves_plus_zero_on_every_solid_face(backend, open_top):
    state = _random_state(12, nx=12, ny=12, n_solid=8)
    state.g = OccupancyGrid(state.g.dims, state.g.solid, open_top)
    cfg = SimConfig(projection=_BACKENDS[backend],
                    forces=ForceConfig(buoyancy=0.5, confinement=0.3))
    fm = state.g.faces
    for _ in range(3):
        state = step(state, cfg)
        # +0.0 exactly: the bit pattern is all zeros, so -0.0 fails too
        assert not state.u.ux[fm.solid_x].view(np.uint64).any()
        assert not state.u.uy[fm.solid_y].view(np.uint64).any()


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_step_reports_what_its_projection_reported(backend):
    state = _random_state(13)
    cfg = SimConfig(projection=_BACKENDS[backend])
    out = step(state, cfg)
    if backend == "pcg":
        assert isinstance(out.report, PcgInfo)
        assert out.report.converged and out.report.iterations > 0
    elif backend == "convnet":
        assert isinstance(out.report, ProjectionTape)
        assert out.report.cache is not None
    else:
        assert out.report is None
    assert out.copy().report is out.report
    assert plume_scenario(GridDims(16, 16))[0].report is None


def test_convnet_report_is_the_tape_project_velocity_collects(monkeypatch):
    seen = []

    def noted(u, g, backend, _original=sim._project):
        seen.append(u)
        return _original(u, g, backend)
    monkeypatch.setattr(sim, "_project", noted)
    state = _random_state(14)
    cfg = SimConfig(projection=_BACKENDS["convnet"])
    out = step(state, cfg)
    tapes = []
    u = sim.project_velocity(seen[0], state.g, cfg.projection, info_sink=tapes)
    np.testing.assert_array_equal(u.ux, out.u.ux)
    np.testing.assert_array_equal(u.uy, out.u.uy)
    rng = np.random.default_rng(15)
    cot = MacVelocity(state.g.dims, rng.standard_normal(state.g.dims.shape_ux),
                      rng.standard_normal(state.g.dims.shape_uy))
    want = projection_backward(tapes[0], cot)
    assert np.any(want != 0.0)
    assert np.array_equal(projection_backward(out.report, cot), want)


def test_inflow_masks_are_built_once_per_grid_and_regions(monkeypatch):
    built = []

    def counted(dims, center, radius, _original=sim.disc_mask):
        built.append(center)
        return _original(dims, center, radius)
    monkeypatch.setattr(sim, "disc_mask", counted)
    state = _random_state(11)
    dims, g = state.g.dims, state.g
    a = InflowRegion(center=(4.0, 2.0), radius=1.5, velocity=(0.0, 1.0))
    b = InflowRegion(center=(5.0, 3.0), radius=2.0, velocity=(0.5, -1.0), density=0.5)
    jc, ic = np.indices(dims.shape)
    jx, ix = np.indices(dims.shape_ux)
    jy, iy = np.indices(dims.shape_uy)

    def inside(r, x, y):
        return (x - r.center[0]) ** 2 + (y - r.center[1]) ** 2 <= r.radius ** 2

    for regions in ((a,), (a, b), (a,), (a, b)):
        u, rho = sim._apply_inflow(state.u, state.density, g, regions)
        # later regions overwrite earlier ones; face midpoints in cell units
        ux, uy, want_rho = state.u.ux.copy(), state.u.uy.copy(), state.density.values.copy()
        for r in regions:
            want_rho[inside(r, ic + 0.5, jc + 0.5) & g.fluid] = r.density
            ux[inside(r, ix, jx + 0.5)] = r.velocity[0]
            uy[inside(r, iy + 0.5, jy)] = r.velocity[1]
        np.testing.assert_array_equal(rho.values, want_rho)
        np.testing.assert_array_equal(u.ux, ux)
        np.testing.assert_array_equal(u.uy, uy)
    assert built == [a.center, a.center, b.center]

    # the masks are kept on the grid and die with it
    grid = weakref.ref(g)
    mask = weakref.ref(g.derived(sim._inflow_region_masks, (a, b))[1][0])
    del state, g
    gc.collect()
    assert grid() is None
    assert mask() is None


def test_unknown_backend_rejected():
    state = _random_state(7)
    with pytest.raises(TypeError):
        step(state, SimConfig(projection="jacobi"))


def test_no_projection_returns_velocity_unchanged():
    state = _random_state(11)
    sink = []
    out = sim.project_velocity(state.u, state.g, NoProjection(), info_sink=sink)
    np.testing.assert_array_equal(out.ux, state.u.ux)
    np.testing.assert_array_equal(out.uy, state.u.uy)
    assert sink == []


def test_convnet_backend_runs_and_reports_its_tape():
    state = _random_state(8)
    params = init_params(NetArch(features=4), seed=1)
    cfg = SimConfig(projection=ConvnetProjection(params))
    out = step(state, cfg)
    assert isinstance(out.report, ProjectionTape)
    assert out.report.cache is not None
    assert out.frame == 1
    out2 = step(state, cfg)
    np.testing.assert_array_equal(out.u.ux, out2.u.ux)


def test_jacobi_backend_runs():
    state = _random_state(9)
    out = step(state, SimConfig(projection=JacobiProjection(iters=100)))
    div0 = np.abs(divergence(state.u, state.g).values[state.g.fluid]).max()
    div1 = np.abs(divergence(out.u, out.g).values[out.g.fluid]).max()
    assert div1 < div0


def test_nonfinite_abort_carries_the_state():
    state = _random_state(10)
    cfg = SimConfig(dt=1e10, forces=ForceConfig(gravity=(1e308, 0.0)),
                    projection=NoProjection())
    with pytest.raises(SimulationError, match="after frame 1") as e:
        step(state, cfg)
    bad = e.value.state
    assert (bad.g, bad.frame, bad.time) == (state.g, 1, cfg.dt)
    assert not np.all(np.isfinite(bad.u.ux))
    # the step's own input was finite, so it is left as it was
    assert np.all(np.isfinite(state.u.ux))
    # a non-finite input is refused before any work, with no state
    with pytest.raises(SimulationError, match="input of frame 2") as e:
        step(bad, cfg)
    assert e.value.state is None


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        InflowRegion(center=(1.0, 1.0), radius=0.0, velocity=(0.0, 0.0))
    with pytest.raises(ValueError, match="inflow radius must be positive"):
        InflowRegion(center=(1.0, 1.0), radius=float("nan"), velocity=(0.0, 0.0))
    with pytest.raises(ValueError, match="inflow center must be finite"):
        InflowRegion(center=(float("nan"), 1.0), radius=1.0, velocity=(0.0, 0.0))
    with pytest.raises(ValueError, match="inflow velocity must be finite"):
        InflowRegion(center=(1.0, 1.0), radius=1.0, velocity=(float("nan"), 0.0))
    with pytest.raises(ValueError, match="inflow density must be finite"):
        InflowRegion(center=(1.0, 1.0), radius=1.0, velocity=(0.0, 1.0),
                     density=float("inf"))
    with pytest.raises(ValueError, match="gravity must be finite"):
        ForceConfig(gravity=(0.0, float("-inf")))
    with pytest.raises(ValueError):
        run(_random_state(0), SimConfig(), frames=0)


@pytest.mark.parametrize("projection", [JacobiProjection(34), PcgProjection(1e-6)])
def test_steps_derive_grid_geometry_once(monkeypatch, projection):
    calls = {}
    for name in ("face_masks", "cell_stencil", "connected_components"):
        def counted(g, _name=name, _original=getattr(grids, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(g)
        monkeypatch.setattr(grids, name, counted)
    state, cfg = plume_scenario(GridDims(16, 16), obstacle="disc", confinement=0.2,
                                projection=projection)
    for _ in range(3):
        state = step(state, cfg)
    assert calls == {"face_masks": 1, "cell_stencil": 1, "connected_components": 1}


# ====== driver ======

def test_run_metrics_and_sinks(tmp_path):
    state, cfg = plume_scenario(GridDims(16, 16), projection=PcgProjection(1e-6))
    csv_path = tmp_path / "metrics.csv"
    frames_dir = tmp_path / "frames"
    with CsvMetricsSink(csv_path) as csv_sink:
        final, metrics = run(state, cfg, frames=3,
                             sinks=(csv_sink, PgmFrameSink(frames_dir)))
    assert len(metrics) == 3
    assert [m.frame for m in metrics] == [1, 2, 3]
    assert final.frame == 3

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(FrameMetrics.COLUMNS)
    assert len(lines) == 4
    # one row writer for every CSV: plain newlines, format_row cells
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == "".join(
        ",".join(row) + "\n"
        for row in [FrameMetrics.COLUMNS, *(format_row(m.row()) for m in metrics)])
    assert sorted(p.name for p in frames_dir.iterdir()) == [
        "frame_000001.pgm", "frame_000002.pgm", "frame_000003.pgm"]


def test_run_is_deterministic_apart_from_timing():
    state, cfg = plume_scenario(GridDims(16, 16))
    _, m1 = run(state.copy(), cfg, frames=4)
    _, m2 = run(state.copy(), cfg, frames=4)
    for a, b in zip(m1, m2):
        assert a.row()[:-1] == b.row()[:-1]


def test_metrics_values_match_direct_computation():
    state = _random_state(11)
    out = step(state, SimConfig(projection=PcgProjection()))
    m = frame_metrics(out)
    d = np.abs(divergence(out.u, out.g).values[out.g.fluid])
    assert m.mean_div_l2 == pytest.approx(d.mean())
    assert m.std_div_l2 == pytest.approx(d.std())
    assert m.max_div == pytest.approx(d.max())
    assert m.residual == pytest.approx(np.sqrt(np.sum(d * d)))
    assert m.max_speed == out.u.max_speed()


# ====== plume scenario ======

def test_plume_inflow_inside_domain():
    for n in (16, 32, 64):
        state, cfg = plume_scenario(GridDims(n, n))
        (inlet,) = cfg.inflow
        cx, cy = inlet.center
        assert inlet.radius < cx < n - inlet.radius
        assert cy - inlet.radius >= 0
        assert not state.g.solid.any()


def test_plume_frame0_divergence_is_local_to_inlet():
    dims = GridDims(32, 32)
    state, cfg = plume_scenario(dims)
    quiet = dataclasses.replace(cfg, dt=1e-12, projection=NoProjection(),
                                forces=ForceConfig())
    out = step(state, quiet)
    div = np.abs(divergence(out.u, out.g).values)
    (inlet,) = cfg.inflow
    jj, ii = np.nonzero(div > 1e-9)
    if jj.size:
        r = np.hypot(ii + 0.5 - inlet.center[0], jj + 0.5 - inlet.center[1])
        assert np.all(r <= inlet.radius + 2.0)
    assert div.max() > 0  # the inlet does create divergence


def test_plume_obstacle_variants():
    dims = GridDims(32, 32)
    state, _ = plume_scenario(dims, obstacle="disc")
    assert state.g.solid[16, 16]
    assert not state.g.solid[0, 0]
    state, _ = plume_scenario(dims, obstacle="box")
    assert state.g.solid[16, 16]
    with pytest.raises(ValueError):
        plume_scenario(dims, obstacle="pyramid")
    with pytest.raises(ValueError):
        plume_scenario(GridDims(30, 32))


def test_plume_without_projection_keeps_divergence_high():
    # the pinned inlet makes frame-1 divergence large already; without a
    # projection it never resolves, while the projected run removes it
    # every frame
    state, cfg = plume_scenario(GridDims(16, 16),
                                projection=NoProjection(), buoyancy=1.0)
    _, none_metrics = run(state.copy(), cfg, frames=48)
    first = none_metrics[0]
    assert min(m.residual for m in none_metrics) >= 0.5 * first.residual

    state, cfg = plume_scenario(GridDims(16, 16), buoyancy=1.0)
    _, pcg_metrics = run(state, cfg, frames=48)
    assert all(m.residual <= 0.05 * first.residual for m in pcg_metrics)


def test_plume_open_top_mode_propagates():
    state, _ = plume_scenario(GridDims(16, 16), open_top=True)
    assert state.g.open_top
