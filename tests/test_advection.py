import hashlib
from dataclasses import replace

import numpy as np
import pytest

from macfluid import advection, grids, sim
from macfluid.advection import _fluid_at, advect, advect_scalar, self_advect
from macfluid.datagen import SceneConfig, apply_emitters, build_scene
from macfluid.grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _bilinear,
                            _bilinear_apply)
import oracles
from oracles import (advect_fields, advect_lattice, cell_centers, sample_scalar,
                     sample_velocity, trace_back)


def _gaussian(dims, cx, cy, sigma):
    cc = cell_centers(dims)
    r2 = (cc[..., 0] - cx) ** 2 + (cc[..., 1] - cy) ** 2
    return np.exp(-r2 / (2 * sigma**2))


def test_zero_dt_returns_input_bitwise():
    rng = np.random.default_rng(40)
    dims = GridDims(8, 8, h=0.3)
    g = OccupancyGrid.empty(dims)
    q = ScalarGrid(dims, rng.normal(size=dims.shape))
    u = MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))
    for scheme in ("sl", "maccormack"):
        out = advect_scalar(q, u, g, 0.0, scheme)
        assert np.array_equal(out.values, q.values)
        v = self_advect(u, g, 0.0, scheme)
        assert np.array_equal(v.ux, u.ux) and np.array_equal(v.uy, u.uy)


def test_unknown_scheme_rejected():
    dims = GridDims(4, 4)
    g = OccupancyGrid.empty(dims)
    q = ScalarGrid.zeros(dims)
    u = MacVelocity.zeros(dims)
    with pytest.raises(ValueError):
        advect_scalar(q, u, g, 0.1, "upwind")
    with pytest.raises(ValueError):
        self_advect(u, g, 0.1, "rk2")


def test_uniform_translation_tracks_analytic_solution():
    dims = GridDims(48, 24)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity(dims, np.full(dims.shape_ux, 1.0), np.zeros(dims.shape_uy))
    q0 = ScalarGrid(dims, _gaussian(dims, 10.0, 12.0, 3.0))
    dt, steps = 0.5, 10
    errs = {}
    for scheme in ("sl", "maccormack"):
        q = q0.copy()
        for _ in range(steps):
            q = advect_scalar(q, u, g, dt, scheme)
        want = _gaussian(dims, 10.0 + dt * steps, 12.0, 3.0)
        errs[scheme] = np.sqrt(np.mean((q.values - want) ** 2))
        assert errs[scheme] < 0.05
    # the corrected scheme must beat the plain trace on a smooth profile
    assert errs["maccormack"] < errs["sl"]


def test_maccormack_creates_no_new_extrema():
    rng = np.random.default_rng(41)
    dims = GridDims(16, 16)
    g = OccupancyGrid.empty(dims)
    base = rng.normal(size=dims.shape)
    # smooth it slightly so the field is not pure noise
    q = ScalarGrid(dims, base + np.roll(base, 1, 0) + np.roll(base, 1, 1))
    u = MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))
    out = advect_scalar(q, u, g, 0.4, "maccormack")
    assert out.values.max() <= q.values.max() + 1e-12
    assert out.values.min() >= q.values.min() - 1e-12


def _naive_sl(q, u, g, dt):
    """Unclamped backtrace, for contrast with the boundary-aware one."""
    pos = cell_centers(g.dims).reshape(-1, 2)
    back = pos - dt * sample_velocity(u, pos)
    return sample_scalar(q, back).reshape(g.dims.shape)


def test_no_sampling_through_a_wall():
    # two chambers split by a wall two cells thick; the right chamber is
    # dyed, flow points left so backtraces aim across the wall
    dims = GridDims(12, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[:, 5:7] = True
    g = OccupancyGrid(dims, solid)
    vals = np.zeros(dims.shape)
    vals[:, 7:] = 1.0
    q = ScalarGrid(dims, vals)
    u = MacVelocity(dims, np.full(dims.shape_ux, -8.0), np.zeros(dims.shape_uy))

    leaked = _naive_sl(q, u, g, 0.5)
    assert leaked[:, :5].max() > 0.5  # the naive trace does cross

    for scheme in ("sl", "maccormack"):
        out = advect_scalar(q, u, g, 0.5, scheme)
        assert np.all(out.values[:, :5] == 0.0)


def test_trace_lands_in_fluid():
    rng = np.random.default_rng(42)
    for trial in range(5):
        nx, ny = 12, 10
        solid = rng.random((ny, nx)) < 0.25
        g = OccupancyGrid(GridDims(nx, ny), solid, open_top=bool(trial % 2))
        u = MacVelocity(g.dims, rng.normal(scale=6.0, size=g.dims.shape_ux),
                        rng.normal(scale=6.0, size=g.dims.shape_uy))
        cc = cell_centers(g.dims).reshape(-1, 2)
        starts = cc[g.fluid.ravel()]
        ends = trace_back(starts, u, g, 0.7)
        i = np.floor(ends[:, 0]).astype(int)
        j = np.floor(ends[:, 1]).astype(int)
        inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
        assert inside.all()
        assert np.all(~solid[j, i])


def test_trace_crossing_fraction_is_refined_by_bisection():
    # straight horizontal trace into a wall: the crossing parameter is known.
    # the wall is thicker than the coarse scan spacing so it cannot be missed
    dims = GridDims(16, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[:, 10:13] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, np.full(dims.shape_ux, -8.0), np.zeros(dims.shape_uy))
    start = np.array([[4.5, 3.5]])
    dt = 1.0  # would land at x = 12.5, wall face at x = 10.0
    end = trace_back(start, u, g, dt)
    t_star = (10.0 - 4.5) / 8.0
    t_got = (end[0, 0] - 4.5) / 8.0
    assert t_got <= t_star  # fluid side
    assert t_star - t_got <= 0.25 / 2**8 + 1e-9
    assert end[0, 1] == 3.5


def test_long_trace_does_not_tunnel_through_a_one_cell_wall():
    # a one-cell wall at x in [16, 17), flow of one cell per unit time: traces
    # of 6 and 7 cells step over the wall between probes a quarter trace apart
    dims = GridDims(32, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[:, 16] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, np.ones(dims.shape_ux), np.zeros(dims.shape_uy))
    vals = np.zeros(dims.shape)
    vals[:, :16] = 1.0
    for scheme in ("sl", "maccormack"):
        out = advect_scalar(ScalarGrid(dims, vals), u, g, 6.0, scheme)
        assert np.all(out.values[:, 17:] == 0.0), scheme

    end = trace_back(np.array([[20.5, 3.5]]), u, g, 7.0)
    assert 17.0 <= end[0, 0] < 20.5
    assert end[0, 1] == 3.5


def test_self_advect_uniform_flow_is_steady():
    dims = GridDims(10, 10, h=0.5)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity(dims, np.full(dims.shape_ux, 1.5), np.full(dims.shape_uy, -0.5))
    for scheme in ("sl", "maccormack"):
        out = self_advect(u, g, 0.25, scheme)
        np.testing.assert_allclose(out.ux, 1.5, atol=1e-12)
        np.testing.assert_allclose(out.uy, -0.5, atol=1e-12)


def test_solid_faces_keep_enforced_values():
    rng = np.random.default_rng(43)
    dims = GridDims(10, 10)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[4:6, 4:6] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))
    from macfluid.fdops import face_masks
    fm = face_masks(g)
    out = self_advect(u, g, 0.3, "maccormack")
    np.testing.assert_array_equal(out.ux[fm.solid_x], u.ux[fm.solid_x])
    np.testing.assert_array_equal(out.uy[fm.solid_y], u.uy[fm.solid_y])


def _fluid_at_points_reference(g, x, y):
    """Four compares and two clips: the lookup before the padded mask."""
    nx, ny = g.dims.nx, g.dims.ny
    i = np.floor(x / g.dims.h).astype(np.int64)
    j = np.floor(y / g.dims.h).astype(np.int64)
    inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    return inside & g.fluid[np.clip(j, 0, ny - 1), np.clip(i, 0, nx - 1)]


@pytest.mark.parametrize("open_top", [False, True])
def test_fluid_at_points_matches_bounds_checked_lookup(open_top):
    rng = np.random.default_rng(47)
    dims = GridDims(13, 9, h=0.7)
    g = OccupancyGrid(dims, rng.random(dims.shape) < 0.3, open_top)
    w, t = dims.nx * dims.h, dims.ny * dims.h
    near = rng.uniform(-2.0, 2.0, size=(4000, 2)) * (w, t) + (w / 2, t / 2)
    far = rng.choice([-1e6, 1e6], size=(200, 2)) * rng.random((200, 2))
    border = np.array([(x, y) for x in (0.0, w, -0.0, w / 2, np.nextafter(w, 0.0))
                       for y in (0.0, t, t / 2, np.nextafter(t, 0.0), t + 1e-9)])
    pts = np.concatenate([near, far, border, [(1e6, 1e6), (-1e6, -1e6)]])
    want = _fluid_at_points_reference(g, pts[:, 0], pts[:, 1])
    np.testing.assert_array_equal(_fluid_at(g, pts.T), want)
    # any stacking of the points looks up the same cells
    np.testing.assert_array_equal(_fluid_at(g, pts[:4200].T.reshape(2, 3, 1400)),
                                  want[:4200].reshape(3, 1400))
    assert want.any() and not want.all()


def _random_flow(seed, open_top, h=0.7, size=(11, 9)):
    rng = np.random.default_rng(seed)
    dims = GridDims(*size, h=h)
    g = OccupancyGrid(dims, rng.random(dims.shape) < 0.2, open_top)
    u = MacVelocity(dims, rng.normal(scale=4.0, size=dims.shape_ux),
                    rng.normal(scale=4.0, size=dims.shape_uy))
    return rng, g, u


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("dt", [0.3, -0.3])
@pytest.mark.parametrize("lattice", ["cells", "x_faces", "y_faces"])
def test_sl_lattice_equals_bilinear_at_trace_back_landings(lattice, dt, open_top):
    rng, g, u = _random_flow(48, open_top)
    dims, h = g.dims, g.dims.h
    shape, offx, offy = {"cells": (dims.shape, 0.5, 0.5),
                         "x_faces": (dims.shape_ux, 0.0, 0.5),
                         "y_faces": (dims.shape_uy, 0.5, 0.0)}[lattice]
    if lattice == "cells":
        values = rng.normal(size=shape)
        got = advect_scalar(ScalarGrid(dims, values), u, g, dt, "sl").values
        kept = g.solid
    else:
        component = "ux" if lattice == "x_faces" else "uy"
        values = getattr(u, component)
        got = getattr(self_advect(u, g, dt, "sl"), component)
        kept = getattr(g.faces, "solid_" + component[1])
    x, y = np.meshgrid((np.arange(shape[1]) + offx) * h, (np.arange(shape[0]) + offy) * h)
    pos = np.stack([x.ravel(), y.ravel()], axis=-1)
    land = trace_back(pos, u, g, dt)
    # some traces leave the fluid, so the clamp is exercised
    assert not np.array_equal(land, pos - dt * sample_velocity(u, pos))
    want = _bilinear(values, land[:, 0], land[:, 1], offx, offy, h).reshape(shape)
    want[kept] = values[kept]  # solid nodes keep their values
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [(11, 9), (32, 32)])
@pytest.mark.parametrize("dt", [0.3, -0.3, 2.0])
@pytest.mark.parametrize("h", [1.0, 0.7])
@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("scheme", ["sl", "maccormack"])
def test_advection_equals_the_per_lattice_oracle_bit_for_bit(monkeypatch, scheme, open_top,
                                                             h, dt, size):
    rng, g, u = _random_flow(54, open_top, h, size)
    q = ScalarGrid(g.dims, rng.normal(size=g.dims.shape))
    clamped = []
    clamp = advection._clamp

    def spy(g, x0, y0, dx, dy):
        out = clamp(g, x0, y0, dx, dy)
        clamped.append(np.count_nonzero((out[0] != x0 + dx) | (out[1] != y0 + dy)))
        return out

    monkeypatch.setattr(advection, "_clamp", spy)
    monkeypatch.setattr(oracles, "_clamp", spy)
    want = advect_fields(q, u, g, dt, scheme)
    assert sum(clamped) > 0
    rho, v = advect(q, u, g, dt, scheme)
    w = self_advect(u, g, dt, scheme)
    for got in ([rho.values, v.ux, v.uy], [advect_scalar(q, u, g, dt, scheme).values, w.ux, w.uy]):
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()  # raw bytes: -0.0 differs from 0.0


def test_maccormack_samples_values_twice_per_lattice(monkeypatch):
    _, g, u = _random_flow(49, False)
    q = ScalarGrid(g.dims, np.ones(g.dims.shape))
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("with_bounds", False))
        return _bilinear(*args, **kwargs)

    monkeypatch.setattr(advection, "_bilinear", counted)
    monkeypatch.setattr(grids, "_bilinear", counted)
    advect_scalar(q, u, g, 0.3, "maccormack")
    self_advect(u, g, 0.3, "maccormack")
    # per lattice: the forward value with its bounds, then the backward one;
    # node velocities come from the sampling plan
    assert calls == [True, False] * 3


def test_the_sampling_plan_is_built_once_per_grid_and_read_only(monkeypatch):
    built = []
    build = advection._sampling_plan

    def spy(g, lattices):
        built.append((g, lattices))
        return build(g, lattices)

    monkeypatch.setattr(advection, "_sampling_plan", spy)
    for seed in (55, 56):
        rng, g, u = _random_flow(seed, bool(seed % 2))
        q = ScalarGrid(g.dims, rng.normal(size=g.dims.shape))
        for _ in range(2):
            for scheme in ("sl", "maccormack"):
                advect_scalar(q, u, g, 0.3, scheme)
                self_advect(u, g, 0.3, scheme)
    # per grid: one plan for the cells, one for both face lattices
    assert len(built) == 4 and len(set(built)) == 4
    for g, lattices in built:
        plan = g.derived(spy, lattices)
        arrays = [plan.x, plan.y, plan.clear2, *plan.ux, *plan.uy]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            plan.x[0] = 0.0
        h = g.dims.h
        for (shape, offx, offy), span in zip(lattices, plan.spans):
            x, y = np.broadcast_arrays(*grids._lattice_xy(shape, offx, offy))
            np.testing.assert_array_equal(plan.x[span].reshape(shape), x * h)
            np.testing.assert_array_equal(plan.y[span].reshape(shape), y * h)
            clear2 = advection._clearance2(g, shape, offx, offy)
            np.testing.assert_array_equal(plan.clear2[0, span].reshape(shape), clear2)
            # the row of forward and sl traces skips the kept nodes
            kept = advection._kept_nodes(g, offx, offy)
            np.testing.assert_array_equal(plan.clear2[1, span].reshape(shape),
                                          np.where(kept, np.inf, clear2))
        # the kept weights sample node velocities as fresh ones would
        u = MacVelocity(g.dims, np.random.default_rng(57).normal(size=g.dims.shape_ux),
                        np.random.default_rng(58).normal(size=g.dims.shape_uy))
        np.testing.assert_array_equal(_bilinear_apply(u.ux, *plan.ux),
                                      _bilinear(u.ux, plan.x, plan.y, 0.0, 0.5, h))
        np.testing.assert_array_equal(_bilinear_apply(u.uy, *plan.uy),
                                      _bilinear(u.uy, plan.x, plan.y, 0.5, 0.0, h))


def test_trace_work_arrays_are_shared_by_shape_and_never_returned():
    advection._trace_work.cache_clear()
    flows = [_random_flow(seed, False, size=(12, 10)) for seed in (60, 61)]
    dims = flows[0][1].dims
    n_faces = dims.nx * (dims.ny + 1) + dims.ny * (dims.nx + 1)
    for scheme, steps in (("sl", 1), ("maccormack", 2)):
        for rng, g, u in flows:
            q = ScalarGrid(g.dims, rng.normal(size=g.dims.shape))

            def advect():
                v = self_advect(u, g, 0.3, scheme)
                return [advect_scalar(q, u, g, 0.3, scheme).values, v.ux, v.uy]

            misses = advection._trace_work.cache_info().misses
            fields = advect()
            # one set of work arrays per trace shape, shared by grids of one size
            new = advection._trace_work.cache_info().misses - misses
            assert new == (2 if g is flows[0][1] else 0)
            work = [w for n in (dims.n_cells, n_faces) for w in advection._trace_work((steps, n))]
            assert not any(np.shares_memory(f, w) for f in fields for w in work)
            # writing into a returned field does not change the next call
            want = [f.tobytes() for f in fields]
            for f in fields:
                f[...] = np.nan
            assert [f.tobytes() for f in advect()] == want
            for lattices in (((dims.shape, 0.5, 0.5),),
                             ((dims.shape_ux, 0.0, 0.5), (dims.shape_uy, 0.5, 0.0))):
                plan = g.derived(advection._sampling_plan, lattices)
                assert not any(a.flags.writeable for a in
                               [plan.x, plan.y, plan.clear2, *plan.ux, *plan.uy])


# sha256 of (ux, uy, density) after 12 plume frames, MacCormack unless the
# scene is marked _sl: a speed-up of advection must leave these bytes as they
# are; the open-top box runs at dt 0.5 so that some traces clamp
_DISC64 = (64, dict(obstacle="disc"))
_BOX32_OPEN_TOP = (32, dict(obstacle="box", open_top=True, inflow_speed=4.0, buoyancy=2.0,
                            dt=0.5))
_GOLDEN_PLUMES = {
    "disc64_jacobi": (
        _DISC64, "23c3803470bbe3e50501c212ff47099586ce98a7ce4151d7f5b55686eedc8fb8"),
    "box32_open_top": (
        _BOX32_OPEN_TOP, "d5a5c1b7224c01d41ac1d7ece5fb91d763c229d2875ea1f1542eccdc460ac668"),
    "disc64_jacobi_sl": (
        _DISC64, "4ae76d58f26c210c645b7aeabaa9e4ec02ace1fccd7c1304b042085c4a421379"),
    "box32_open_top_sl": (
        _BOX32_OPEN_TOP, "dd7566a2c2674a57c2843905e515e151f8cc6b2e850ee857719e44e6dc190ed2"),
}


@pytest.mark.parametrize("scene", sorted(_GOLDEN_PLUMES))
def test_plume_bytes_match_the_golden_digest(scene):
    (n, kwargs), want = _GOLDEN_PLUMES[scene]
    scheme = "sl" if scene.endswith("_sl") else "maccormack"
    state, cfg = sim.plume_scenario(GridDims(n, n), projection=sim.JacobiProjection(34),
                                    advection=scheme, **kwargs)
    for _ in range(12):
        state = sim.step(state, cfg)
    digest = hashlib.sha256()
    for arr in (state.u.ux, state.u.uy, state.density.values):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == want


# sha256 of (ux, uy, density) of datagen scenes 0-3 at 32x32, each after 8
# Jacobi(34) frames with its emitters applied: random obstacles make more
# traces clamp than the plumes above do
_GOLDEN_DATAGEN = {
    "closed": "4a78cf70593adc4f5e9a825d7f88246b39c64007e2777c929c543f180ec7cda3",
    "open-top": "0cc8ad863dab2c292b7867716b016673d9f921de7938157f39c2c38769bc74e1",
}


@pytest.mark.parametrize("boundary", sorted(_GOLDEN_DATAGEN))
def test_datagen_bytes_match_the_golden_digest(boundary):
    cfg = sim.SimConfig(projection=sim.JacobiProjection(34))
    digest = hashlib.sha256()
    for seed in range(4):
        state, emitters = build_scene(SceneConfig(seed=seed, boundary=boundary))
        for _ in range(8):
            u = apply_emitters(state.u, state.g, emitters, state.frame)
            state = sim.step(replace(state, u=u), cfg)
        for arr in (state.u.ux, state.u.uy, state.density.values):
            digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == _GOLDEN_DATAGEN[boundary]


@pytest.mark.parametrize("boundary", ["closed", "open-top"])
@pytest.mark.parametrize("scheme", ["sl", "maccormack"])
def test_advect_equals_the_two_call_oracle_on_datagen_scenes(scheme, boundary):
    cfg = sim.SimConfig(advection=scheme, projection=sim.PcgProjection(1e-6))
    for seed in range(4):
        state, emitters = build_scene(SceneConfig(seed=seed, boundary=boundary))
        for _ in range(8):
            state = replace(state, u=apply_emitters(state.u, state.g, emitters, state.frame))
            want = advect_fields(state.density, state.u, state.g, cfg.dt, scheme)
            rho, u = advect(state.density, state.u, state.g, cfg.dt, scheme)
            for a, b in zip([rho.values, u.ux, u.uy], want):
                assert a.tobytes() == b.tobytes()
            state = sim.step(state, cfg)


def _clearance_scene(geometry, open_top, h):
    dims = GridDims(64, 64, h=h)
    if geometry == "disc":
        solid = grids.disc_mask(dims, (30.0, 34.0), 9.0)
    elif geometry == "box":
        solid = grids.box_mask(dims, (34.0, 28.0), (8.0, 5.0), angle=0.4)
    elif geometry == "capsule":
        solid = grids.capsule_mask(dims, (20.0, 20.0), (44.0, 40.0), 3.5)
    else:
        solid = np.random.default_rng(50).random(dims.shape) < 0.01
    return OccupancyGrid(dims, solid, open_top)


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("geometry, h", [("disc", 1.0), ("box", 0.37), ("capsule", 2.5),
                                         ("random", 1.0)])
def test_clearance_skip_lands_where_the_full_scan_does(geometry, h, open_top):
    rng = np.random.default_rng(51)
    g = _clearance_scene(geometry, open_top, h)
    steps = np.array([1.0, -1.0])  # both rows: one sample, opposite signs
    for shape, offx, offy in ((g.dims.shape, 0.5, 0.5), (g.dims.shape_ux, 0.0, 0.5),
                              (g.dims.shape_uy, 0.5, 0.0)):
        x, y = (a.ravel() for a in np.broadcast_arrays(*grids._lattice_xy(shape, offx, offy)))
        x, y = x * h, y * h
        clear2 = g.derived(advection._clearance2, shape, offx, offy).ravel()
        clamped = 0
        for cfl in (0.05, 0.7, 3.0, 20.0):
            d = rng.normal(size=(2, x.size))
            d *= cfl * h / np.abs(d).max()
            if cfl == 0.05:
                assert (d[0] * d[0] + d[1] * d[1] < clear2).mean() >= 0.8
                # these fail the comparison and take the scan
                at = np.argmax(clear2)
                d[0, at], d[1, at + 1] = np.nan, np.inf
            with np.errstate(invalid="ignore"):
                got = advection._trace(g, x, y, d[0], d[1], steps, np.stack([clear2] * 2))
                for row, s in enumerate(steps):
                    want = advection._clamp(g, x, y, s * d[0], s * d[1])
                    np.testing.assert_array_equal(got[0][row], want[0])
                    np.testing.assert_array_equal(got[1][row], want[1])
                    clamped += np.count_nonzero((want[0] != x + s * d[0])
                                                | (want[1] != y + s * d[1]))
                # a row whose clearance is +inf lands unscanned, unless its
                # displacement is not finite
                skip = rng.random(x.size) < 0.5
                rows = np.stack([clear2, np.where(skip, np.inf, clear2)])
                got = advection._trace(g, x, y, d[0], d[1], steps, rows)
                want = advection._clamp(g, x, y, -d[0], -d[1])
                free = skip & np.isfinite(d[0] * d[0] + d[1] * d[1])
                want[0][free], want[1][free] = x[free] - d[0][free], y[free] - d[1][free]
                np.testing.assert_array_equal(got[0][1], want[0])
                np.testing.assert_array_equal(got[1][1], want[1])
        # traces within 1e-9 of each node's clearance, along both axes both ways
        for eps in (-1e-9, 0.0, 1e-9):
            length = np.sqrt(clear2) + eps
            for ux, uy in ((1.0, 0.0), (0.0, 1.0)):
                got = advection._trace(g, x, y, ux * length, uy * length, steps,
                                       np.stack([clear2] * 2))
                for row, s in enumerate(steps):
                    want = advection._clamp(g, x, y, s * ux * length, s * uy * length)
                    np.testing.assert_array_equal(got[0][row], want[0])
                    np.testing.assert_array_equal(got[1][row], want[1])
        assert clamped > 0


def _clamp_cases(rng, g):
    """Traces from random start points: short and long (k > 4, several probe
    blocks), with NaN and +-inf displacements among them."""
    w, t = g.dims.nx * g.dims.h, g.dims.ny * g.dims.h
    n = 3000
    x0, y0 = rng.uniform(-0.1 * w, 1.1 * w, n), rng.uniform(-0.1 * t, 1.1 * t, n)
    length = g.dims.h * rng.choice([0.1, 1.0, 3.0, 12.0, 60.0], n) * rng.random(n)
    angle = rng.uniform(0.0, 2 * np.pi, n)
    dx, dy = length * np.cos(angle), length * np.sin(angle)
    dx[:40:4], dy[1:40:4], dx[2:40:4], dy[3:40:4] = np.nan, np.inf, -np.inf, np.nan
    dy[2:40:8] = 0.0
    return x0, y0, dx, dy


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("geometry, h", [("disc", 1.0), ("box", 0.37), ("random", 2.5)])
def test_clamp_is_the_per_probe_oracle_bit_for_bit(monkeypatch, geometry, h, open_top):
    rng = np.random.default_rng(55)
    g = _clearance_scene(geometry, open_top, h)
    rows = []
    lookup = advection._fluid_at

    def spy(g, p):
        rows.append(p.shape[1] if p.ndim == 3 else 0)
        return lookup(g, p)

    monkeypatch.setattr(advection, "_fluid_at", spy)
    x0, y0, dx, dy = _clamp_cases(rng, g)
    # one inf trace among 10k finite ones scans every probe up to the reach
    many = rng.normal(scale=0.3 * h, size=(2, 10_000))
    many[0, 1234] = np.inf
    cx, cy = rng.uniform(0.0, 64 * h, size=(2, 10_000))
    cases = [(x0, y0, dx, dy), (cx, cy, many[0], many[1]),
             (np.float64(20.5 * h), np.float64(30.5 * h), dx, dy)]  # start points broadcast
    with np.errstate(invalid="ignore"):
        for case in cases:
            got, want = advection._clamp(g, *case), oracles._clamp(g, *case)
            for a, b in zip(got, want):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
    # several probe blocks, none of more than _MIN_PROBES rows
    assert max(rows) == advection._MIN_PROBES
    assert rows.count(advection._MIN_PROBES) > 3 * len(cases)
    moved = (want[0] != cases[-1][0] + dx) | (want[1] != cases[-1][1] + dy)
    assert moved.any() and not moved.all()


def _clearance_reference(g, shape, offx, offy):
    """Squared clearance from every node to every non-fluid padded cell square."""
    pj, pi = np.nonzero(~g.fluid_padded)
    x, y = grids._lattice_xy(shape, offx, offy)
    x, y = np.broadcast_arrays(x, y)
    x, y = x[..., None], y[..., None]
    # padded cell (pj, pi) is the square [pi - 1, pi] x [pj - 1, pj] in cells
    gap_x = np.maximum(np.maximum(pi - 1 - x, x - pi), 0.0)
    gap_y = np.maximum(np.maximum(pj - 1 - y, y - pj), 0.0)
    d = np.hypot(gap_x, gap_y).min(axis=-1)
    return (np.maximum(d - advection._CLEARANCE_MARGIN, 0.0) * g.dims.h) ** 2


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("h", [0.37, 1.0, 2.5])
def test_clearance_is_the_distance_to_the_nearest_non_fluid_square(h, open_top):
    dims = GridDims(13, 9, h=h)
    solid = np.random.default_rng(52).random(dims.shape) < 0.1
    g = OccupancyGrid(dims, solid, open_top)
    for shape, offx, offy in ((dims.shape, 0.5, 0.5), (dims.shape_ux, 0.0, 0.5),
                              (dims.shape_uy, 0.5, 0.0)):
        got = g.derived(advection._clearance2, shape, offx, offy)
        np.testing.assert_allclose(got, _clearance_reference(g, shape, offx, offy),
                                   rtol=1e-12, atol=0.0)
    # a cell center beside a wall is half a cell clear of it
    got = g.derived(advection._clearance2, dims.shape, 0.5, 0.5)
    assert np.sqrt(got[0, 1]) == pytest.approx((0.5 - advection._CLEARANCE_MARGIN) * h)


def _spy_clamp(monkeypatch):
    """Record the displacements of every trace that reaches ``_clamp``."""
    seen = []
    clamp = advection._clamp

    def spy(g, x0, y0, dx, dy):
        seen.append((dx.copy(), dy.copy()))
        return clamp(g, x0, y0, dx, dy)

    monkeypatch.setattr(advection, "_clamp", spy)
    monkeypatch.setattr(oracles, "_clamp", spy)
    return seen


@pytest.mark.parametrize("open_top", [False, True])
def test_still_nodes_are_not_scanned(monkeypatch, open_top):
    _, g, u = _random_flow(53, open_top)
    # still on the right half, border faces included
    u.ux[:, 5:] = 0.0
    u.uy[:, 5:] = 0.0
    q = ScalarGrid(g.dims, np.ones(g.dims.shape))
    seen = _spy_clamp(monkeypatch)
    for _ in range(2):  # the second pass reuses the grid's clearances
        for scheme in ("sl", "maccormack"):
            advect_scalar(q, u, g, 0.3, scheme)
            self_advect(u, g, 0.3, scheme)
    assert seen
    for dx, dy in seen:
        assert np.all((dx != 0.0) | (dy != 0.0))


def test_maccormack_scans_once_per_frame(monkeypatch):
    _, g, u = _random_flow(49, False)
    q = ScalarGrid(g.dims, np.ones(g.dims.shape))
    seen = _spy_clamp(monkeypatch)
    advect_fields(q, u, g, 0.3, "maccormack")
    assert len(seen) == 3  # the oracle scans each lattice on its own
    per_lattice = sum(dx.size for dx, _ in seen)
    # the oracle's scanned forward traces from solid cells and faces, whose
    # landing points are thrown away
    h, fm, wasted = g.dims.h, g.faces, 0
    for shape, offx, offy, kept in ((g.dims.shape, 0.5, 0.5, g.solid),
                                    (g.dims.shape_ux, 0.0, 0.5, fm.solid_x),
                                    (g.dims.shape_uy, 0.5, 0.0, fm.solid_y)):
        x, y = grids._lattice_xy(shape, offx, offy)
        dx = 0.3 * _bilinear(u.ux, x * h, y * h, 0.0, 0.5, h)
        dy = 0.3 * _bilinear(u.uy, x * h, y * h, 0.5, 0.0, h)
        far = ~(dx * dx + dy * dy < advection._clearance2(g, shape, offx, offy))
        wasted += np.count_nonzero(far & ((dx != 0.0) | (dy != 0.0)) & kept)
    del seen[:]
    advect(q, u, g, 0.3, "maccormack")
    # strong flow among solid cells: the one scan of a frame takes every
    # lattice's traces but those
    assert len(seen) == 1
    assert wasted > 0
    assert seen[0][0].size == per_lattice - wasted


@pytest.mark.parametrize("n, scanned", [(32, 160), (128, 640)])
def test_settled_disc_plume_scans_no_forward_trace_of_a_solid_face(monkeypatch, n, scanned):
    state, cfg = sim.plume_scenario(GridDims(n, n), obstacle="disc",
                                    projection=sim.JacobiProjection(34))
    for _ in range(24):
        state = sim.step(state, cfg)
    seen = _spy_clamp(monkeypatch)
    want = advect_fields(state.density, state.u, state.g, cfg.dt, cfg.advection)
    # the oracle scans both traces of a node, the one pass only the backward
    # trace of a solid face: every node scanned is a solid face
    assert sum(dx.size for dx, _ in seen) == 2 * scanned
    del seen[:]
    rho, u = advect(state.density, state.u, state.g, cfg.dt, cfg.advection)
    assert [dx.size for dx, _ in seen] == [scanned]
    for a, b in zip([rho.values, u.ux, u.uy], want):
        assert a.tobytes() == b.tobytes()
