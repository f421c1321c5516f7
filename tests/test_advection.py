import numpy as np
import pytest

from macfluid import advection, grids
from macfluid.advection import (_advect_lattice, _fluid_at_points, advect_scalar,
                                self_advect, trace_back)
from macfluid.grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _bilinear,
                            sample_velocity)


def _gaussian(dims, cx, cy, sigma):
    cc = dims.cell_centers()
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
    from macfluid.grids import sample_scalar, sample_velocity
    pos = g.dims.cell_centers().reshape(-1, 2)
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
        cc = g.dims.cell_centers().reshape(-1, 2)
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
    got = _fluid_at_points(g, pts[:, 0], pts[:, 1])
    want = _fluid_at_points_reference(g, pts[:, 0], pts[:, 1])
    np.testing.assert_array_equal(got, want)
    assert want.any() and not want.all()


def _random_flow(seed, open_top, h=0.7):
    rng = np.random.default_rng(seed)
    dims = GridDims(11, 9, h=h)
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
    values = rng.normal(size=shape)
    x, y = np.meshgrid((np.arange(shape[1]) + offx) * h, (np.arange(shape[0]) + offy) * h)
    pos = np.stack([x.ravel(), y.ravel()], axis=-1)
    land = trace_back(pos, u, g, dt)
    # some traces leave the fluid, so the clamp is exercised
    assert not np.array_equal(land, pos - dt * sample_velocity(u, pos))
    want = _bilinear(values, land[:, 0], land[:, 1], offx, offy, h).reshape(shape)
    got = _advect_lattice(values, offx, offy, u, g, dt, "sl")
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)


def test_maccormack_samples_velocity_once_per_lattice(monkeypatch):
    _, g, u = _random_flow(49, False)
    q = ScalarGrid(g.dims, np.ones(g.dims.shape))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _bilinear(*args, **kwargs)

    monkeypatch.setattr(advection, "_bilinear", counted)
    monkeypatch.setattr(grids, "_bilinear", counted)
    advect_scalar(q, u, g, 0.3, "maccormack")
    self_advect(u, g, 0.3, "maccormack")
    # per lattice: two velocity components, the forward and the backward value
    assert len(calls) == 3 * 4
