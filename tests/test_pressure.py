import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import macfluid.pressure as pr
from macfluid.fdops import PoissonSystem, cell_stencil, divergence
from macfluid.forces import enforce_solid_velocities
from macfluid.grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid,
                            connected_components, disc_mask)
from macfluid.pressure import (
    _remove_closed_means,
    make_compatible,
    solve_dense_direct,
    solve_jacobi,
    solve_pcg,
)
from macfluid.datagen import GeometryConfig, SceneConfig, build_scene, random_geometry
from macfluid.sim import ExactProjection, JacobiProjection, plume_scenario, step
from oracles import (apply_poisson, build_hierarchy_three_products, pcg_matrix_coo,
                     residual_norm, solve_dense_lstsq, solve_jacobi_gather, solve_pcg_matmul,
                     vcycle_matmul)


def random_system(rng, nx=8, ny=8, p_solid=0.2, open_top=False, compatible=True):
    solid = rng.random((ny, nx)) < p_solid
    g = OccupancyGrid(GridDims(nx, ny), solid, open_top)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    sys = PoissonSystem(g, b)
    return make_compatible(sys) if compatible else sys


# ====== make_compatible ======

def test_make_compatible_removes_component_means():
    rng = np.random.default_rng(60)
    sys = random_system(rng, compatible=False)
    out = make_compatible(sys)
    labels, count = connected_components(sys.g)
    for c in range(count):
        m = labels == c
        assert abs(out.b.values[m].mean()) < 1e-13


def test_make_compatible_is_idempotent():
    rng = np.random.default_rng(61)
    sys = make_compatible(random_system(rng, compatible=False))
    again = make_compatible(sys)
    np.testing.assert_allclose(again.b.values, sys.b.values, atol=1e-14)


def test_make_compatible_leaves_open_components_alone():
    rng = np.random.default_rng(62)
    # vertical wall splits the domain; only the right half reaches the top
    solid = np.zeros((6, 8), dtype=bool)
    solid[:, 3] = True
    solid[-1, :3] = True  # cap the left half so it stays closed
    g = OccupancyGrid(GridDims(8, 6), solid, open_top=True)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    out = make_compatible(PoissonSystem(g, b))
    left = np.zeros(g.dims.shape, dtype=bool)
    left[:, :3] = True
    right = np.zeros(g.dims.shape, dtype=bool)
    right[:, 4:] = True
    np.testing.assert_array_equal(out.b.values[right & g.fluid], b.values[right & g.fluid])
    assert abs(out.b.values[left & g.fluid].mean()) < 1e-13


def test_make_compatible_zeroes_isolated_cells():
    solid = np.ones((5, 5), dtype=bool)
    solid[2, 2] = False  # one fluid cell walled in on every side
    g = OccupancyGrid(GridDims(5, 5), solid)
    b = ScalarGrid.zeros(g.dims)
    b.values[2, 2] = 3.0
    out = make_compatible(PoissonSystem(g, b))
    assert out.b.values[2, 2] == 0.0


# ====== Jacobi ======

def test_jacobi_zero_iters_returns_zeros():
    rng = np.random.default_rng(63)
    sys = random_system(rng)
    p = solve_jacobi(sys, iters=0)
    assert np.all(p.values == 0.0)


def test_jacobi_rejects_negative_iters():
    rng = np.random.default_rng(64)
    with pytest.raises(ValueError):
        solve_jacobi(random_system(rng), iters=-1)


def test_jacobi_errors_on_isolated_cell_with_rhs():
    solid = np.ones((5, 5), dtype=bool)
    solid[2, 2] = False
    g = OccupancyGrid(GridDims(5, 5), solid)
    b = ScalarGrid.zeros(g.dims)
    b.values[2, 2] = 1.0
    with pytest.raises(ValueError):
        solve_jacobi(PoissonSystem(g, b), 10)


def test_jacobi_residual_is_monotone():
    rng = np.random.default_rng(65)
    for open_top in (False, True):
        sys = random_system(rng, p_solid=0.25, open_top=open_top)
        prev = None
        for k in range(1, 40):
            r = residual_norm(sys, solve_jacobi(sys, k))
            if prev is not None:
                assert r <= prev * (1 + 1e-12) + 1e-15
            prev = r


def _ventilated_system(rng, nx, ny, p_solid, open_top):
    """Random solids kept away from the top rows so any open component has
    broad air contact; a starved one-cell leak makes the system as stiff
    as a closed one and no finite sweep budget is fair to it."""
    solid = rng.random((ny, nx)) < p_solid
    solid[-2:, :] = False
    g = OccupancyGrid(GridDims(nx, ny), solid, open_top)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    return make_compatible(PoissonSystem(g, b))


def test_jacobi_converges_to_dense_solution():
    rng = np.random.default_rng(66)
    for open_top in (False, True):
        sys = _ventilated_system(rng, 6, 6, 0.2, open_top)
        ref = solve_dense_direct(sys)
        got = solve_jacobi(sys, iters=4000)
        np.testing.assert_allclose(got.values, ref.values, atol=1e-7)


def _reference_jacobi(sys, iters):
    """The documented sweep on the padded grid, one full-grid pass each."""
    g = sys.g
    st = cell_stencil(g)
    hb = g.dims.h ** 2 * sys.b.values
    p = np.zeros(g.dims.shape)
    for _ in range(iters):
        pp = np.pad(p, 1)
        nbr = (np.where(st.fluid_w, pp[1:-1, :-2], 0.0)
               + np.where(st.fluid_e, pp[1:-1, 2:], 0.0)
               + np.where(st.fluid_s, pp[:-2, 1:-1], 0.0)
               + np.where(st.fluid_n, pp[2:, 1:-1], 0.0))
        p = np.where(g.fluid, 0.25 * (hb + nbr + st.solid_count * p), 0.0)
    return _remove_closed_means(p, g)


def test_jacobi_matches_reference_sweep_bit_for_bit():
    rng = np.random.default_rng(67)
    for open_top in (False, True):
        for nx, ny, h, p_solid in ((8, 8, 1.0, 0.2), (13, 9, 0.37, 0.35),
                                   (16, 11, 2.5, 0.1)):
            solid = rng.random((ny, nx)) < p_solid
            # one fluid cell walled in on all four sides, right hand side -0.0
            solid[1:4, 1:4] = True
            solid[2, 2] = False
            g = OccupancyGrid(GridDims(nx, ny, h), solid, open_top)
            b = rng.normal(size=g.dims.shape) * g.fluid
            b[2, 2] = -0.0
            sys = make_compatible(PoissonSystem(g, ScalarGrid(g.dims, b)))
            for iters in (0, 1, 300):
                got = solve_jacobi(sys, iters).values
                assert got.tobytes() == _reference_jacobi(sys, iters).tobytes(), \
                    (open_top, nx, ny, iters)


def _assert_same_bytes(got, want, case):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), case
    assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("nx, ny, h, p_solid", [
    (8, 8, 1.0, 0.2), (13, 9, 0.37, 0.35), (16, 11, 2.5, 0.1), (4, 7, 1.0, 0.2),
    (9, 4, 0.37, 0.3), (40, 4, 2.5, 0.25), (4, 40, 1.0, 0.25)])
def test_jacobi_matches_the_gather_oracle_bit_for_bit(nx, ny, h, p_solid, open_top):
    # the non-square grids catch a wrong row stride of the padded iterate
    rng = np.random.default_rng(1000 + 17 * nx + ny)
    for _ in range(3):
        solid = rng.random((ny, nx)) < p_solid
        # one fluid cell walled in on all four sides, right hand side -0.0
        solid[:3, :3] = True
        solid[1, 1] = False
        g = OccupancyGrid(GridDims(nx, ny, h), solid, open_top)
        b = rng.normal(size=g.dims.shape) * g.fluid
        b[1, 1] = -0.0
        sys = make_compatible(PoissonSystem(g, ScalarGrid(g.dims, b)))
        for iters in (0, 1, 34, 300):
            _assert_same_bytes(solve_jacobi(sys, iters).values,
                               solve_jacobi_gather(sys, iters).values, (iters, solid))


def test_jacobi_never_reads_the_right_hand_side_of_a_solid_cell():
    # non-finite values there would raise RuntimeWarnings, which fail the test
    rng = np.random.default_rng(1001)
    sys = random_system(rng, nx=13, ny=9, p_solid=0.3)
    b = sys.b.values.copy()
    b[sys.g.solid] = rng.choice([np.inf, -np.inf, np.nan], size=np.count_nonzero(sys.g.solid))
    bad = PoissonSystem(sys.g, ScalarGrid(sys.dims, b))
    _assert_same_bytes(solve_jacobi(bad, 34).values, solve_jacobi(sys, 34).values, "solid b")


@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("res", [32, 64, 128])
def test_jacobi_matches_the_gather_oracle_on_the_settled_plume(res, open_top):
    state, cfg = plume_scenario(GridDims(res, res), obstacle="disc", open_top=open_top,
                                projection=JacobiProjection(34))
    for _ in range(8):
        state = step(state, cfg)
    d = divergence(state.u, state.g)
    sys = make_compatible(PoissonSystem(state.g, ScalarGrid(state.g.dims, -d.values)))
    for iters in (1, 34):
        _assert_same_bytes(solve_jacobi(sys, iters).values,
                           solve_jacobi_gather(sys, iters).values, iters)


# ====== Dense direct ======

def test_dense_recovers_constructed_solution():
    rng = np.random.default_rng(67)
    for open_top in (False, True):
        solid = rng.random((8, 9)) < 0.2
        g = OccupancyGrid(GridDims(9, 8), solid, open_top)
        # manufacture a solvable system from a known zero-mean pressure
        p0 = _remove_closed_means(rng.normal(size=g.dims.shape) * g.fluid, g)
        b = apply_poisson(g, ScalarGrid(g.dims, p0))
        got = solve_dense_direct(PoissonSystem(g, b))
        np.testing.assert_allclose(got.values, p0, atol=1e-9)


def test_direct_solves_a_70x70_box():
    # 4900 fluid cells, past the 4096 the dense route took
    rng = np.random.default_rng(1101)
    g = OccupancyGrid.empty(GridDims(70, 70))
    sys = make_compatible(PoissonSystem(g, ScalarGrid(g.dims, rng.normal(size=g.dims.shape))))
    p = solve_dense_direct(sys)
    assert residual_norm(sys, p) <= 1e-10 * np.linalg.norm(sys.b.values)


def _pocketed_solid(rng, nx, ny):
    """Random solids plus a walled-in cell, a closed two-cell pocket and a
    top-row cell walled in below and on both sides."""
    solid = rng.random((ny, nx)) < 0.2
    solid[1:4, 1:4] = True
    solid[2, 2] = False  # walled in
    solid[ny - 4:ny - 1, nx - 5:nx - 1] = True
    solid[ny - 3, nx - 4:nx - 2] = False  # a closed pocket of two cells
    solid[-1, nx // 2 - 1:nx // 2 + 2] = True
    solid[-2, nx // 2] = True
    solid[-1, nx // 2] = False  # walled in on a closed top, open to the air above an open one
    return solid


@pytest.mark.parametrize("open_top", [False, True])
def test_direct_matches_the_dense_lstsq_oracle(open_top):
    # criterion 1's geometry, plus cells and pockets walled in on every side
    geometry = GeometryConfig(count_range=(1, 3), size_range=(0.15, 0.4))
    rng = np.random.default_rng(1102)
    for trial in range(40):
        nx, ny = (int(k) for k in rng.integers(8, 17, size=2))
        dims = GridDims(nx, ny, 1.0 if trial % 2 else 0.37)
        if trial % 4 < 2:
            solid = random_geometry(dims, rng, pool="oracle", cfg=geometry).solid
        else:
            solid = _pocketed_solid(rng, nx, ny)
        g = OccupancyGrid(dims, solid, open_top)
        b = ScalarGrid(dims, rng.standard_normal(dims.shape) * g.fluid)
        sys = make_compatible(PoissonSystem(g, b))
        got = solve_dense_direct(sys).values
        want = solve_dense_lstsq(sys).values
        assert np.abs(got - want).max() <= 1e-10, trial
        assert np.all(got[g.solid] == 0.0)
        assert residual_norm(sys, ScalarGrid(dims, got)) <= 1e-10 * max(
            np.linalg.norm(sys.b.values), 1.0)


def test_direct_factor_is_built_once_per_grid_and_only_by_direct_solves():
    rng = np.random.default_rng(1103)
    sys = random_system(rng, nx=12, ny=10, p_solid=0.2)
    solve_jacobi(sys, 34)
    solve_pcg(sys, tol=1e-6)
    assert (pr._direct_factor,) not in vars(sys.g)["_derived"]
    first = solve_dense_direct(sys)
    lu = vars(sys.g)["_derived"][(pr._direct_factor,)]
    b = ScalarGrid(sys.dims, rng.normal(size=sys.dims.shape) * sys.g.fluid)
    second = solve_dense_direct(make_compatible(PoissonSystem(sys.g, b)))
    assert vars(sys.g)["_derived"][(pr._direct_factor,)] is lu
    assert not np.array_equal(first.values, second.values)


def test_exact_projection_of_the_settled_128_plume_is_divergence_free():
    state, cfg = plume_scenario(GridDims(128, 128), obstacle="disc",
                                projection=JacobiProjection(34))
    for _ in range(8):
        state = step(state, cfg)
    state = step(state, dataclasses.replace(cfg, projection=ExactProjection()))
    assert np.abs(divergence(state.u, state.g).values).max() <= 1e-8


def test_dense_residual_is_tiny_on_compatible_systems():
    rng = np.random.default_rng(68)
    sys = random_system(rng, nx=10, ny=7, p_solid=0.3)
    p = solve_dense_direct(sys)
    bnorm = np.linalg.norm(sys.b.values)
    assert residual_norm(sys, p) <= 1e-10 * max(bnorm, 1.0)


# ====== PCG ======

def test_pcg_zero_rhs_returns_immediately():
    g = OccupancyGrid.empty(GridDims(8, 8))
    p, info = solve_pcg(PoissonSystem(g, ScalarGrid.zeros(g.dims)))
    assert np.all(p.values == 0.0)
    assert info.iterations == 0
    assert info.converged


def test_pcg_matches_dense_solution():
    rng = np.random.default_rng(69)
    for open_top in (False, True):
        sys = random_system(rng, nx=12, ny=10, p_solid=0.25, open_top=open_top)
        ref = solve_dense_direct(sys)
        got, info = solve_pcg(sys, tol=1e-10)
        assert info.converged
        assert info.preconditioner == "multigrid"
        np.testing.assert_allclose(got.values, ref.values, atol=1e-7)


def test_pcg_meets_requested_tolerance():
    rng = np.random.default_rng(70)
    for tol in (1e-4, 1e-8):
        sys = random_system(rng, nx=16, ny=16, p_solid=0.2)
        p, info = solve_pcg(sys, tol=tol)
        assert info.converged
        bnorm = np.linalg.norm(sys.b.values[sys.g.fluid])
        assert residual_norm(sys, p) <= tol * bnorm * (1 + 1e-12)


def test_pcg_is_deterministic():
    rng = np.random.default_rng(71)
    sys = random_system(rng, nx=16, ny=12, p_solid=0.25)
    p1, i1 = solve_pcg(sys, tol=1e-8)
    p2, i2 = solve_pcg(sys, tol=1e-8)
    assert np.array_equal(p1.values, p2.values)
    assert i1.iterations == i2.iterations
    assert i1.relres == i2.relres


def _same_geometry(sys):
    """sys on a fresh grid with the same geometry, which has no lattice yet."""
    g = sys.g
    return PoissonSystem(OccupancyGrid(g.dims, g.solid, g.open_top), sys.b)


def test_pcg_beats_unpreconditioned_iteration_counts(monkeypatch):
    # the V-cycle should cut the iteration count well below the diagonal
    # route; the diagonal solve runs on a fresh grid, since sys.g keeps its set-up
    rng = np.random.default_rng(72)
    sys = random_system(rng, nx=32, ny=32, p_solid=0.1)
    _, with_mg = solve_pcg(sys, tol=1e-8)
    with monkeypatch.context() as m:
        m.setattr(pr, "_build_hierarchy",
                  lambda g: lambda r: r / g.derived(pr._pcg_matrix)[0].diagonal())
        _, without = solve_pcg(_same_geometry(sys), tol=1e-8)
    assert with_mg.converged and without.converged
    assert with_mg.iterations < without.iterations


SETUP = ("_active_cells", "_jacobi_layout", "_pcg_matrix", "_build_hierarchy")


def _count_setup_calls(monkeypatch):
    """Counts, in SETUP's order, of the calls to each per-grid builder."""
    calls = dict.fromkeys(SETUP, 0)
    for name in calls:
        def counted(g, _name=name, _original=getattr(pr, name)):
            calls[_name] += 1
            return _original(g)
        monkeypatch.setattr(pr, name, counted)
    return lambda: tuple(calls.values())


def _kept(g):
    """What ``g`` keeps through ``derived``, by builder."""
    return {key[0]: value for key, value in vars(g).get("_derived", {}).items()}


def _kept_values(g):
    """Every object ``g`` keeps through ``derived``, tuples unpacked."""
    return [v for value in _kept(g).values()
            for v in (value if isinstance(value, tuple) else (value,))]


@pytest.mark.parametrize("open_top", [False, True])
def test_pcg_setup_is_built_once_per_grid(monkeypatch, open_top):
    calls = _count_setup_calls(monkeypatch)
    rng = np.random.default_rng(73)
    sys = random_system(rng, nx=16, ny=12, p_solid=0.2, open_top=open_top)
    solve_pcg(sys, tol=1e-8)
    other = make_compatible(PoissonSystem(sys.g, ScalarGrid(
        sys.dims, rng.normal(size=sys.dims.shape) * sys.g.fluid)))
    p, info = solve_pcg(other, tol=1e-8)
    assert calls() == (1, 0, 1, 1)
    # the reused set-up gives, bit for bit, what a first solve gives
    p_fresh, info_fresh = solve_pcg(_same_geometry(other), tol=1e-8)
    assert calls() == (2, 0, 2, 2)
    assert np.array_equal(p.values, p_fresh.values)
    assert info == info_fresh


@pytest.mark.parametrize("open_top", [False, True])
def test_jacobi_shares_the_active_cells_and_never_factors(monkeypatch, open_top):
    calls = _count_setup_calls(monkeypatch)
    rng = np.random.default_rng(76)
    sys = random_system(rng, nx=14, ny=11, p_solid=0.3, open_top=open_top)
    p = solve_jacobi(sys, 20)
    assert calls() == (1, 1, 0, 0)
    # a reused layout gives, bit for bit, what a fresh grid gives
    assert np.array_equal(solve_jacobi(sys, 20).values, p.values)
    assert calls() == (1, 1, 0, 0)
    assert np.array_equal(solve_jacobi(_same_geometry(sys), 20).values, p.values)
    assert calls() == (2, 2, 0, 0)
    # PCG on the Jacobi grid builds its matrix and hierarchy once, and
    # reuses the active cells
    solve_pcg(sys, tol=1e-8)
    solve_pcg(sys, tol=1e-8)
    assert calls() == (2, 2, 1, 1)


@pytest.mark.parametrize("open_top", [False, True])
def test_jacobi_only_grid_builds_no_sparse_matrix_and_no_hierarchy(open_top):
    rng = np.random.default_rng(1001)
    sys = random_system(rng, nx=14, ny=11, p_solid=0.3, open_top=open_top)
    solve_jacobi(sys, 20)
    kept = _kept(sys.g)
    assert pr._jacobi_layout in kept
    assert pr._pcg_matrix not in kept and pr._build_hierarchy not in kept
    assert not any(sp.issparse(v) for v in _kept_values(sys.g))


def test_pcg_on_a_fresh_grid_builds_no_jacobi_layout():
    rng = np.random.default_rng(1002)
    sys = random_system(rng, nx=16, ny=12, p_solid=0.2)
    solve_pcg(sys, tol=1e-8)
    kept = _kept(sys.g)
    assert pr._build_hierarchy in kept
    assert pr._jacobi_layout not in kept


@pytest.mark.parametrize("open_top", [False, True])
def test_jacobi_builds_its_read_only_layout_once_per_grid(open_top):
    rng = np.random.default_rng(1003)
    sys = random_system(rng, nx=14, ny=11, p_solid=0.3, open_top=open_top)
    solve_jacobi(sys, 5)
    layout = _kept(sys.g)[pr._jacobi_layout]
    solve_jacobi(sys, 7)
    solve_pcg(sys, tol=1e-8)
    assert _kept(sys.g)[pr._jacobi_layout] is layout
    inactive, count, walled = layout
    assert inactive.shape == count.shape == (13 * 16,)
    active = _kept(sys.g)[pr._active_cells]
    assert not any(a.flags.writeable for a in (*layout, active))
    assert np.all(count[inactive] == 0.0)
    np.testing.assert_array_equal(walled, np.flatnonzero(sys.g.fluid & ~active))
    # a fresh grid of the same geometry builds its own, with equal bytes
    fresh = _same_geometry(sys)
    solve_jacobi(fresh, 5)
    other = _kept(fresh.g)[pr._jacobi_layout]
    assert other is not layout
    assert all(a.tobytes() == c.tobytes() for a, c in zip(layout, other))


def test_pcg_matrix_is_read_only():
    rng = np.random.default_rng(1006)
    sys = random_system(rng, nx=12, ny=9, p_solid=0.2)
    solve_pcg(sys, tol=1e-8)
    A, lab = _kept(sys.g)[pr._pcg_matrix]
    assert not any(a.flags.writeable for a in (A.data, A.indices, A.indptr, lab))


def test_jacobi_result_shares_no_memory_with_its_set_up():
    rng = np.random.default_rng(1004)
    sys = random_system(rng, nx=12, ny=9, p_solid=0.2)
    p = solve_jacobi(sys, 20).values
    kept = _kept_values(sys.g)
    assert len(kept) == 5  # active cells, the layout's three arrays, fluid labels
    kept += [sys.g.stencil.solid_count, sys.b.values]
    assert not any(np.shares_memory(p, k) for k in kept)
    want = p.copy()
    p[...] = np.nan  # the caller may write it; the next solve is unaffected
    _assert_same_bytes(solve_jacobi(sys, 20).values, want, "after a write")


def test_jacobi_leaves_the_right_hand_side_untouched():
    rng = np.random.default_rng(1005)
    sys = random_system(rng, nx=12, ny=9, p_solid=0.2, open_top=True)
    before = sys.b.values.copy()
    sys.b.values.flags.writeable = False
    solve_jacobi(sys, 34)
    assert sys.b.values.tobytes() == before.tobytes()


def test_pcg_setup_is_not_shared_between_geometries():
    rng = np.random.default_rng(74)
    dims = GridDims(12, 12)
    solid_a = rng.random(dims.shape) < 0.2
    solid_b = solid_a.copy()
    solid_b[5, 5] = not solid_b[5, 5]
    b = ScalarGrid(dims, rng.normal(size=dims.shape))
    for solid in (solid_a, solid_b):
        sys = make_compatible(PoissonSystem(OccupancyGrid(dims, solid), b))
        p, info = solve_pcg(sys, tol=1e-8)
        kept = _kept(sys.g)
        assert pr._build_hierarchy in kept  # the hierarchy this solve built and kept
        # what the grid keeps is its own geometry's, not the other grid's
        np.testing.assert_array_equal(kept[pr._active_cells], pr._active_cells(sys.g))
        A, lab = pr._pcg_matrix(sys.g)
        assert (kept[pr._pcg_matrix][0] != A).nnz == 0
        np.testing.assert_array_equal(kept[pr._pcg_matrix][1], lab)
        assert info.converged
        assert residual_norm(sys, p) <= 1e-8 * np.linalg.norm(sys.b.values) * (1 + 1e-12)
    assert not np.array_equal(solid_a, solid_b)


def test_pcg_setup_dies_with_its_grid():
    rng = np.random.default_rng(75)
    sys = random_system(rng, nx=16, ny=16, p_solid=0.2)
    solve_pcg(sys, tol=1e-6)
    grid = weakref.ref(sys.g)
    kept = _kept(sys.g)
    assert pr._build_hierarchy in kept  # built on that solve, kept on the grid
    setup = [weakref.ref(kept[pr._build_hierarchy]), weakref.ref(kept[pr._active_cells]),
             weakref.ref(kept[pr._pcg_matrix][0])]
    del sys, kept
    gc.collect()
    assert grid() is None
    assert all(ref() is None for ref in setup)


def test_chain_component_converges_and_keeps_the_iteration_count(caplog):
    # a one-cell-wide closed channel is a chain, which 2x2 aggregation
    # coarsens along one axis only; a closed component this small is solved
    # exactly instead
    solid = np.ones((6, 8), dtype=bool)
    solid[2, 1:7] = False
    g = OccupancyGrid(GridDims(8, 6), solid)
    rng = np.random.default_rng(78)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    sys = make_compatible(PoissonSystem(g, b))
    with caplog.at_level(logging.WARNING, logger="macfluid.pressure"):
        p, info = solve_pcg(sys, tol=1e-10)
    assert info.preconditioner == "multigrid"
    assert info.converged
    assert not caplog.records
    ref = solve_dense_direct(sys)
    np.testing.assert_allclose(p.values, ref.values, atol=1e-8)

    # a chain elsewhere in the domain must not weaken the whole solve: a
    # closed box around a disc and a solid bar, which with ``channel`` is
    # hollow, a one-cell channel walled in on every side
    iterations = {}
    for channel in (False, True):
        dims = GridDims(32, 32)
        solid = disc_mask(dims, (16.0, 16.0), 4.0)
        solid[4:7, 2:30] = True
        solid[5, 3:29] = not channel
        g = OccupancyGrid(dims, solid)
        rng = np.random.default_rng(79)
        b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
        _, info = solve_pcg(make_compatible(PoissonSystem(g, b)), tol=1e-6)
        assert info.converged and info.preconditioner == "multigrid"
        iterations[channel] = info.iterations
    assert iterations[True] <= iterations[False] + 5, iterations


def test_pcg_reports_nonconvergence_and_still_returns(caplog):
    rng = np.random.default_rng(74)
    sys = random_system(rng, nx=16, ny=16, p_solid=0.15)
    with caplog.at_level(logging.WARNING, logger="macfluid.pressure"):
        p, info = solve_pcg(sys, tol=1e-14, max_iter=2)
    assert not info.converged
    assert info.iterations == 2
    assert p.values.shape == sys.dims.shape
    # PcgInfo is the one report; the caller decides what to say
    assert not caplog.records


def test_pcg_nonfinite_rhs_returns_the_zero_iterate_at_once(caplog):
    rng = np.random.default_rng(77)
    sys = random_system(rng, nx=16, ny=16, p_solid=0.15)
    b = sys.b.values.copy()
    fj, fi = np.nonzero(sys.g.fluid)
    b[fj[5], fi[5]] = np.nan
    with caplog.at_level(logging.WARNING, logger="macfluid.pressure"):
        p, info = solve_pcg(PoissonSystem(sys.g, ScalarGrid(sys.dims, b)), tol=1e-6)
    assert (info.iterations, info.converged, info.preconditioner) == (0, False, "multigrid")
    assert np.isnan(info.relres)
    assert np.array_equal(p.values, np.zeros(sys.dims.shape))
    # a solve that never ran builds no hierarchy
    assert pr._build_hierarchy not in _kept(sys.g)
    # the returned info reports it; the caller decides whether to raise
    assert not caplog.records


def test_pcg_solution_has_zero_mean_on_closed_components():
    rng = np.random.default_rng(75)
    sys = random_system(rng, nx=10, ny=10, p_solid=0.3)
    p, _ = solve_pcg(sys, tol=1e-10)
    labels, count = connected_components(sys.g)
    for c in range(count):
        assert abs(p.values[labels == c].mean()) < 1e-10


def test_solver_agreement_across_routes():
    rng = np.random.default_rng(76)
    sys = _ventilated_system(rng, 9, 11, 0.25, open_top=True)
    ref = solve_dense_direct(sys)
    pj = solve_jacobi(sys, iters=6000)
    pc, _ = solve_pcg(sys, tol=1e-12)
    np.testing.assert_allclose(pj.values, ref.values, atol=1e-4)
    np.testing.assert_allclose(pc.values, ref.values, atol=1e-8)


def test_isolated_cells_stay_zero_in_pcg():
    solid = np.ones((6, 6), dtype=bool)
    solid[2, 2] = False       # isolated cell
    solid[4, 1:5] = False     # plus a small channel
    g = OccupancyGrid(GridDims(6, 6), solid)
    rng = np.random.default_rng(77)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    sys = make_compatible(PoissonSystem(g, b))
    p, info = solve_pcg(sys, tol=1e-10)
    assert info.converged
    assert p.values[2, 2] == 0.0


def test_jacobi_stationary_on_isolated_cell_with_zero_rhs():
    solid = np.ones((5, 5), dtype=bool)
    solid[2, 2] = False
    g = OccupancyGrid(GridDims(5, 5), solid)
    sys = PoissonSystem(g, ScalarGrid.zeros(g.dims))
    p = solve_jacobi(sys, 50)
    assert np.all(p.values == 0.0)


def test_stencil_diag_zero_only_for_isolated_cells():
    solid = np.ones((5, 5), dtype=bool)
    solid[2, 2] = False
    g = OccupancyGrid(GridDims(5, 5), solid)
    st = cell_stencil(g)
    assert st.diag[2, 2] == 0


# ====== The PCG matrix ======

def _walled_grids(rng):
    """Grids with random solids and one walled-in cell, open and closed
    top, h 1 and 0.37, one with a closed one-cell channel; drawn from
    ``rng`` as iterated."""
    for open_top in (False, True):
        for nx, ny, h, p_solid, chain in ((12, 10, 1.0, 0.2, False),
                                          (17, 13, 0.37, 0.3, False),
                                          (14, 12, 1.0, 0.1, True)):
            solid = rng.random((ny, nx)) < p_solid
            # one fluid cell walled in on all four sides stays out of the matrix
            solid[1:4, 1:4] = True
            solid[2, 2] = False
            if chain:
                solid[5:8, 1:nx - 1] = True
                solid[6, 2:nx - 2] = False
            yield OccupancyGrid(GridDims(nx, ny, h), solid, open_top)


def test_pcg_matrix_is_the_matrix_free_operator():
    rng = np.random.default_rng(132)
    for g in _walled_grids(rng):
        A, lab = pr._pcg_matrix(g)
        active = pr._active_cells(g)
        assert not active[2, 2]
        np.testing.assert_array_equal(lab, g.components.labels[active])
        x = np.zeros(g.dims.shape)
        x[active] = rng.normal(size=A.shape[0])
        np.testing.assert_allclose(A @ x[active],
                                   apply_poisson(g, ScalarGrid(g.dims, x)).values[active],
                                   rtol=1e-13, atol=1e-13 / g.dims.h ** 2)


def _disc_plume_system(res, seed, open_top=False):
    """Pressure system of a seeded random velocity around the plume's disc."""
    dims = GridDims(res, res)
    state, _ = plume_scenario(dims, open_top=open_top, obstacle="disc")
    rng = np.random.default_rng(seed)
    u = enforce_solid_velocities(MacVelocity(dims, rng.standard_normal(dims.shape_ux),
                                             rng.standard_normal(dims.shape_uy)), state.g)
    d = divergence(u, state.g)
    return make_compatible(PoissonSystem(state.g, ScalarGrid(dims, -d.values)))


def test_pcg_iterations_on_the_settled_plume():
    # the 64^2 disc plume after 8 Jacobi(34) frames: the V-cycle converges to
    # 1e-4 in 8 iterations
    state, cfg = plume_scenario(GridDims(64, 64), obstacle="disc",
                                projection=JacobiProjection(34))
    for _ in range(8):
        state = step(state, cfg)
    d = divergence(state.u, state.g)
    sys = make_compatible(PoissonSystem(state.g, ScalarGrid(state.g.dims, -d.values)))
    _, info = solve_pcg(sys, tol=1e-4)
    assert info.converged and info.iterations <= 12, info


# ====== Multigrid preconditioner ======

@pytest.mark.parametrize("open_top", [False, True])
def test_pcg_on_components_touching_diagonally_inside_one_block(open_top):
    # a staircase wall on x + y = 19 splits the box in two components of
    # 190 cells each; across it, cells (2a, 2b) and (2a+1, 2b+1) share one
    # 2x2 block, so an aggregate must not join the two components
    dims = GridDims(20, 20)
    jj, ii = np.indices(dims.shape)
    g = OccupancyGrid(dims, ii + jj == 19, open_top)
    labels, count = connected_components(g)
    assert count == 2 and labels[10, 8] != labels[11, 9]
    rng = np.random.default_rng(134)
    b = ScalarGrid(dims, rng.normal(size=dims.shape) * g.fluid)
    sys = make_compatible(PoissonSystem(g, b))
    p, info = solve_pcg(sys, tol=1e-10)
    assert info.converged
    np.testing.assert_allclose(p.values, solve_dense_direct(sys).values, atol=1e-7)


def test_pcg_on_closed_components_of_at_most_four_cells():
    # beside the main box, a 2x2 and a 1x2 pocket that each fill one 2x2
    # aggregation block, and a 1x3 pocket across two; pyproject turns a
    # division by a zero diagonal into an error
    solid = np.zeros((16, 16), dtype=bool)
    solid[9:, 9:] = True
    solid[10:12, 10:12] = False
    solid[14, 10:12] = False
    solid[12, 13:16] = False
    g = OccupancyGrid(GridDims(16, 16), solid)
    assert connected_components(g)[1] == 4
    rng = np.random.default_rng(135)
    b = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
    sys = make_compatible(PoissonSystem(g, b))
    p, info = solve_pcg(sys, tol=1e-10)
    assert info.converged
    np.testing.assert_allclose(p.values, solve_dense_direct(sys).values, atol=1e-7)


@pytest.mark.parametrize("open_top", [False, True])
def test_pcg_iterations_stay_flat_as_the_grid_grows(open_top):
    # an incomplete-Cholesky preconditioner needs about 1.8 times the
    # iterations per doubling of the side; the V-cycle must not grow so
    iterations = []
    for res in (32, 64, 128):
        _, info = solve_pcg(_disc_plume_system(res, seed=81, open_top=open_top), tol=1e-6)
        assert info.converged
        iterations.append(info.iterations)
    assert max(iterations) <= 16 and iterations[-1] <= iterations[0] + 4, iterations


def _reference_vcycle(A, cells, r):
    """One V-cycle as documented, with dense matrices; ``cells`` holds the
    (j, i, component) of each unknown."""
    blocks = {}
    agg = [blocks.setdefault((j // 2, i // 2, c), len(blocks)) for j, i, c in cells]
    if len(cells) <= pr.COARSE_SIZE or len(blocks) == len(cells):
        return np.linalg.pinv(A) @ r
    P = np.zeros((len(cells), len(blocks)))
    P[np.arange(len(cells)), agg] = 1.0
    d = np.diag(A)
    dinv = np.where(d > 0, pr.SMOOTH_OMEGA / np.where(d > 0, d, 1.0), 0.0)
    z = dinv * r
    z += pr.COARSE_ALPHA * P @ _reference_vcycle(P.T @ A @ P, list(blocks), P.T @ (r - A @ z))
    return z + dinv * (r - A @ z)


def _reference_multigrid(g, r):
    """The preconditioner on h^2 A: a pseudo-inverse per closed component of
    at most COARSE_SIZE cells, one V-cycle over the other cells."""
    A, lab = pr._pcg_matrix(g)
    A = np.rint(A.toarray() * g.dims.h ** 2)
    comps = g.components
    small = (comps.closed & (comps.sizes <= pr.COARSE_SIZE))[lab]
    z = np.zeros(len(lab))
    for c in np.unique(lab[small]):
        k = np.flatnonzero(lab == c)
        z[k] = np.linalg.pinv(A[np.ix_(k, k)]) @ r[k]
    keep = np.flatnonzero(~small)
    jj, ii = np.nonzero(pr._active_cells(g))
    cells = list(zip(jj[keep], ii[keep], lab[keep]))
    z[keep] = _reference_vcycle(A[np.ix_(keep, keep)], cells, r[keep])
    return z


@pytest.mark.parametrize("open_top", [False, True])
def test_multigrid_matches_the_documented_vcycle_and_is_symmetric(open_top):
    rng = np.random.default_rng(136)
    for nx, ny, h, p_solid in ((24, 20, 1.0, 0.15), (37, 30, 0.37, 0.25)):
        solid = rng.random((ny, nx)) < p_solid
        solid[1:5, 1:6] = True
        solid[2:4, 2:5] = False  # a closed pocket of 6 cells
        g = OccupancyGrid(GridDims(nx, ny, h), solid, open_top)
        M = pr._build_hierarchy(g)
        a, b = rng.normal(size=(2, g.derived(pr._pcg_matrix)[0].shape[0]))
        want = _reference_multigrid(g, a)
        assert np.linalg.norm(M(a) - want) <= 1e-11 * np.linalg.norm(want)
        assert abs(a @ M(b) - b @ M(a)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(M(b))
        a = pr._project_out_constants(g.derived(pr._pcg_matrix)[1], a, g.components)
        assert a @ M(a) > 0


def _setup_grids(rng):
    """Grids for the set-up oracles: the walled grids, grids with a closed
    pocket of 6 cells, datagen scenes and the 64^2 disc plume, open and closed."""
    yield from _walled_grids(rng)
    for open_top in (False, True):
        for nx, ny, h, p_solid in ((24, 20, 1.0, 0.15), (37, 30, 0.37, 0.25)):
            solid = rng.random((ny, nx)) < p_solid
            solid[1:5, 1:6] = True
            solid[2:4, 2:5] = False
            yield OccupancyGrid(GridDims(nx, ny, h), solid, open_top)
        for seed in range(6):
            boundary = "open-top" if open_top else "closed"
            yield build_scene(SceneConfig(seed=seed, boundary=boundary))[0].g
        yield plume_scenario(GridDims(64, 64), open_top=open_top, obstacle="disc")[0].g


def test_pcg_matrix_is_the_coo_oracle_bit_for_bit():
    for g in _setup_grids(np.random.default_rng(137)):
        (A, lab), (B, lab_b) = pr._pcg_matrix(g), pcg_matrix_coo(g)
        assert A.has_canonical_format
        for a, b in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr),
                     (lab, lab_b)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def test_vcycle_is_the_three_product_oracle_bit_for_bit():
    rng = np.random.default_rng(138)
    small = []
    for g in _setup_grids(rng):
        comps = g.components
        small.append(bool(np.any(comps.closed & (comps.sizes <= pr.COARSE_SIZE))))
        M, want = pr._build_hierarchy(g), build_hierarchy_three_products(g)
        for r in rng.normal(size=(3, g.derived(pr._pcg_matrix)[0].shape[0])):
            assert M(r).tobytes() == want(r).tobytes()
            assert M(r).tobytes() == vcycle_matmul(M, r).tobytes()
    # levels with and without a small closed component, built both ways
    assert any(small) and not all(small)


def test_matvec_is_scipy_matmul_on_every_matrix_of_the_hierarchy():
    # pins the direct kernel calls to what ``@`` computes with this scipy
    rng = np.random.default_rng(139)
    formats = set()
    for g in _setup_grids(rng):
        M = pr._build_hierarchy(g)
        mats = [g.derived(pr._pcg_matrix)[0], M.coarse, *(m for lvl in M.levels for m in lvl)]
        for A in mats:
            formats.add(A.format)
            x = rng.normal(size=A.shape[1])
            x[::7] = -0.0
            got, want = pr._matvec(A, x), A @ x
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
    assert formats == {"csr", "csc"}


def test_pcg_is_the_matmul_oracle_bit_for_bit():
    rng = np.random.default_rng(140)
    small, unconverged = [], 0
    for g in _setup_grids(rng):
        comps = g.components
        small.append(bool(np.any(comps.closed & (comps.sizes <= pr.COARSE_SIZE))))
        b = np.where(g.fluid, rng.normal(size=g.dims.shape), 0.0)
        sys = make_compatible(PoissonSystem(g, ScalarGrid(g.dims, b)))
        for tol, max_iter in ((1e-6, 2000), (1e-10, 2000), (1e-14, 3)):
            p, info = solve_pcg(sys, tol, max_iter)
            q, want = solve_pcg_matmul(sys, tol, max_iter)
            assert p.values.tobytes() == q.values.tobytes()
            assert info == want
            unconverged += not info.converged
    assert any(small) and not all(small)
    assert unconverged > 0


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf"), -float("inf")])
def test_pcg_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    sys = random_system(np.random.default_rng(141), nx=16, ny=16, p_solid=0.15)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        solve_pcg(sys, tol=tol)
    # refused before any set-up is built
    assert pr._build_hierarchy not in _kept(sys.g)


def test_pcg_rejects_a_negative_iteration_cap():
    sys = random_system(np.random.default_rng(142), nx=16, ny=16, p_solid=0.15)
    with pytest.raises(ValueError, match="iteration cap must be nonnegative"):
        solve_pcg(sys, tol=1e-6, max_iter=-5)
    # a cap of zero still returns the zero iterate, unconverged
    p, info = solve_pcg(sys, tol=1e-6, max_iter=0)
    assert (info.iterations, info.converged) == (0, False)
    assert not p.values.any()
