import numpy as np
import pytest

from macfluid.fdops import (
    adjoint_divergence,
    cell_stencil,
    divergence,
    face_masks,
    subtract_pressure_gradient,
    vorticity,
)
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid
from macfluid.fdops import _face_gradient
from oracles import apply_poisson, face_gradient_pad


def random_geometry(rng, nx, ny, p_solid=0.2, open_top=False):
    solid = rng.random((ny, nx)) < p_solid
    return OccupancyGrid(GridDims(nx, ny), solid, open_top)


def random_velocity(rng, dims):
    return MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))


# ====== Classification oracles ======

def _solid_at(g, i, j):
    """Occupancy of cell (i, j) including the virtual border."""
    nx, ny = g.dims.nx, g.dims.ny
    if 0 <= i < nx and 0 <= j < ny:
        return bool(g.solid[j, i])
    if g.open_top and j == ny and 0 <= i < nx:
        return False  # air
    return True  # wall


def _fluid_at(g, i, j):
    nx, ny = g.dims.nx, g.dims.ny
    if 0 <= i < nx and 0 <= j < ny:
        return not g.solid[j, i]
    return False


def test_face_masks_match_per_face_oracle():
    rng = np.random.default_rng(21)
    for open_top in (False, True):
        g = random_geometry(rng, 7, 6, 0.3, open_top)
        fm = face_masks(g)
        for j in range(g.dims.ny):
            for i in range(g.dims.nx + 1):
                solid = _solid_at(g, i - 1, j) or _solid_at(g, i, j)
                fluid = _fluid_at(g, i - 1, j) or _fluid_at(g, i, j)
                assert fm.solid_x[j, i] == solid
                assert fm.free_x[j, i] == (not solid and fluid)
        for j in range(g.dims.ny + 1):
            for i in range(g.dims.nx):
                solid = _solid_at(g, i, j - 1) or _solid_at(g, i, j)
                fluid = _fluid_at(g, i, j - 1) or _fluid_at(g, i, j)
                assert fm.solid_y[j, i] == solid
                assert fm.free_y[j, i] == (not solid and fluid)


def test_cell_stencil_counts_match_oracle():
    rng = np.random.default_rng(22)
    for open_top in (False, True):
        g = random_geometry(rng, 6, 9, 0.35, open_top)
        st, pf = cell_stencil(g), g.fluid_padded
        for j in range(g.dims.ny):
            for i in range(g.dims.nx):
                nbrs = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                n_solid = sum(_solid_at(g, a, b) for a, b in nbrs)
                assert st.solid_count[j, i] == n_solid
                assert st.diag[j, i] == 4 - n_solid
                # the neighbor masks are slices of the padded fluid mask
                assert pf[j + 1, i] == _fluid_at(g, i - 1, j)
                assert pf[j + 1, i + 2] == _fluid_at(g, i + 1, j)
                assert pf[j, i + 1] == _fluid_at(g, i, j - 1)
                assert pf[j + 2, i + 1] == _fluid_at(g, i, j + 1)


# ====== Divergence ======

def test_divergence_of_uniform_flow_is_zero():
    dims = GridDims(8, 6, h=0.5)
    u = MacVelocity(dims, np.full(dims.shape_ux, 3.0), np.full(dims.shape_uy, -2.0))
    g = OccupancyGrid.empty(dims)
    assert np.all(divergence(u, g).values == 0.0)


def test_divergence_of_linear_expansion():
    # ux = x gives du/dx = 1 exactly
    dims = GridDims(6, 6, h=0.25)
    ux = np.tile(np.arange(dims.nx + 1) * dims.h, (dims.ny, 1))
    u = MacVelocity(dims, ux, np.zeros(dims.shape_uy))
    g = OccupancyGrid.empty(dims)
    np.testing.assert_allclose(divergence(u, g).values, 1.0, atol=1e-13)


def test_divergence_matches_oracle():
    rng = np.random.default_rng(23)
    g = random_geometry(rng, 9, 7, 0.25)
    u = random_velocity(rng, g.dims)
    div = divergence(u, g)
    h = g.dims.h
    for j in range(g.dims.ny):
        for i in range(g.dims.nx):
            if g.solid[j, i]:
                assert div.values[j, i] == 0.0
            else:
                want = (u.ux[j, i + 1] - u.ux[j, i] + u.uy[j + 1, i] - u.uy[j, i]) / h
                assert div.values[j, i] == pytest.approx(want, abs=1e-13)


# ====== Pressure gradient ======

def test_constant_pressure_leaves_closed_domain_velocity_unchanged():
    rng = np.random.default_rng(24)
    g = random_geometry(rng, 8, 8, 0.2, open_top=False)
    u = random_velocity(rng, g.dims)
    p = ScalarGrid.full(g.dims, 4.2)
    out = subtract_pressure_gradient(u, p, g)
    np.testing.assert_array_equal(out.ux, u.ux)
    np.testing.assert_array_equal(out.uy, u.uy)


def test_gradient_update_skips_solid_faces():
    rng = np.random.default_rng(25)
    g = random_geometry(rng, 8, 5, 0.3)
    u = random_velocity(rng, g.dims)
    p = ScalarGrid(g.dims, rng.normal(size=g.dims.shape))
    out = subtract_pressure_gradient(u, p, g)
    fm = face_masks(g)
    np.testing.assert_array_equal(out.ux[fm.solid_x], u.ux[fm.solid_x])
    np.testing.assert_array_equal(out.uy[fm.solid_y], u.uy[fm.solid_y])


def test_open_top_gradient_sees_zero_air_pressure():
    dims = GridDims(4, 4, h=1.0)
    g = OccupancyGrid.empty(dims, open_top=True)
    p = ScalarGrid.full(dims, 2.0)
    u = MacVelocity.zeros(dims)
    out = subtract_pressure_gradient(u, p, g)
    # across the top boundary: p_air - p_top = -2, gradient (0 - 2)/h applied upward
    np.testing.assert_allclose(out.uy[-1, :], 2.0)
    # interior faces see no difference
    np.testing.assert_allclose(out.uy[1:-1, :], 0.0)


def test_adjoint_identity():
    rng = np.random.default_rng(26)
    for open_top in (False, True):
        g = random_geometry(rng, 9, 8, 0.25, open_top)
        fm = face_masks(g)
        v = random_velocity(rng, g.dims)
        v.ux[fm.solid_x] = 0.0
        v.uy[fm.solid_y] = 0.0
        p = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
        lhs = float(np.sum(divergence(v, g).values * p.values))
        w = adjoint_divergence(p, g)
        rhs = float(np.sum(v.ux * w.ux) + np.sum(v.uy * w.uy))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ====== Vorticity ======

def test_vorticity_of_rigid_rotation():
    # u = omega x r i.e. (-w y, w x) has curl 2w everywhere
    w = 0.7
    dims = GridDims(10, 9, h=0.4)
    ys_c = (np.arange(dims.ny) + 0.5) * dims.h
    ux = -w * np.tile(ys_c[:, None], (1, dims.nx + 1))
    xs_c = (np.arange(dims.nx) + 0.5) * dims.h
    uy = w * np.tile(xs_c[None, :], (dims.ny + 1, 1))
    u = MacVelocity(dims, ux, uy)
    curl = vorticity(u)
    np.testing.assert_allclose(curl.values[1:-1, 1:-1], 2 * w, atol=1e-12)


def test_vorticity_of_uniform_flow_is_zero():
    dims = GridDims(6, 6)
    u = MacVelocity(dims, np.full(dims.shape_ux, 1.5), np.full(dims.shape_uy, 2.5))
    np.testing.assert_allclose(vorticity(u).values, 0.0, atol=1e-14)


# ====== Pressure system ======

def _dense_poisson_oracle(g):
    """Assemble the pressure matrix row by row from its definition."""
    nx, ny = g.dims.nx, g.dims.ny
    n = nx * ny
    A = np.zeros((n, n))
    h2 = g.dims.h ** 2
    for j in range(ny):
        for i in range(nx):
            r = i + nx * j
            if g.solid[j, i]:
                continue
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if _solid_at(g, a, b):
                    continue
                A[r, r] += 1.0 / h2
                if _fluid_at(g, a, b):
                    A[r, a + nx * b] -= 1.0 / h2
    return A


def test_apply_poisson_matches_dense_oracle():
    rng = np.random.default_rng(27)
    for open_top in (False, True):
        g = random_geometry(rng, 7, 6, 0.3, open_top)
        A = _dense_poisson_oracle(g)
        p = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
        got = apply_poisson(g, p)
        want = (A @ p.values.ravel()).reshape(g.dims.shape)
        np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_poisson_matrix_is_symmetric_psd():
    rng = np.random.default_rng(28)
    for open_top in (False, True):
        g = random_geometry(rng, 8, 8, 0.25, open_top)
        A = _dense_poisson_oracle(g)
        np.testing.assert_allclose(A, A.T, atol=0)
        eig = np.linalg.eigvalsh(A)
        assert eig.min() > -1e-10


def test_apply_poisson_is_divergence_of_gradient_update():
    # A p equals div(subtract_pressure_gradient(0, p)) with a flipped sign
    # buried in the update itself: u = 0 - grad p, div u = -div grad p = A p.
    rng = np.random.default_rng(29)
    for open_top in (False, True):
        g = random_geometry(rng, 9, 7, 0.3, open_top)
        p = ScalarGrid(g.dims, rng.normal(size=g.dims.shape) * g.fluid)
        u0 = MacVelocity.zeros(g.dims)
        got = divergence(subtract_pressure_gradient(u0, p, g), g)
        want = apply_poisson(g, p)
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)


def test_apply_poisson_zero_on_solid():
    rng = np.random.default_rng(30)
    g = random_geometry(rng, 6, 6, 0.4)
    p = ScalarGrid(g.dims, rng.normal(size=g.dims.shape))
    out = apply_poisson(g, p)
    assert np.all(out.values[g.solid] == 0.0)


@pytest.mark.parametrize("open_top", [False, True])
def test_face_gradient_is_the_np_pad_oracle_bit_for_bit(open_top):
    rng = np.random.default_rng(31)
    for nx, ny in ((9, 7), (4, 4), (32, 32)):
        g = random_geometry(rng, nx, ny, 0.2, open_top)
        p = rng.normal(size=g.dims.shape)
        p.flat[::5], p.flat[1::17], p.flat[2::23], p.flat[3::29] = -0.0, np.inf, -np.inf, np.nan
        p[-1, ::2], p[-1, 1::2] = -0.0, 0.0  # the top row, beside the open top's zero ring
        with np.errstate(invalid="ignore"):
            got, want = _face_gradient(ScalarGrid(g.dims, p), g), face_gradient_pad(
                ScalarGrid(g.dims, p), g)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
