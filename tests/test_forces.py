import numpy as np
import pytest

from macfluid.fdops import face_masks
from macfluid.forces import (
    ForceConfig,
    add_body_force,
    add_buoyancy,
    enforce_solid_velocities,
    vorticity_confinement,
)
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid


def _scene(rng, nx=10, ny=9, p_solid=0.2):
    solid = rng.random((ny, nx)) < p_solid
    g = OccupancyGrid(GridDims(nx, ny), solid)
    u = MacVelocity(g.dims, rng.normal(size=g.dims.shape_ux), rng.normal(size=g.dims.shape_uy))
    return g, u


def test_body_force_splits_into_half_steps():
    rng = np.random.default_rng(50)
    g, u = _scene(rng)
    f = (1.3, -2.1)
    whole = add_body_force(u, g, f, 0.2)
    halves = add_body_force(add_body_force(u, g, f, 0.1), g, f, 0.1)
    np.testing.assert_allclose(whole.ux, halves.ux, atol=1e-12)
    np.testing.assert_allclose(whole.uy, halves.uy, atol=1e-12)


def test_body_force_adds_exactly_on_free_faces():
    rng = np.random.default_rng(51)
    g, u = _scene(rng)
    fm = face_masks(g)
    out = add_body_force(u, g, (2.0, -3.0), 0.5)
    np.testing.assert_allclose(out.ux[fm.free_x] - u.ux[fm.free_x], 1.0, atol=1e-14)
    np.testing.assert_allclose(out.uy[fm.free_y] - u.uy[fm.free_y], -1.5, atol=1e-14)
    np.testing.assert_array_equal(out.ux[~fm.free_x], u.ux[~fm.free_x])
    np.testing.assert_array_equal(out.uy[~fm.free_y], u.uy[~fm.free_y])


def test_buoyancy_opposes_gravity_and_scales_with_density():
    dims = GridDims(8, 8)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity.zeros(dims)
    rho = ScalarGrid.full(dims, 1.0)
    out = add_buoyancy(u, rho, g, coeff=4.0, gravity=(0.0, -9.8), dt=0.25)
    # interior horizontal faces see the full averaged density
    np.testing.assert_allclose(out.uy[1:-1, :], 1.0, atol=1e-13)
    np.testing.assert_allclose(out.ux, 0.0, atol=0)
    # doubling the coefficient doubles the kick
    out2 = add_buoyancy(u, rho, g, coeff=8.0, gravity=(0.0, -9.8), dt=0.25)
    np.testing.assert_allclose(out2.uy[1:-1, :], 2.0, atol=1e-13)


def test_buoyancy_defaults_to_lift_without_gravity():
    dims = GridDims(6, 6)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity.zeros(dims)
    rho = ScalarGrid.full(dims, 0.5)
    out = add_buoyancy(u, rho, g, coeff=2.0, gravity=(0.0, 0.0), dt=1.0)
    np.testing.assert_allclose(out.uy[1:-1, :], 1.0, atol=1e-13)


def test_buoyancy_tilts_with_gravity_direction():
    dims = GridDims(6, 6)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity.zeros(dims)
    rho = ScalarGrid.full(dims, 1.0)
    out = add_buoyancy(u, rho, g, coeff=1.0, gravity=(-3.0, 0.0), dt=1.0)
    # lift points along +x now
    np.testing.assert_allclose(out.ux[:, 1:-1], 1.0, atol=1e-13)
    np.testing.assert_allclose(out.uy, 0.0, atol=0)


def _gaussian_vortex(dims, strength=1.0):
    """Velocity induced by a bell-shaped stream function, swirl-free border."""
    h = dims.h
    xn = np.arange(dims.nx + 1) * h
    yn = np.arange(dims.ny + 1) * h
    cx, cy = 0.5 * dims.nx * h, 0.5 * dims.ny * h
    r2 = (xn[None, :] - cx) ** 2 + (yn[:, None] - cy) ** 2
    psi = strength * np.exp(-r2 / (2 * (0.15 * dims.nx * h) ** 2))
    ux = (psi[1:, :] - psi[:-1, :]) / h
    uy = -(psi[:, 1:] - psi[:, :-1]) / h
    return MacVelocity(dims, ux, uy)


def test_confinement_strengthens_a_vortex():
    dims = GridDims(24, 24)
    g = OccupancyGrid.empty(dims)
    u = _gaussian_vortex(dims)
    out = vorticity_confinement(u, g, strength=0.5, dt=0.1)
    e0 = np.sum(u.ux**2) + np.sum(u.uy**2)
    e1 = np.sum(out.ux**2) + np.sum(out.uy**2)
    assert e1 > e0


def test_confinement_zero_strength_is_identity():
    rng = np.random.default_rng(52)
    g, u = _scene(rng)
    out = vorticity_confinement(u, g, strength=0.0, dt=0.1)
    np.testing.assert_array_equal(out.ux, u.ux)
    np.testing.assert_array_equal(out.uy, u.uy)


def test_confinement_ignores_uniform_flow():
    dims = GridDims(8, 8)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity(dims, np.full(dims.shape_ux, 2.0), np.full(dims.shape_uy, 1.0))
    out = vorticity_confinement(u, g, strength=0.5, dt=0.1)
    np.testing.assert_allclose(out.ux, u.ux, atol=1e-12)
    np.testing.assert_allclose(out.uy, u.uy, atol=1e-12)


def test_confinement_force_scales_linearly_with_strength():
    dims = GridDims(20, 20)
    g = OccupancyGrid.empty(dims)
    u = _gaussian_vortex(dims)
    d1 = vorticity_confinement(u, g, 0.2, 0.1).ux - u.ux
    d2 = vorticity_confinement(u, g, 0.4, 0.1).ux - u.ux
    np.testing.assert_allclose(d2, 2.0 * d1, atol=1e-12)


def test_confinement_skips_solid_faces():
    rng = np.random.default_rng(53)
    g, u = _scene(rng, p_solid=0.3)
    fm = face_masks(g)
    out = vorticity_confinement(u, g, 0.5, 0.2)
    np.testing.assert_array_equal(out.ux[fm.solid_x], u.ux[fm.solid_x])
    np.testing.assert_array_equal(out.uy[fm.solid_y], u.uy[fm.solid_y])


def test_enforce_sets_solid_faces_and_is_idempotent():
    rng = np.random.default_rng(54)
    g, u = _scene(rng, p_solid=0.3)
    fm = face_masks(g)
    assert np.all(u.ux[fm.solid_x] != 0.0) and np.all(u.uy[fm.solid_y] != 0.0)
    out = enforce_solid_velocities(u, g)
    assert np.all(out.ux[fm.solid_x] == 0.0)
    assert np.all(out.uy[fm.solid_y] == 0.0)
    np.testing.assert_array_equal(out.ux[~fm.solid_x], u.ux[~fm.solid_x])
    np.testing.assert_array_equal(out.uy[~fm.solid_y], u.uy[~fm.solid_y])
    again = enforce_solid_velocities(out, g)
    assert np.array_equal(again.ux, out.ux)
    assert np.array_equal(again.uy, out.uy)


def test_force_config_defaults_are_inert():
    cfg = ForceConfig()
    assert cfg.gravity == (0.0, 0.0)
    assert cfg.buoyancy == 0.0
    assert cfg.confinement == 0.0
