"""External forces and solid boundary enforcement.

All force terms integrate explicitly: they add dt times an acceleration
to the free faces and never touch solid faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdops import vorticity
from .grids import MacVelocity, OccupancyGrid, ScalarGrid


@dataclass(frozen=True)
class ForceConfig:
    """Per-step force parameters.

    ``gravity`` is a constant acceleration applied to every free face.
    ``buoyancy`` scales an acceleration opposite to gravity proportional
    to the local density.  ``confinement`` is the vorticity confinement
    strength (zero disables it).  Every parameter must be finite.
    """

    gravity: tuple[float, float] = (0.0, 0.0)
    buoyancy: float = 0.0
    confinement: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("gravity", self.gravity), ("buoyancy", self.buoyancy),
                            ("confinement", self.confinement)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")


def _add_on_free_faces(u: MacVelocity, g: OccupancyGrid, ax, ay) -> MacVelocity:
    """u + (ax, ay) on free faces; the other faces keep their values."""
    fm = g.faces
    return MacVelocity(u.dims, u.ux + np.where(fm.free_x, ax, 0.0),
                       u.uy + np.where(fm.free_y, ay, 0.0))


def add_body_force(u: MacVelocity, g: OccupancyGrid, force: tuple[float, float],
                   dt: float) -> MacVelocity:
    """u + dt * force on free faces."""
    return _add_on_free_faces(u, g, dt * force[0], dt * force[1])


def _to_faces(cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average cell-centered vector components onto faces, zero beyond the border."""
    px = np.pad(cx, ((0, 0), (1, 1)))
    py = np.pad(cy, ((1, 1), (0, 0)))
    return 0.5 * (px[:, :-1] + px[:, 1:]), 0.5 * (py[:-1, :] + py[1:, :])


def add_buoyancy(u: MacVelocity, density: ScalarGrid, g: OccupancyGrid,
                 coeff: float, gravity: tuple[float, float], dt: float) -> MacVelocity:
    """Density-proportional acceleration opposite to gravity.

    With zero gravity the lift direction defaults to +y.  Face densities
    are averages of the adjacent cell values, zero beyond the border.
    """
    gx, gy = gravity
    norm = float(np.hypot(gx, gy))
    if norm > 0.0:
        dirx, diry = -gx / norm, -gy / norm
    else:
        dirx, diry = 0.0, 1.0
    rho_x, rho_y = _to_faces(density.values, density.values)
    return _add_on_free_faces(u, g, dt * coeff * dirx * rho_x, dt * coeff * diry * rho_y)


def vorticity_confinement(u: MacVelocity, g: OccupancyGrid, strength: float,
                          dt: float) -> MacVelocity:
    """Re-inject swirling motion lost to interpolation smoothing.

    The force is strength * h * (N x w) where w is the scalar curl and N
    the normalized gradient of |w|; the 1e-20 floor keeps N finite where
    |w| is flat.
    """
    if strength == 0.0:
        return u.copy()
    h = u.dims.h
    w = vorticity(u).values
    aw = np.abs(w)
    gy, gx = np.gradient(aw, h)  # np.gradient returns d/drow first
    mag = np.sqrt(gx * gx + gy * gy) + 1e-20
    nx_, ny_ = gx / mag, gy / mag
    fcx = strength * h * (ny_ * w)
    fcy = strength * h * (-nx_ * w)
    fx, fy = _to_faces(fcx, fcy)
    return _add_on_free_faces(u, g, dt * fx, dt * fy)


def enforce_solid_velocities(u: MacVelocity, g: OccupancyGrid) -> MacVelocity:
    """Zero every solid face: solids are at rest.

    A MAC face stores only its normal component, so setting the face value
    pins exactly the normal flux through the solid. Idempotent.
    """
    fm = g.faces
    ux = np.where(fm.solid_x, 0.0, u.ux)
    uy = np.where(fm.solid_y, 0.0, u.uy)
    return MacVelocity(u.dims, ux, uy)
