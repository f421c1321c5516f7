"""Discrete differential operators on the staggered grid.

All operators are pure: they never mutate their inputs.  Geometry enters
through an OccupancyGrid, whose border is solid wall except for the open
air row above the top when ``open_top`` is set; the masks that the
operators read are cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# cell_stencil and face_masks are re-exported for callers that look them up here
from .grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid, cell_stencil, face_masks


# ====== First-order operators ======

def divergence(u: MacVelocity, g: OccupancyGrid) -> ScalarGrid:
    """Per-cell net outflow (ux_e - ux_w + uy_n - uy_s) / h.

    Uses the stored face values as they are; zero on solid cells.
    """
    h = u.dims.h
    div = (u.ux[:, 1:] - u.ux[:, :-1] + u.uy[1:, :] - u.uy[:-1, :]) / h
    div[g.solid] = 0.0
    return ScalarGrid(u.dims, div)


def _face_gradient(p: ScalarGrid, g: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pressure difference across each free face, zero elsewhere.

    Air cells beyond an open top contribute pressure zero.
    """
    h = p.dims.h
    fm = g.faces
    pp = np.pad(p.values, 1, constant_values=0.0)
    gx = np.where(fm.free_x, pp[1:-1, 1:] - pp[1:-1, :-1], 0.0)
    gy = np.where(fm.free_y, pp[1:, 1:-1] - pp[:-1, 1:-1], 0.0)
    return gx / h, gy / h


def subtract_pressure_gradient(u: MacVelocity, p: ScalarGrid, g: OccupancyGrid) -> MacVelocity:
    """u - grad(p) on free faces; solid faces keep their stored values."""
    gx, gy = _face_gradient(p, g)
    return MacVelocity(u.dims, u.ux - gx, u.uy - gy)


def adjoint_divergence(p: ScalarGrid, g: OccupancyGrid) -> MacVelocity:
    """Exact adjoint of :func:`divergence` under the flat inner products.

    For any velocity v with zero samples on solid faces and any cell field
    p, <divergence(v), p> == <v, adjoint_divergence(p)>.  It equals the
    negated free-face gradient of p.
    """
    gx, gy = _face_gradient(p, g)
    return MacVelocity(p.dims, -gx, -gy)


def vorticity(u: MacVelocity) -> ScalarGrid:
    """Scalar curl at cell centers.

    Face samples are first averaged to centers, then differenced with
    central differences inside and one-sided differences on the border.
    """
    h = u.dims.h
    ucx = 0.5 * (u.ux[:, :-1] + u.ux[:, 1:])
    ucy = 0.5 * (u.uy[:-1, :] + u.uy[1:, :])
    duy_dx = np.gradient(ucy, h, axis=1)
    dux_dy = np.gradient(ucx, h, axis=0)
    return ScalarGrid(u.dims, duy_dx - dux_dy)


# ====== Pressure system ======

@dataclass
class PoissonSystem:
    """The linear system A p = b of the pressure projection.

    A is the 5-point Laplacian over fluid cells scaled by 1/h^2, with the
    diagonal counting non-solid neighbors.  Solid neighbors drop out
    (mirror condition), air neighbors beyond an open top keep the diagonal
    contribution but add no off-diagonal term (their pressure is zero).
    A is symmetric positive semidefinite; it is singular exactly on the
    constants of each fluid component not in contact with air.
    """

    g: OccupancyGrid
    b: ScalarGrid

    @property
    def dims(self) -> GridDims:
        return self.g.dims
