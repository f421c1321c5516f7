"""Reference routines that only the tests call.

Each is the plain form of something the package computes a faster way,
kept here as an oracle: bilinear sampling at arbitrary positions, single
backward traces, cell-center positions and the residual norm of a
pressure solve.
"""

from __future__ import annotations

import numpy as np

from macfluid.advection import _clamp
from macfluid.fdops import PoissonSystem, apply_poisson
from macfluid.grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _bilinear,
                            _lattice_xy)


def cell_centers(dims: GridDims) -> np.ndarray:
    """Positions of all cell centers, shape (ny, nx, 2)."""
    x, y = _lattice_xy(dims.shape, 0.5, 0.5)
    return np.stack(np.broadcast_arrays(x * dims.h, y * dims.h), axis=-1)


def _split_pos(pos) -> tuple[np.ndarray, np.ndarray, bool]:
    p = np.asarray(pos, dtype=np.float64)
    if p.shape[-1] != 2:
        raise ValueError(f"positions must have a trailing axis of size 2, got shape {p.shape}")
    single = p.ndim == 1
    return p[..., 0], p[..., 1], single


def sample_scalar(grid: ScalarGrid, pos) -> np.ndarray | float:
    """Bilinear sample of a cell-centered field at world positions.

    ``pos`` is one position of shape (2,) or an array of positions with a
    trailing axis of size 2.
    """
    x, y, single = _split_pos(pos)
    out = _bilinear(grid.values, x, y, 0.5, 0.5, grid.dims.h)
    return float(out) if single else out


def sample_velocity(u: MacVelocity, pos) -> np.ndarray:
    """Bilinear sample of a face-sampled velocity at world positions.

    Each component is interpolated on its own face lattice.  Returns an
    array with a trailing axis of size 2.
    """
    x, y, _ = _split_pos(pos)
    h = u.dims.h
    vx = _bilinear(u.ux, x, y, 0.0, 0.5, h)
    vy = _bilinear(u.uy, x, y, 0.5, 0.0, h)
    return np.stack([vx, vy], axis=-1)


def trace_back(pos: np.ndarray, u: MacVelocity, g: OccupancyGrid, dt: float) -> np.ndarray:
    """Landing points of backward Euler traces pos - dt * u(pos).

    Traces that would exit the fluid are clamped to the fluid side of the
    first crossing.  ``pos`` has shape (n, 2); the result matches.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = sample_velocity(u, pos)
    x, y = _clamp(g, pos[:, 0], pos[:, 1], -dt * vel[:, 0], -dt * vel[:, 1])
    return np.stack([x, y], axis=-1)


def residual_norm(sys: PoissonSystem, p: ScalarGrid) -> float:
    """Euclidean norm of A p - b over fluid cells."""
    r = apply_poisson(sys.g, p).values - sys.b.values
    return float(np.linalg.norm(r[sys.g.fluid]))
