"""Reference routines that only the tests call.

Each is the plain form of something the package computes a faster way,
kept here as an oracle: bilinear sampling at arbitrary positions, single
backward traces, advection of one sample lattice at a time (each with its
own velocity sampling, trace and scan, which the package's one trace per
call reproduces bit for bit), cell-center positions, the residual norm of
a pressure solve, and convolution forward and backward through ``np.pad``,
``sliding_window_view`` and ``tensordot``, which the package's window-matrix
GEMM reproduces bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from macfluid.advection import _clamp, _clearance2, _trace
from macfluid.convnet import _replicate_pad_adjoint
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


def advect_lattice(values: np.ndarray, offx: float, offy: float, u: MacVelocity,
                   g: OccupancyGrid, dt: float, scheme: str) -> np.ndarray:
    """Advect one sample lattice (cell centers or one face family)."""
    h = g.dims.h
    x, y = _lattice_xy(values.shape, offx, offy)
    x, y = x * h, y * h
    vx = _bilinear(u.ux, x, y, 0.0, 0.5, h)
    vy = _bilinear(u.uy, x, y, 0.5, 0.0, h)
    # the backward trace, and for MacCormack the forward one beside it on a
    # leading axis, so that one scan serves both
    steps = np.array([-dt] if scheme == "sl" else [-dt, dt])[:, None, None]
    clear2 = g.derived(_clearance2, values.shape, offx, offy)
    tx, ty = _trace(g, x, y, steps * vx, steps * vy, clear2)

    if scheme == "sl":
        return _bilinear(values, tx[0], ty[0], offx, offy, h)

    fwd, lo, hi = _bilinear(values, tx[0], ty[0], offx, offy, h, with_bounds=True)
    bwd = _bilinear(fwd, tx[1], ty[1], offx, offy, h)
    corrected = fwd + 0.5 * (values - bwd)
    inside = (corrected >= lo) & (corrected <= hi)
    return np.where(inside, corrected, fwd)


def residual_norm(sys: PoissonSystem, p: ScalarGrid) -> float:
    """Euclidean norm of A p - b over fluid cells."""
    r = apply_poisson(sys.g, p).values - sys.b.values
    return float(np.linalg.norm(r[sys.g.fluid]))


def _replicate_pad(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (p, p), (p, p)), mode="edge")


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size convolution with replicate padding.

    x is (c_in, h, w); w is (c_out, c_in, k, k); b is (c_out,).
    """
    k = w.shape[2]
    xp = _replicate_pad(x, k // 2)
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    y = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    return y + b[:, None, None]


def conv2d_backward(cot: np.ndarray, x: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents of (x, w, b) for y = conv2d(x, w, b)."""
    k = w.shape[2]
    p = k // 2
    xp = _replicate_pad(x, p)
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    dw = np.tensordot(cot, win, axes=([1, 2], [1, 2]))
    db = cot.sum(axis=(1, 2))
    wf = w[:, :, ::-1, ::-1]
    cz = np.pad(cot, ((0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    cwin = sliding_window_view(cz, (k, k), axis=(1, 2))
    dxp = np.tensordot(wf, cwin, axes=([0, 2, 3], [0, 3, 4]))
    return _replicate_pad_adjoint(dxp, p), dw, db
