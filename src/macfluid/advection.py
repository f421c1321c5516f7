"""Semi-Lagrangian advection with boundary-aware backtraces.

Quantities are advected by tracing each sample location backward through
the velocity field with a single backward Euler step and interpolating
the source field at the landing point.  A backtrace that leaves the fluid
(entering a solid cell, the border wall, or the air above an open top) is
clamped to the fluid side of the first crossing: a coarse scan at
evenly spaced parameters along the trace, at least four and at most half
a cell apart, finds the first non-fluid sample, then bisection refines
the crossing.  At that spacing no trace steps over a straight wall one
cell thick, at any CFL number.  Each lattice (cell centers, x faces,
y faces) is traced in its own (nrows, ncols) shape.

The MacCormack scheme runs the plain trace forward and backward, both
scaled from one velocity sample at the lattice nodes, applies half the
round-trip defect as a correction, and keeps the corrected value
only while it stays inside the min/max of the four interpolation samples
of the forward trace; otherwise it falls back to the plain value.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import (MacVelocity, OccupancyGrid, ScalarGrid, _bilinear, _lattice_xy,
                    sample_velocity)

_MIN_PROBES = 4
_BISECT_ITERS = 8

def _check_scheme(scheme: str) -> None:
    if scheme not in ("sl", "maccormack"):
        raise ValueError(f"unknown advection scheme {scheme!r}")


def _fluid_at_points(g: OccupancyGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where the point lies inside a fluid cell.

    One lookup into the padded fluid mask: a cell index shifted by one and
    clamped to the ring of False cells stands for every point outside the
    grid.
    """
    nx, ny = g.dims.nx, g.dims.ny
    i = np.floor(x / g.dims.h).astype(np.int64)
    j = np.floor(y / g.dims.h).astype(np.int64)
    i += 1
    j += 1
    np.maximum(i, 0, out=i)
    np.minimum(i, nx + 1, out=i)
    np.maximum(j, 0, out=j)
    np.minimum(j, ny + 1, out=j)
    j *= nx + 2
    j += i
    return g.fluid_padded.ravel().take(j)


def _trace(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, dx: np.ndarray,
           dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Landing points (x0 + dx, y0 + dy), each clamped to the fluid side of
    its first crossing; the start points broadcast against the displacements."""
    # coarse scan for the first probe that left the fluid: k probes per
    # trace at fractions i/k; a probe past the domain is never fluid, so no
    # trace needs more than ``reach`` of them, however long it is
    k = np.maximum(_MIN_PROBES, np.ceil(2.0 * np.sqrt(dx * dx + dy * dy) / g.dims.h))
    reach = math.ceil(2.0 * math.hypot(g.dims.nx, g.dims.ny)) + 4
    pdx, pdy = dx / k, dy / k
    first = np.zeros(k.shape, dtype=np.int64)  # 0: every probe in fluid
    for i in range(int(min(reach, k.max(initial=0.0))), 0, -1):
        left = ~_fluid_at_points(g, x0 + i * pdx, y0 + i * pdy)
        first[left & (i <= k)] = i
    out_x, out_y = x0 + dx, y0 + dy
    sel = np.nonzero(first)
    if sel[0].size == 0:
        return out_x, out_y

    f, ks = first[sel], k[sel]
    lo, hi = (f - 1) / ks, f / ks
    sx, sy = np.broadcast_to(x0, k.shape)[sel], np.broadcast_to(y0, k.shape)[sel]
    sdx, sdy = dx[sel], dy[sel]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        ok = _fluid_at_points(g, sx + mid * sdx, sy + mid * sdy)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    out_x[sel] = sx + lo * sdx
    out_y[sel] = sy + lo * sdy
    return out_x, out_y


def trace_back(pos: np.ndarray, u: MacVelocity, g: OccupancyGrid, dt: float) -> np.ndarray:
    """Landing points of backward Euler traces pos - dt * u(pos).

    Traces that would exit the fluid are clamped to the fluid side of the
    first crossing.  ``pos`` has shape (n, 2); the result matches.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = sample_velocity(u, pos)
    x, y = _trace(g, pos[:, 0], pos[:, 1], -dt * vel[:, 0], -dt * vel[:, 1])
    return np.stack([x, y], axis=-1)


def _advect_lattice(values: np.ndarray, offx: float, offy: float, u: MacVelocity,
                    g: OccupancyGrid, dt: float, scheme: str) -> np.ndarray:
    """Advect one sample lattice (cell centers or one face family)."""
    h = g.dims.h
    x, y = _lattice_xy(values.shape, offx, offy)
    x, y = x * h, y * h
    vx = _bilinear(u.ux, x, y, 0.0, 0.5, h)
    vy = _bilinear(u.uy, x, y, 0.5, 0.0, h)
    bx, by = _trace(g, x, y, -dt * vx, -dt * vy)

    if scheme == "sl":
        return _bilinear(values, bx, by, offx, offy, h)

    fwd, lo, hi = _bilinear(values, bx, by, offx, offy, h, with_bounds=True)
    ax, ay = _trace(g, x, y, dt * vx, dt * vy)
    bwd = _bilinear(fwd, ax, ay, offx, offy, h)
    corrected = fwd + 0.5 * (values - bwd)
    inside = (corrected >= lo) & (corrected <= hi)
    return np.where(inside, corrected, fwd)


def advect_scalar(q: ScalarGrid, u: MacVelocity, g: OccupancyGrid, dt: float,
                  scheme: str = "maccormack") -> ScalarGrid:
    """Advect a cell-centered field through u; solid cells keep their values."""
    _check_scheme(scheme)
    if dt == 0.0:
        return q.copy()
    out = _advect_lattice(q.values, 0.5, 0.5, u, g, dt, scheme)
    out[g.solid] = q.values[g.solid]
    return ScalarGrid(q.dims, out)


def self_advect(u: MacVelocity, g: OccupancyGrid, dt: float,
                scheme: str = "maccormack") -> MacVelocity:
    """Advect both velocity components through the frozen field u.

    Solid faces keep their stored (enforced) values.
    """
    _check_scheme(scheme)
    if dt == 0.0:
        return u.copy()
    fm = g.faces
    ux = _advect_lattice(u.ux, 0.0, 0.5, u, g, dt, scheme)
    uy = _advect_lattice(u.uy, 0.5, 0.0, u, g, dt, scheme)
    ux[fm.solid_x] = u.ux[fm.solid_x]
    uy[fm.solid_y] = u.uy[fm.solid_y]
    return MacVelocity(u.dims, ux, uy)
