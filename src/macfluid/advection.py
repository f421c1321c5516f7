"""Semi-Lagrangian advection with boundary-aware backtraces.

Quantities are advected by tracing each sample location backward through
the velocity field with a single backward Euler step and interpolating
the source field at the landing point.  A backtrace that leaves the fluid
(entering a solid cell, the border wall, or the air above an open top) is
clamped to the fluid side of the first crossing: a coarse scan at
evenly spaced parameters along the trace, at least four and at most half
a cell apart, finds the first non-fluid sample, then bisection refines
the crossing.  At that spacing no trace steps over a straight wall one
cell thick, at any CFL number.

The MacCormack scheme runs the plain trace forward and backward, applies
half the round-trip defect as a correction, and keeps the corrected value
only while it stays inside the min/max of the four interpolation samples
of the forward trace; otherwise it falls back to the plain value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grids import (MacVelocity, OccupancyGrid, ScalarGrid, _bilinear, _lattice_points,
                    _read_only, sample_velocity)

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


def trace_back(pos: np.ndarray, u: MacVelocity, g: OccupancyGrid, dt: float) -> np.ndarray:
    """Landing points of backward Euler traces pos - dt * u(pos).

    Traces that would exit the fluid are clamped to the fluid side of the
    first crossing.  ``pos`` has shape (n, 2); the result matches.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = sample_velocity(u, pos)
    delta = -dt * vel
    x0, y0 = pos[:, 0], pos[:, 1]
    dx, dy = delta[:, 0], delta[:, 1]

    # coarse scan for the first probe that left the fluid: k probes per
    # trace at fractions i/k; a probe past the domain is never fluid, so no
    # trace needs more than ``reach`` of them, however long it is
    k = np.maximum(_MIN_PROBES, np.ceil(2.0 * np.sqrt(dx * dx + dy * dy) / g.dims.h))
    reach = math.ceil(2.0 * math.hypot(g.dims.nx, g.dims.ny)) + 4
    pdx, pdy = dx / k, dy / k
    first = np.zeros(pos.shape[0], dtype=np.int64)  # 0: every probe in fluid
    for i in range(int(min(reach, k.max(initial=0.0))), 0, -1):
        left = ~_fluid_at_points(g, x0 + i * pdx, y0 + i * pdy)
        first[left & (i <= k)] = i
    sel = np.flatnonzero(first)
    if sel.size == 0:
        return pos + delta

    f, ks = first[sel], k[sel]
    lo, hi = (f - 1) / ks, f / ks
    sx, sy = x0[sel], y0[sel]
    sdx, sdy = dx[sel], dy[sel]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        ok = _fluid_at_points(g, sx + mid * sdx, sy + mid * sdy)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)

    out = pos + delta
    out[sel, 0] = sx + lo * sdx
    out[sel, 1] = sy + lo * sdy
    return out


@lru_cache(maxsize=32)
def _lattice_positions(shape: tuple[int, int], offx: float, offy: float,
                       h: float) -> np.ndarray:
    """Read-only world positions of a lattice's nodes, shape (nrows * ncols, 2)."""
    return _read_only(_lattice_points(shape, offx, offy, h).reshape(-1, 2))


def _advect_lattice(values: np.ndarray, offx: float, offy: float, u: MacVelocity,
                    g: OccupancyGrid, dt: float, scheme: str) -> np.ndarray:
    """Advect one sample lattice (cell centers or one face family)."""
    h = g.dims.h
    shape = values.shape
    pos = _lattice_positions(shape, offx, offy, h)
    back = trace_back(pos, u, g, dt)

    if scheme == "sl":
        out = _bilinear(values, back[:, 0], back[:, 1], offx, offy, h)
        return out.reshape(shape)

    fwd, lo, hi = _bilinear(values, back[:, 0], back[:, 1], offx, offy, h, with_bounds=True)
    fwd = fwd.reshape(shape)
    again = trace_back(pos, u, g, -dt)
    bwd = _bilinear(fwd, again[:, 0], again[:, 1], offx, offy, h).reshape(shape)
    corrected = fwd + 0.5 * (values - bwd)
    inside = (corrected >= lo.reshape(shape)) & (corrected <= hi.reshape(shape))
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
