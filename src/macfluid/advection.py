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

Most traces start in open fluid and are too short to reach a non-fluid
cell; they skip the scan and land at x0 + dx, bit for bit what the scan
gives.  The test is a clearance per lattice node, built once per grid
(``_clearance2``): D - 1.5 cells, D being the distance to the nearest
non-fluid cell of the padded fluid mask, so border walls and the air above
an open top count too.  ``g.distance`` would not do: it sees only solid
cells and is +inf on a grid without solid.

The MacCormack scheme runs the plain trace forward and backward, both
scaled from one velocity sample at the lattice nodes, applies half the
round-trip defect as a correction, and keeps the corrected value
only while it stays inside the min/max of the four interpolation samples
of the forward trace; otherwise it falls back to the plain value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .grids import (MacVelocity, OccupancyGrid, ScalarGrid, _bilinear, _lattice_xy,
                    _read_only, sample_velocity)

_MIN_PROBES = 4
_BISECT_ITERS = 8

def _check_scheme(scheme: str) -> None:
    if scheme not in ("sl", "maccormack"):
        raise ValueError(f"unknown advection scheme {scheme!r}")


def _padded_cell(g: OccupancyGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat index into ``g.fluid_padded`` of the cell holding each point: a
    cell index shifted by one and clamped to the ring of False cells stands
    for every point outside the grid."""
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
    return j


def _fluid_at_points(g: OccupancyGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where the point lies inside a fluid cell (one padded-mask lookup)."""
    return g.fluid_padded.ravel().take(_padded_cell(g, x, y))


def _clearance2(g: OccupancyGrid, shape: tuple[int, int], offx: float,
                offy: float) -> np.ndarray:
    """Squared clearance of each node of a lattice, in world units: the
    length a trace from the node may have and still meet no non-fluid point.
    Built once per lattice with ``g.derived``.

    A node lies in the cell ``_fluid_at_points`` assigns it, so within
    sqrt(2)/2 of that cell's center, and every point of a non-fluid cell
    lies within sqrt(2)/2 of its center; points outside the padded mask
    lie behind its ring of non-fluid cells.  So no non-fluid point is
    nearer to the node than D - sqrt(2) cells, where D is the
    center-to-center distance from the node's cell to the nearest non-fluid
    cell of ``g.fluid_padded``.  The clearance is D - 1.5, at least 0, so
    that roundoff in the probe positions x0 + i * (dx / k) cannot reach past
    the bound.
    """
    h = g.dims.h
    x, y = _lattice_xy(shape, offx, offy)
    x, y = np.broadcast_arrays(x * h, y * h)
    d = g.derived(_padded_distance).take(_padded_cell(g, x, y))
    return _read_only((np.maximum(d - 1.5, 0.0) * h) ** 2)


def _padded_distance(g: OccupancyGrid) -> np.ndarray:
    """D for every cell of ``g.fluid_padded``, flattened: the center-to-center
    distance to the nearest non-fluid cell, in cells; 0 on non-fluid cells."""
    return _read_only(ndimage.distance_transform_edt(g.fluid_padded).ravel())


def _clamp(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, dx: np.ndarray,
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


def _trace(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, dx: np.ndarray,
           dy: np.ndarray, clear2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_clamp`` for the nodes of a lattice, with ``clear2`` from
    ``_clearance2``: a trace shorter than its node's clearance meets no
    non-fluid point and lands at x0 + dx unscanned; only the rest (NaN and
    inf displacements among them, which fail the comparison) are scanned."""
    out_x, out_y = x0 + dx, y0 + dy
    far = np.nonzero(~(dx * dx + dy * dy < clear2))
    if far[0].size:
        out_x[far], out_y[far] = _clamp(
            g, np.broadcast_to(x0, dx.shape)[far], np.broadcast_to(y0, dx.shape)[far],
            dx[far], dy[far])
    return out_x, out_y


def trace_back(pos: np.ndarray, u: MacVelocity, g: OccupancyGrid, dt: float) -> np.ndarray:
    """Landing points of backward Euler traces pos - dt * u(pos).

    Traces that would exit the fluid are clamped to the fluid side of the
    first crossing.  ``pos`` has shape (n, 2); the result matches.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = sample_velocity(u, pos)
    x, y = _clamp(g, pos[:, 0], pos[:, 1], -dt * vel[:, 0], -dt * vel[:, 1])
    return np.stack([x, y], axis=-1)


def _advect_lattice(values: np.ndarray, offx: float, offy: float, u: MacVelocity,
                    g: OccupancyGrid, dt: float, scheme: str) -> np.ndarray:
    """Advect one sample lattice (cell centers or one face family)."""
    h = g.dims.h
    x, y = _lattice_xy(values.shape, offx, offy)
    x, y = x * h, y * h
    vx = _bilinear(u.ux, x, y, 0.0, 0.5, h)
    vy = _bilinear(u.uy, x, y, 0.5, 0.0, h)
    clear2 = g.derived(_clearance2, values.shape, offx, offy)
    bx, by = _trace(g, x, y, -dt * vx, -dt * vy, clear2)

    if scheme == "sl":
        return _bilinear(values, bx, by, offx, offy, h)

    fwd, lo, hi = _bilinear(values, bx, by, offx, offy, h, with_bounds=True)
    ax, ay = _trace(g, x, y, dt * vx, dt * vy, clear2)
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
