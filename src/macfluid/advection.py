"""Semi-Lagrangian advection with boundary-aware backtraces.

Quantities are advected by tracing each sample location backward through
the velocity field with a single backward Euler step and interpolating
the source field at the landing point.  A backtrace that leaves the fluid
(entering a solid cell, the border wall, or the air above an open top) is
clamped to the fluid side of the first crossing: a coarse scan at
evenly spaced parameters along the trace, at least four and at most half
a cell apart, finds the first non-fluid sample, then bisection refines
the crossing.  At that spacing no trace steps over a straight wall one
cell thick, at any CFL number.  The scan looks its probes up in blocks of
four, each block one lookup of x and y together over every trace it
scans, and keeps each trace's first hit; each bisection step is one such
lookup too.  So a long trace costs one lookup per four probes, and memory
stays at four probes per trace.

Only a trace that can reach a non-fluid point is scanned; every other one
lands at x0 + dx, bit for bit what the scan gives.  A trace is skipped
when it is shorter than its node's clearance (``_clearance2``, kept per
grid): the exact distance from the node to the nearest non-fluid cell
square of the padded fluid mask, so border walls and the air above an
open top count too, less a roundoff margin.  ``g.distance``
would not do: it sees only solid cells and is +inf on a grid without
solid.  A trace of zero displacement is skipped whatever its clearance;
the face nodes on the right and top borders sit on the padded mask's ring.

A frame advects the density and both velocity components in one pass,
:func:`advect`: one trace over the nodes of all three lattices, the cell
lattice and then the two face lattices.  ``advect_scalar`` and
``self_advect`` run the same pass over the cells alone or the faces alone.
Where each node sits, its clearances and its bilinear weights on the
``ux`` and ``uy`` lattices form a sampling plan built once per grid and
tuple of lattices, so a node's velocity costs two weighted gathers per
pass.  The MacCormack scheme traces backward and forward, +-dt times that
one velocity sample, stacked on a leading axis of 2, so the pass takes at
most one scan; the two traces share |d|^2 and the zero pattern, so the
far test works those out once per node.  Each trace is clamped on its own
data alone (more traces in the scan only add probes past a trace's own
count, which it masks out), so which traces share a pass does not change
a bit.  Per lattice, the scheme applies half the round-trip defect as a
correction, and keeps the corrected value only while it stays inside the
min/max of the four interpolation samples of the forward trace;
otherwise it falls back to the plain value.

Solid cells and solid faces keep their stored values, so the landing
points of their traces are thrown away, but for one: a solid node's
backward trace sets its sample of the advected field, which the MacCormack
correction of the nodes around it interpolates.  Their forward traces,
and their only trace under ``sl``, get clearance +inf and are not scanned
unless their displacement is not finite.

Advection writes into memory it already owns.  A trace's displacements,
landing points and far-test temporaries live in work arrays kept per
trace shape, (steps, nodes), by ``_trace_work`` rather than per grid, so
a new grid of a known size (a new scene) allocates none.  Every call
overwrites them and none is ever returned.  Sampling runs in the buffers
of the gathered corners (``grids._bilinear_apply``), and the MacCormack
correction and limiter run in the backward sample's and the forward
sample's buffers, which become the returned fields.  Each element sees
the same IEEE operations on the same operands as out of place, so the
results are bit for bit the same.  The work arrays are shared by every
caller in the process, so advection must not run on two threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .grids import (MacVelocity, OccupancyGrid, ScalarGrid, _bilinear, _bilinear_apply,
                    _bilinear_weights, _lattice_xy, _read_only)

_MIN_PROBES = 4
_BISECT_ITERS = 8
# cells taken off the exact clearance for roundoff in the probe positions
_CLEARANCE_MARGIN = 1e-6


def _check_scheme(scheme: str) -> None:
    if scheme not in ("sl", "maccormack"):
        raise ValueError(f"unknown advection scheme {scheme!r}")


def _fluid_at(g: OccupancyGrid, p: np.ndarray) -> np.ndarray:
    """True where a point lies inside a fluid cell, for points stacked as
    ``p = (x, y)`` on a leading axis of 2: one lookup in ``g.fluid_padded``,
    whose ring of False cells stands for every point outside the grid.  Both
    axes are floored, cast and shifted by one together, then each is
    clamped into the padded mask."""
    ij = np.floor(p / g.dims.h).astype(np.int64)
    ij += 1
    np.maximum(ij, 0, out=ij)
    i, j = ij
    np.minimum(i, g.dims.nx + 1, out=i)
    np.minimum(j, g.dims.ny + 1, out=j)
    j *= g.dims.nx + 2
    j += i
    return g.fluid_padded.ravel().take(j)


def _clearance2(g: OccupancyGrid, shape: tuple[int, int], offx: float,
                offy: float) -> np.ndarray:
    """Squared clearance of each node of a lattice, in world units: the
    length a trace from the node may have and still meet no non-fluid point.
    The sampling plan keeps it per grid.

    The clearance is the distance from the node to the nearest closed cell
    square that is non-fluid in ``g.fluid_padded`` (``_half_cell_distance``),
    less ``_CLEARANCE_MARGIN``.  Every non-fluid point lies in such a
    square, points outside the padded mask lie behind its ring, and the
    margin covers the roundoff of the probe positions x0 + i * (dx / k) and
    of ``_fluid_at``'s x / h.  So a cell-center node beside a wall has a
    clearance of just under half a cell.
    """
    nrows, ncols = shape
    a, b = round(2 * offx) + 2, round(2 * offy) + 2
    d = g.derived(_half_cell_distance)[b:b + 2 * nrows:2, a:a + 2 * ncols:2]
    return _read_only((np.maximum(d - _CLEARANCE_MARGIN, 0.0) * g.dims.h) ** 2)


def _half_cell_distance(g: OccupancyGrid) -> np.ndarray:
    """Distance in cells from each point of the half-cell lattice over
    ``g.fluid_padded`` (point (a, b) at cell coordinates (a / 2 - 1, b / 2 - 1))
    to the nearest closed square of a non-fluid padded cell.

    A lattice node has half-cell coordinates, and so has the point of any
    cell square nearest to it (the node clamped into the square), so the
    distance to the nearest marked half-cell point, marked being every
    corner, edge midpoint and center of a non-fluid cell, is exact.  The
    cell in padded row r and column c has its center at (2 c + 1, 2 r + 1),
    so nine strided slices, one per offset of the 3x3 block around it, mark
    them all."""
    ny2, nx2 = g.fluid_padded.shape
    nonfluid = ~g.fluid_padded
    marked = np.zeros((2 * ny2 + 1, 2 * nx2 + 1), dtype=bool)
    for b in range(3):
        for a in range(3):
            marked[b:b + 2 * ny2:2, a:a + 2 * nx2:2] |= nonfluid
    return _read_only(0.5 * ndimage.distance_transform_edt(~marked))


def _clamp(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, dx: np.ndarray,
           dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Landing points (x0 + dx, y0 + dy) of traces given as arrays of one
    axis, each clamped to the fluid side of its first crossing; the start
    points broadcast against the displacements."""
    # coarse scan for the first probe that left the fluid: k probes per
    # trace at fractions i/k; a probe past the domain is never fluid, so no
    # trace needs more than ``reach`` of them, however long it is
    k = np.maximum(_MIN_PROBES, np.ceil(2.0 * np.sqrt(dx * dx + dy * dy) / g.dims.h))
    reach = math.ceil(2.0 * math.hypot(g.dims.nx, g.dims.ny)) + 4
    start = np.stack(np.broadcast_arrays(x0, y0, dx)[:2])
    delta = np.stack([dx, dy])
    step = delta / k
    # probes i = 1, 2, ... in blocks of at most _MIN_PROBES rows, each block
    # one stacked lookup; the smallest i <= k that left the fluid, +inf if none
    first = np.full(k.shape, np.inf)
    probe_i = np.arange(1.0, int(min(reach, k.max(initial=0.0))) + 1.0)[:, None]
    for at in range(0, len(probe_i), _MIN_PROBES):
        i = probe_i[at:at + _MIN_PROBES]
        probes = step[:, None] * i
        probes += start[:, None]
        hit = ~_fluid_at(g, probes)
        hit &= i <= k
        np.minimum(first, np.where(hit, i, np.inf).min(axis=0), out=first)
    out_x, out_y = x0 + dx, y0 + dy
    sel = np.flatnonzero(first < np.inf)
    if sel.size == 0:
        return out_x, out_y

    f, ks = first[sel], k[sel]
    lo, hi = (f - 1) / ks, f / ks
    start, delta = start[:, sel], delta[:, sel]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        probes = delta * mid
        probes += start
        ok = _fluid_at(g, probes)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    land = delta * lo
    land += start
    out_x[sel], out_y[sel] = land
    return out_x, out_y


class _TraceWork(NamedTuple):
    """Work arrays of one trace shape, (steps, nodes): the displacements
    ``dx``, ``dy``, the landing points ``x``, ``y`` and the scan mask
    ``scan``, one row per step, and the per-node far-test temporaries
    ``d2``, ``dy2``, ``moves`` and ``moves_y``."""

    dx: np.ndarray
    dy: np.ndarray
    x: np.ndarray
    y: np.ndarray
    scan: np.ndarray
    d2: np.ndarray
    dy2: np.ndarray
    moves: np.ndarray
    moves_y: np.ndarray


# one trace or two, over the nodes of one frame's pass or of a wrapper's
# lattices, at two grid sizes
@lru_cache(maxsize=8)
def _trace_work(shape: tuple[int, int]) -> _TraceWork:
    """The work arrays for traces of ``shape``, shared by every grid: each
    call of ``_trace`` overwrites them, and none is ever returned to a
    caller outside this module."""
    rows = (np.empty(shape) for _ in range(4))
    nodes = (np.empty(shape[1:]) for _ in range(2))
    return _TraceWork(*rows, np.empty(shape, dtype=bool), *nodes,
                      *(np.empty(shape[1:], dtype=bool) for _ in range(2)))


def _trace(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, vx: np.ndarray,
           vy: np.ndarray, steps: np.ndarray, clear2: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """``_clamp`` of the traces of displacement (dx, dy) = s * (vx, vy) from
    the nodes (x0, y0), one row per step s of ``steps``, which may differ
    only in sign; ``clear2`` holds one squared clearance per row and node
    (``_clearance2``, or +inf where a row's landing point is not used).

    A trace shorter than its row's clearance meets no non-fluid point, and a
    trace of zero displacement goes nowhere, so both land at x0 + dx
    unscanned; only the rest (NaN and inf displacements among them, which
    fail the comparison) are scanned.  Since the rows are one velocity sample
    times +-|s|, they share |d|^2 and the zero pattern, so the far test
    works those out once per node.

    The landing points are ``_trace_work``'s ``x`` and ``y``, valid until the
    next trace of that shape."""
    w = _trace_work((len(steps), vx.size))
    dx = np.multiply(steps[:, None], vx, out=w.dx)
    dy = np.multiply(steps[:, None], vy, out=w.dy)
    out_x, out_y = np.add(x0, dx, out=w.x), np.add(y0, dy, out=w.y)
    # scan = ~(dx * dx + dy * dy < clear2) & ((dx != 0.0) | (dy != 0.0))
    d2 = np.multiply(dx[0], dx[0], out=w.d2)
    d2 += np.multiply(dy[0], dy[0], out=w.dy2)
    scan = np.less(d2, clear2, out=w.scan)
    np.invert(scan, out=scan)
    moves = np.not_equal(dx[0], 0.0, out=w.moves)
    moves |= np.not_equal(dy[0], 0.0, out=w.moves_y)
    scan &= moves
    far = np.nonzero(scan)
    if far[0].size:
        nodes = far[1]
        out_x[far], out_y[far] = _clamp(g, x0[nodes], y0[nodes], dx[far], dy[far])
    return out_x, out_y


def _kept_nodes(g: OccupancyGrid, offx: float, offy: float) -> np.ndarray:
    """The nodes of a lattice that keep their stored values through
    advection: the solid cells of the cell centers (0.5, 0.5), the solid
    faces of the x faces (0, 0.5) and of the y faces (0.5, 0)."""
    if offx == offy:
        return g.solid
    return g.faces.solid_x if offx == 0.0 else g.faces.solid_y


@dataclass(frozen=True)
class _SamplingPlan:
    """What a trace needs of the nodes of some lattices, lattice after
    lattice: their world coordinates, their squared clearances per trace
    row and the ``_bilinear_weights`` of the ``ux`` and ``uy`` lattices at
    them; ``spans`` picks out each lattice's nodes.

    ``clear2`` has two rows: row 0 is each node's ``_clearance2``, for the
    MacCormack backward trace, and row 1 is the same with +inf on the kept
    nodes (``_kept_nodes``), for the MacCormack forward trace and the one sl
    trace.  A kept node's own value is overwritten, so of its traces only the
    MacCormack backward one is ever read: it sets the node's sample of the
    advected field, which the correction of its neighbors interpolates."""

    x: np.ndarray
    y: np.ndarray
    clear2: np.ndarray
    ux: tuple[np.ndarray, np.ndarray, np.ndarray]
    uy: tuple[np.ndarray, np.ndarray, np.ndarray]
    spans: tuple[slice, ...]


def _sampling_plan(g: OccupancyGrid, lattices: tuple) -> _SamplingPlan:
    """The plan for lattices given as (shape, offx, offy); built once per
    grid and tuple of lattices with ``g.derived``."""
    h = g.dims.h
    xs, ys, clear2, kept, spans, n = [], [], [], [], [], 0
    for shape, offx, offy in lattices:
        x, y = _lattice_xy(shape, offx, offy)
        x, y = np.broadcast_arrays(x * h, y * h)
        xs.append(x.ravel())
        ys.append(y.ravel())
        clear2.append(_clearance2(g, shape, offx, offy).ravel())
        kept.append(_kept_nodes(g, offx, offy).ravel())
        spans.append(slice(n, n + x.size))
        n += x.size
    x, y = np.concatenate(xs), np.concatenate(ys)
    clear2 = np.stack([np.concatenate(clear2)] * 2)
    clear2[1, np.concatenate(kept)] = np.inf
    ux = tuple(map(_read_only, _bilinear_weights(g.dims.shape_ux, x, y, 0.0, 0.5, h)))
    uy = tuple(map(_read_only, _bilinear_weights(g.dims.shape_uy, x, y, 0.5, 0.0, h)))
    return _read_only(_SamplingPlan(x, y, clear2, ux, uy, tuple(spans)))


def _advect(fields: list[tuple[np.ndarray, float, float]], u: MacVelocity, g: OccupancyGrid,
            dt: float, scheme: str) -> list[np.ndarray]:
    """Advect sample lattices, each given as (values, offx, offy), through u
    with one trace over all of their nodes; kept nodes (``_kept_nodes``)
    keep their values."""
    _check_scheme(scheme)
    if dt == 0.0:
        return [values.copy() for values, _, _ in fields]
    h = g.dims.h
    plan = g.derived(_sampling_plan, tuple((v.shape, ox, oy) for v, ox, oy in fields))
    vx = _bilinear_apply(u.ux, *plan.ux)
    vy = _bilinear_apply(u.uy, *plan.uy)
    # the backward trace, and for MacCormack the forward one beside it, so
    # that one scan serves both
    if scheme == "sl":
        tx, ty = _trace(g, plan.x, plan.y, vx, vy, np.array([-dt]), plan.clear2[1:])
    else:
        tx, ty = _trace(g, plan.x, plan.y, vx, vy, np.array([-dt, dt]), plan.clear2)

    out = []
    for (values, offx, offy), span in zip(fields, plan.spans):
        # views of this lattice's landing points, shape (steps, nrows, ncols)
        x, y = (t[:, span].reshape(-1, *values.shape) for t in (tx, ty))
        if scheme == "sl":
            fwd = _bilinear(values, x[0], y[0], offx, offy, h)
        else:
            fwd, lo, hi = _bilinear(values, x[0], y[0], offx, offy, h, with_bounds=True)
            # corrected = fwd + 0.5 * (values - bwd), in bwd's buffer
            corrected = _bilinear(fwd, x[1], y[1], offx, offy, h)
            np.subtract(values, corrected, out=corrected)
            corrected *= 0.5
            np.add(fwd, corrected, out=corrected)
            inside = corrected >= lo
            inside &= corrected <= hi
            np.copyto(fwd, corrected, where=inside)
        np.copyto(fwd, values, where=_kept_nodes(g, offx, offy))
        out.append(fwd)
    return out


def advect(density: ScalarGrid, u: MacVelocity, g: OccupancyGrid, dt: float,
           scheme: str = "maccormack") -> tuple[ScalarGrid, MacVelocity]:
    """Advect a cell-centered density and both velocity components through
    the frozen field u, in one pass; solid cells and solid faces keep their
    stored values."""
    rho, ux, uy = _advect([(density.values, 0.5, 0.5), (u.ux, 0.0, 0.5), (u.uy, 0.5, 0.0)],
                          u, g, dt, scheme)
    return ScalarGrid(density.dims, rho), MacVelocity(u.dims, ux, uy)


def advect_scalar(q: ScalarGrid, u: MacVelocity, g: OccupancyGrid, dt: float,
                  scheme: str = "maccormack") -> ScalarGrid:
    """Advect a cell-centered field through u; solid cells keep their values.
    Bit for bit the density that :func:`advect` returns."""
    (out,) = _advect([(q.values, 0.5, 0.5)], u, g, dt, scheme)
    return ScalarGrid(q.dims, out)


def self_advect(u: MacVelocity, g: OccupancyGrid, dt: float,
                scheme: str = "maccormack") -> MacVelocity:
    """Advect both velocity components through the frozen field u; solid
    faces keep their stored (enforced) values.  Bit for bit the velocity that
    :func:`advect` returns."""
    ux, uy = _advect([(u.ux, 0.0, 0.5), (u.uy, 0.5, 0.0)], u, g, dt, scheme)
    return MacVelocity(u.dims, ux, uy)
