"""Reference routines that only the tests call.

Each is the plain form of something the package computes a faster way,
kept here as an oracle: bilinear sampling at arbitrary positions and
the clearance-skipping lattice trace, both out of place in fresh arrays
(the package's in-place sampling and reused trace arrays reproduce them
bit for bit), the trace clamp one probe and one axis at a time, which the
package's blocks of probes on stacked x and y reproduce bit for bit,
single backward traces, advection of one sample lattice at a time (each with its
own velocity sampling, trace and scan, which the package's one pass per
frame reproduces bit for bit), emitter fields built afresh on every call,
which the fields the package keeps per grid reproduce bit for bit,
cell-center positions, the residual norm of
a pressure solve and the matrix-free Poisson operator it applies, Jacobi
sweeps that gather each cell's four neighbors through one index on the
compressed active cells, which the package's shifted slices of a padded
iterate reproduce bit for bit, a dense least-squares pressure solve,
which the package's sparse LU matches to roundoff, the PCG matrix and the
MGPCG V-cycle built through scipy's COO constructor with three sparse
products per level, which the package's directly built CSR arrays and
stacked down-sweep product reproduce bit for bit, MGPCG with every
product through scipy's ``@``, which the package's direct calls of
scipy's kernels reproduce bit for bit, the face averages and face
gradient through ``np.pad``, which the package's zeroed arrays reproduce
bit for bit, convolution forward and backward through ``np.pad``, ``sliding_window_view``
and ``tensordot``, which the package's window-matrix GEMM reproduces bit for
bit, and the network's forward and backward passes unrolled stage by stage,
which the package's loop over resolution levels reproduces bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from macfluid import convnet
from macfluid.advection import _BISECT_ITERS, _MIN_PROBES, _clearance2
from macfluid.convnet import NetParams, _replicate_pad_adjoint
from macfluid.fdops import PoissonSystem
from macfluid.pressure import (COARSE_ALPHA, COARSE_SIZE, SMOOTH_OMEGA, PcgInfo,
                               _active_cells, _build_hierarchy, _pcg_matrix,
                               _project_out_constants, _remove_closed_means)
from macfluid.grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _cone,
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


def _bilinear(values: np.ndarray, x: np.ndarray, y: np.ndarray, offx: float,
              offy: float, h: float, with_bounds: bool = False):
    """Bilinear interpolation on a lattice whose node (c, r) sits at
    ((c + offx) * h, (r + offy) * h), out of place: the weights of
    :func:`_bilinear_weights`, applied by :func:`_bilinear_apply`."""
    return _bilinear_apply(values, *_bilinear_weights(values.shape, x, y, offx, offy, h),
                           with_bounds=with_bounds)


def _bilinear_weights(shape: tuple[int, int], x: np.ndarray, y: np.ndarray,
                      offx: float, offy: float, h: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where and how :func:`_bilinear_apply` samples a lattice of ``shape``
    at the points (x, y): the flat index k = j0 * ncols + i0 of each lower
    left corner, and the fractions tx, ty within the cell.

    Positions outside the lattice are clamped to the border sample band
    first, so no value outside the convex hull of samples is ever produced.
    A NaN position raises ValueError: its int64 cast is INT_MIN, which the
    flat index would wrap back into range (to 0 when ncols is odd).
    """
    nrows, ncols = shape
    fx = np.clip(x / h - offx, 0.0, ncols - 1.0)
    fy = np.clip(y / h - offy, 0.0, nrows - 1.0)
    i0 = np.minimum(fx.astype(np.int64), ncols - 2)
    j0 = np.minimum(fy.astype(np.int64), nrows - 2)
    if min(i0.min(initial=0), j0.min(initial=0)) < 0:
        # the clip keeps only NaN below zero
        bx, by = np.broadcast_arrays(x, y)
        at = np.flatnonzero(np.isnan(bx) | np.isnan(by))[0]
        raise ValueError(f"cannot sample at the non-finite position "
                         f"({bx.flat[at]}, {by.flat[at]})")
    tx = fx - i0
    ty = fy - j0
    return j0 * ncols + i0, tx, ty


def _bilinear_apply(values: np.ndarray, k: np.ndarray, tx: np.ndarray,
                    ty: np.ndarray, with_bounds: bool = False):
    """Bilinear interpolation of ``values`` with weights from
    :func:`_bilinear_weights` for a lattice of its shape: the four corners
    are gathered from the flattened lattice at k, k + 1, k + ncols and
    k + ncols + 1, then three lerps."""
    ncols = values.shape[1]
    flat = values.ravel()
    v00 = flat.take(k)
    k = k + 1
    v01 = flat.take(k)
    k += ncols
    v11 = flat.take(k)
    k -= 1
    v10 = flat.take(k)
    top = v00 + tx * (v01 - v00)
    bot = v10 + tx * (v11 - v10)
    out = top + ty * (bot - top)
    if not with_bounds:
        return out
    lo = np.minimum(np.minimum(v00, v01), np.minimum(v10, v11))
    hi = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
    return out, lo, hi


def _padded_cell(g: OccupancyGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat index into ``g.fluid_padded`` of the cell holding each point: a
    cell index shifted by one and clamped to the ring of False cells stands
    for every point outside the grid.  One axis at a time."""
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


def _clamp(g: OccupancyGrid, x0: np.ndarray, y0: np.ndarray, dx: np.ndarray,
           dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Landing points (x0 + dx, y0 + dy), each clamped to the fluid side of
    its first crossing, one probe and one axis at a time: the coarse scan
    visits every probe index from the last down to 1, each a lookup over
    all traces, and bisection looks x and y up separately."""
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
    """``_clamp`` for lattice nodes, with ``clear2`` from ``_clearance2``: a
    trace shorter than its node's clearance meets no non-fluid point, and a
    trace of zero displacement goes nowhere, so both land at x0 + dx
    unscanned; only the rest (NaN and inf displacements among them, which
    fail the comparison) are scanned.  The displacements may carry leading
    axes of their own."""
    out_x, out_y = x0 + dx, y0 + dy
    far = np.nonzero(~(dx * dx + dy * dy < clear2) & ((dx != 0.0) | (dy != 0.0)))
    if far[0].size:
        out_x[far], out_y[far] = _clamp(
            g, np.broadcast_to(x0, dx.shape)[far], np.broadcast_to(y0, dx.shape)[far],
            dx[far], dy[far])
    return out_x, out_y


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


def advect_fields(density: ScalarGrid, u: MacVelocity, g: OccupancyGrid, dt: float,
                  scheme: str) -> list[np.ndarray]:
    """A step's advection one lattice at a time, as density then velocity
    were once advected in two calls: the density, ux and uy through the
    pre-step u, each solid cell and solid face keeping its stored value."""
    fm = g.faces
    out = []
    for values, offx, offy, kept in ((density.values, 0.5, 0.5, g.solid),
                                     (u.ux, 0.0, 0.5, fm.solid_x),
                                     (u.uy, 0.5, 0.0, fm.solid_y)):
        lattice = advect_lattice(values, offx, offy, u, g, dt, scheme)
        lattice[kept] = values[kept]
        out.append(lattice)
    return out


def apply_emitters_uncached(u: MacVelocity, emitters, frame_index: int) -> MacVelocity:
    """Each active emitter's velocity times its cone, built afresh per call
    and summed in order onto zeros before the one add."""
    active = [e for e in emitters if e.start <= frame_index < e.start + e.duration]
    if not active:
        return u
    dims = u.dims
    fxx, fxy = _lattice_xy(dims.shape_ux, 0.0, 0.5)
    fyx, fyy = _lattice_xy(dims.shape_uy, 0.5, 0.0)
    add_x = np.zeros(dims.shape_ux)
    add_y = np.zeros(dims.shape_uy)
    for e in active:
        add_x += e.velocity[0] * _cone(fxx, fxy, e.center, e.radius)
        add_y += e.velocity[1] * _cone(fyx, fyy, e.center, e.radius)
    return MacVelocity(dims, u.ux + add_x, u.uy + add_y)


def to_faces_pad(cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered components averaged onto faces, zero beyond the
    border, with the zero ring added by ``np.pad``."""
    px = np.pad(cx, ((0, 0), (1, 1)))
    py = np.pad(cy, ((1, 1), (0, 0)))
    return 0.5 * (px[:, :-1] + px[:, 1:]), 0.5 * (py[:-1, :] + py[1:, :])


def face_gradient_pad(p: ScalarGrid, g: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """The pressure difference across each free face over h, zero elsewhere,
    with the zero ring of the open top added by ``np.pad``."""
    h = p.dims.h
    fm = g.faces
    pp = np.pad(p.values, 1, constant_values=0.0)
    gx = np.where(fm.free_x, pp[1:-1, 1:] - pp[1:-1, :-1], 0.0)
    gy = np.where(fm.free_y, pp[1:, 1:-1] - pp[:-1, 1:-1], 0.0)
    return gx / h, gy / h


def apply_poisson(g: OccupancyGrid, p: ScalarGrid) -> ScalarGrid:
    """Matrix-free action A p of the pressure system; zero on solid cells."""
    st = g.stencil
    h2 = g.dims.h ** 2
    pv = p.values
    pp = np.pad(pv, 1, constant_values=0.0)
    nbr = (np.where(st.fluid_w, pp[1:-1, :-2], 0.0)
           + np.where(st.fluid_e, pp[1:-1, 2:], 0.0)
           + np.where(st.fluid_s, pp[:-2, 1:-1], 0.0)
           + np.where(st.fluid_n, pp[2:, 1:-1], 0.0))
    out = (st.diag * pv - nbr) / h2
    out[g.solid] = 0.0
    return ScalarGrid(p.dims, out)


def residual_norm(sys: PoissonSystem, p: ScalarGrid) -> float:
    """Euclidean norm of A p - b over fluid cells."""
    r = apply_poisson(sys.g, p).values - sys.b.values
    return float(np.linalg.norm(r[sys.g.fluid]))


def solve_jacobi_gather(sys: PoissonSystem, iters: int) -> ScalarGrid:
    """Jacobi sweeps on the compressed active cells from a zero guess.

    ``nbr`` holds the index of each active cell's west, east, south and
    north fluid neighbor, -1 where there is none; the iterate carries one
    trailing +0.0 slot, which index -1 reads.  Per cell a sweep computes
    ``0.25 * ((h^2 b + (((w + e) + s) + n)) + solid_count * p)``.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be nonnegative, got {iters}")
    g = sys.g
    st = g.stencil
    active = g.fluid & (st.diag > 0)
    n = int(np.count_nonzero(active))
    idx = np.full(g.dims.shape, -1, dtype=np.intp)
    idx[active] = np.arange(n)
    pi = np.pad(idx, 1, constant_values=-1)
    nbr_index = np.stack([pi[1:-1, :-2][active], pi[1:-1, 2:][active],
                          pi[:-2, 1:-1][active], pi[2:, 1:-1][active]])
    solid_count = st.solid_count[active].astype(np.float64)
    b = sys.b.values
    if np.any(b.take(np.flatnonzero(g.fluid & ~active)) != 0.0):
        raise ValueError("isolated fluid cell with nonzero right hand side")
    hb = g.dims.h ** 2 * b[active]
    x = np.zeros(n + 1)
    p = x[:n]
    nbr = np.empty((4, n))
    w, e, s, nn = nbr
    own = np.empty(n)
    for _ in range(iters):
        x.take(nbr_index, out=nbr, mode="wrap")
        w += e
        w += s
        w += nn
        w += hb
        np.multiply(solid_count, p, out=own)
        w += own
        np.multiply(w, 0.25, out=p)
    out = np.zeros(g.dims.shape)
    out[active] = _project_out_constants(g.components.labels[active], p, g.components)
    return ScalarGrid(g.dims, out)



def solve_dense_lstsq(sys: PoissonSystem) -> ScalarGrid:
    """Assemble A densely and solve by least squares.

    Minimum-norm on singular components, then re-pinned to zero mean per
    closed component.  Memory grows with the square of the fluid cells, so
    this is for small grids only.
    """
    g = sys.g
    st = g.stencil
    fluid = g.fluid
    n = g.n_fluid
    idx = np.full(g.dims.shape, -1, dtype=np.int64)
    idx[fluid] = np.arange(n)
    h2 = g.dims.h ** 2
    A = np.zeros((n, n))
    rows = idx[fluid]
    A[rows, rows] = st.diag[fluid] / h2
    pi = np.pad(idx, 1, constant_values=-1)
    for mask, nbr in ((st.fluid_w, pi[1:-1, :-2]), (st.fluid_e, pi[1:-1, 2:]),
                      (st.fluid_s, pi[:-2, 1:-1]), (st.fluid_n, pi[2:, 1:-1])):
        m = mask & fluid
        A[idx[m], nbr[m]] = -1.0 / h2
    bv = sys.b.values[fluid]
    x, *_ = np.linalg.lstsq(A, bv, rcond=None)
    out = np.zeros(g.dims.shape)
    out[fluid] = x
    return ScalarGrid(g.dims, _remove_closed_means(out, g))


def _sparse(parts: list, shape, fmt=sp.csr_matrix):
    """The sum of (values, rows, columns) triplets as one sparse matrix."""
    v, i, j = (np.concatenate(t) for t in zip(*parts))
    return fmt((v, (i, j)), shape=shape)


def pcg_matrix_coo(g: OccupancyGrid) -> tuple[sp.csr_matrix, np.ndarray]:
    """A on the active cells, row-major, as CSR through scipy's COO
    constructor, and the component label of each active cell."""
    st, active = g.stencil, _active_cells(g)
    n = int(np.count_nonzero(active))
    idx = np.full(g.dims.shape, -1, dtype=np.intp)
    idx[active] = np.arange(n)
    pi = np.pad(idx, 1, constant_values=-1)
    nbr = np.stack([pi[1:-1, :-2][active], pi[1:-1, 2:][active],
                    pi[:-2, 1:-1][active], pi[2:, 1:-1][active]])
    h2 = g.dims.h ** 2
    rows, has = np.arange(n), nbr >= 0
    A = _sparse([(st.diag[active] / h2, rows, rows),
                 (np.full(np.count_nonzero(has), -1.0 / h2),
                  np.broadcast_to(rows, nbr.shape)[has], nbr[has])], (n, n))
    return A, g.components.labels[active]


def _pinv_blocks_dense(A: sp.csr_matrix, cells: np.ndarray, lab: np.ndarray,
                       closed: np.ndarray) -> list:
    """The pseudo-inverse of A on ``cells``, one block per label, each block
    sliced out of A by scipy indexing."""
    cells = cells[np.argsort(lab[cells], kind="stable")]
    blocks = [c for c in np.split(cells, np.flatnonzero(np.diff(lab[cells])) + 1) if c.size]
    shifts = [closed[lab[c[0]]] / c.size for c in blocks]
    return [((np.linalg.inv(A[c][:, c].toarray() + k) - k).ravel(), np.repeat(c, c.size),
             np.tile(c, c.size)) for c, k in zip(blocks, shifts)]


def build_hierarchy_three_products(g: OccupancyGrid):
    """The MGPCG V-cycle with every matrix built through scipy's COO
    constructor and three sparse products per level, S r, T^T r and
    T (M_c T^T r), each with its own matrix."""
    A, lab = pcg_matrix_coo(g)
    A = A.copy()
    A.data = np.rint(A.data * g.dims.h ** 2)
    closed = g.components.closed
    live = ~(closed & (g.components.sizes <= COARSE_SIZE))[lab]
    exact = _pinv_blocks_dense(A, np.flatnonzero(~live), lab, closed)
    y, x = np.nonzero(_active_cells(g))
    levels = []
    while np.count_nonzero(live) > COARSE_SIZE:
        key = ((y // 2) * (x.max() // 2 + 1) + x // 2) * (lab.max() + 1) + lab
        _, first, agg_live = np.unique(key[live], return_index=True, return_inverse=True)
        if first.size == agg_live.size:
            break
        n, nc = A.shape[0], first.size
        ar, fine = np.arange(n), np.flatnonzero(live)
        agg = np.full(n, -1)
        agg[fine] = agg_live
        d = A.diagonal()
        dinv = np.divide(SMOOTH_OMEGA, d, out=np.zeros_like(d), where=live & (d > 0))
        i, j, a = np.repeat(ar, np.diff(A.indptr)), A.indices, A.data
        m = agg[j] >= 0
        i, j, a, da = i[m], j[m], a[m], -dinv[i[m]] * a[m]
        S = _sparse([(2 * dinv, ar, ar), (da * dinv[j], i, j), *exact], (n, n))
        T = _sparse([(np.ones(fine.size), fine, agg_live), (da, i, agg[j])], (n, nc),
                    sp.csc_matrix) * math.sqrt(COARSE_ALPHA)
        levels.append((S, T, T.T))
        A = _sparse([(a, agg[i], agg[j])], (nc, nc))
        fine = fine[first]
        y, x, lab, live, exact = y[fine] // 2, x[fine] // 2, lab[fine], np.ones(nc, bool), []
    coarse = _sparse([*_pinv_blocks_dense(A, np.flatnonzero(live), lab, closed), *exact],
                     A.shape)

    def vcycle(r, level=0):
        if level == len(levels):
            return coarse @ r
        S, T, Tt = levels[level]
        return S @ r + T @ vcycle(Tt @ r, level + 1)
    return vcycle


def vcycle_matmul(M, r: np.ndarray, level: int = 0) -> np.ndarray:
    """The package's V-cycle ``M`` applied with scipy's ``@`` on its matrices."""
    if level == len(M.levels):
        return M.coarse @ r
    down, T = M.levels[level]
    y = down @ r  # S r, then T^T r
    n = T.shape[0]
    return y[:n] + T @ vcycle_matmul(M, y[n:], level + 1)


def _project_out_constants_index(lab: np.ndarray, x: np.ndarray, comps) -> np.ndarray:
    """x minus its mean over each closed component, gathered by ``[lab]``."""
    if not comps.closed.any():
        return x
    sums = np.bincount(lab, weights=x, minlength=len(comps.sizes))
    return x - np.where(comps.closed, sums / comps.sizes, 0.0)[lab]


def solve_pcg_matmul(sys: PoissonSystem, tol: float = 1e-4,
                     max_iter: int = 2000) -> tuple[ScalarGrid, PcgInfo]:
    """MGPCG through scipy's ``@``: A d, the true residual and the V-cycle's
    products (:func:`vcycle_matmul`) on the grid's matrices, residual norms
    by ``np.linalg.norm`` and the component means gathered by ``[lab]``."""
    g = sys.g
    active = _active_cells(g)
    A, lab = g.derived(_pcg_matrix)
    comps = g.components
    out = np.zeros(g.dims.shape)
    bv = sys.b.values[active]
    bnorm = float(np.linalg.norm(bv))
    if bnorm == 0.0:
        return ScalarGrid(g.dims, out), PcgInfo(0, True, 0.0, "multigrid")
    if not math.isfinite(bnorm):
        return ScalarGrid(g.dims, out), PcgInfo(0, False, math.nan, "multigrid")
    M = g.derived(_build_hierarchy)

    def precond(r):
        return _project_out_constants_index(lab, vcycle_matmul(M, r), comps)

    x = np.zeros(A.shape[0])
    r = bv.copy()
    z = precond(r)
    d = z.copy()
    rz = float(r @ z)
    converged, relres, iterations = False, 1.0, 0
    for _ in range(max_iter):
        q = A @ d
        dq = float(d @ q)
        if dq <= 0.0:
            break
        alpha = rz / dq
        x += alpha * d
        q *= alpha
        r -= q
        iterations += 1
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            r_true = bv - A @ x
            relres = float(np.linalg.norm(r_true)) / bnorm
            if relres <= tol:
                converged = True
                break
            r = r_true
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        d *= beta
        d += z
        rz = rz_new
    out[active] = x
    return (ScalarGrid(g.dims, _remove_closed_means(out, g)),
            PcgInfo(iterations, converged, relres, "multigrid"))


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


def net_forward_unrolled(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The network's forward pass with each of its nine stages written out."""
    w, b = params.weights, params.biases

    def conv_relu(a: np.ndarray, i: int) -> np.ndarray:
        z = convnet.conv2d(a, w[i], b[i])
        return convnet.relu(z, out=z)

    a0 = conv_relu(x, 0)
    af1 = conv_relu(a0, 1)
    af2 = conv_relu(af1, 2)
    h0 = convnet.avg_pool2(a0)
    ah1 = conv_relu(h0, 3)
    ah2 = conv_relu(ah1, 4)
    q0 = convnet.avg_pool2(h0)
    aq1 = conv_relu(q0, 5)
    aq2 = conv_relu(aq1, 6)
    m = af2 + convnet.upsample2(ah2) + convnet.upsample2(convnet.upsample2(aq2))
    am = conv_relu(m, 7)
    y = convnet.conv2d(am, w[8], b[8])
    cache = (x, a0, af1, af2, h0, ah1, ah2, q0, aq1, aq2, m, am)
    return y, cache


def net_backward_unrolled(params: NetParams, cache: tuple, cot_y: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The flat parameter gradient and the input cotangent of
    :func:`net_forward_unrolled`, one branch at a time."""
    conv2d_backward, relu_backward = convnet.conv2d_backward, convnet.relu_backward
    (x, a0, af1, af2, h0, ah1, ah2, q0, aq1, aq2, m, am) = cache
    w = params.weights
    grad = NetParams(params.arch, np.empty_like(params.flat))
    dw, db = grad.weights, grad.biases

    dam, dw[8][...], db[8][...] = conv2d_backward(cot_y, am, w[8])
    dm, dw[7][...], db[7][...] = conv2d_backward(relu_backward(dam, am), m, w[7])

    # full branch
    daf1, dw[2][...], db[2][...] = conv2d_backward(relu_backward(dm, af2), af1, w[2])
    da0, dw[1][...], db[1][...] = conv2d_backward(relu_backward(daf1, af1), a0, w[1])

    # half branch
    duh = convnet.upsample2_backward(dm)
    dah1, dw[4][...], db[4][...] = conv2d_backward(relu_backward(duh, ah2), ah1, w[4])
    dh0, dw[3][...], db[3][...] = conv2d_backward(relu_backward(dah1, ah1), h0, w[3])

    # quarter branch
    duq = convnet.upsample2_backward(convnet.upsample2_backward(dm))
    daq1, dw[6][...], db[6][...] = conv2d_backward(relu_backward(duq, aq2), aq1, w[6])
    dq0, dw[5][...], db[5][...] = conv2d_backward(relu_backward(daq1, aq1), q0, w[5])

    dh0 = dh0 + convnet.avg_pool2_backward(dq0)
    da0 = da0 + convnet.avg_pool2_backward(dh0)
    dx, dw[0][...], db[0][...] = conv2d_backward(relu_backward(da0, a0), x, w[0])
    return grad.flat, dx
