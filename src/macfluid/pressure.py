"""Solvers for the pressure Poisson system.

The system A p = b is symmetric positive semidefinite (see
:class:`macfluid.fdops.PoissonSystem`).  On fluid components without air
contact A is singular with the constants as null space, so a right hand
side is only solvable once its per-component mean is removed; solvers
here expect that and :func:`make_compatible` does it.  All solvers pin
the free constant by returning zero-mean pressure on such components.

Three routes with very different cost/accuracy trade-offs.  Each solver
builds what it reads on the grid's first solve by it and keeps it on the
grid itself through :meth:`~macfluid.grids.OccupancyGrid.derived`, so it
lives exactly as long as the grid and no solver builds what only another
reads.  The routes and :func:`make_compatible` share one set of unknowns,
the active cells (fluid cells with a non-solid neighbor) and their
component labels; a fluid cell walled in on all sides keeps +0.0.  PCG
and the direct route read one matrix, A on the active cells.  Every
sparse matrix is a :class:`_Compressed` record, summed (:func:`_sparse`)
and applied (:func:`_matvec`) by scipy's own kernels, bit for bit what its
constructor and ``@`` give; only the direct route's LU gets a scipy matrix.

* :func:`solve_jacobi`: fixed iteration count, cheap, smooth error decay.
  The update mirrors the pressure across solid faces and sees zero beyond
  an open top, which makes the sweep a Richardson iteration with step
  h^2/4 and keeps the residual monotone.  The iterate lives on the grid
  padded with one ring of zeros, so a sweep reads its four neighbors as
  shifted contiguous slices instead of gathering them.
* :func:`solve_pcg`: conjugate gradients preconditioned with one multigrid
  V-cycle per iteration, iterated to a residual tolerance.
* :func:`solve_dense_direct`: a direct solve by a sparse LU of A, pinned
  on each closed component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .fdops import PoissonSystem
from .grids import FluidComponents, OccupancyGrid, ScalarGrid, _read_only

# solve_pcg's V-cycle: smoother weight, coarse correction scale, and the
# unknowns at or below which a level or a closed component is solved exactly
SMOOTH_OMEGA = 0.8
COARSE_ALPHA = 1.8
COARSE_SIZE = 64


# ====== Null-space handling ======

def _project_out_constants(lab: np.ndarray, x: np.ndarray,
                           comps: FluidComponents) -> np.ndarray:
    """x minus its mean over each closed component; ``lab`` labels x's entries.

    The divisors are the components' cell counts: the only fluid cells a
    solve leaves out are walled in on all sides, each its own component.
    """
    if not comps.closed.any():
        return x
    sums = np.bincount(lab, weights=x, minlength=len(comps.sizes))
    return x - np.where(comps.closed, sums / comps.sizes, 0.0).take(lab)


def _remove_closed_means(x: np.ndarray, g: OccupancyGrid) -> np.ndarray:
    """The grid that holds ``x`` on the active cells, less its mean over each
    closed component, and +0.0 on every other cell."""
    out = np.zeros(g.dims.shape)
    out[g.derived(_active_cells)] = _project_out_constants(g.derived(_active_labels), x,
                                                           g.components)
    return out


def make_compatible(sys: PoissonSystem) -> PoissonSystem:
    """Project the right hand side onto the range of A.

    Subtracts the mean of b over every closed fluid component and zeroes
    b outside the active cells: on solid cells and on walled-in fluid
    cells, which no route solves for.  Open components are left untouched.
    """
    b = _remove_closed_means(sys.b.values[sys.g.derived(_active_cells)], sys.g)
    return PoissonSystem(sys.g, ScalarGrid(sys.dims, b))


# ====== Sparse matrices as plain arrays ======

class _Compressed(NamedTuple):
    """A CSR or CSC matrix as the arrays scipy's kernels read: what
    :func:`_matvec` and :func:`_pinv_blocks` use of a scipy matrix, and no
    scipy object to construct, validate or dispatch through."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    format: str  # "csr" or "csc"


def _matvec(M: _Compressed, x: np.ndarray) -> np.ndarray:
    """M @ x for a float64 CSR or CSC record, by the scipy kernel that ``@``
    runs on its scipy matrix: ``csr_matvec`` or ``csc_matvec`` adds
    the products of each stored row or column into a fresh zero vector, in
    storage order, so the result is bit for bit ``M @ x``.  On MGPCG's few
    hundred unknowns the checks and dispatch of ``@`` cost about as much as
    the kernel itself."""
    y = np.zeros(M.shape[0])
    kernel = _sparsetools.csr_matvec if M.format == "csr" else _sparsetools.csc_matvec
    kernel(*M.shape, M.indptr, M.indices, M.data, x, y)
    return y


def _sparse(parts: list, shape: tuple[int, int], fmt: str = "csr") -> _Compressed:
    """The sum of (values, rows, columns) triplets as one CSR or CSC matrix.

    The arrays are bit for bit ``sp.csr_matrix((v, (i, j)), shape)`` (or
    ``csc_matrix``), computed by the compiled kernels that constructor runs,
    in its order: ``coo_tocsr`` (on swapped coordinates for CSC), then, only
    if that is not canonical, ``csr_sort_indices`` where unsorted and
    ``csr_sum_duplicates``, which keeps the first ``indptr[-1]`` entries.
    The sort is scipy's ``std::sort``, not stable, so the order in which
    duplicates are summed, and with it the rounding, can only come from
    scipy's own kernel.  The index dtype is scipy's choice for these sizes.
    """
    v, i, j = (np.concatenate(t) for t in zip(*parts))
    major, minor = (i, j) if fmt == "csr" else (j, i)
    M, N = shape if fmt == "csr" else shape[::-1]
    nnz = v.size
    idx = sp.get_index_dtype(maxval=max(nnz, *shape))
    indptr, indices, data = np.empty(M + 1, idx), np.empty(nnz, idx), np.empty_like(v)
    _sparsetools.coo_tocsr(M, N, nnz, major.astype(idx), minor.astype(idx), v,
                           indptr, indices, data)
    if not _sparsetools.csr_has_canonical_format(M, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(M, indptr, indices):
            _sparsetools.csr_sort_indices(M, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(M, N, indptr, indices, data)
        indices, data = indices[:indptr[-1]], data[:indptr[-1]]
    return _Compressed(data, indices, indptr, shape, fmt)


# ====== What the solvers derive per grid ======

def _active_cells(g: OccupancyGrid) -> np.ndarray:
    """The unknowns of every route: each fluid cell with a non-solid
    neighbor, as a read-only mask.

    A fluid cell walled in on all four sides has an empty matrix row and
    no fluid neighbor; it stays out of every solve and keeps pressure +0.0.
    """
    return _read_only(g.fluid & (g.stencil.diag > 0))


def _jacobi_layout(g: OccupancyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi's layout: the grid padded with one ring of cells, flat and
    row-major, ``(ny + 2) * (nx + 2)`` slots.  Returns the mask of the
    inactive slots (solid, walled-in and ring cells), the solid-neighbor
    count of each slot as float64, +0.0 on every inactive one, and the flat
    indices of the walled-in cells on the unpadded grid; all read-only."""
    active = g.derived(_active_cells)
    inactive = np.pad(~active, 1, constant_values=True)
    count = np.zeros(inactive.shape)
    count[1:-1, 1:-1][active] = g.stencil.solid_count[active]
    walled = np.flatnonzero(g.fluid & ~active)
    return _read_only(inactive.ravel()), _read_only(count.ravel()), _read_only(walled)


def _active_labels(g: OccupancyGrid) -> np.ndarray:
    """The component label of each active cell, row-major, read-only."""
    return _read_only(g.components.labels[g.derived(_active_cells)])


def _system_matrix(g: OccupancyGrid) -> _Compressed:
    """A on the active cells, row-major, as a read-only CSR record; PCG and
    the direct LU both read it.  Each row holds its south, west, diagonal,
    east and north entries, in that (column) order, less the neighbors that
    are not active, so :func:`_sparse` gets them in CSR order and neither
    sorts nor sums."""
    st, active = g.stencil, g.derived(_active_cells)
    n = int(np.count_nonzero(active))
    # solid, outside and walled-in cells all read -1
    idx = np.full(g.dims.shape, -1, dtype=np.intp)
    idx[active] = np.arange(n)
    pi = np.pad(idx, 1, constant_values=-1)
    cols = np.stack([pi[:-2, 1:-1][active], pi[1:-1, :-2][active], np.arange(n),
                     pi[1:-1, 2:][active], pi[2:, 1:-1][active]], axis=1)
    h2 = g.dims.h ** 2
    vals = np.full(cols.shape, -1.0 / h2)
    vals[:, 2] = st.diag[active] / h2
    has = cols >= 0
    return _read_only(_sparse([(vals[has], np.nonzero(has)[0], cols[has])], (n, n)))


# ====== Jacobi ======

def solve_jacobi(sys: PoissonSystem, iters: int = 34) -> ScalarGrid:
    """Run a fixed number of Jacobi sweeps from a zero initial guess.

    Each sweep averages the four neighbor pressures (the cell's own value
    mirrored across solid faces, zero across an open top) plus h^2 b,
    reading only the previous iterate.  Zero-mean on closed components.

    The iterate lives in the grid's padded layout (:func:`_jacobi_layout`),
    with a row stride of nx + 2.  A sweep covers rows 1..ny, all nx + 2
    columns, reads the west, east, south and north neighbors as the slices
    shifted by -1, +1, -(nx + 2) and +(nx + 2), and writes a second buffer;
    the two swap.  Per slot it computes ``t = w + e; t += s; t += n;
    t += h^2 b; t += solid_count * p; p' = 0.25 * t``, then sets every
    inactive slot back to +0.0.  h^2 b is written only at active slots, so
    a non-finite value on a solid cell never enters the arithmetic.

    On the active cells that is bit for bit the documented order
    ``0.25 * ((h^2 b + (((w + e) + s) + n)) + solid_count * p)``, with a
    neighbor that is not fluid read as +0.0: every inactive slot holds +0.0
    whenever a sweep reads it.  The closed-box oracle gap of acceptance
    criterion 1 sits just under its bound, so a faster sweep must keep
    that order.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be nonnegative, got {iters}")
    g = sys.g
    active = g.derived(_active_cells)
    inactive, count, walled = g.derived(_jacobi_layout)
    b = sys.b.values
    if np.any(b.take(walled) != 0.0):
        raise ValueError("isolated fluid cell with nonzero right hand side")
    ny, nx = g.dims.shape
    row = nx + 2
    body = slice(row, (ny + 1) * row)  # rows 1..ny of the padded grid
    inactive, count = inactive[body], count[body]
    hb = np.zeros((ny + 2, row))
    hb[1:-1, 1:-1][active] = g.dims.h ** 2 * b[active]
    hb = hb.ravel()[body]
    p, q = np.zeros((ny + 2) * row), np.zeros((ny + 2) * row)
    own = np.empty(ny * row)
    # copyto, not a 0/1 mask, resets the inactive slots: a product would
    # leave -0.0 or NaN there, which the next sweep would read
    for _ in range(iters):
        t = q[body]
        np.add(p[row - 1:-row - 1], p[row + 1:-row + 1], out=t)
        t += p[:-2 * row]
        t += p[2 * row:]
        t += hb
        np.multiply(count, p[body], out=own)
        t += own
        np.multiply(t, 0.25, out=t)
        np.copyto(t, 0.0, where=inactive)
        p, q = q, p
    p = p.reshape(ny + 2, row)[1:-1, 1:-1][active]
    return ScalarGrid(g.dims, _remove_closed_means(p, g))


# ====== Preconditioned conjugate gradients ======

@dataclass(frozen=True)
class PcgInfo:
    """Outcome of a conjugate gradient solve.

    ``relres`` is the relative true residual of the returned pressure.
    ``preconditioner`` names the preconditioner used; it is always
    "multigrid", the V-cycle of :func:`_build_hierarchy`.
    """

    iterations: int
    converged: bool
    relres: float
    preconditioner: str


def _pinv_blocks(A: _Compressed, cells: np.ndarray, lab: np.ndarray,
                 closed: np.ndarray) -> list:
    """The pseudo-inverse of A on ``cells``, one dense block per component
    label, as (values, rows, columns) triplets: inv(block + J/m) - J/m, J/m
    the projector on the constants of a closed component, 0 on an open one.
    Each block is copied out of the CSR rows of its cells, which come in
    ascending order.  numpy's ``inv`` stays on one thread; LAPACK's SVD
    wakes BLAS threads that then spin beside every later solve."""
    cells = cells[np.argsort(lab[cells], kind="stable")]
    blocks = [c for c in np.split(cells, np.flatnonzero(np.diff(lab[cells])) + 1) if c.size]
    out = []
    for c in blocks:
        lo, count = A.indptr[c], np.diff(A.indptr)[c]
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        rows, cols = np.repeat(np.arange(c.size), count), A.indices[at]
        pos = np.minimum(np.searchsorted(c, cols), c.size - 1)
        inside = c[pos] == cols
        block = np.zeros((c.size, c.size))
        block[rows[inside], pos[inside]] = A.data[at[inside]]
        k = closed[lab[c[0]]] / c.size
        out.append(((np.linalg.inv(block + k) - k).ravel(), np.repeat(c, c.size),
                    np.tile(c, c.size)))
    return out


@dataclass(frozen=True)
class _VCycle:
    """M r for the multigrid preconditioner of :func:`_build_hierarchy`:
    per level the stacked down-sweep matrix (S over T^T, CSR) and T (CSC),
    then the coarsest operator (CSR), each kept as its plain arrays
    (:class:`_Compressed`).  Every product is one :func:`_matvec`."""

    levels: tuple[tuple[_Compressed, _Compressed], ...]
    coarse: _Compressed

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return _matvec(self.coarse, r)
        down, T = self.levels[level]
        n = T.shape[0]
        y = _matvec(down, r)  # S r, then T^T r
        out = _matvec(T, self(y[n:], level + 1))
        out += y[:n]
        return out


def _build_hierarchy(g: OccupancyGrid) -> _VCycle:
    """The multigrid preconditioner r -> M r on the active cells of one grid.

    A closed component of at most ``COARSE_SIZE`` cells is solved exactly
    by the pseudo-inverse of its block; the other cells get one symmetric
    V-cycle over aggregation levels (McAdams, Sifakis & Teran, SCA 2010).
    A coarse unknown joins the cells of a 2x2 block of the level below
    that lie in one fluid component, so no aggregate spans two; P has one
    1 per row and the coarse matrix is P^T A P.  Each level smooths with
    damped Jacobi, D = ``SMOOTH_OMEGA`` / diag(A), before and after its
    coarse correction, which ``COARSE_ALPHA`` scales up to make up for the
    piecewise-constant interpolation (Braess, Computing 55, 1995).  At
    ``COARSE_SIZE`` unknowns or fewer, or where no block joins two,
    coarsening stops and a pseudo-inverse per component solves the level.

    Sweeps and correction add up to M r = S r + T M_c T^T r, with S =
    2 D - D A D and T = sqrt(alpha) (I - D A) P: two sparse products per
    level, since S and T^T are stacked into one CSR matrix whose product
    gives S r and T^T r on the way down.  The levels use the integer entries
    of h^2 A, so an aggregate that is a whole closed component gets an
    exactly empty row and smoother weight 0.  M approximates (h^2 A)^-1; CG
    ignores a positive scale.

    Every matrix is a :class:`_Compressed` record summed by :func:`_sparse`.
    S's values are computed on A's pattern, the exact blocks fill the rows
    it leaves out, and T^T's rows follow, so the down-sweep matrix's
    triplets come in CSR order and nothing is sorted; T and the coarse A
    sum more terms per entry, in scipy's sort order.  No scipy matrix
    object is built, so none of scipy's per-matrix checks run; the tests
    run them on every level.
    """
    A, lab = g.derived(_system_matrix), g.derived(_active_labels)
    A = A._replace(data=np.rint(A.data * g.dims.h ** 2))
    closed = g.components.closed
    live = ~(closed & (g.components.sizes <= COARSE_SIZE))[lab]
    # the small closed components join the finest level's S
    exact = _pinv_blocks(A, np.flatnonzero(~live), lab, closed)
    y, x = np.nonzero(g.derived(_active_cells))
    levels = []
    while np.count_nonzero(live) > COARSE_SIZE:
        key = ((y // 2) * (x.max() // 2 + 1) + x // 2) * (lab.max() + 1) + lab
        _, first, agg_live = np.unique(key[live], return_index=True, return_inverse=True)
        if first.size == agg_live.size:
            break
        n, nc = A.shape[0], first.size
        fine = np.flatnonzero(live)
        agg = np.full(n, -1)
        agg[fine] = agg_live
        d = np.empty(n)  # A.diagonal(), by the kernel it runs
        _sparsetools.csr_diagonal(0, n, n, A.indptr, A.indices, A.data, d)
        dinv = np.divide(SMOOTH_OMEGA, d, out=np.zeros_like(d), where=live & (d > 0))
        i, j, a = np.repeat(np.arange(n), np.diff(A.indptr)), A.indices, A.data
        m = agg[j] >= 0  # a cell left out couples only to cells left out
        i, j, a, da = i[m], j[m], a[m], -dinv[i[m]] * a[m]
        s = da * dinv[j]  # S on A's pattern, less the cells left out
        on = i == j
        s[on] += 2 * dinv[i[on]]
        T = _sparse([(np.ones(fine.size), fine, agg_live), (da, i, agg[j])], (n, nc), "csc")
        np.multiply(T.data, math.sqrt(COARSE_ALPHA), out=T.data)
        # S over T^T; T's CSC columns are the rows of T^T, below S's
        tt = n + np.repeat(np.arange(nc), np.diff(T.indptr))
        down = _sparse([(s, i, j), *exact, (T.data, tt, T.indices)], (n + nc, n))
        levels.append((down, T))
        A = _sparse([(a, agg[i], agg[j])], (nc, nc))
        fine = fine[first]
        y, x, lab, live, exact = y[fine] // 2, x[fine] // 2, lab[fine], np.ones(nc, bool), []
    coarse = _sparse([*_pinv_blocks(A, np.flatnonzero(live), lab, closed), *exact], A.shape)
    return _VCycle(tuple(levels), coarse)


def solve_pcg(sys: PoissonSystem, tol: float = 1e-4,
              max_iter: int = 2000) -> tuple[ScalarGrid, PcgInfo]:
    """Conjugate gradients with a multigrid preconditioner (MGPCG).

    A is the CSR record of :func:`_system_matrix` on the active cells.  It
    and the hierarchy of :func:`_build_hierarchy` are built on the grid's
    first PCG solve and kept on the grid; each iteration applies one
    symmetric V-cycle and A, every product one :func:`_matvec` call, so the
    solve builds no scipy matrix object.  To 1e-4 the disc plume takes 7 to
    10 iterations from 32^2 to 256^2.

    Stops at the first iterate with ||A p - b|| <= tol * ||b|| (verified
    against the true residual, not just the recurrence).  The
    preconditioned residual has its per-component means removed every
    iteration, which keeps every search direction in the range of A; the
    iterate only gathers roundoff along the null space, and its means are
    removed once, before it is returned.  A right-hand side with a
    non-finite norm returns the zero iterate at once, unconverged, with
    relres NaN.
    Returns the pressure and a :class:`PcgInfo`.  Raises ValueError for a
    ``tol`` that is not positive and finite or a negative ``max_iter``.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"pcg tolerance must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"iteration cap must be nonnegative, got {max_iter}")
    g = sys.g
    A, lab = g.derived(_system_matrix), g.derived(_active_labels)
    comps = g.components
    bv = sys.b.values[g.derived(_active_cells)]
    bnorm = float(np.linalg.norm(bv))
    if bnorm == 0.0:  # no active cell, or b vanishes on them
        return ScalarGrid.zeros(g.dims), PcgInfo(0, True, 0.0, "multigrid")
    if not math.isfinite(bnorm):
        return ScalarGrid.zeros(g.dims), PcgInfo(0, False, math.nan, "multigrid")
    precond = g.derived(_build_hierarchy)

    x = np.zeros(A.shape[0])
    r = bv.copy()
    z = _project_out_constants(lab, precond(r), comps)
    d = z.copy()
    rz = float(r @ z)
    converged = False
    relres = 1.0
    iterations = 0
    for _ in range(max_iter):
        q = _matvec(A, d)
        dq = float(d @ q)
        if dq <= 0.0:
            # search direction fell into the null space; only roundoff is left
            break
        alpha = rz / dq
        x += alpha * d
        q *= alpha
        r -= q
        iterations += 1
        # the ddot and sqrt that np.linalg.norm runs on a float64 vector
        relres = math.sqrt(float(r @ r)) / bnorm
        if relres <= tol:
            r_true = bv - _matvec(A, x)
            relres = math.sqrt(float(r_true @ r_true)) / bnorm
            if relres <= tol:
                converged = True
                break
            r = r_true
        z = _project_out_constants(lab, precond(r), comps)
        rz_new = float(r @ z)
        beta = rz_new / rz
        d *= beta
        d += z
        rz = rz_new

    return (ScalarGrid(g.dims, _remove_closed_means(x, g)),
            PcgInfo(iterations, converged, relres, "multigrid"))


# ====== Sparse direct ======

def _direct_factor(g: OccupancyGrid):
    """The sparse LU of :func:`_system_matrix`, pinned: the first active cell
    of each closed component gets +1/h^2 on its diagonal, which every row
    stores.  A is symmetric, so its CSR arrays are also its CSC arrays: the
    pinned copy, as the CSC matrix ``splu`` reads, is this module's one
    scipy matrix object.

    The pinned matrix is nonsingular.  Against a compatible right hand side
    the pinned cell solves to 0, since A is symmetric and its rows sum to
    zero over a closed component, so the solution satisfies A p = b.
    """
    # importing scipy.sparse.linalg costs ~80 ms, which only exact solves pay
    from scipy.sparse.linalg import splu
    A, lab = g.derived(_system_matrix), g.derived(_active_labels)
    data = A.data.copy()
    on = A.indices == np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    comp, first = np.unique(lab, return_index=True)
    data[np.flatnonzero(on)[first[g.components.closed[comp]]]] += 1.0 / g.dims.h ** 2
    pinned = sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)
    return splu(pinned, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def solve_dense_direct(sys: PoissonSystem) -> ScalarGrid:
    """Solve A p = b directly on the active cells, by the grid's sparse LU
    (:func:`_direct_factor`); a walled-in cell keeps +0.0.

    Expects a compatible right hand side (:func:`make_compatible`); returns
    zero mean on each closed component.  Criterion 1 imports this name as
    its oracle, so it stays although the solve is no longer dense.
    """
    g = sys.g
    x = g.derived(_direct_factor).solve(sys.b.values[g.derived(_active_cells)])
    return ScalarGrid(g.dims, _remove_closed_means(x, g))
