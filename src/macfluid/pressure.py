"""Solvers for the pressure Poisson system.

The system A p = b is symmetric positive semidefinite (see
:class:`macfluid.fdops.PoissonSystem`).  On fluid components without air
contact A is singular with the constants as null space, so a right hand
side is only solvable once its per-component mean is removed; solvers
here expect that and :func:`make_compatible` does it.  All solvers pin
the free constant by returning zero-mean pressure on such components.

Three routes with very different cost/accuracy trade-offs.  Jacobi and
PCG share one lattice per grid, the compressed active fluid cells, built
on the grid's first solve by either and kept on the grid itself through
:meth:`~macfluid.grids.OccupancyGrid.derived`, so it lives exactly as
long as the grid:

* :func:`solve_jacobi`: fixed iteration count, cheap, smooth error decay.
  The update mirrors the pressure across solid faces and sees zero beyond
  an open top, which makes the sweep a Richardson iteration with step
  h^2/4 and keeps the residual monotone.
* :func:`solve_pcg`: conjugate gradients preconditioned with a modified
  incomplete Cholesky factor without fill-in, MIC(0), iterated to a
  residual tolerance; the factor is computed on the grid's first PCG
  solve and kept on its lattice.
* :func:`solve_dense_direct`: dense least-squares reference for small
  grids, minimum-norm on singular components.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fdops import PoissonSystem, apply_poisson
from .grids import FluidComponents, OccupancyGrid, ScalarGrid

logger = logging.getLogger(__name__)

DENSE_CELL_LIMIT = 4096
MIC_TAU = 0.97  # share of the dropped fill MIC(0) takes off each pivot


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
    return x - np.where(comps.closed, sums / comps.sizes, 0.0)[lab]


def _remove_closed_means(values: np.ndarray, g: OccupancyGrid) -> np.ndarray:
    fluid = g.fluid
    out = np.zeros_like(values)
    out[fluid] = _project_out_constants(g.components.labels[fluid], values[fluid], g.components)
    return out


def make_compatible(sys: PoissonSystem) -> PoissonSystem:
    """Project the right hand side onto the range of A.

    Subtracts the mean of b over every closed fluid component and zeroes
    b on solid cells.  Open components are left untouched.
    """
    b = _remove_closed_means(np.asarray(sys.b.values, dtype=np.float64), sys.g)
    return PoissonSystem(sys.g, ScalarGrid(sys.dims, b))


def residual_norm(sys: PoissonSystem, p: ScalarGrid) -> float:
    """Euclidean norm of A p - b over fluid cells."""
    r = apply_poisson(sys.g, p).values - sys.b.values
    return float(np.linalg.norm(r[sys.g.fluid]))


# ====== The lattice of unknowns ======

@dataclass
class _Lattice:
    """The pressure unknowns of one grid: its active fluid cells, row-major.

    A fluid cell walled in on all four sides has an empty matrix row and
    no fluid neighbor; it stays out of every solve and keeps pressure +0.0.
    ``nbr`` holds the index of each cell's west, east, south and north
    fluid neighbor, -1 where there is none; a vector gathered through it
    carries one trailing +0.0 slot, which index -1 reads.
    """

    n: int
    nbr: np.ndarray    # (4, n) neighbor indices
    solid_count: np.ndarray  # solid neighbors per active cell, as float64
    adiag: np.ndarray  # A diagonal per active cell
    off: float         # off-diagonal coefficient (-1/h^2)
    A: sp.csr_matrix   # the system matrix on the active cells
    fronts: list       # anti-diagonal wavefronts in increasing i+j order
    active: np.ndarray  # 2d bool mask
    lab: np.ndarray    # component label per active cell
    comps: FluidComponents

    w = property(lambda self: self.nbr[0])  # west and south neighbor rows
    s = property(lambda self: self.nbr[2])

    @cached_property
    def precond(self):
        """The MIC(0) preconditioner, factored on the first PCG solve."""
        return _ic0_preconditioner(self, _ic0_factor(self))


def _build_lattice(g: OccupancyGrid) -> _Lattice:
    st = g.stencil
    active = g.fluid & (st.diag > 0)
    n = int(np.count_nonzero(active))
    # solid, outside and walled-in cells all read -1
    idx = np.full(g.dims.shape, -1, dtype=np.intp)
    idx[active] = np.arange(n)
    pi = np.pad(idx, 1, constant_values=-1)
    nbr = np.stack([pi[1:-1, :-2][active], pi[1:-1, 2:][active],
                    pi[:-2, 1:-1][active], pi[2:, 1:-1][active]])
    h2 = g.dims.h ** 2
    adiag = st.diag[active].astype(np.float64) / h2
    off = -1.0 / h2

    rows = np.arange(n)
    has = nbr >= 0
    A = sp.csr_matrix(
        (np.concatenate([adiag, np.full(np.count_nonzero(has), off)]),
         (np.concatenate([rows, np.broadcast_to(rows, nbr.shape)[has]]),
          np.concatenate([rows, nbr[has]]))),
        shape=(n, n))

    jj, ii = np.nonzero(active)
    diag_id = (ii + jj)
    fronts = [rows[diag_id == v] for v in range(int(diag_id.max()) + 1)] if n else []
    fronts = [f for f in fronts if f.size]

    return _Lattice(n, nbr, st.solid_count[active].astype(np.float64), adiag, off, A,
                    fronts, active, g.components.labels[active], g.components)


# ====== Jacobi ======

def solve_jacobi(sys: PoissonSystem, iters: int = 34) -> ScalarGrid:
    """Run a fixed number of Jacobi sweeps from a zero initial guess.

    Each sweep averages the four neighbor pressures (the cell's own value
    mirrored across solid faces, zero across an open top) plus h^2 b,
    reading only the previous iterate.  Zero-mean on closed components.
    The sweeps run on the grid's cached lattice, the one PCG solves on.

    The summation order of a sweep is fixed: per active cell it computes
    ``0.25 * ((h^2 b + (((w + e) + s) + n)) + solid_count * p)``, where a
    neighbor that is not fluid reads as +0.0.  Results are pinned bit for
    bit to that order, and the closed-box oracle gap of acceptance
    criterion 1 sits just under its bound, so a faster sweep must keep it.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be nonnegative, got {iters}")
    g = sys.g
    lat = g.derived(_build_lattice)
    b = sys.b.values
    if np.any(b[g.fluid & ~lat.active] != 0.0):
        raise ValueError("isolated fluid cell with nonzero right hand side")
    hb = g.dims.h ** 2 * b[lat.active]
    n = lat.n
    x = np.zeros(n + 1)
    p = x[:n]
    nbr = np.empty((4, n))
    w, e, s, nn = nbr
    own = np.empty(n)
    # a few calls into fixed buffers per sweep: on small grids numpy's
    # per-call overhead, not arithmetic, sets the cost; "wrap" sends -1 to
    # the +0.0 slot and skips the bounds check and buffered copy of "raise"
    for _ in range(iters):
        x.take(lat.nbr, out=nbr, mode="wrap")
        w += e
        w += s
        w += nn
        w += hb
        np.multiply(lat.solid_count, p, out=own)
        w += own
        np.multiply(w, 0.25, out=p)
    out = np.zeros(g.dims.shape)
    out[lat.active] = _project_out_constants(lat.lab, p, lat.comps)
    return ScalarGrid(g.dims, out)


# ====== Preconditioned conjugate gradients ======

@dataclass(frozen=True)
class PcgInfo:
    """Outcome of a conjugate gradient solve.

    ``preconditioner`` names the preconditioner used; it is always "mic0",
    modified incomplete Cholesky without fill-in.
    """

    iterations: int
    converged: bool
    relres: float
    preconditioner: str


def _ic0_factor(lat: _Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modified incomplete Cholesky without fill-in, MIC(0), by wavefronts.

    Each pivot also loses ``MIC_TAU`` times the fill IC(0) drops from the
    cell's row (Bridson, *Fluid Simulation for Computer Graphics*, 2nd ed.,
    ch. 5); ``MIC_TAU`` 0 is IC(0) bit for bit.  Within one anti-diagonal
    wavefront no cell depends on another, so each front is a vector step.
    A pivot at or below 1e-12 times the cell's diagonal is replaced by
    that diagonal: a chain-shaped closed component has no fill to drop, so
    there the factor is the complete factorization of a singular block
    and its last pivot lands on zero up to roundoff.  Every pivot is
    therefore positive and the factor always exists.  Returns (Ldiag, Lw,
    Ls); :func:`_ic0_lu` assembles them into the sparse factor that
    :func:`solve_pcg` applies.
    """
    ldiag = np.zeros(lat.n + 1)
    lw = np.zeros(lat.n)
    ls = np.zeros(lat.n)
    # IC(0) drops the fill fw * off / Ldiag[w] = fw * fw where the west cell
    # has a north neighbor, and fs * fs where the south cell has an east one;
    # MIC(0) takes MIC_TAU of that fill off the pivot as well
    kw = 1.0 + MIC_TAU * ((lat.w >= 0) & (lat.nbr[3][lat.w] >= 0))
    ks = 1.0 + MIC_TAU * ((lat.s >= 0) & (lat.nbr[1][lat.s] >= 0))
    for front in lat.fronts:
        wi = lat.w[front]
        si = lat.s[front]
        gw = ldiag[wi]  # pivots of earlier fronts, 0 where absent
        gs = ldiag[si]
        fw = np.where(wi >= 0, lat.off / np.where(gw > 0, gw, 1.0), 0.0)
        fs = np.where(si >= 0, lat.off / np.where(gs > 0, gs, 1.0), 0.0)
        ad = lat.adiag[front]
        pivot = ad - fw * fw * kw[front] - fs * fs * ks[front]
        ldiag[front] = np.sqrt(np.where(pivot > 1e-12 * ad, pivot, ad))
        lw[front] = fw
        ls[front] = fs
    return ldiag[:-1], lw, ls


def _ic0_lu(lat: _Lattice, fac):
    """SuperLU handle of the MIC(0) factor L as a sparse lower triangle.

    L holds Ldiag on the diagonal and Lw and Ls in the west and south
    neighbor's column.  Natural column order, diagonal pivots and
    symmetric mode make SuperLU's "factorization" L = (L D^-1) D, with no
    fill-in and no permutation, so ``solve`` applies L^-1 and
    ``solve(..., trans="T")`` applies L^-T, each one O(nnz) triangular
    solve in compiled code.
    """
    ldiag, lw, ls = fac
    rows = np.arange(lat.n)
    hw = lat.w >= 0
    hs = lat.s >= 0
    L = sp.csc_matrix(
        (np.concatenate([ldiag, lw[hw], ls[hs]]),
         (np.concatenate([rows, rows[hw], rows[hs]]),
          np.concatenate([rows, lat.w[hw], lat.s[hs]]))),
        shape=(lat.n, lat.n))
    return splu(L, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def _ic0_preconditioner(lat: _Lattice, fac):
    """r -> (L L^T)^-1 r: a forward, then a backward triangular solve."""
    lu = _ic0_lu(lat, fac)
    return lambda rv: lu.solve(lu.solve(rv), trans="T")


def solve_pcg(sys: PoissonSystem, tol: float = 1e-4,
              max_iter: int = 2000) -> tuple[ScalarGrid, PcgInfo]:
    """Conjugate gradients with a MIC(0) preconditioner.

    A is the CSR matrix of the grid's lattice, which Jacobi shares.  The
    modified incomplete Cholesky factor L is computed along anti-diagonal
    wavefronts on the grid's first PCG solve and kept on that lattice; each
    iteration applies (L L^T)^-1 with two compiled sparse triangular solves
    and A with a CSR product.

    Stops at the first iterate with ||A p - b|| <= tol * ||b|| (verified
    against the true residual, not just the recurrence).  The
    preconditioned residual has its per-component means removed every
    iteration, which keeps every search direction in the range of A; the
    iterate only gathers roundoff along the null space, and its means are
    removed once, before it is returned.  There is no fallback: the
    preconditioner is always MIC(0).  A right-hand side with a non-finite
    norm returns the zero iterate at once, unconverged, with relres NaN.
    Returns the pressure and a :class:`PcgInfo`.
    """
    g = sys.g
    lat = g.derived(_build_lattice)
    out = np.zeros(g.dims.shape)

    bv = sys.b.values[lat.active]
    bnorm = float(np.linalg.norm(bv))
    if lat.n == 0 or bnorm == 0.0:
        return ScalarGrid(g.dims, out), PcgInfo(0, True, 0.0, "mic0")
    if not math.isfinite(bnorm):
        return ScalarGrid(g.dims, out), PcgInfo(0, False, math.nan, "mic0")
    precond = lat.precond

    x = np.zeros(lat.n)
    r = bv.copy()
    z = _project_out_constants(lat.lab, precond(r), lat.comps)
    d = z.copy()
    rz = float(r @ z)
    converged = False
    relres = 1.0
    iterations = 0
    for _ in range(max_iter):
        q = lat.A @ d
        dq = float(d @ q)
        if dq <= 0.0:
            # search direction fell into the null space; only roundoff is left
            break
        alpha = rz / dq
        x += alpha * d
        r = r - alpha * q
        iterations += 1
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            r_true = bv - lat.A @ x
            relres = float(np.linalg.norm(r_true)) / bnorm
            if relres <= tol:
                converged = True
                break
            r = r_true
        z = _project_out_constants(lat.lab, precond(r), lat.comps)
        rz_new = float(r @ z)
        beta = rz_new / rz
        d = z + beta * d
        rz = rz_new

    if not converged:
        logger.warning("PCG stopped after %d iterations at relative residual %.3e "
                       "(tol %.3e)", iterations, relres, tol)
    out[lat.active] = _project_out_constants(lat.lab, x, lat.comps)
    return ScalarGrid(g.dims, out), PcgInfo(iterations, converged, relres, "mic0")


# ====== Dense reference ======

def solve_dense_direct(sys: PoissonSystem) -> ScalarGrid:
    """Assemble A densely and solve by least squares.

    Minimum-norm on singular components, then re-pinned to zero mean per
    closed component.  Guarded by a cell-count cap; this is a reference
    oracle, not a production path.
    """
    g = sys.g
    if g.n_fluid > DENSE_CELL_LIMIT:
        raise ValueError(f"dense solve capped at {DENSE_CELL_LIMIT} fluid cells, "
                         f"got {g.n_fluid}")
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
