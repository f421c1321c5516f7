"""Staggered-grid containers and geometric queries for 2D flow domains.

Index convention, used everywhere in this package: cell (i, j) has i along
x and j along y, arrays are stored row major with j as the slow axis, so a
cell field has shape (ny, nx) and is indexed ``values[j, i]``.  Flattening
a cell field with ``ravel()`` therefore enumerates cells as i + nx * j.
The center of cell (i, j) sits at ((i + 0.5) * h, (j + 0.5) * h).

Velocity lives on cell faces.  ``ux[j, i]`` is the x component on the
vertical face at (i * h, (j + 0.5) * h), between cells (i - 1, j) and
(i, j), shape (ny, nx + 1).  ``uy[j, i]`` is the y component on the
horizontal face at ((i + 0.5) * h, j * h), shape (ny + 1, nx).

The domain border behaves as a one cell solid wall.  With ``open_top``
set on the occupancy grid, the virtual row of cells above the top border
is open air instead: not solid, not fluid, held at zero pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class GridDims:
    """Grid resolution and uniform cell size."""

    nx: int
    ny: int
    h: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if not self.h > 0:
            raise ValueError(f"cell size must be positive, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def shape_ux(self) -> tuple[int, int]:
        return (self.ny, self.nx + 1)

    @property
    def shape_uy(self) -> tuple[int, int]:
        return (self.ny + 1, self.nx)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> np.ndarray:
        """Positions of all cell centers, shape (ny, nx, 2)."""
        x, y = _lattice_xy(self.shape, 0.5, 0.5)
        return np.stack(np.broadcast_arrays(x * self.h, y * self.h), axis=-1)


def _check_shape(name: str, arr: np.ndarray, shape: tuple[int, int]) -> None:
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


@dataclass
class ScalarGrid:
    """A cell-centered scalar field (pressure, density, divergence, ...)."""

    dims: GridDims
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        _check_shape("scalar field", self.values, self.dims.shape)

    @classmethod
    def zeros(cls, dims: GridDims, dtype=np.float64) -> "ScalarGrid":
        return cls(dims, np.zeros(dims.shape, dtype=dtype))

    @classmethod
    def full(cls, dims: GridDims, value: float, dtype=np.float64) -> "ScalarGrid":
        return cls(dims, np.full(dims.shape, value, dtype=dtype))

    def copy(self) -> "ScalarGrid":
        return ScalarGrid(self.dims, self.values.copy())


@dataclass
class MacVelocity:
    """Face-sampled velocity: ux on vertical faces, uy on horizontal faces."""

    dims: GridDims
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self) -> None:
        self.ux = np.asarray(self.ux)
        self.uy = np.asarray(self.uy)
        _check_shape("ux", self.ux, self.dims.shape_ux)
        _check_shape("uy", self.uy, self.dims.shape_uy)

    @classmethod
    def zeros(cls, dims: GridDims, dtype=np.float64) -> "MacVelocity":
        return cls(dims, np.zeros(dims.shape_ux, dtype=dtype), np.zeros(dims.shape_uy, dtype=dtype))

    def copy(self) -> "MacVelocity":
        return MacVelocity(self.dims, self.ux.copy(), self.uy.copy())

    def max_speed(self) -> float:
        """Largest face-sample magnitude over both components."""
        mx = float(np.max(np.abs(self.ux))) if self.ux.size else 0.0
        my = float(np.max(np.abs(self.uy))) if self.uy.size else 0.0
        return max(mx, my)

    def all_samples(self) -> np.ndarray:
        """All face samples of both components as one flat vector."""
        return np.concatenate([self.ux.ravel(), self.uy.ravel()])


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Cell-centered solid geometry plus the border condition of the domain.

    ``solid[j, i]`` is True on cells occupied by static solid.  Cells that
    are not solid are fluid.  ``open_top`` switches the border above the
    top cell row from solid wall to zero-pressure air.

    A grid is immutable and compares by identity.  It keeps a read-only copy
    of ``solid``; its read-only geometry, and what :meth:`derived` builds,
    are cached on the instance and live exactly as long as the grid.
    """

    dims: GridDims
    solid: np.ndarray
    open_top: bool = False

    def __post_init__(self) -> None:
        solid = np.array(self.solid)
        _check_shape("solid mask", solid, self.dims.shape)
        if solid.dtype != np.bool_:
            raise ValueError(f"solid mask must be boolean, got dtype {solid.dtype}")
        object.__setattr__(self, "solid", _read_only(solid))

    @classmethod
    def empty(cls, dims: GridDims, open_top: bool = False) -> "OccupancyGrid":
        return cls(dims, np.zeros(dims.shape, dtype=bool), open_top)

    @cached_property
    def fluid(self) -> np.ndarray:
        return _read_only(~self.solid)

    @cached_property
    def fluid_padded(self) -> np.ndarray:
        """``fluid`` with a ring of False cells around it, shape (ny + 2, nx + 2)."""
        return _read_only(np.pad(self.fluid, 1, constant_values=False))

    @cached_property
    def n_fluid(self) -> int:
        return int(np.count_nonzero(self.fluid))

    @cached_property
    def faces(self) -> "FaceMasks":
        return _read_only(face_masks(self))

    @cached_property
    def stencil(self) -> "CellStencil":
        return _read_only(cell_stencil(self))

    @cached_property
    def components(self) -> "FluidComponents":
        labels, count = connected_components(self)
        closed = np.ones(count, dtype=bool)
        if self.open_top and count:
            top = labels[-1, :]
            closed[top[top >= 0]] = False
        sizes = np.bincount(labels[self.fluid], minlength=count)
        return _read_only(FluidComponents(labels, closed, sizes))

    @cached_property
    def distance(self) -> "DistanceField":
        return _read_only(distance_field(self))

    def derived(self, build, *args):
        """``build(self, *args)`` for hashable args, built once and kept on this grid."""
        memo = self.__dict__.setdefault("_derived", {})
        key = (build, *args)
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]


@dataclass
class DistanceField:
    """Per-cell distance to the nearest solid cell, in cell units."""

    dims: GridDims
    d: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d)
        _check_shape("distance field", self.d, self.dims.shape)


# ====== Bilinear sampling ======

def _bilinear(values: np.ndarray, x: np.ndarray, y: np.ndarray, offx: float,
              offy: float, h: float, with_bounds: bool = False):
    """Bilinear interpolation on a lattice whose node (c, r) sits at
    ((c + offx) * h, (r + offy) * h).

    Positions outside the lattice are clamped to the border sample band
    first, so no value outside the convex hull of samples is ever produced.
    The four corners are gathered from the flattened lattice at k, k + 1,
    k + ncols and k + ncols + 1, where k = j0 * ncols + i0.  A NaN position
    raises ValueError: its int64 cast is INT_MIN, which that flat index
    would wrap back into range (to 0 when ncols is odd).
    Returns the interpolated values, plus the min and max over the four
    support samples when ``with_bounds`` is set.
    """
    nrows, ncols = values.shape
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
    flat = values.ravel()
    k = j0 * ncols + i0
    v00 = flat.take(k)
    k += 1
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


# ====== Geometry queries ======

def _read_only(obj):
    """Mark an array, or the array fields of ``obj``, read-only."""
    for value in [obj] if isinstance(obj, np.ndarray) else vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


def _padded_masks(g: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Solid and fluid masks padded with one border ring.

    The ring is solid wall everywhere except above the top row in open-top
    mode, where it is air (neither solid nor fluid).
    """
    psolid = np.pad(g.solid, 1, constant_values=True)
    if g.open_top:
        psolid[-1, 1:-1] = False
    return psolid, g.fluid_padded


@dataclass(frozen=True)
class CellStencil:
    """Per-cell neighbor masks for the 5-point pressure stencil.

    ``fluid_*`` flag a fluid neighbor in each direction, ``solid_count``
    counts solid neighbors (border included) and ``diag`` counts non-solid
    neighbors, which is the diagonal of the pressure system.
    """

    fluid: np.ndarray
    fluid_w: np.ndarray
    fluid_e: np.ndarray
    fluid_s: np.ndarray
    fluid_n: np.ndarray
    solid_count: np.ndarray
    diag: np.ndarray


def cell_stencil(g: OccupancyGrid) -> CellStencil:
    psolid, pfluid = _padded_masks(g)
    fw = pfluid[1:-1, :-2]
    fe = pfluid[1:-1, 2:]
    fs = pfluid[:-2, 1:-1]
    fn = pfluid[2:, 1:-1]
    sc = (psolid[1:-1, :-2].astype(np.int64) + psolid[1:-1, 2:]
          + psolid[:-2, 1:-1] + psolid[2:, 1:-1])
    return CellStencil(g.fluid, fw, fe, fs, fn, sc, 4 - sc)


@dataclass(frozen=True)
class FaceMasks:
    """Solid and free flags for every face of the grid.

    A face is *solid* when either adjacent cell (or the border behind it)
    is solid; it is *free* when it is not solid and at least one adjacent
    cell is fluid.  Free faces are exactly the ones a pressure gradient
    update touches.
    """

    solid_x: np.ndarray
    solid_y: np.ndarray
    free_x: np.ndarray
    free_y: np.ndarray


def face_masks(g: OccupancyGrid) -> FaceMasks:
    psolid, pfluid = _padded_masks(g)
    solid_x = psolid[1:-1, :-1] | psolid[1:-1, 1:]
    solid_y = psolid[:-1, 1:-1] | psolid[1:, 1:-1]
    fluid_x = pfluid[1:-1, :-1] | pfluid[1:-1, 1:]
    fluid_y = pfluid[:-1, 1:-1] | pfluid[1:, 1:-1]
    return FaceMasks(solid_x, solid_y, ~solid_x & fluid_x, ~solid_y & fluid_y)


@dataclass(frozen=True)
class FluidComponents:
    """4-connected fluid components: ``labels`` as from
    :func:`connected_components`, each component's cell count ``sizes``, and
    ``closed``, set where no cell touches the air above an open top; only
    closed components carry a constant null vector of the pressure system."""

    labels: np.ndarray
    closed: np.ndarray
    sizes: np.ndarray


def distance_field(g: OccupancyGrid) -> DistanceField:
    """Euclidean distance from each cell center to the nearest solid cell
    center, in units of h.  Zero on solid cells.  If the grid holds no
    solid at all, every entry is +inf.
    """
    if not g.solid.any():
        return DistanceField(g.dims, np.full(g.dims.shape, np.inf))
    d = ndimage.distance_transform_edt(g.fluid)
    return DistanceField(g.dims, d)


def connected_components(g: OccupancyGrid) -> tuple[np.ndarray, int]:
    """Label 4-connected components of the fluid region.

    Returns (labels, count); labels hold 0..count-1 on fluid cells and -1
    on solid cells.
    """
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)
    raw, count = ndimage.label(g.fluid, structure=four)
    return raw.astype(np.int32) - 1, int(count)


# ====== Shape masks ======

def _lattice_xy(shape: tuple[int, int], offx: float, offy: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Cell-unit x, shape (1, ncols), and y, shape (nrows, 1), of the nodes
    of a lattice whose node (c, r) sits at (c + offx, r + offy)."""
    nrows, ncols = shape
    return (np.arange(ncols) + offx)[None, :], (np.arange(nrows) + offy)[:, None]


def _in_disc(x: np.ndarray, y: np.ndarray, center: tuple[float, float],
            radius: float) -> np.ndarray:
    """Points (x, y) inside the closed disc."""
    return (x - center[0]) ** 2 + (y - center[1]) ** 2 <= radius ** 2


def _cone(x: np.ndarray, y: np.ndarray, center: tuple[float, float],
          radius: float) -> np.ndarray:
    """Linear falloff from 1 at the center to 0 at ``radius``, zero beyond."""
    return np.maximum(0.0, 1.0 - np.hypot(x - center[0], y - center[1]) / radius)


def disc_mask(dims: GridDims, center: tuple[float, float], radius: float) -> np.ndarray:
    """Cells whose center lies inside the disc; coordinates in cell units."""
    return _in_disc(*_lattice_xy(dims.shape, 0.5, 0.5), center, radius)


def box_mask(dims: GridDims, center: tuple[float, float],
             half_extents: tuple[float, float], angle: float = 0.0) -> np.ndarray:
    """Cells whose center lies inside the rotated rectangle."""
    x, y = _lattice_xy(dims.shape, 0.5, 0.5)
    dx, dy = x - center[0], y - center[1]
    c, s = math.cos(angle), math.sin(angle)
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (np.abs(local_x) <= half_extents[0]) & (np.abs(local_y) <= half_extents[1])


def capsule_mask(dims: GridDims, p0: tuple[float, float], p1: tuple[float, float],
                 radius: float) -> np.ndarray:
    """Cells within ``radius`` of the segment from p0 to p1."""
    x, y = _lattice_xy(dims.shape, 0.5, 0.5)
    ex, ey = p1[0] - p0[0], p1[1] - p0[1]
    ee = ex * ex + ey * ey
    if ee == 0.0:
        return disc_mask(dims, p0, radius)
    t = np.clip(((x - p0[0]) * ex + (y - p0[1]) * ey) / ee, 0.0, 1.0)
    return (x - (p0[0] + t * ex)) ** 2 + (y - (p0[1] + t * ey)) ** 2 <= radius ** 2
