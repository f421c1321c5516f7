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
    ((c + offx) * h, (r + offy) * h): :func:`_bilinear_apply` of
    :func:`_bilinear_weights`, so sampling at positions known in advance
    (weights kept) and at fresh ones (weights built per call) agree bit for
    bit.  Returns the interpolated values, plus the min and max over the
    four support samples when ``with_bounds`` is set.

    Every returned array is fresh, and no input is written: the weights are
    worked out in buffers of their own, and the lerps run in the buffers of
    the gathered corner samples.
    """
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

    Each axis is worked out in place in one fresh array, x / h or y / h; k
    is formed out of place, since x and y may broadcast against each other.
    """
    nrows, ncols = shape
    fx, fy = np.asarray(x / h), np.asarray(y / h)
    fx -= offx
    fy -= offy
    np.clip(fx, 0.0, ncols - 1.0, out=fx)
    np.clip(fy, 0.0, nrows - 1.0, out=fy)
    i0, j0 = fx.astype(np.int64), fy.astype(np.int64)
    np.minimum(i0, ncols - 2, out=i0)
    np.minimum(j0, nrows - 2, out=j0)
    if min(i0.min(initial=0), j0.min(initial=0)) < 0:
        # the clip keeps only NaN below zero
        bx, by = np.broadcast_arrays(x, y)
        at = np.flatnonzero(np.isnan(bx) | np.isnan(by))[0]
        raise ValueError(f"cannot sample at the non-finite position "
                         f"({bx.flat[at]}, {by.flat[at]})")
    # fx - i0 promotes a narrower float to float64; widening first is exact
    tx = fx.astype(np.result_type(fx, i0), copy=False)
    ty = fy.astype(np.result_type(fy, j0), copy=False)
    tx -= i0
    ty -= j0
    return j0 * ncols + i0, tx, ty


def _bilinear_apply(values: np.ndarray, k: np.ndarray, tx: np.ndarray,
                    ty: np.ndarray, with_bounds: bool = False):
    """Bilinear interpolation of ``values`` with weights from
    :func:`_bilinear_weights` for a lattice of its shape: the four corners
    are gathered from the flattened lattice at k, k + 1, k + ncols and
    k + ncols + 1, then three lerps, top = v00 + tx * (v01 - v00),
    bot = v10 + tx * (v11 - v10) and top + ty * (bot - top).

    The bounds are taken first, and the lerps then run in the gathered
    corners' own buffers; k, tx and ty are only read, so kept weights may
    be read-only."""
    ncols = values.shape[1]
    flat = values.ravel()
    v00 = np.asarray(flat.take(k))
    k = k + 1
    v01 = np.asarray(flat.take(k))
    k += ncols
    v11 = np.asarray(flat.take(k))
    k -= 1
    v10 = np.asarray(flat.take(k))
    if with_bounds:
        lo, hi, side = (np.empty_like(v00) for _ in range(3))
        np.minimum(v00, v01, out=lo)
        np.minimum(lo, np.minimum(v10, v11, out=side), out=lo)
        np.maximum(v00, v01, out=hi)
        np.maximum(hi, np.maximum(v10, v11, out=side), out=hi)
    v01 -= v00
    v11 -= v10
    wide = np.result_type(v00, tx, ty)
    if wide != v00.dtype:
        # samples narrower than the weights: the lerps run in the weights'
        # dtype, and widening the samples and their differences is exact
        v00, v01, v10, v11 = (v.astype(wide) for v in (v00, v01, v10, v11))
    v01 *= tx
    v00 += v01
    v11 *= tx
    v10 += v11
    v10 -= v00
    v10 *= ty
    v00 += v10
    return (v00, lo, hi) if with_bounds else v00


# ====== Geometry queries ======

def _read_only(obj):
    """Mark an array, or the array fields of a tuple or an object, read-only."""
    fields = obj if isinstance(obj, tuple) else getattr(obj, "__dict__", {}).values()
    for value in [obj, *fields]:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


def _padded_solid(g: OccupancyGrid) -> np.ndarray:
    """The solid mask padded with one border ring: solid wall, but air
    (neither solid nor fluid) above the top row in open-top mode."""
    psolid = np.pad(g.solid, 1, constant_values=True)
    if g.open_top:
        psolid[-1, 1:-1] = False
    return psolid


@dataclass(frozen=True)
class CellStencil:
    """Per-cell counts for the 5-point pressure stencil: ``solid_count``
    counts solid neighbors (border included) and ``diag`` counts non-solid
    neighbors, which is h^2 times the diagonal of the pressure system.
    """

    solid_count: np.ndarray
    diag: np.ndarray


def cell_stencil(g: OccupancyGrid) -> CellStencil:
    psolid = _padded_solid(g)
    sc = (psolid[1:-1, :-2].astype(np.int64) + psolid[1:-1, 2:]
          + psolid[:-2, 1:-1] + psolid[2:, 1:-1])
    return CellStencil(sc, 4 - sc)


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
    psolid, pfluid = _padded_solid(g), g.fluid_padded
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
