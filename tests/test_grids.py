import dataclasses

import numpy as np
import pytest

import oracles
from macfluid import grids
from macfluid.grids import (
    DistanceField,
    GridDims,
    MacVelocity,
    OccupancyGrid,
    ScalarGrid,
    _bilinear,
    connected_components,
    distance_field,
)
from oracles import cell_centers, sample_scalar, sample_velocity


def test_dims_validation():
    with pytest.raises(ValueError):
        GridDims(2, 8)
    with pytest.raises(ValueError):
        GridDims(8, 3)
    with pytest.raises(ValueError):
        GridDims(8, 8, h=0.0)
    d = GridDims(5, 7, h=0.25)
    assert d.shape == (7, 5)
    assert d.shape_ux == (7, 6)
    assert d.shape_uy == (8, 5)


def test_shape_checks():
    dims = GridDims(6, 4)
    with pytest.raises(ValueError):
        ScalarGrid(dims, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        MacVelocity(dims, np.zeros((4, 7)), np.zeros((4, 6)))
    with pytest.raises(ValueError):
        OccupancyGrid(dims, np.zeros((4, 6)))  # not boolean


# ====== Occupancy grid ======

def test_occupancy_grid_is_immutable():
    dims = GridDims(6, 4)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[1, 2] = True
    g = OccupancyGrid(dims, solid)
    for mask in (g.solid, g.fluid):
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.open_top = True
    # the grid keeps its own copy of the caller's mask
    solid[1, 2] = False
    solid[3, 5] = True
    assert g.solid[1, 2] and not g.solid[3, 5]
    assert not g.fluid[1, 2] and g.fluid[3, 5]
    # grids compare and hash by identity, not by content
    twin = OccupancyGrid(dims, g.solid)
    assert twin != g and len({g, twin}) == 2


def test_occupancy_grid_caches_read_only_geometry():
    rng = np.random.default_rng(5)
    g = OccupancyGrid(GridDims(9, 7), rng.random((7, 9)) < 0.3, open_top=True)
    for name in ("fluid", "fluid_padded", "faces", "stencil", "components", "distance"):
        assert getattr(g, name) is getattr(g, name), name
    for arr in (g.fluid_padded, g.faces.free_x, g.faces.solid_y, g.stencil.solid_count,
                g.stencil.diag, g.components.labels, g.components.sizes,
                g.distance.d):
        with pytest.raises(ValueError):
            arr[0, ...] = 0


def test_components_closed_flags_and_sizes():
    dims = GridDims(6, 5)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[:, 2] = True   # wall splitting the domain
    solid[-1, :2] = True  # cap the left part below the open top
    for open_top in (False, True):
        g = OccupancyGrid(dims, solid, open_top)
        labels, count = connected_components(g)
        comps = g.components
        np.testing.assert_array_equal(comps.labels, labels)
        left, right = labels[0, 0], labels[0, 5]
        assert count == 2 and comps.sizes[left] == 8 and comps.sizes[right] == 15
        assert comps.closed[left]
        assert comps.closed[right] == (not open_top)


# ====== Bilinear sampling ======

def _bilinear_oracle(values, pos, offx, offy, h):
    """Straight scalar reimplementation of clamped bilinear sampling."""
    nrows, ncols = values.shape
    fx = min(max(pos[0] / h - offx, 0.0), ncols - 1.0)
    fy = min(max(pos[1] / h - offy, 0.0), nrows - 1.0)
    i0 = min(int(fx), ncols - 2)
    j0 = min(int(fy), nrows - 2)
    tx, ty = fx - i0, fy - j0
    return ((1 - tx) * (1 - ty) * values[j0, i0]
            + tx * (1 - ty) * values[j0, i0 + 1]
            + (1 - tx) * ty * values[j0 + 1, i0]
            + tx * ty * values[j0 + 1, i0 + 1])


def _oracle_support(values, pos, offx, offy, h):
    """The four samples ``_bilinear_oracle`` weighs at ``pos``."""
    nrows, ncols = values.shape
    i0 = min(int(min(max(pos[0] / h - offx, 0.0), ncols - 1.0)), ncols - 2)
    j0 = min(int(min(max(pos[1] / h - offy, 0.0), nrows - 1.0)), nrows - 2)
    return [values[j0 + dj, i0 + di] for dj in (0, 1) for di in (0, 1)]


def test_sample_scalar_at_centers():
    dims = GridDims(5, 4, h=0.5)
    rng = np.random.default_rng(0)
    q = ScalarGrid(dims, rng.normal(size=dims.shape))
    for j in range(dims.ny):
        for i in range(dims.nx):
            p = ((i + 0.5) * dims.h, (j + 0.5) * dims.h)
            assert sample_scalar(q, p) == pytest.approx(q.values[j, i], abs=1e-14)


def test_sample_scalar_matches_oracle():
    rng = np.random.default_rng(7)
    dims = GridDims(9, 6, h=0.3)
    q = ScalarGrid(dims, rng.normal(size=dims.shape))
    pos = rng.uniform(-1.0, 4.0, size=(200, 2))  # includes far outside
    got = sample_scalar(q, pos)
    want = [_bilinear_oracle(q.values, p, 0.5, 0.5, dims.h) for p in pos]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_sample_velocity_matches_oracle():
    rng = np.random.default_rng(8)
    dims = GridDims(6, 8, h=0.7)
    u = MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))
    pos = rng.uniform(-2.0, 9.0, size=(200, 2))
    got = sample_velocity(u, pos)
    wx = [_bilinear_oracle(u.ux, p, 0.0, 0.5, dims.h) for p in pos]
    wy = [_bilinear_oracle(u.uy, p, 0.5, 0.0, dims.h) for p in pos]
    np.testing.assert_allclose(got[:, 0], wx, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got[:, 1], wy, rtol=0, atol=1e-13)


@pytest.mark.parametrize("extra_rows, extra_cols, offx, offy",
                         [(0, 0, 0.5, 0.5), (0, 1, 0.0, 0.5), (1, 0, 0.5, 0.0)],
                         ids=["cells", "x_faces", "y_faces"])
def test_bilinear_on_broadcast_lattice_rows_matches_oracle(extra_rows, extra_cols, offx, offy):
    # the (1, ncols) x (nrows, 1) inputs advection passes, reaching past the
    # lattice on every side, with and without the support bounds
    rng = np.random.default_rng(11)
    dims = GridDims(9, 6, h=0.4)
    values = rng.normal(size=(dims.ny + extra_rows, dims.nx + extra_cols))
    nrows, ncols = values.shape
    x = rng.uniform(-2.0, ncols + 2.0, size=(1, 13)) * dims.h
    y = rng.uniform(-2.0, nrows + 2.0, size=(8, 1)) * dims.h
    out, lo, hi = _bilinear(values, x, y, offx, offy, dims.h, with_bounds=True)
    assert out.shape == lo.shape == hi.shape == (8, 13)
    np.testing.assert_array_equal(_bilinear(values, x, y, offx, offy, dims.h), out)
    for r in range(8):
        for c in range(13):
            p = (x[0, c], y[r, 0])
            want = _bilinear_oracle(values, p, offx, offy, dims.h)
            assert out[r, c] == pytest.approx(want, rel=0, abs=1e-13)
            corners = _oracle_support(values, p, offx, offy, dims.h)
            assert (lo[r, c], hi[r, c]) == (min(corners), max(corners))


def test_sample_uniform_velocity_is_uniform():
    dims = GridDims(8, 8)
    u = MacVelocity(dims, np.full(dims.shape_ux, 2.5), np.full(dims.shape_uy, -1.25))
    pos = np.array([[0.0, 0.0], [4.0, 4.0], [100.0, -3.0], [7.99, 0.01]])
    got = sample_velocity(u, pos)
    np.testing.assert_allclose(got[:, 0], 2.5, atol=0)
    np.testing.assert_allclose(got[:, 1], -1.25, atol=0)


def test_sample_clamps_to_border_band():
    rng = np.random.default_rng(9)
    dims = GridDims(6, 5)
    q = ScalarGrid(dims, rng.normal(size=dims.shape))
    lo = float(q.values.min())
    hi = float(q.values.max())
    pos = rng.uniform(-50.0, 50.0, size=(500, 2))
    got = np.asarray(sample_scalar(q, pos))
    assert np.all(got >= lo - 1e-12)
    assert np.all(got <= hi + 1e-12)
    # far beyond a corner the sample equals the corner cell value
    assert sample_scalar(q, (-40.0, -40.0)) == pytest.approx(q.values[0, 0])
    assert sample_scalar(q, (40.0, 40.0)) == pytest.approx(q.values[-1, -1])


@pytest.mark.parametrize("pos", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
def test_sample_at_a_nan_position_raises(pos):
    # odd widths: a NaN cast to int64 is INT_MIN, and INT_MIN * ncols + INT_MIN
    # wraps to flat index 0 when ncols is odd, i.e. to a silent values[0, 0]
    dims = GridDims(7, 5, h=0.5)
    rng = np.random.default_rng(10)
    q = ScalarGrid(dims, rng.normal(size=dims.shape))
    u = MacVelocity(dims, rng.normal(size=dims.shape_ux), rng.normal(size=dims.shape_uy))
    pts = np.array([[1.0, 1.0], pos])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite position"):
            sample_scalar(q, pts)
        with pytest.raises(ValueError, match="non-finite position"):
            sample_velocity(u, pts)


def test_sample_scalar_reproduces_linear_fields():
    dims = GridDims(8, 7, h=0.5)
    cc = cell_centers(dims)
    q = ScalarGrid(dims, 2.0 * cc[..., 0] - 3.0 * cc[..., 1] + 0.75)
    rng = np.random.default_rng(10)
    # interior positions, at least half a cell away from the border band
    pos = np.stack([rng.uniform(0.5 * dims.h, (dims.nx - 0.5) * dims.h, 300),
                    rng.uniform(0.5 * dims.h, (dims.ny - 0.5) * dims.h, 300)], axis=-1)
    want = 2.0 * pos[:, 0] - 3.0 * pos[:, 1] + 0.75
    np.testing.assert_allclose(sample_scalar(q, pos), want, atol=1e-12)


def _bilinear_case(case, rng, dims):
    """Positions (x, y) for one case of the in-place sampling oracle test."""
    if case == "broadcast":  # the (1, n) x (m, 1) rows advection passes
        return (rng.uniform(-2.0, dims.nx + 2.0, size=(1, 13)) * dims.h,
                rng.uniform(-2.0, dims.ny + 2.0, size=(8, 1)) * dims.h)
    if case == "far_outside":
        x, y = rng.uniform(-1e3, 1e3, size=(2, 40))
        x[:2], y[2:4] = (np.inf, -np.inf), (-np.inf, np.inf)
        return x, y
    if case == "zero_d":  # one point, as oracles.sample_scalar passes it
        return np.asarray(1.3 * dims.h), np.asarray(2.9 * dims.h)
    if case == "float32_positions":
        return (rng.uniform(0.0, dims.nx, size=50).astype(np.float32) * np.float32(dims.h),
                rng.uniform(0.0, dims.ny, size=50).astype(np.float32) * np.float32(dims.h))
    # node positions and half-way points, where signed zeros meet
    x, y = np.meshgrid(np.arange(0.0, dims.nx, 0.5), np.arange(0.0, dims.ny, 0.5))
    return x * dims.h, y * dims.h


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()  # raw bytes: -0.0 differs from 0.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", ["broadcast", "far_outside", "zero_d", "float32_positions",
                                  "signed_zeros"])
def test_in_place_bilinear_is_bitwise_the_out_of_place_oracle(case, dtype):
    rng = np.random.default_rng(12)
    dims = GridDims(9, 6, h=0.4)
    x, y = _bilinear_case(case, rng, dims)
    zeros = []
    for offx, offy, shape in ((0.5, 0.5, dims.shape), (0.0, 0.5, dims.shape_ux),
                              (0.5, 0.0, dims.shape_uy)):
        if case == "signed_zeros":
            values = rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape).astype(dtype)
        else:
            values = rng.normal(size=shape).astype(dtype)
        inputs = [values, x, y]
        kept = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        weights = grids._bilinear_weights(shape, x, y, offx, offy, dims.h)
        for a, b in zip(weights, oracles._bilinear_weights(shape, x, y, offx, offy, dims.h)):
            _same_bits(a, b)
        for a in weights:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False  # as the sampling plan keeps them
        for with_bounds in (False, True):
            want = oracles._bilinear(values, x, y, offx, offy, dims.h, with_bounds=with_bounds)
            for got in (_bilinear(values, x, y, offx, offy, dims.h, with_bounds=with_bounds),
                        grids._bilinear_apply(values, *weights, with_bounds=with_bounds)):
                for a, b in zip(*((got, want) if with_bounds else ((got,), (want,)))):
                    _same_bits(a, b)
        for a, b in zip(inputs, kept):
            _same_bits(a, b)
        zeros.extend(want[0][want[0] == 0.0].ravel())
    if case == "signed_zeros":
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    # a NaN position raises the oracle's error
    x = np.array(x)
    x.flat[-1] = np.nan
    errors = []
    for sample in (oracles._bilinear, _bilinear):
        with pytest.raises(ValueError) as err, np.errstate(invalid="ignore"):
            sample(values, x, y, 0.5, 0.0, dims.h)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


# ====== Distance field ======

def _distance_oracle(solid):
    ny, nx = solid.shape
    out = np.zeros((ny, nx))
    solids = np.argwhere(solid)
    for j in range(ny):
        for i in range(nx):
            if solid[j, i]:
                continue
            d2 = ((solids[:, 0] - j) ** 2 + (solids[:, 1] - i) ** 2).min()
            out[j, i] = np.sqrt(d2)
    return out


def test_distance_field_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        nx = int(rng.integers(4, 17))
        ny = int(rng.integers(4, 17))
        solid = rng.random((ny, nx)) < 0.2
        if not solid.any():
            solid[ny // 2, nx // 2] = True
        g = OccupancyGrid(GridDims(nx, ny), solid)
        got = distance_field(g)
        np.testing.assert_allclose(got.d, _distance_oracle(solid), atol=1e-9)


def test_distance_field_no_solid_is_inf():
    g = OccupancyGrid.empty(GridDims(5, 5))
    d = distance_field(g)
    assert np.all(np.isinf(d.d))


def test_distance_zero_on_solid():
    solid = np.zeros((6, 6), dtype=bool)
    solid[2:4, 1:3] = True
    d = distance_field(OccupancyGrid(GridDims(6, 6), solid))
    assert np.all(d.d[solid] == 0.0)
    assert np.all(d.d[~solid] > 0.0)


# ====== Connected components ======

def _components_oracle(fluid):
    """Flood fill with 4-connectivity."""
    ny, nx = fluid.shape
    labels = np.full((ny, nx), -1, dtype=int)
    count = 0
    for j in range(ny):
        for i in range(nx):
            if not fluid[j, i] or labels[j, i] >= 0:
                continue
            stack = [(j, i)]
            labels[j, i] = count
            while stack:
                cj, ci = stack.pop()
                for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    nj, nc = cj + dj, ci + di
                    if 0 <= nj < ny and 0 <= nc < nx and fluid[nj, nc] and labels[nj, nc] < 0:
                        labels[nj, nc] = count
                        stack.append((nj, nc))
            count += 1
    return labels, count


def _labelings_equal(a, b):
    """Same partition up to label permutation, with -1 fixed."""
    if (a < 0).any() != (b < 0).any() or not np.array_equal(a < 0, b < 0):
        return False
    mapping = {}
    for x, y in zip(a.ravel(), b.ravel()):
        if x < 0:
            continue
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def test_connected_components_match_flood_fill():
    rng = np.random.default_rng(12)
    for _ in range(10):
        nx = int(rng.integers(4, 15))
        ny = int(rng.integers(4, 15))
        solid = rng.random((ny, nx)) < 0.45
        g = OccupancyGrid(GridDims(nx, ny), solid)
        labels, count = connected_components(g)
        want_labels, want_count = _components_oracle(~solid)
        assert count == want_count
        assert np.all(labels[solid] == -1)
        assert _labelings_equal(labels, want_labels)


def test_connected_components_single_region():
    g = OccupancyGrid.empty(GridDims(5, 4))
    labels, count = connected_components(g)
    assert count == 1
    assert np.all(labels == 0)


def test_wall_split_regions():
    solid = np.zeros((5, 5), dtype=bool)
    solid[:, 2] = True  # full vertical wall
    labels, count = connected_components(OccupancyGrid(GridDims(5, 5), solid))
    assert count == 2
    assert labels[0, 0] != labels[0, 4]


def test_distance_field_type():
    g = OccupancyGrid.empty(GridDims(4, 4))
    assert isinstance(distance_field(g), DistanceField)
