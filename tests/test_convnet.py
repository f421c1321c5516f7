"""Network primitives, their adjoints, and the learned projection.

Every backward companion is checked against central finite differences in
float64, and the linear primitives additionally against the dot-product
adjoint identity <f(x), y> == <x, f*(y)>, which holds to roundoff.
"""

import numpy as np
import pytest

from macfluid.convnet import (NetArch, NetParams, SCALE_BYPASS, avg_pool2,
                              avg_pool2_backward, conv2d, conv2d_backward,
                              init_params, learned_project, net_backward,
                              net_forward, projection_backward, relu,
                              relu_backward, upsample2, upsample2_backward,
                              _backward_raw, _forward_raw, _pad_index,
                              _replicate_pad_adjoint)
from macfluid.fdops import divergence, face_masks
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid
import oracles
from oracles import _replicate_pad


def _fd_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn(x)
        x[idx] = orig - eps
        fm = fn(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
    return g


# ====== conv2d ======

def _conv_oracle(x, w, b):
    """Loop reimplementation of replicate-padded correlation."""
    co, ci, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)), mode="edge")
    h, wd = x.shape[1], x.shape[2]
    y = np.zeros((co, h, wd))
    for o in range(co):
        for r in range(h):
            for c in range(wd):
                acc = 0.0
                for i in range(ci):
                    for a in range(k):
                        for bb in range(k):
                            acc += xp[i, r + a, c + bb] * w[o, i, a, bb]
                y[o, r, c] = acc + b[o]
    return y


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    np.testing.assert_allclose(conv2d(x, w, b), _conv_oracle(x, w, b),
                               rtol=0, atol=1e-13)


def test_conv2d_1x1_is_channel_mix():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4, 4))
    w = rng.standard_normal((2, 3, 1, 1))
    b = rng.standard_normal(2)
    want = np.tensordot(w[:, :, 0, 0], x, axes=(1, 0)) + b[:, None, None]
    np.testing.assert_allclose(conv2d(x, w, b), want, atol=1e-14)


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    r = rng.standard_normal((3, 6, 5))

    dx, dw, db = conv2d_backward(r, x, w)
    np.testing.assert_allclose(dx, _fd_grad(lambda v: np.sum(conv2d(v, w, b) * r), x),
                               rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(dw, _fd_grad(lambda v: np.sum(conv2d(x, v, b) * r), w),
                               rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(db, _fd_grad(lambda v: np.sum(conv2d(x, w, v) * r), b),
                               rtol=1e-6, atol=1e-9)


def test_replicate_pad_adjoint_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 7))
    y = rng.standard_normal((2, 9, 11))
    # conv2d pads by gathering through _pad_index
    padded = x.reshape(2, -1)[:, _pad_index(5, 7, 2)].reshape(2, 9, 11)
    np.testing.assert_array_equal(padded, _replicate_pad(x, 2))
    lhs = np.sum(padded * y)
    rhs = np.sum(x * _replicate_pad_adjoint(y, 2))
    assert abs(lhs - rhs) < 1e-12


def _same_bits(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old)
    assert new.tobytes() == old.tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("shape", [(4, 4), (8, 12), (32, 32)])
@pytest.mark.parametrize("c_in", [1, 2, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_window_gemm_is_bitwise_the_tensordot_oracle(k, dtype, c_in, shape):
    rng = np.random.default_rng([k, c_in, *shape])
    for c_out in (1, 16):
        x = rng.standard_normal((c_in, *shape)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        cot = rng.standard_normal((c_out, *shape)).astype(dtype)
        _same_bits(conv2d(x, w, b), oracles.conv2d(x, w, b))
        for new, old in zip(conv2d_backward(cot, x, w),
                            oracles.conv2d_backward(cot, x, w)):
            _same_bits(new, old)


# ====== relu / pooling / upsampling ======

def test_relu_and_backward():
    x = np.array([-2.0, -0.5, 0.3, 4.0])
    np.testing.assert_array_equal(relu(x), [0.0, 0.0, 0.3, 4.0])
    cot = np.ones(4)
    np.testing.assert_array_equal(relu_backward(cot, relu(x)), [0.0, 0.0, 1.0, 1.0])


def test_avg_pool2_values_and_odd_rejection():
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    y = avg_pool2(x)
    assert y.shape == (1, 2, 2)
    assert y[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    with pytest.raises(ValueError):
        avg_pool2(np.zeros((1, 3, 4)))


def test_avg_pool2_adjoint_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6, 8))
    y = rng.standard_normal((3, 3, 4))
    lhs = np.sum(avg_pool2(x) * y)
    rhs = np.sum(x * avg_pool2_backward(y))
    assert abs(lhs - rhs) < 1e-12


def test_upsample2_reproduces_ramp_with_clamped_ends():
    x = np.tile(np.arange(4.0), (1, 4, 1))
    y = upsample2(x)
    want = np.array([0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.0])
    np.testing.assert_allclose(y[0, 4], want, atol=1e-14)


def test_upsample2_adjoint_identity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 6))
    y = rng.standard_normal((2, 8, 12))
    lhs = np.sum(upsample2(x) * y)
    rhs = np.sum(x * upsample2_backward(y))
    assert abs(lhs - rhs) < 1e-12


# ====== architecture and parameters ======

def test_arch_validation():
    with pytest.raises(ValueError):
        NetArch(kernel=4)
    with pytest.raises(ValueError):
        NetArch(features=0)


def test_stage_specs_topology():
    specs = NetArch(features=8, kernel=3).stage_specs()
    assert len(specs) == 9
    assert specs[0].in_ch == 2
    assert specs[-1].out_ch == 1 and specs[-1].kernel == 1
    assert [s.scale_level for s in specs] == [0, 0, 0, 1, 1, 2, 2, 0, 0]


def test_init_params_deterministic_and_bounded():
    a = init_params(NetArch(features=8), seed=7)
    b = init_params(NetArch(features=8), seed=7)
    c = init_params(NetArch(features=8), seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))
    assert a.dtype == np.float32
    for spec, w in zip(a.arch.stage_specs(), a.weights):
        bound = np.sqrt(1.0 / (spec.in_ch * spec.kernel ** 2))
        assert np.all(np.abs(w) <= bound)
        assert w.shape == (spec.out_ch, spec.in_ch, spec.kernel, spec.kernel)


def test_pack_roundtrip():
    p = init_params(NetArch(features=4), seed=0)
    flat = p.pack()
    assert flat.size == p.n_params
    q = p.with_flat(flat)
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))
    with pytest.raises(ValueError):
        p.with_flat(flat[:-1])


# ====== whole-net backward ======

def test_backward_raw_input_gradient_matches_fd():
    rng = np.random.default_rng(6)
    params = init_params(NetArch(features=3), seed=1).astype(np.float64)
    x = rng.standard_normal((2, 8, 8))
    r = rng.standard_normal((1, 8, 8))

    y, cache = _forward_raw(params, x)
    _, dx = _backward_raw(params, cache, r)

    def loss(v):
        return np.sum(_forward_raw(params, v)[0] * r)

    np.testing.assert_allclose(dx, _fd_grad(loss, x, eps=1e-6), rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("shape", [(8, 12), (32, 32)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("features", [1, 3, 16])
def test_level_loop_is_bitwise_the_unrolled_oracle(features, kernel, dtype, shape):
    rng = np.random.default_rng([features, kernel, *shape])
    params = init_params(NetArch(features, kernel), seed=features).astype(dtype)
    x = rng.standard_normal((2, *shape)).astype(dtype)
    cot = rng.standard_normal((1, *shape)).astype(dtype)
    y, cache = _forward_raw(params, x)
    y_old, cache_old = oracles.net_forward_unrolled(params, x)
    _same_bits(y, y_old)
    for new, old in zip(_backward_raw(params, cache, cot),
                        oracles.net_backward_unrolled(params, cache_old, cot)):
        _same_bits(new, old)


def test_net_backward_parameter_gradient_matches_fd():
    rng = np.random.default_rng(7)
    dims = GridDims(8, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[3, 4] = True
    g = OccupancyGrid(dims, solid)
    div = ScalarGrid(dims, rng.standard_normal(dims.shape))
    r = rng.standard_normal(dims.shape)
    params = init_params(NetArch(features=3), seed=2).astype(np.float64)
    scale = 0.7

    p, cache = net_forward(params, div, g, scale)
    grad = net_backward(params, cache, g, scale, r)

    flat0 = params.pack()
    idx = rng.choice(flat0.size, size=60, replace=False)
    eps = 1e-6
    for i in idx:
        f = flat0.copy()
        f[i] = flat0[i] + eps
        jp = np.sum(net_forward(params.with_flat(f), div, g, scale)[0].values * r)
        f[i] = flat0[i] - eps
        jm = np.sum(net_forward(params.with_flat(f), div, g, scale)[0].values * r)
        fd = (jp - jm) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd))


# ====== grid-level forward ======

def test_net_forward_zero_on_solid_and_shape_check():
    dims = GridDims(8, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[2:4, 5] = True
    g = OccupancyGrid(dims, solid)
    params = init_params(NetArch(features=4), seed=3)
    div = ScalarGrid(dims, np.random.default_rng(8).standard_normal(dims.shape))
    p, _ = net_forward(params, div, g, 1.0)
    assert np.all(p.values[solid] == 0.0)
    assert np.any(p.values[~solid] != 0.0)

    with pytest.raises(ValueError):
        net_forward(params, ScalarGrid.zeros(GridDims(8, 6)),
                    OccupancyGrid.empty(GridDims(8, 6)), 1.0)


def _random_state(seed, dims, n_solid=2):
    rng = np.random.default_rng(seed)
    solid = np.zeros(dims.shape, dtype=bool)
    for _ in range(n_solid):
        solid[rng.integers(1, dims.ny - 1), rng.integers(1, dims.nx - 1)] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, rng.standard_normal(dims.shape_ux),
                    rng.standard_normal(dims.shape_uy))
    return g, u


def test_learned_project_power_of_two_homogeneity_is_bitwise():
    dims = GridDims(8, 8)
    g, u = _random_state(9, dims)
    params = init_params(NetArch(features=4), seed=4)
    u1, p1 = learned_project(params, u, g)
    u2, p2 = learned_project(params, MacVelocity(dims, 2.0 * u.ux, 2.0 * u.uy), g)
    np.testing.assert_array_equal(p2.values, 2.0 * p1.values)
    np.testing.assert_array_equal(u2.ux, 2.0 * u1.ux)
    np.testing.assert_array_equal(u2.uy, 2.0 * u1.uy)


def test_learned_project_general_scale_equivariance_single_precision():
    dims = GridDims(16, 16)
    g, u = _random_state(10, dims)
    params = init_params(NetArch(features=4), seed=5)
    alpha = 1.7
    u1, p1 = learned_project(params, u, g)
    u2, p2 = learned_project(params, MacVelocity(dims, alpha * u.ux, alpha * u.uy), g)
    np.testing.assert_allclose(p2.values, alpha * p1.values, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(u2.ux, alpha * u1.ux, rtol=1e-5, atol=1e-5)


def test_learned_project_quiet_field_bypass():
    dims = GridDims(8, 8)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity.zeros(dims)
    params = init_params(NetArch(features=4), seed=6)
    u_hat, p, tape = learned_project(params, u, g, tape=True)
    assert tape.cache is None
    assert tape.scale < SCALE_BYPASS
    assert np.all(p.values == 0.0)
    np.testing.assert_array_equal(u_hat.ux, u.ux)
    assert u_hat.ux is not u.ux  # a copy, not an alias
    cot = MacVelocity(dims, np.ones(dims.shape_ux), np.ones(dims.shape_uy))
    assert np.all(projection_backward(tape, cot) == 0.0)


def test_projection_backward_matches_fd_end_to_end():
    dims = GridDims(8, 8)
    g, u = _random_state(11, dims)
    params = init_params(NetArch(features=3), seed=7).astype(np.float64)
    rng = np.random.default_rng(12)
    rx = rng.standard_normal(dims.shape_ux)
    ry = rng.standard_normal(dims.shape_uy)

    def loss(pp):
        u_hat, _ = learned_project(pp, u, g)
        return np.sum(u_hat.ux * rx) + np.sum(u_hat.uy * ry)

    _, _, tape = learned_project(params, u, g, tape=True)
    grad = projection_backward(tape, MacVelocity(dims, rx, ry))

    flat0 = params.pack()
    idx = rng.choice(flat0.size, size=50, replace=False)
    eps = 1e-6
    for i in idx:
        f = flat0.copy()
        f[i] = flat0[i] + eps
        jp = loss(params.with_flat(f))
        f[i] = flat0[i] - eps
        jm = loss(params.with_flat(f))
        fd = (jp - jm) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd))


def test_projected_velocity_keeps_solid_faces():
    dims = GridDims(8, 8)
    g, u = _random_state(13, dims, n_solid=4)
    fm = face_masks(g)
    params = init_params(NetArch(features=4), seed=8)
    u_hat, _ = learned_project(params, u, g)
    np.testing.assert_array_equal(u_hat.ux[fm.solid_x], u.ux[fm.solid_x])
    np.testing.assert_array_equal(u_hat.uy[fm.solid_y], u.uy[fm.solid_y])


def test_learned_project_reduces_divergence_direction_exists():
    # an untrained net will not reduce divergence, but the update must be
    # exactly u_star - grad(p): reconstructing it from p reproduces u_hat
    from macfluid.fdops import subtract_pressure_gradient
    dims = GridDims(8, 8)
    g, u = _random_state(14, dims)
    params = init_params(NetArch(features=4), seed=9)
    u_hat, p = learned_project(params, u, g)
    rebuilt = subtract_pressure_gradient(u, p, g)
    np.testing.assert_array_equal(u_hat.ux, rebuilt.ux)
    np.testing.assert_array_equal(u_hat.uy, rebuilt.uy)
    assert divergence(u_hat, g).values.shape == dims.shape
