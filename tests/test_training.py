"""The unsupervised objective, augmentation, ADAM, and the training loop."""

import numpy as np
import pytest

from macfluid import training
from macfluid.convnet import NetArch, init_params, projection_backward
from macfluid.datagen import SceneConfig, build_scene
from macfluid.fdops import divergence, face_masks
from macfluid.forces import ForceConfig
from macfluid.grids import (DistanceField, GridDims, MacVelocity,
                            OccupancyGrid, ScalarGrid, distance_field)
from macfluid.sim import ConvnetProjection, SimConfig, SimState, step
from macfluid.training import (AdamState, EpochStats, LossConfig, SampleStats,
                               TrainConfig, TrainingError, adam_step, augment,
                               divergence_loss, gradient_check, loss_weights,
                               sample_timestep, sample_unroll, train,
                               unrolled_loss)


def _random_state(seed, nx=8, ny=8, n_solid=2, speed=1.0):
    rng = np.random.default_rng(seed)
    dims = GridDims(nx, ny)
    solid = np.zeros(dims.shape, dtype=bool)
    for _ in range(n_solid):
        solid[rng.integers(1, ny - 1), rng.integers(1, nx - 1)] = True
    g = OccupancyGrid(dims, solid)
    u = MacVelocity(dims, speed * rng.standard_normal(dims.shape_ux),
                    speed * rng.standard_normal(dims.shape_uy))
    rho = ScalarGrid(dims, rng.random(dims.shape))
    return SimState(u, rho, g)


# ====== loss weights ======

def test_loss_weights_formula():
    dims = GridDims(8, 8)
    solid = np.zeros(dims.shape, dtype=bool)
    solid[4, 4] = True
    d = distance_field(OccupancyGrid(dims, solid))
    w = loss_weights(d, k=3.0)
    assert w.values[4, 4] == 0.0          # solid cell excluded
    assert w.values[4, 5] == 2.0          # d=1 -> max(1, 3-1)
    assert w.values[4, 6] == 1.0          # d=2 -> floor
    assert w.values[0, 0] == 1.0          # far away


def test_loss_weights_no_solid_all_ones():
    d = distance_field(OccupancyGrid.empty(GridDims(6, 6)))
    w = loss_weights(d, k=5.0)
    assert np.all(w.values == 1.0)


def test_loss_weights_k_validation():
    d = DistanceField(GridDims(4, 4), np.ones((4, 4)))
    with pytest.raises(ValueError):
        loss_weights(d, k=0.5)


# ====== divergence loss ======

def test_divergence_loss_zero_for_divergence_free():
    dims = GridDims(8, 8)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity(dims, np.ones(dims.shape_ux), np.zeros(dims.shape_uy))
    w = loss_weights(distance_field(g), 3.0)
    value, cot = divergence_loss(u, w, g)
    # interior divergence is zero; the solid border makes boundary faces
    # differ, so restrict to a wall-free configuration by hand
    assert value >= 0.0
    u0 = MacVelocity.zeros(dims)
    value0, cot0 = divergence_loss(u0, w, g)
    assert value0 == 0.0
    assert np.all(cot0.ux == 0.0) and np.all(cot0.uy == 0.0)


def test_divergence_loss_single_cell_arithmetic():
    dims = GridDims(4, 4)
    g = OccupancyGrid.empty(dims)
    u = MacVelocity.zeros(dims)
    u.ux[1, 2] = 2.0  # east face of cell (1,1): div = 2
    w = ScalarGrid.zeros(dims)
    w.values[1, 1] = 3.0
    value, _ = divergence_loss(u, w, g)
    assert value == pytest.approx(12.0)  # 3 * 2^2, neighbor cell weight 0


def test_divergence_loss_cotangent_matches_fd():
    state = _random_state(0)
    g, u = state.g, state.u
    w = loss_weights(distance_field(g), 3.0)
    value, cot = divergence_loss(u, w, g)
    fm = face_masks(g)
    rng = np.random.default_rng(1)
    eps = 1e-6

    free_x = np.argwhere(fm.free_x)
    for j, i in free_x[rng.choice(len(free_x), 12, replace=False)]:
        up = MacVelocity(g.dims, u.ux.copy(), u.uy.copy())
        up.ux[j, i] += eps
        um = MacVelocity(g.dims, u.ux.copy(), u.uy.copy())
        um.ux[j, i] -= eps
        fd = (divergence_loss(up, w, g)[0] - divergence_loss(um, w, g)[0]) / (2 * eps)
        assert abs(fd - cot.ux[j, i]) <= 1e-6 * max(1.0, abs(fd))

    free_y = np.argwhere(fm.free_y)
    for j, i in free_y[rng.choice(len(free_y), 12, replace=False)]:
        up = MacVelocity(g.dims, u.ux.copy(), u.uy.copy())
        up.uy[j, i] += eps
        um = MacVelocity(g.dims, u.ux.copy(), u.uy.copy())
        um.uy[j, i] -= eps
        fd = (divergence_loss(up, w, g)[0] - divergence_loss(um, w, g)[0]) / (2 * eps)
        assert abs(fd - cot.uy[j, i]) <= 1e-6 * max(1.0, abs(fd))


# ====== random draws ======

def test_sample_timestep_formula_and_positivity():
    class _Fixed:
        def standard_normal(self):
            return 0.0

    assert sample_timestep(_Fixed()) == pytest.approx(0.203 / 30.0)
    rng = np.random.default_rng(2)
    draws = np.array([sample_timestep(rng) for _ in range(2000)])
    assert np.all(draws > 0)
    # half-normal mean: E[dt] = (0.203 + sqrt(2/pi)) / 30
    want = (0.203 + np.sqrt(2.0 / np.pi)) / 30.0
    assert np.mean(draws) == pytest.approx(want, rel=0.05)


def test_sample_unroll_distribution():
    cfg = LossConfig()
    rng = np.random.default_rng(3)
    draws = np.array([sample_unroll(rng, cfg) for _ in range(20000)])
    assert set(np.unique(draws)) == {4, 25}
    assert abs(np.mean(draws == 4) - 0.9) < 0.01

    always = LossConfig(unroll=((7, 1.0),))
    assert all(sample_unroll(rng, always) == 7 for _ in range(10))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(k=0.0)
    with pytest.raises(ValueError):
        LossConfig(unroll=((4, 0.5), (25, 0.4)))
    with pytest.raises(ValueError):
        LossConfig(unroll=((0, 1.0),))


# ====== augmentation ======

def test_augment_identity_when_all_probabilities_zero(monkeypatch):
    monkeypatch.setattr(training, "AUGMENT_P", 0.0)
    state = _random_state(4)
    out, forces = augment(state, np.random.default_rng(0))
    assert forces == ForceConfig()
    np.testing.assert_array_equal(out.u.ux, state.u.ux)
    np.testing.assert_array_equal(out.density.values, state.density.values)
    assert out.density.values is not state.density.values


def test_augment_deterministic_and_pure(monkeypatch):
    monkeypatch.setattr(training, "AUGMENT_P", 1.0)
    state = _random_state(5)
    rho0 = state.density.values.copy()
    a1, f1 = augment(state, np.random.default_rng(9))
    a2, f2 = augment(state, np.random.default_rng(9))
    assert f1 == f2
    np.testing.assert_array_equal(a1.density.values, a2.density.values)
    np.testing.assert_array_equal(state.density.values, rho0)
    assert np.any(a1.density.values != rho0)  # blobs landed somewhere


def test_augment_gravity_magnitude_in_range(monkeypatch):
    monkeypatch.setattr(training, "AUGMENT_P", 1.0)
    monkeypatch.setattr(training, "GRAVITY_RANGE", (0.05, 0.2))
    state = _random_state(6)
    rng = np.random.default_rng(10)
    for _ in range(200):
        _, forces = augment(state, rng)
        mag = np.hypot(*forces.gravity)
        assert 0.05 - 1e-12 <= mag <= 0.2 + 1e-12


# ====== unrolled loss ======

def test_unrolled_loss_n1_equals_single_step_loss():
    state = _random_state(7)
    params = init_params(NetArch(features=4), seed=0)
    cfg = LossConfig(unroll=((1, 1.0),))

    stats = unrolled_loss(params, state, cfg, np.random.default_rng(11), aug=False)

    rng = np.random.default_rng(11)
    dt = sample_timestep(rng)
    n = sample_unroll(rng, cfg)
    assert n == 1
    sim_cfg = SimConfig(dt=dt, projection=ConvnetProjection(params))
    out = step(state, sim_cfg)
    w = loss_weights(distance_field(state.g), cfg.k)
    want, _ = divergence_loss(out.u, w, out.g)
    assert stats.loss == want
    assert stats.n == 1
    assert stats.div_step1 == stats.div_stepn


def _replay_start(state, params, cfg, seed):
    """The augmented start state and step config that unrolled_loss draws."""
    rng = np.random.default_rng(seed)
    dt = sample_timestep(rng)
    n = sample_unroll(rng, cfg)
    cur, forces = augment(state, rng)
    return cur, n, SimConfig(dt=dt, forces=forces, projection=ConvnetProjection(params))


def _mean_abs_fluid_div(state):
    return float(np.mean(np.abs(divergence(state.u, state.g).values[state.g.fluid])))


def test_unrolled_loss_replay_oracle_n4():
    state = _random_state(8, nx=8, ny=8)
    params = init_params(NetArch(features=4), seed=1)
    cfg = LossConfig(unroll=((4, 1.0),))

    stats = unrolled_loss(params, state, cfg, np.random.default_rng(12), aug=True)

    cur, n, sim_cfg = _replay_start(state, params, cfg, 12)
    assert n == 4
    w = loss_weights(distance_field(state.g), cfg.k)
    cur = step(cur, sim_cfg)
    want, cot = divergence_loss(cur.u, w, cur.g)
    want_grads = projection_backward(cur.report, cot)
    div1 = _mean_abs_fluid_div(cur)
    for _ in range(2):
        cur = step(cur, sim_cfg)
    cur = step(cur, sim_cfg)
    lossn, cot = divergence_loss(cur.u, w, cur.g)
    want += lossn
    want_grads = want_grads + projection_backward(cur.report, cot)
    assert stats.loss == want
    assert np.array_equal(stats.grads, want_grads)
    assert stats.div_step1 == div1
    assert stats.div_stepn == _mean_abs_fluid_div(cur)
    assert stats.div_stepn != stats.div_step1


def test_unrolled_loss_single_frame_flag_drops_future_term():
    state = _random_state(9)
    params = init_params(NetArch(features=4), seed=2)
    full = unrolled_loss(params, state, LossConfig(unroll=((4, 1.0),)),
                         np.random.default_rng(13))
    only1 = unrolled_loss(params, state,
                          LossConfig(unroll=((4, 1.0),), single_frame=True),
                          np.random.default_rng(13))
    assert only1.loss < full.loss
    assert only1.div_step1 == full.div_step1
    assert only1.n == 4


def test_unrolled_loss_speed_limit_skips():
    state = _random_state(10, speed=1e7)
    params = init_params(NetArch(features=4), seed=3)
    cfg = LossConfig(unroll=((1, 1.0),))
    assert unrolled_loss(params, state, cfg, np.random.default_rng(14), aug=False) is None


@pytest.mark.parametrize("skip_at", [2, 4])
def test_unrolled_loss_speed_limit_skips_mid_and_last_step(skip_at, caplog, monkeypatch):
    # steady gravity speeds the flow up every step; a limit between the
    # speeds after steps skip_at - 1 and skip_at trips first at skip_at
    monkeypatch.setattr(training, "AUGMENT_P", 1.0)
    monkeypatch.setattr(training, "GRAVITY_RANGE", (50.0, 50.0))
    monkeypatch.setattr(training, "BUOYANCY_RANGE", (0.0, 0.0))
    monkeypatch.setattr(training, "CONFINEMENT_RANGE", (0.0, 0.0))
    state = _random_state(11, speed=0.1)
    params = init_params(NetArch(features=4), seed=4)
    cfg = LossConfig(unroll=((4, 1.0),))
    cur, _, sim_cfg = _replay_start(state, params, cfg, 15)
    speeds = []
    for _ in range(4):
        cur = step(cur, sim_cfg)
        speeds.append(cur.u.max_speed())
    assert speeds == sorted(speeds) and len(set(speeds)) == 4

    limit = 0.5 * (speeds[skip_at - 2] + speeds[skip_at - 1])
    monkeypatch.setattr(training, "SPEED_LIMIT", limit)
    with caplog.at_level("WARNING", logger="macfluid.training"):
        assert unrolled_loss(params, state, cfg, np.random.default_rng(15)) is None
    assert any(f"at step {skip_at}" in r.message for r in caplog.records)

    monkeypatch.setattr(training, "SPEED_LIMIT", speeds[-1])
    assert unrolled_loss(params, state, cfg, np.random.default_rng(15)) is not None


# ====== ADAM ======

def test_adam_zero_gradient_keeps_params():
    params = init_params(NetArch(features=2), seed=4)
    st = AdamState.init(params)
    new, st2 = adam_step(params, np.zeros(params.n_params), st)
    np.testing.assert_array_equal(new.pack(), params.pack())
    assert st2.t == 1


def test_adam_first_step_matches_hand_computation():
    params = init_params(NetArch(features=2), seed=5).astype(np.float64)
    st = AdamState.init(params, lr=1e-3)
    g = np.ones(params.n_params)
    new, _ = adam_step(params, g, st)
    delta = new.pack() - params.pack()
    # mhat = 1, vhat = 1 -> delta = -lr / (1 + eps)
    np.testing.assert_allclose(delta, -1e-3 / (1.0 + 1e-8), rtol=1e-9)


def test_adam_constant_gradient_update_approaches_lr():
    params = init_params(NetArch(features=2), seed=6).astype(np.float64)
    st = AdamState.init(params, lr=1e-3)
    g = np.full(params.n_params, 0.5)
    for _ in range(1000):
        params, st = adam_step(params, g, st)
    before = params.pack()
    params, st = adam_step(params, g, st)
    step_size = np.abs(params.pack() - before)
    np.testing.assert_allclose(step_size, 1e-3, rtol=1e-3)


def test_adam_shape_mismatch_rejected():
    params = init_params(NetArch(features=2), seed=7)
    st = AdamState.init(params)
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(3), st)


# ====== training loop ======

def _tiny_dataset(n=4, seed=20):
    return [_random_state(seed + i, nx=8, ny=8, speed=0.5) for i in range(n)]


def _fast_cfg(**kw):
    return TrainConfig(arch=NetArch(features=4),
                       loss=LossConfig(unroll=((1, 1.0),)),
                       batch_size=2, **kw)


def test_train_zero_epochs_returns_initial_params():
    params, rows = train(_tiny_dataset(), _fast_cfg(), epochs=0, seed=3)
    want = init_params(NetArch(features=4), np.random.SeedSequence(3).spawn(2)[0])
    np.testing.assert_array_equal(params.pack(), want.pack())
    assert rows == []


def test_train_rejects_a_negative_epoch_count():
    with pytest.raises(ValueError, match="epochs must be nonnegative, got -1"):
        train(_tiny_dataset(), _fast_cfg(), epochs=-1, seed=3)


def test_train_deterministic_under_fixed_seed():
    data = _tiny_dataset()
    p1, r1 = train(data, _fast_cfg(), epochs=2, seed=5)
    p2, r2 = train(data, _fast_cfg(), epochs=2, seed=5)
    np.testing.assert_array_equal(p1.pack(), p2.pack())
    assert [r.mean_loss for r in r1] == [r.mean_loss for r in r2]
    p3, _ = train(data, _fast_cfg(), epochs=2, seed=6)
    assert not np.array_equal(p1.pack(), p3.pack())


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], _fast_cfg(), epochs=1, seed=0)


@pytest.mark.parametrize("kw", [dict(grad_clip=-1.0), dict(lr=0.0), dict(lr=-1e-3)])
def test_train_config_rejects_bad_step_settings(kw):
    # a negative clip would flip the gradient: grad *= clip / norm
    with pytest.raises(ValueError):
        TrainConfig(**kw)


def test_train_gradient_clip_bounds_update():
    # with clipping at c, a single adam step moves parameters by at most
    # lr * |mhat| / sqrt(vhat) where the gradient norm is <= c; just check
    # training runs and per-epoch rows carry the schema
    data = _tiny_dataset(2)
    params, rows = train(data, _fast_cfg(grad_clip=1e-8), epochs=1, seed=1)
    assert len(rows) == 1
    assert rows[0].epoch == 1
    assert np.isfinite(rows[0].mean_loss)
    assert EpochStats.COLUMNS == ("epoch", "mean_loss", "mean_div_step1",
                                  "mean_div_stepn", "wall_ms")


# ====== gradient check ======

def test_gradient_check_reduced_architecture():
    state = _random_state(30, nx=8, ny=8, n_solid=2, speed=0.8)
    params = init_params(NetArch(features=3), seed=9)
    err = gradient_check(params, state, n_checked=120)
    assert err <= 1e-4


@pytest.mark.parametrize("kw", [dict(n_checked=0), dict(eps=0.0), dict(eps=-1e-5),
                                dict(eps=float("nan")), dict(eps=float("inf"))])
def test_gradient_check_rejects_settings_that_check_nothing(kw):
    state = _random_state(32, nx=8, ny=8, n_solid=0)
    params = init_params(NetArch(features=2), seed=11)
    with pytest.raises(ValueError):
        gradient_check(params, state, **kw)


def test_gradient_check_raises_when_nothing_is_compared():
    # a 1x1-kernel, one-feature net has 19 parameters, and on this scene
    # every one of their gradients sits below the roundoff floor
    state, _ = build_scene(SceneConfig(dims=GridDims(8, 8), seed=0))
    params = init_params(NetArch(features=1, kernel=1), np.random.SeedSequence(0))
    assert params.n_params == 19
    with pytest.raises(ValueError, match="nothing was compared"):
        gradient_check(params, state, n_checked=100000)


def test_gradient_check_in_relu_linear_region():
    # drive every relu into its linear region with large positive biases,
    # removing any kink-crossing risk; agreement is then limited only by
    # the difference-quotient noise on the smallest gradient components
    state = _random_state(31, nx=8, ny=8, n_solid=0, speed=0.5)
    params = init_params(NetArch(features=2, kernel=1), seed=10).astype(np.float64)
    biased = params.with_flat(params.pack())
    for b in biased.biases[:-1]:
        b += 10.0
    err = gradient_check(biased, state, n_checked=60)
    assert err <= 1e-4
