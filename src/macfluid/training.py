"""Unsupervised training of the learned projection.

The objective is the weighted squared divergence of the projected
velocity, evaluated after one simulation step and again after ``n``
unrolled steps.  Backpropagation is truncated: gradients flow through
the network application of the steps where the loss is evaluated, while
advection, forces and earlier projections are treated as constants.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .convnet import NetArch, NetParams, init_params, projection_backward
from .fdops import adjoint_divergence, divergence
from .forces import ForceConfig
from .grids import (DistanceField, MacVelocity, OccupancyGrid, ScalarGrid, _cone,
                    _lattice_xy)
from .sim import ConvnetProjection, SimConfig, SimState, frame_metrics, step

log = logging.getLogger(__name__)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


# ====== Objective ======

def loss_weights(d: DistanceField, k: float) -> ScalarGrid:
    """Per-cell weight max(1, k - d), zero on solid cells.

    Cells within k-1 cells of a solid get extra weight, so divergence
    errors hugging geometry cost more; everywhere else the weight is 1.
    """
    if k < 1:
        raise ValueError(f"weighting constant must be >= 1, got {k}")
    w = np.maximum(1.0, k - d.d)
    w[d.d == 0.0] = 0.0  # distance 0 marks the solid cells themselves
    return ScalarGrid(d.dims, w)


def divergence_loss(u_hat: MacVelocity, w: ScalarGrid, g: OccupancyGrid
                    ) -> tuple[float, MacVelocity]:
    """Weighted squared divergence and its cotangent in the velocity."""
    div = divergence(u_hat, g)
    value = float(np.sum(w.values * div.values ** 2))
    cot = adjoint_divergence(ScalarGrid(g.dims, 2.0 * w.values * div.values), g)
    return value, cot


# ====== Random draws ======

DT_BASE = 1.0 / 30.0
SPEED_LIMIT = 1e6  # a rollout faster than this is skipped, not trained on


def sample_timestep(rng: np.random.Generator) -> float:
    """DT_BASE * (0.203 + |N(0,1)|); always positive, never degenerate."""
    return DT_BASE * (0.203 + abs(rng.standard_normal()))


@dataclass(frozen=True)
class LossConfig:
    k: float = 3.0
    unroll: tuple[tuple[int, float], ...] = ((4, 0.9), (25, 0.1))
    single_frame: bool = False  # ablation: drop the unrolled loss term

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"weighting constant must be >= 1, got {self.k}")
        if not self.unroll or any(n < 1 for n, _ in self.unroll):
            raise ValueError("unroll lengths must be >= 1")
        total = sum(p for _, p in self.unroll)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"unroll probabilities must sum to 1, got {total}")


def sample_unroll(rng: np.random.Generator, cfg: LossConfig) -> int:
    counts = [n for n, _ in cfg.unroll]
    probs = [p for _, p in cfg.unroll]
    return int(rng.choice(counts, p=probs))


# ====== Augmentation ======

# Each of the four groups (gravity, buoyancy, confinement, density blobs) is
# applied with probability AUGMENT_P; the other draws are uniform in these
# ranges, ends included for the blob count.
AUGMENT_P = 0.5
GRAVITY_RANGE = (0.0, 0.2)
BUOYANCY_RANGE = (0.0, 1.0)
CONFINEMENT_RANGE = (0.0, 0.5)
BLOB_COUNT = (1, 3)
BLOB_RADIUS = (1.0, 4.0)
BLOB_AMPLITUDE = (0.2, 1.0)


def augment(state: SimState, rng: np.random.Generator) -> tuple[SimState, ForceConfig]:
    """Randomized per-rollout forces and density blobs.

    Gravity gets a uniformly random direction.  Density blobs use the same
    1 - r/R falloff as inflow emitters.  Draw order is fixed: gravity gate,
    angle, magnitude; buoyancy gate, coefficient; confinement gate,
    strength; density gate, blob count, then per blob x, y, radius,
    amplitude.  The input state is untouched.
    """
    gravity = (0.0, 0.0)
    if rng.random() < AUGMENT_P:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(*GRAVITY_RANGE)
        gravity = (mag * np.cos(angle), mag * np.sin(angle))
    buoyancy = 0.0
    if rng.random() < AUGMENT_P:
        buoyancy = rng.uniform(*BUOYANCY_RANGE)
    confinement = 0.0
    if rng.random() < AUGMENT_P:
        confinement = rng.uniform(*CONFINEMENT_RANGE)

    out = state.copy()
    if rng.random() < AUGMENT_P:
        dims = state.g.dims
        x, y = _lattice_xy(dims.shape, 0.5, 0.5)
        n_blobs = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
        for _ in range(n_blobs):
            bx = rng.uniform(0.0, dims.nx)
            by = rng.uniform(0.0, dims.ny)
            radius = rng.uniform(*BLOB_RADIUS)
            amp = rng.uniform(*BLOB_AMPLITUDE)
            bump = amp * _cone(x, y, (bx, by), radius)
            out.density.values[state.g.fluid] += bump[state.g.fluid]
    return out, ForceConfig(gravity, buoyancy, confinement)


# ====== The unrolled loss ======

@dataclass(frozen=True)
class SampleStats:
    """Per-sample diagnostics alongside the loss and gradient."""

    loss: float
    grads: np.ndarray
    n: int
    div_step1: float  # mean |div| over fluid cells at the first loss step
    div_stepn: float  # same at the last loss step (equals step 1 when n=1)


def unrolled_loss(params: NetParams, frame: SimState, cfg: LossConfig,
                  rng: np.random.Generator, aug: bool = True) -> SampleStats | None:
    """Loss and parameter gradient for one training sample.

    Runs the full simulation step ``n`` times with the learned projection
    and evaluates the weighted divergence objective after step 1 and step
    n.  Returns None (sample skipped) when the rollout exceeds
    SPEED_LIMIT.  Consumes draws in the order: timestep, unroll length,
    then, if ``aug`` is set, the augmentation draws; without ``aug`` the
    frame is stepped as it is, with no forces.
    """
    dt = sample_timestep(rng)
    n = sample_unroll(rng, cfg)
    state, forces = augment(frame, rng) if aug else (frame, ForceConfig())

    sim_cfg = SimConfig(dt=dt, forces=forces,
                        projection=ConvnetProjection(params))
    w = loss_weights(state.g.distance, cfg.k)
    last = 1 if cfg.single_frame else n

    total, grads, divs = 0.0, 0.0, []
    for s in range(1, last + 1):
        state = step(state, sim_cfg)
        speed = state.u.max_speed()
        if speed > SPEED_LIMIT:
            log.warning("sample skipped: speed %.3g beyond limit at step %d", speed, s)
            return None
        if s in (1, last):
            loss, cot = divergence_loss(state.u, w, state.g)
            total += loss
            grads = grads + projection_backward(state.report, cot)
            divs.append(frame_metrics(state).mean_div_l2)
    return SampleStats(total, grads, n, divs[0], divs[-1])


# ====== ADAM ======

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def init(cls, params: NetParams, lr: float = 1e-4) -> "AdamState":
        n = params.n_params
        return cls(np.zeros(n), np.zeros(n), lr=lr)


def adam_step(params: NetParams, grads: np.ndarray, st: AdamState
              ) -> tuple[NetParams, AdamState]:
    """One bias-corrected ADAM update; inputs are left untouched."""
    if grads.shape != st.m.shape:
        raise ValueError(f"gradient size {grads.shape} does not match state {st.m.shape}")
    t = st.t + 1
    m = ADAM_BETA1 * st.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * st.v + (1.0 - ADAM_BETA2) * grads ** 2
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    flat = params.pack().astype(np.float64) - st.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    new_params = params.with_flat(flat)
    return new_params, AdamState(m, v, t, st.lr)


# ====== The training loop ======

@dataclass(frozen=True)
class TrainConfig:
    arch: NetArch = field(default_factory=NetArch)
    loss: LossConfig = field(default_factory=LossConfig)
    batch_size: int = 8
    lr: float = 1e-4
    grad_clip: float = 1.0  # global l2 norm; 0 disables

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.lr > 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.lr}")
        if not self.grad_clip >= 0.0:
            raise ValueError(f"grad clip must be >= 0 (0 disables), got {self.grad_clip}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    mean_div_step1: float
    mean_div_stepn: float
    wall_ms: float

    COLUMNS = ("epoch", "mean_loss", "mean_div_step1", "mean_div_stepn", "wall_ms")

    def row(self) -> list:
        return [getattr(self, c) for c in self.COLUMNS]


def train(dataset, cfg: TrainConfig, epochs: int, seed
          ) -> tuple[NetParams, list[EpochStats]]:
    """Minimize the unrolled divergence loss over a dataset of frames.

    Single-threaded and fully deterministic: one random stream drives
    initialization, shuffling and per-sample draws in a fixed order, and
    batch gradients are averaged in sample-index order.  Samples skipped
    by the speed limit drop out of their batch mean.
    """
    if len(dataset) == 0:
        raise ValueError("training needs a nonempty dataset")
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    init_seed, loop_seed = np.random.SeedSequence(seed).spawn(2)
    params = init_params(cfg.arch, init_seed)
    adam = AdamState.init(params, lr=cfg.lr)
    rng = np.random.default_rng(loop_seed)
    log_rows: list[EpochStats] = []

    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(dataset))
        losses, div1s, divns = [], [], []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc = np.zeros(params.n_params)
            used = 0
            for idx in batch:
                stats = unrolled_loss(params, dataset[idx], cfg.loss, rng, aug=True)
                if stats is None:
                    continue
                if not np.isfinite(stats.loss) or not np.all(np.isfinite(stats.grads)):
                    raise TrainingError(
                        f"non-finite loss or gradient at epoch {epoch}, "
                        f"sample {idx}: loss={stats.loss}")
                acc += stats.grads
                used += 1
                losses.append(stats.loss)
                div1s.append(stats.div_step1)
                divns.append(stats.div_stepn)
            if used == 0:
                log.warning("epoch %d: entire batch skipped", epoch)
                continue
            grad = acc / used
            if cfg.grad_clip > 0.0:
                norm = float(np.linalg.norm(grad))
                if norm > cfg.grad_clip:
                    grad *= cfg.grad_clip / norm
            params, adam = adam_step(params, grad, adam)
        wall = (time.perf_counter() - t0) * 1e3
        row = EpochStats(epoch, float(np.mean(losses)) if losses else float("nan"),
                         float(np.mean(div1s)) if div1s else float("nan"),
                         float(np.mean(divns)) if divns else float("nan"), wall)
        log_rows.append(row)
        log.info("epoch %d: loss %.6g", epoch, row.mean_loss)
    return params, log_rows


# ====== Gradient checking ======

def gradient_check(params: NetParams, sample: SimState, eps: float = 1e-5,
                   n_checked: int = 100, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference
    gradients of the single-step loss of the unaugmented sample, over
    randomly chosen parameters.

    The loss closure reseeds its random draws identically on every call,
    so the finite differences see a deterministic function.  Run this on
    float64 parameters; float32 rounding drowns the differences.  The
    difference quotient carries roundoff of order |loss| * ulp / eps, so
    directions where both values sit below that floor count as agreeing;
    a constant pressure offset, for example, has a true gradient of zero
    because the masked gradient update annihilates it.  Raises ValueError
    when every sampled direction sits below the floor.
    """
    if n_checked < 1:
        raise ValueError(f"gradient check needs at least one parameter, got {n_checked}")
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"probe step eps must be positive and finite, got {eps}")
    params = params.astype(np.float64)
    cfg = LossConfig(unroll=((1, 1.0),))

    def run_loss(p: NetParams) -> SampleStats:
        return unrolled_loss(p, sample, cfg, np.random.default_rng(1234), aug=False)

    base = run_loss(params)
    if base is None:
        raise TrainingError("gradient-check sample exceeded the speed limit")
    flat0 = params.pack()
    rng = np.random.default_rng(seed)
    idx = rng.choice(flat0.size, size=min(n_checked, flat0.size), replace=False)

    noise = abs(base.loss) * 1e-12 / eps
    worst = 0.0
    compared = 0
    for i in idx:
        f = flat0.copy()
        f[i] = flat0[i] + eps
        lp = run_loss(params.with_flat(f)).loss
        f[i] = flat0[i] - eps
        lm = run_loss(params.with_flat(f)).loss
        fd = (lp - lm) / (2.0 * eps)
        if abs(fd) < noise and abs(base.grads[i]) < noise:
            continue
        compared += 1
        denom = max(abs(fd), abs(base.grads[i]), 1e-8)
        worst = max(worst, abs(fd - base.grads[i]) / denom)
    if not compared:
        raise ValueError(f"all {idx.size} sampled gradient directions fell below "
                         f"the roundoff floor {noise:.3g}; nothing was compared")
    return worst
