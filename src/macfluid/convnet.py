"""A small multi-resolution convolutional network that replaces the
pressure solve, plus the hand-written reverse-mode machinery to train it.

The network maps two input channels, the divergence of the tentative
velocity normalized by a per-call scale and the solid occupancy, to a
pressure-like field.  Because the velocity correction is the (negated)
gradient of this single scalar field, the learned update can only remove
divergence, never inject rotation.

Topology: a stem convolution lifts the input to ``features`` channels;
three branches process the result at full, half and quarter resolution
(two convolutions each, pooling by 2x2 averages); the coarse branches are
brought back up with bilinear upsampling and summed; a merge convolution
and a 1x1 head reduce to one channel.  All convolutions pad by edge
replication and keep spatial size; every stage but the head is followed
by a ReLU.  Grid sides must be divisible by four so the pooled sizes stay
even.

Differentiation is plain backpropagation: each primitive has a backward
companion that applies the exact transpose of its linearization, so the
gradients agree with finite differences to roundoff in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fdops import divergence, subtract_pressure_gradient
from .grids import MacVelocity, OccupancyGrid, ScalarGrid


# ====== Primitives ======

def _replicate_pad(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (p, p), (p, p)), mode="edge")


def _replicate_pad_adjoint(cot: np.ndarray, p: int) -> np.ndarray:
    """Fold padded-border cotangents back onto the edge rows and columns."""
    if p == 0:
        return cot
    c = cot.copy()
    c[:, :, p] += c[:, :, :p].sum(axis=2)
    c[:, :, -p - 1] += c[:, :, -p:].sum(axis=2)
    c = c[:, :, p:-p]
    c[:, p, :] += c[:, :p, :].sum(axis=1)
    c[:, -p - 1, :] += c[:, -p:, :].sum(axis=1)
    return c[:, p:-p, :]


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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(cot: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, cot, 0)


def avg_pool2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling; spatial sides must be even."""
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even sides, got {h}x{w}")
    return 0.25 * (x[:, 0::2, 0::2] + x[:, 1::2, 0::2]
                   + x[:, 0::2, 1::2] + x[:, 1::2, 1::2])


def avg_pool2_backward(cot: np.ndarray) -> np.ndarray:
    c, h, w = cot.shape
    out = np.empty((c, 2 * h, 2 * w), dtype=cot.dtype)
    q = 0.25 * cot
    out[:, 0::2, 0::2] = q
    out[:, 1::2, 0::2] = q
    out[:, 0::2, 1::2] = q
    out[:, 1::2, 1::2] = q
    return out


@lru_cache(maxsize=None)
def _upsample_matrix(n: int, dtype: str) -> np.ndarray:
    """(2n, n) matrix of 2x bilinear upsampling along one axis.

    Output sample r reads the source at (r + 0.5) / 2 - 0.5; the border
    rows clamp to the edge sample.
    """
    src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    lo = np.floor(src)
    t = src - lo
    i0 = np.clip(lo, 0, n - 1).astype(np.int64)
    i1 = np.clip(lo + 1, 0, n - 1).astype(np.int64)
    m = np.zeros((2 * n, n))
    rows = np.arange(2 * n)
    np.add.at(m, (rows, i0), 1.0 - t)
    np.add.at(m, (rows, i1), t)
    return m.astype(dtype)


def upsample2(x: np.ndarray) -> np.ndarray:
    """Bilinear 2x upsampling of (c, h, w)."""
    _, h, w = x.shape
    uh = _upsample_matrix(h, x.dtype.name)
    uw = _upsample_matrix(w, x.dtype.name)
    return (uh[None] @ x) @ uw.T[None]


def upsample2_backward(cot: np.ndarray) -> np.ndarray:
    _, h2, w2 = cot.shape
    uh = _upsample_matrix(h2 // 2, cot.dtype.name)
    uw = _upsample_matrix(w2 // 2, cot.dtype.name)
    return (uh.T[None] @ cot) @ uw[None]


# ====== Architecture and parameters ======

@dataclass(frozen=True)
class StageSpec:
    in_ch: int
    out_ch: int
    kernel: int
    scale_level: int  # 0 full, 1 half, 2 quarter resolution


@dataclass(frozen=True)
class NetArch:
    """Feature width and kernel size; the topology itself is fixed."""

    features: int = 16
    kernel: int = 3

    def __post_init__(self) -> None:
        if self.features < 1:
            raise ValueError("need at least one feature channel")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")

    def stage_specs(self) -> list[StageSpec]:
        f, k = self.features, self.kernel
        return [
            StageSpec(2, f, k, 0),   # stem
            StageSpec(f, f, k, 0),   # full-resolution branch
            StageSpec(f, f, k, 0),
            StageSpec(f, f, k, 1),   # half-resolution branch
            StageSpec(f, f, k, 1),
            StageSpec(f, f, k, 2),   # quarter-resolution branch
            StageSpec(f, f, k, 2),
            StageSpec(f, f, k, 0),   # merge after upsampling
            StageSpec(f, 1, 1, 0),   # head
        ]


@dataclass
class NetParams:
    """Weights and biases for every stage, in stage order."""

    arch: NetArch
    weights: list
    biases: list

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def pack(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def with_flat(self, flat: np.ndarray) -> "NetParams":
        """Rebuild parameters from a flat vector in pack() order."""
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} values, got {flat.size}")
        ws, bs = [], []
        pos = 0
        for w, b in zip(self.weights, self.biases):
            ws.append(flat[pos:pos + w.size].reshape(w.shape).astype(self.dtype))
            pos += w.size
            bs.append(flat[pos:pos + b.size].reshape(b.shape).astype(self.dtype))
            pos += b.size
        return NetParams(self.arch, ws, bs)

    def astype(self, dtype) -> "NetParams":
        return NetParams(self.arch,
                         [w.astype(dtype) for w in self.weights],
                         [b.astype(dtype) for b in self.biases])


def init_params(arch: NetArch, seed, dtype=np.float32) -> NetParams:
    """Uniform initialization in +-sqrt(1/fan_in), weights then bias per stage."""
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for spec in arch.stage_specs():
        bound = np.sqrt(1.0 / (spec.in_ch * spec.kernel ** 2))
        shape = (spec.out_ch, spec.in_ch, spec.kernel, spec.kernel)
        ws.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
        bs.append(rng.uniform(-bound, bound, size=spec.out_ch).astype(dtype))
    return NetParams(arch, ws, bs)


# ====== Forward / backward over the fixed topology ======

def _forward_raw(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    w, b = params.weights, params.biases
    a0 = relu(conv2d(x, w[0], b[0]))
    af1 = relu(conv2d(a0, w[1], b[1]))
    af2 = relu(conv2d(af1, w[2], b[2]))
    h0 = avg_pool2(a0)
    ah1 = relu(conv2d(h0, w[3], b[3]))
    ah2 = relu(conv2d(ah1, w[4], b[4]))
    q0 = avg_pool2(h0)
    aq1 = relu(conv2d(q0, w[5], b[5]))
    aq2 = relu(conv2d(aq1, w[6], b[6]))
    m = af2 + upsample2(ah2) + upsample2(upsample2(aq2))
    am = relu(conv2d(m, w[7], b[7]))
    y = conv2d(am, w[8], b[8])
    cache = (x, a0, af1, af2, h0, ah1, ah2, q0, aq1, aq2, m, am)
    return y, cache


def _backward_raw(params: NetParams, cache: tuple, cot_y: np.ndarray
                  ) -> tuple[list, list, np.ndarray]:
    # relu(z) > 0 exactly where z > 0, so the cached activations double as
    # the relu masks and the pre-activations never need to be kept
    (x, a0, af1, af2, h0, ah1, ah2, q0, aq1, aq2, m, am) = cache
    w = params.weights
    dw = [None] * 9
    db = [None] * 9

    dam, dw[8], db[8] = conv2d_backward(cot_y, am, w[8])
    dm, dw[7], db[7] = conv2d_backward(relu_backward(dam, am), m, w[7])

    # full branch
    daf1, dw[2], db[2] = conv2d_backward(relu_backward(dm, af2), af1, w[2])
    da0, dw[1], db[1] = conv2d_backward(relu_backward(daf1, af1), a0, w[1])

    # half branch
    duh = upsample2_backward(dm)
    dah1, dw[4], db[4] = conv2d_backward(relu_backward(duh, ah2), ah1, w[4])
    dh0, dw[3], db[3] = conv2d_backward(relu_backward(dah1, ah1), h0, w[3])

    # quarter branch
    duq = upsample2_backward(upsample2_backward(dm))
    daq1, dw[6], db[6] = conv2d_backward(relu_backward(duq, aq2), aq1, w[6])
    dq0, dw[5], db[5] = conv2d_backward(relu_backward(daq1, aq1), q0, w[5])

    dh0 = dh0 + avg_pool2_backward(dq0)
    da0 = da0 + avg_pool2_backward(dh0)
    dx, dw[0], db[0] = conv2d_backward(relu_backward(da0, a0), x, w[0])
    return dw, db, dx


# ====== Grid-level interface ======

def net_forward(params: NetParams, div: ScalarGrid, g: OccupancyGrid,
                scale: float) -> tuple[ScalarGrid, tuple]:
    """Predict a pressure field from normalized divergence and occupancy.

    The input divergence is divided by ``scale`` and the raw output is
    multiplied by it again, so the prediction is homogeneous of degree
    one in the velocity.  Output is zero on solid cells.
    """
    ny, nx = g.dims.shape
    if ny % 4 or nx % 4:
        raise ValueError(f"grid sides must be divisible by 4, got {nx}x{ny}")
    dtype = params.dtype
    x = np.stack([div.values / scale, g.solid.astype(np.float64)]).astype(dtype)
    y, cache = _forward_raw(params, x)
    p = y[0].astype(np.float64) * scale
    p[g.solid] = 0.0
    return ScalarGrid(g.dims, p), cache


def net_backward(params: NetParams, cache: tuple, g: OccupancyGrid,
                 scale: float, cot_p: np.ndarray) -> np.ndarray:
    """Parameter gradient (flat, float64, pack() order) for a given
    cotangent of the predicted pressure field."""
    cy = np.where(g.solid, 0.0, cot_p * scale)
    cot_y = cy[None].astype(params.dtype)
    dw, db, _ = _backward_raw(params, cache, cot_y)
    return NetParams(params.arch, dw, db).pack().astype(np.float64)


SCALE_BYPASS = 1e-6


@dataclass
class ProjectionTape:
    """Everything needed to backpropagate through one learned projection."""

    params: NetParams
    g: OccupancyGrid
    scale: float
    cache: tuple | None  # None when the quiet-field bypass fired


def learned_project(params: NetParams, u_star: MacVelocity, g: OccupancyGrid,
                    tape: bool = False):
    """Replace the pressure solve with a network evaluation.

    The normalization scale is the standard deviation of all face samples
    of the tentative velocity.  Fields quieter than SCALE_BYPASS skip the
    network entirely and pass through unchanged with zero pressure.  The
    gradient subtraction leaves solid faces untouched, so enforced solid
    velocities survive the update.

    Returns (u, p) or (u, p, ProjectionTape) when ``tape`` is set.
    """
    s = float(np.std(u_star.all_samples()))
    if s < SCALE_BYPASS:
        p = ScalarGrid.zeros(g.dims)
        if tape:
            return u_star.copy(), p, ProjectionTape(params, g, s, None)
        return u_star.copy(), p
    div = divergence(u_star, g)
    p, cache = net_forward(params, div, g, s)
    u = subtract_pressure_gradient(u_star, p, g)
    if tape:
        return u, p, ProjectionTape(params, g, s, cache)
    return u, p


def projection_backward(t: ProjectionTape, cot_u: MacVelocity) -> np.ndarray:
    """Parameter gradient of a scalar loss given its cotangent in the
    projected velocity.  Flat float64 in pack() order."""
    if t.cache is None:
        return np.zeros(t.params.n_params)
    # u = u_star - grad(p) on free faces only, so cotangent entries on
    # other faces never reach the pressure; the transpose of -grad under
    # the flat inner products is then the divergence
    fm = t.g.faces
    masked = MacVelocity(t.g.dims,
                         np.where(fm.free_x, cot_u.ux, 0.0),
                         np.where(fm.free_y, cot_u.uy, 0.0))
    cot_p = divergence(masked, t.g).values
    return net_backward(t.params, t.cache, t.g, t.scale, cot_p)
