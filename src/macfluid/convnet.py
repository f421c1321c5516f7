"""A small multi-resolution convolutional network that replaces the
pressure solve, plus the hand-written reverse-mode machinery to train it.

The network maps two input channels, the divergence of the tentative
velocity normalized by a per-call scale and the solid occupancy, to a
pressure-like field.  Because the velocity correction is the (negated)
gradient of this single scalar field, the learned update can only remove
divergence, never inject rotation.

Topology, written once as ``LEVELS`` and :meth:`NetArch.stage_specs`: a
stem convolution lifts the input to ``features`` channels; each level
(full, half and quarter resolution) applies two convolutions to the stem
output, pooled by 2x2 averages once per level below full; bilinear
upsampling brings each level back up to be summed; a merge convolution
and a 1x1 head reduce to one channel.  Forward and backward are one loop
over the levels.  All convolutions pad by edge replication and keep
spatial size; every stage but the head is followed by a ReLU.  Grid sides
must be divisible by ``SIDE_MULTIPLE`` (4) so every pooled size is even.

Each convolution is one GEMM of the (c_out, c_in*k*k) weight matrix with
an explicit (c_in*k*k, h*w) window matrix: k*k slice copies out of the
edge-padded input, which one ``np.take`` through a cached index gathers.
The weight gradient gathers the transposed window matrix directly, and
the input gradient is the same GEMM over the windows of the zero-bordered
cotangent.  BLAS gets the operands that ``tensordot`` builds, so results
are bit for bit those of the reference in tests/oracles.py.

Differentiation is plain backpropagation: each primitive has a backward
companion that applies the exact transpose of its linearization, so the
gradients agree with finite differences to roundoff in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fdops import divergence, subtract_pressure_gradient
from .grids import MacVelocity, OccupancyGrid, ScalarGrid


# ====== Primitives ======

@lru_cache(maxsize=None)
def _pad_index(h: int, w: int, p: int) -> np.ndarray:
    """Flat index into an h x w image of every pixel of its edge padding by p."""
    r = np.clip(np.arange(h + 2 * p) - p, 0, h - 1)
    c = np.clip(np.arange(w + 2 * p) - p, 0, w - 1)
    return (r[:, None] * w + c).ravel()


def _windows(xp: np.ndarray, k: int, oh: int, ow: int) -> np.ndarray:
    """Window matrix of the k x k windows of a padded (c, oh+k-1, ow+k-1)
    image: (c*k*k, oh*ow), laid out (c, tap row, tap column, output pixel)."""
    c = xp.shape[0]
    out = np.empty((c, k, k, oh, ow), xp.dtype)
    for a in range(k):
        for b in range(k):
            out[:, a, b] = xp[:, a:a + oh, b:b + ow]
    return out.reshape(c * k * k, oh * ow)


@lru_cache(maxsize=None)
def _window_index_t(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Index into a flat (c, h, w) image of the transpose of its same-size
    window matrix, (h*w, c*k*k), so that one gather lays it out contiguous."""
    p = k // 2
    taps = _windows(_pad_index(h, w, p).reshape(1, h + 2 * p, w + 2 * p), k, h, w)
    idx = np.arange(c)[:, None, None] * (h * w) + taps
    return np.ascontiguousarray(idx.reshape(c * k * k, h * w).T)


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


# Every gather index is in range, and mode="wrap" is np.take's fastest mode.

def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size convolution with replicate padding.

    x is (c_in, h, w); w is (c_out, c_in, k, k); b is (c_out,).
    """
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    if k == 1:
        cols = x.reshape(c_in, h * wd)
    else:
        p = k // 2
        xp = np.take(x.reshape(c_in, -1), _pad_index(h, wd, p), axis=1, mode="wrap")
        cols = _windows(xp.reshape(c_in, h + 2 * p, wd + 2 * p), k, h, wd)
    y = np.dot(w.reshape(c_out, -1), cols)
    y += b[:, None]
    return y.reshape(c_out, h, wd)


def conv2d_backward(cot: np.ndarray, x: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents of (x, w, b) for y = conv2d(x, w, b).  dx is the full
    correlation of the zero-padded cotangent with the flipped kernel,
    folded back through the replicate padding."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    # BLAS reads a 1x1 window matrix (x itself) transposed in place and a
    # larger one as its contiguous transpose, as the reference does: the
    # two round differently
    if k == 1:
        cols_t = x.reshape(c_in, -1).T
    else:
        cols_t = np.take(x.ravel(), _window_index_t(c_in, h, wd, k), mode="wrap")
    dw = np.dot(cot.reshape(c_out, -1), cols_t).reshape(w.shape)
    db = cot.sum(axis=(1, 2))
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
    oh, ow = h + k - 1, wd + k - 1
    cz = np.zeros((c_out, oh + k - 1, ow + k - 1), cot.dtype)
    cz[:, k - 1:k - 1 + h, k - 1:k - 1 + wd] = cot
    dxp = np.dot(wf, _windows(cz, k, oh, ow)).reshape(c_in, oh, ow)
    return _replicate_pad_adjoint(dxp, k // 2), dw, db


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


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

LEVELS = 3  # branches at full, half and quarter resolution
SIDE_MULTIPLE = 2 ** (LEVELS - 1)  # grid sides stay even through every pooling


class StageSpec(NamedTuple):
    """One convolution stage, field for field its FNM1 stage descriptor."""

    in_ch: int
    out_ch: int
    kernel: int
    scale_level: int  # resolution level: 0 full, each next one halves the sides


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
        """The stem, two stages per level, the merge and the 1x1 head."""
        f, k = self.features, self.kernel
        return ([StageSpec(2, f, k, 0)]
                + [StageSpec(f, f, k, level) for level in range(LEVELS) for _ in range(2)]
                + [StageSpec(f, f, k, 0), StageSpec(f, 1, 1, 0)])

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Per stage, the weight shape (out, in, k, k) then the bias shape
        (out,): the order of :attr:`NetParams.flat` and of the FNM1 payload."""
        return [shape for s in self.stage_specs()
                for shape in ((s.out_ch, s.in_ch, s.kernel, s.kernel), (s.out_ch,))]

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes())


@dataclass
class NetParams:
    """All parameters as one flat vector in ``arch.param_shapes()`` order;
    ``weights`` and ``biases`` are per-stage views into it, so writing
    through them writes ``flat``."""

    arch: NetArch
    flat: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shapes = self.arch.param_shapes()
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        if self.flat.shape != (ends[-1],):
            raise ValueError(f"expected {ends[-1]} values, got {self.flat.size}")
        views = [part.reshape(shape)
                 for part, shape in zip(np.split(self.flat, ends[:-1]), shapes)]
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def n_params(self) -> int:
        return self.flat.size

    def pack(self) -> np.ndarray:
        return self.flat.copy()

    def with_flat(self, flat: np.ndarray) -> "NetParams":
        """Parameters from a flat vector in pack() order, cast to this dtype."""
        return NetParams(self.arch, flat.astype(self.dtype))

    def astype(self, dtype) -> "NetParams":
        return NetParams(self.arch, self.flat.astype(dtype))


def init_params(arch: NetArch, seed, dtype=np.float32) -> NetParams:
    """Uniform initialization in +-sqrt(1/fan_in), weights then bias per stage."""
    rng = np.random.default_rng(seed)
    params = NetParams(arch, np.empty(arch.n_params, dtype))
    for spec, w, b in zip(arch.stage_specs(), params.weights, params.biases):
        bound = np.sqrt(1.0 / (spec.in_ch * spec.kernel ** 2))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return params


# ====== Forward / backward over the fixed topology ======

def _forward_raw(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The raw output and the cache (x, a0, [(input, a1, a2) per level], m, am)."""
    w, b = params.weights, params.biases

    def conv_relu(a: np.ndarray, i: int) -> np.ndarray:
        z = conv2d(a, w[i], b[i])
        return relu(z, out=z)

    a0 = inp = conv_relu(x, 0)
    levels = []
    for level in range(LEVELS):
        if level:
            inp = avg_pool2(inp)
        a1 = conv_relu(inp, 1 + 2 * level)
        a2 = conv_relu(a1, 2 + 2 * level)
        levels.append((inp, a1, a2))
        up = a2
        for _ in range(level):
            up = upsample2(up)
        # a fresh sum, never in place, since level 0's a2 is cached as its
        # relu mask; fine to coarse: (a2_0 + up(a2_1)) + up(up(a2_2))
        m = up if level == 0 else m + up
    am = conv_relu(m, 1 + 2 * LEVELS)
    y = conv2d(am, w[-1], b[-1])
    return y, (x, a0, levels, m, am)


def _backward_raw(params: NetParams, cache: tuple, cot_y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The parameter gradient, flat in pack() order, and the input cotangent.
    Each stage's part is written through ``dw[i][...]`` and ``db[i][...]``."""
    # relu(z) > 0 exactly where z > 0, so the cached activations double as
    # the relu masks and the pre-activations never need to be kept
    x, a0, levels, m, am = cache
    w = params.weights
    grad = NetParams(params.arch, np.empty_like(params.flat))
    dw, db = grad.weights, grad.biases
    merge = 1 + 2 * LEVELS
    dam, dw[-1][...], db[-1][...] = conv2d_backward(cot_y, am, w[-1])
    d_up, dw[merge][...], db[merge][...] = conv2d_backward(relu_backward(dam, am), m, w[merge])

    d_inputs = []
    for level, (inp, a1, a2) in enumerate(levels):
        i1, i2 = 1 + 2 * level, 2 + 2 * level
        if level:
            d_up = upsample2_backward(d_up)
        da1, dw[i2][...], db[i2][...] = conv2d_backward(relu_backward(d_up, a2), a1, w[i2])
        d_in, dw[i1][...], db[i1][...] = conv2d_backward(relu_backward(da1, a1), inp, w[i1])
        d_inputs.append(d_in)

    carry = d_inputs[-1]
    for d_in in reversed(d_inputs[:-1]):
        carry = d_in + avg_pool2_backward(carry)
    dx, dw[0][...], db[0][...] = conv2d_backward(relu_backward(carry, a0), x, w[0])
    return grad.flat, dx


# ====== Grid-level interface ======

def net_forward(params: NetParams, div: ScalarGrid, g: OccupancyGrid,
                scale: float) -> tuple[ScalarGrid, tuple]:
    """Predict a pressure field from normalized divergence and occupancy.

    The input divergence is divided by ``scale`` and the raw output is
    multiplied by it again, so the prediction is homogeneous of degree
    one in the velocity.  Output is zero on solid cells.
    """
    ny, nx = g.dims.shape
    if ny % SIDE_MULTIPLE or nx % SIDE_MULTIPLE:
        raise ValueError(f"grid sides must be divisible by {SIDE_MULTIPLE}, got {nx}x{ny}")
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
    return _backward_raw(params, cache, cot_y)[0].astype(np.float64)


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
        u, p, cache = u_star.copy(), ScalarGrid.zeros(g.dims), None
    else:
        p, cache = net_forward(params, divergence(u_star, g), g, s)
        u = subtract_pressure_gradient(u_star, p, g)
    return (u, p, ProjectionTape(params, g, s, cache)) if tape else (u, p)


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
