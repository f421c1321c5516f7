"""Procedural scene generation and dataset io.

A scene starts from a pseudo-random divergence-free velocity field over
random solid geometry, with density blobs for visualization and a handful
of emitters that inject momentum over a window of frames.  A dataset is a
directory of such scenes rolled forward with the reference PCG projection,
every stride-th frame recorded in the FNF1 format together with a json
description of how the scene was built.  Everything is keyed on one master
seed, so regenerating a dataset reproduces it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .convnet import SIDE_MULTIPLE
from .forces import enforce_solid_velocities
from .formats import check_frame_dt, read_frame, write_frame
from .grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _cone, _lattice_xy,
                    _read_only, box_mask, capsule_mask, disc_mask)
from .pressure import PcgInfo
from .sim import PcgProjection, SimConfig, SimState, step

log = logging.getLogger(__name__)


def _hash_seed(*parts) -> int:
    """Derive a 64-bit seed from a tuple of labels; stable across runs."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def scene_seed(master: int, pool: str, index: int) -> int:
    """Per-scene seed; distinct pools occupy disjoint seed subspaces."""
    return _hash_seed("scene-seed", master, pool, index)


# ====== Divergence-free initial velocity ======

# The initial velocity sums NOISE_OCTAVES octaves of smoothed noise; the
# coarsest octave's smoothing length is drawn from NOISE_SCALE_RANGE (cells),
# and the sampled field is rescaled so its largest face sample is
# NOISE_AMPLITUDE.
NOISE_OCTAVES = 3
NOISE_AMPLITUDE = 1.0
NOISE_SCALE_RANGE = (2.0, 6.0)


def curl_noise_velocity(dims: GridDims, seed: int = 0) -> MacVelocity:
    """Pseudo-random velocity whose MAC divergence vanishes identically.

    A smoothed multi-octave random potential is sampled on cell centers,
    averaged onto the grid nodes, and differenced along each face:
    ux = dpsi/dy and uy = -dpsi/dx.  The per-cell divergence of any such
    field telescopes to zero exactly, so no projection is needed before
    the field is usable.
    """
    rng = np.random.default_rng(seed)
    scale = rng.uniform(*NOISE_SCALE_RANGE)
    psi = np.zeros(dims.shape)
    for octave in range(NOISE_OCTAVES):
        sigma = max(scale / 2.0 ** octave, 0.5)
        psi += 0.5 ** octave * gaussian_filter(rng.standard_normal(dims.shape), sigma)
    padded = np.pad(psi, 1, mode="edge")
    nodes = 0.25 * (padded[:-1, :-1] + padded[:-1, 1:]
                    + padded[1:, :-1] + padded[1:, 1:])
    ux = (nodes[1:, :] - nodes[:-1, :]) / dims.h
    uy = -(nodes[:, 1:] - nodes[:, :-1]) / dims.h
    top = max(np.max(np.abs(ux)), np.max(np.abs(uy)))
    if top > 0.0:
        # uniform rescaling keeps the telescoping cancellation exact
        ux *= NOISE_AMPLITUDE / top
        uy *= NOISE_AMPLITUDE / top
    return MacVelocity(dims, ux, uy)


# ====== Random solid geometry ======

# each shape picks one kind uniformly and one angle in [0, 2 pi)
SHAPE_KINDS = ("disc", "box", "capsule")


@dataclass(frozen=True)
class GeometryConfig:
    """Shape sampling ranges; sizes are fractions of the shorter grid side."""

    count_range: tuple[int, int] = (1, 3)
    size_range: tuple[float, float] = (0.06, 0.18)

    def __post_init__(self) -> None:
        lo, hi = self.count_range
        if not 0 <= lo <= hi:
            raise ValueError(f"count range must satisfy 0 <= lo <= hi, got {self.count_range}")
        lo, hi = self.size_range
        if not 0 < lo <= hi:
            raise ValueError(f"size range must satisfy 0 < lo <= hi, got {self.size_range}")


def random_geometry(dims: GridDims, rng: np.random.Generator, pool: str = "train",
                    cfg: GeometryConfig | None = None) -> OccupancyGrid:
    """Random solid occupancy with at least half of the cells left fluid.

    The caller's ``rng`` contributes one base draw; the shapes come from a
    stream keyed on (pool, base draw), so the train and test pools never
    share a shape sequence even when seeded identically.  Scenes that leave
    less than 50% of the cells fluid are rejected and resampled.
    """
    cfg = cfg or GeometryConfig()
    base = int(rng.integers(0, 2 ** 63))
    shapes = np.random.default_rng(_hash_seed("geometry", pool, base))
    size_scale = min(dims.nx, dims.ny)
    for _ in range(100):
        solid = np.zeros(dims.shape, dtype=bool)
        count = int(shapes.integers(cfg.count_range[0], cfg.count_range[1] + 1))
        for _ in range(count):
            kind = SHAPE_KINDS[int(shapes.integers(len(SHAPE_KINDS)))]
            cx = shapes.uniform(0.0, dims.nx)
            cy = shapes.uniform(0.0, dims.ny)
            size = shapes.uniform(*cfg.size_range) * size_scale
            angle = shapes.uniform(0.0, 2.0 * math.pi)
            if kind == "disc":
                solid |= disc_mask(dims, (cx, cy), size)
            elif kind == "box":
                other = shapes.uniform(*cfg.size_range) * size_scale
                solid |= box_mask(dims, (cx, cy), (size, other), angle)
            else:
                dx, dy = size * math.cos(angle), size * math.sin(angle)
                solid |= capsule_mask(dims, (cx - dx, cy - dy), (cx + dx, cy + dy),
                                      0.5 * size)
        if np.count_nonzero(~solid) * 2 >= dims.n_cells:
            return OccupancyGrid(dims, solid)
    raise ValueError("could not sample geometry with >= 50% fluid in 100 tries")


# ====== Emitters ======

@dataclass(frozen=True)
class EmitterParams:
    """A momentum source that is switched on for a window of frames.

    ``center`` and ``radius`` are in cell units; the emitter is active on
    frames start <= f < start + duration.
    """

    center: tuple[float, float]
    radius: float
    velocity: tuple[float, float]
    start: int = 0
    duration: int = 1

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"emitter radius must be positive, got {self.radius}")
        if self.duration < 1:
            raise ValueError(f"emitter duration must be at least 1, got {self.duration}")


def _emitter_faces(g: OccupancyGrid, e: EmitterParams) -> tuple[np.ndarray, np.ndarray]:
    """What one emitter adds to the x and the y faces while it is active: its
    velocity times the cone (1 - r/R) clamped at zero; read-only, built once
    per grid with ``g.derived``."""
    dims = g.dims
    cone_x = _cone(*_lattice_xy(dims.shape_ux, 0.0, 0.5), e.center, e.radius)
    cone_y = _cone(*_lattice_xy(dims.shape_uy, 0.5, 0.0), e.center, e.radius)
    return _read_only(e.velocity[0] * cone_x), _read_only(e.velocity[1] * cone_y)


def apply_emitters(u: MacVelocity, g: OccupancyGrid, emitters,
                   frame_index: int) -> MacVelocity:
    """Add each active emitter's velocity to nearby faces.

    The contribution falls off linearly, (1 - r/R) clamped at zero, and
    contributions are accumulated separately before the single add so
    identical emitters superpose exactly.  Each emitter's face arrays are
    kept on the grid (:func:`_emitter_faces`), so a scene builds them once.
    """
    active = [e for e in emitters
              if e.start <= frame_index < e.start + e.duration]
    if not active:
        return u
    add_x = np.zeros(u.dims.shape_ux)
    add_y = np.zeros(u.dims.shape_uy)
    for e in active:
        fx, fy = g.derived(_emitter_faces, e)
        add_x += fx
        add_y += fy
    return MacVelocity(u.dims, u.ux + add_x, u.uy + add_y)


# ====== Scene assembly ======

# A scene draws its emitter count, and per emitter the radius (cells), speed,
# start frame and duration, uniformly from these ranges, ends included for
# the integers.
EMITTER_COUNT_RANGE = (1, 3)
EMITTER_RADIUS_RANGE = (1.5, 4.0)
EMITTER_SPEED_RANGE = (0.5, 2.0)
EMITTER_START_RANGE = (0, 4)
EMITTER_DURATION_RANGE = (4, 16)


@dataclass(frozen=True)
class SceneConfig:
    """Everything needed to rebuild one scene from its seed."""

    dims: GridDims = field(default_factory=lambda: GridDims(32, 32))
    seed: int = 0
    pool: str = "train"
    boundary: str = "closed"
    dt: float = 1.0 / 30.0

    def __post_init__(self) -> None:
        if self.dims.nx % SIDE_MULTIPLE or self.dims.ny % SIDE_MULTIPLE:
            raise ValueError(f"scene sides must be divisible by {SIDE_MULTIPLE} so the learned "
                             f"projection can run on them, got {self.dims.nx}x{self.dims.ny}")
        if self.boundary not in ("closed", "open-top"):
            raise ValueError(f"boundary must be 'closed' or 'open-top', got {self.boundary!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def _seed_density(g: OccupancyGrid, rng: np.random.Generator) -> ScalarGrid:
    """A few soft blobs of marker density on fluid cells."""
    dims = g.dims
    x, y = _lattice_xy(dims.shape, 0.5, 0.5)
    rho = np.zeros(dims.shape)
    for _ in range(int(rng.integers(1, 4))):
        cx = rng.uniform(0.0, dims.nx)
        cy = rng.uniform(0.0, dims.ny)
        radius = rng.uniform(2.0, max(3.0, min(dims.nx, dims.ny) / 6.0))
        amp = rng.uniform(0.5, 1.0)
        rho += amp * _cone(x, y, (cx, cy), radius)
    rho[g.solid] = 0.0
    return ScalarGrid(dims, rho)


def _draw_emitters(dims: GridDims, rng: np.random.Generator) -> tuple[EmitterParams, ...]:
    out = []
    for _ in range(int(rng.integers(EMITTER_COUNT_RANGE[0], EMITTER_COUNT_RANGE[1] + 1))):
        center = (rng.uniform(2.0, dims.nx - 2.0), rng.uniform(2.0, dims.ny - 2.0))
        radius = rng.uniform(*EMITTER_RADIUS_RANGE)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(*EMITTER_SPEED_RANGE)
        start = int(rng.integers(EMITTER_START_RANGE[0], EMITTER_START_RANGE[1] + 1))
        duration = int(rng.integers(EMITTER_DURATION_RANGE[0], EMITTER_DURATION_RANGE[1] + 1))
        out.append(EmitterParams(center, radius,
                                 (speed * math.cos(angle), speed * math.sin(angle)),
                                 start, duration))
    return tuple(out)


def build_scene(cfg: SceneConfig) -> tuple[SimState, tuple[EmitterParams, ...]]:
    """Assemble the initial state and emitter schedule for one scene.

    Geometry, noise, and the remaining draws each use their own stream
    hashed from the scene seed, so a change in one sampling stage cannot
    shift the draws of another.
    """
    dims = cfg.dims
    geo_rng = np.random.default_rng(_hash_seed("scene", cfg.seed, "geometry"))
    raw = random_geometry(dims, geo_rng, cfg.pool)
    g = OccupancyGrid(dims, raw.solid, open_top=cfg.boundary == "open-top")
    u = curl_noise_velocity(dims, seed=_hash_seed("scene", cfg.seed, "noise"))
    u = enforce_solid_velocities(u, g)
    rng = np.random.default_rng(_hash_seed("scene", cfg.seed, "fields"))
    density = _seed_density(g, rng)
    emitters = _draw_emitters(dims, rng)
    return SimState(u, density, g), emitters


# ====== Dataset generation and loading ======

def _generate_scene(cfg: SceneConfig, frames: int, stride: int, scene_dir: Path,
                    projection) -> list[Path]:
    state, emitters = build_scene(cfg)
    sim_cfg = SimConfig(dt=cfg.dt, projection=projection)
    written, recorded, flagged = [], [], []
    for _ in range(frames):
        u = apply_emitters(state.u, state.g, emitters, state.frame)
        state = step(replace(state, u=u), sim_cfg)
        if isinstance(state.report, PcgInfo) and not state.report.converged:
            log.warning("scene %s frame %d: projection did not converge "
                        "(relative residual %.3e)", scene_dir.name, state.frame,
                        state.report.relres)
            flagged.append(state.frame)
        if state.frame % stride == 0:
            path = scene_dir / f"frame_{state.frame:06d}.fnf"
            write_frame(path, state.g, state.u, state.density, cfg.dt)
            written.append(path)
            recorded.append(state.frame)
    meta = {
        "seed": cfg.seed,
        "pool": cfg.pool,
        "config": asdict(cfg),
        "frames": recorded,
        "non_converged": flagged,
        "emitters": [asdict(e) for e in emitters],
    }
    meta_path = scene_dir / "meta.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    written.append(meta_path)
    return written


def generate_dataset(cfg: SceneConfig, scene_count: int, frames_per_scene: int = 8,
                     stride: int = 4, out_dir="dataset", projection=None) -> list[Path]:
    """Write ``scene_count`` rolled-out scenes under ``out_dir``.

    ``cfg.seed`` acts as the master seed; each scene gets its own seed by
    hashing (master, pool, scene index).  Scenes are rolled forward with
    the reference PCG projection at tolerance 1e-6 and every stride-th
    post-step frame is recorded, so every file on disk has been projected.
    Frames whose solve did not converge are flagged in the scene metadata.
    Rerunning with the same configuration is byte-identical.
    """
    if scene_count < 1:
        raise ValueError(f"scene count must be at least 1, got {scene_count}")
    if not 1 <= stride <= frames_per_scene:
        raise ValueError(f"frames and stride must satisfy 1 <= stride <= frames, "
                         f"got {frames_per_scene} and {stride}")
    check_frame_dt(cfg.dt)
    projection = projection if projection is not None else PcgProjection(tol=1e-6)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for index in range(scene_count):
        scene_cfg = replace(cfg, seed=scene_seed(cfg.seed, cfg.pool, index))
        scene_dir = out / f"scene_{index:04d}"
        scene_dir.mkdir(exist_ok=True)
        written.extend(_generate_scene(scene_cfg, frames_per_scene, stride,
                                       scene_dir, projection))
    manifest = {
        "master_seed": cfg.seed,
        "pool": cfg.pool,
        "scenes": scene_count,
        "frames_per_scene": frames_per_scene,
        "stride": stride,
    }
    manifest_path = out / "dataset.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(manifest_path)
    return written


@dataclass
class LoadedScene:
    """One scene directory read back into memory."""

    name: str
    meta: dict
    frames: list[SimState]


def load_dataset(root) -> list[LoadedScene]:
    """Read every scene directory under ``root``, frames in recorded order.

    Frames of a scene whose solid masks equal the first frame's share its
    grid, so the scene's geometry is derived once.
    """
    root = Path(root)
    scenes = []
    for scene_dir in sorted(root.glob("scene_*")):
        meta = json.loads((scene_dir / "meta.json").read_text())
        open_top = meta["config"]["boundary"] == "open-top"
        frames = []
        for path in sorted(scene_dir.glob("frame_*.fnf")):
            data = read_frame(path, open_top=open_top)
            index = int(path.stem.split("_")[1])
            g = data.g
            if frames and np.array_equal(frames[0].g.solid, g.solid):
                g = frames[0].g
            frames.append(SimState(data.u, data.density, g,
                                   frame=index, time=index * data.dt))
        scenes.append(LoadedScene(scene_dir.name, meta, frames))
    if not scenes:
        raise FileNotFoundError(f"no scene directories under {root}")
    return scenes
