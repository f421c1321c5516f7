"""Solver comparison harnesses: divergence curves, matching, timing.

These drive the simulation with interchangeable projection backends and
reduce the results to CSV-friendly numbers: per-frame divergence curves
over a test set, the Jacobi iteration count that matches a reference
backend's divergence, and wall-clock timings of the projection phase.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import GeometryConfig, load_dataset, random_geometry
from .fdops import divergence
from .forces import enforce_solid_velocities
from .formats import csv_text, load_model
from .grids import GridDims, MacVelocity, OccupancyGrid
from .sim import (ConvnetProjection, ExactProjection, JacobiProjection,
                  NoProjection, PcgProjection, SimConfig, SimState,
                  SimulationError, project_velocity, run, step)
from .training import loss_weights

log = logging.getLogger(__name__)


# ====== Backend specs ======

def parse_backend(spec: str) -> tuple[str, object]:
    """Parse a backend spec into (column name, projection object).

    Grammar: ``jacobi:<iters>``, ``pcg:<tol>``, ``convnet:<model path>``,
    ``exact``, ``none``.
    """
    kind, sep, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if kind == "jacobi":
        if not sep or not arg:
            raise ValueError("jacobi needs an iteration count, e.g. jacobi:34")
        try:
            iters = int(arg)
        except ValueError:
            raise ValueError(f"bad jacobi iteration count {arg!r}") from None
        if iters < 1:
            raise ValueError(f"jacobi iterations must be >= 1, got {iters}")
        return f"jacobi_{iters}", JacobiProjection(iters)
    if kind == "pcg":
        if not sep or not arg:
            raise ValueError("pcg needs a tolerance, e.g. pcg:1e-4")
        try:
            tol = float(arg)
        except ValueError:
            raise ValueError(f"bad pcg tolerance {arg!r}") from None
        if not tol > 0:
            raise ValueError(f"pcg tolerance must be positive, got {tol}")
        return f"pcg_{arg}", PcgProjection(tol=tol)
    if kind == "convnet":
        if not sep or not arg:
            raise ValueError("convnet needs a model path, e.g. convnet:model.fnm")
        try:
            params = load_model(arg)
        except OSError as e:
            raise ValueError(f"cannot load model {arg!r}: {e}") from None
        return "convnet", ConvnetProjection(params)
    if kind == "exact":
        if sep:
            raise ValueError("exact takes no argument")
        return "exact", ExactProjection()
    if kind == "none":
        if sep:
            raise ValueError("none takes no argument")
        return "none", NoProjection()
    raise ValueError(f"unknown backend {spec!r}; expected jacobi:<iters>, "
                     "pcg:<tol>, convnet:<model-path>, exact, or none")


def _initial_frames(dataset) -> list[tuple[SimState, float]]:
    """Each scene's first recorded frame with the scene's dt; ``dataset``
    is a dataset directory or a list of loaded scenes."""
    scenes = load_dataset(dataset) if isinstance(dataset, (str, Path)) else dataset
    samples = []
    for scene in scenes:
        if not scene.frames:
            raise ValueError(f"scene {scene.name} has no frames")
        samples.append((scene.frames[0], float(scene.meta["config"]["dt"])))
    return samples


def _rollout_norms(samples, projection, frames: int,
                   warning: tuple) -> tuple[list[np.ndarray], int]:
    """Fluid divergence norm after each of ``frames`` steps, per sample, and
    how many samples blew up; each is logged by ``log.warning(*warning, error)``."""
    rows, dropped = [], 0
    for state, dt in samples:
        try:
            _, metrics = run(state, SimConfig(dt=dt, projection=projection), frames)
        except SimulationError as e:
            log.warning(*warning, e)
            dropped += 1
            continue
        rows.append(np.array([m.residual for m in metrics]))
    return rows, dropped


# ====== One-step weighted loss ======

def one_step_loss(state: SimState, projection, dt: float = 1.0 / 30.0,
                  k: float = 3.0) -> float:
    """Weighted squared divergence after a single step with ``projection``.

    The step runs without forces or inflow, so backends are compared on
    the projection alone.
    """
    cfg = SimConfig(dt=dt, projection=projection)
    after = step(state, cfg)
    w = loss_weights(after.g.distance, k)
    d = divergence(after.u, after.g)
    return float(np.sum(w.values * d.values ** 2))


# ====== Divergence curves over a test set ======

@dataclass
class DivergenceCurves:
    """Per-frame divergence statistics across a sample set, per backend."""

    frames: int
    names: list[str]
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    excluded: dict[str, int]


def _unique_names(backends) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for name, _ in backends:
        seen[name] = seen.get(name, 0) + 1
        names.append(name if seen[name] == 1 else f"{name}_{seen[name]}")
    return names


def eval_divergence_curves(dataset, backends, frames: int,
                           out_csv=None) -> DivergenceCurves:
    """Roll every scene's initial frame forward under each backend.

    ``backends`` is a list of (name, projection) pairs or spec strings.
    Writes per-frame mean and std of the fluid-cell divergence norm across
    the sample set, one column pair per backend.  Samples that blow up
    under a backend are logged, dropped from that backend's statistics,
    and counted in the CSV footer.
    """
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    backends = [parse_backend(b) if isinstance(b, str) else b for b in backends]
    if not backends:
        raise ValueError("need at least one backend")
    names = _unique_names(backends)
    samples = _initial_frames(dataset)

    curves = DivergenceCurves(frames, names, {}, {}, {})
    for name, (_, projection) in zip(names, backends):
        rows, dropped = _rollout_norms(samples, projection, frames,
                                       ("backend %s: sample excluded (%s)", name))
        if rows:
            stacked = np.stack(rows)
            curves.mean[name] = stacked.mean(axis=0)
            curves.std[name] = stacked.std(axis=0)
        else:
            log.warning("backend %s: every sample failed", name)
            curves.mean[name] = np.full(frames, np.nan)
            curves.std[name] = np.full(frames, np.nan)
        curves.excluded[name] = dropped

    if out_csv is not None:
        _write_curves_csv(curves, out_csv)
    return curves


def _write_curves_csv(curves: DivergenceCurves, path) -> None:
    header = ["frame"] + [f"{n}_{stat}" for n in curves.names for stat in ("mean", "std")]
    rows = [[f + 1] + [v for n in curves.names for v in (curves.mean[n][f], curves.std[n][f])]
            for f in range(curves.frames)]
    footer = ",".join(f"{n}={curves.excluded[n]}" for n in curves.names)
    Path(path).write_text(csv_text(header, rows) + f"# excluded: {footer}\n")


# ====== Fixed-divergence comparison ======

@dataclass(frozen=True)
class MatchResult:
    """Smallest Jacobi iteration count whose divergence beats the target."""

    iterations: int
    jacobi_div: float
    target_div: float
    matched: bool


def _mean_rollout_div(samples, projection, frames: int) -> float:
    """Mean over samples and frames of the fluid divergence norm."""
    rows, _ = _rollout_norms(samples, projection, frames,
                             ("rollout excluded from divergence average (%s)",))
    if not rows:
        raise RuntimeError("every rollout failed; no divergence average")
    return float(np.mean([np.mean(norms) for norms in rows]))


def match_divergence(dataset, target_projection, frames: int = 16,
                     max_iters: int = 4096) -> MatchResult:
    """Binary-search the Jacobi iteration count matching a target backend.

    The statistic is the mean fluid divergence norm over the rollout of
    every scene's initial frame.  Returns the smallest iteration count
    whose statistic is at or below the target's; when even ``max_iters``
    does not reach it, the result carries ``matched=False``.
    """
    samples = _initial_frames(dataset)
    target = _mean_rollout_div(samples, target_projection, frames)

    def jacobi_div(iters: int) -> float:
        return _mean_rollout_div(samples, JacobiProjection(iters), frames)

    hi = 1
    hi_div = jacobi_div(hi)
    while hi_div > target:
        if hi >= max_iters:
            return MatchResult(hi, hi_div, target, matched=False)
        hi = min(2 * hi, max_iters)
        hi_div = jacobi_div(hi)
    lo = hi // 2  # jacobi(lo) known insufficient (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_div = jacobi_div(mid)
        if mid_div <= target:
            hi, hi_div = mid, mid_div
        else:
            lo = mid
    return MatchResult(hi, hi_div, target, matched=True)


# ====== Projection timing ======

@dataclass(frozen=True)
class BenchRow:
    backend: str
    nx: int
    ny: int
    cells: int
    repetitions: int
    median_ms: float

    COLUMNS = ("backend", "nx", "ny", "cells", "repetitions", "median_ms")

    def row(self) -> list:
        return [getattr(self, c) for c in self.COLUMNS]


def _bench_state(dims: GridDims, seed: int) -> tuple[MacVelocity, OccupancyGrid]:
    rng = np.random.default_rng(seed)
    g = random_geometry(dims, rng, cfg=GeometryConfig(count_range=(1, 2)))
    u = MacVelocity(dims, rng.standard_normal(dims.shape_ux),
                    rng.standard_normal(dims.shape_uy))
    return enforce_solid_velocities(u, g), g


def bench(projection, dims_list, repetitions: int = 5, seed: int = 0,
          name: str = "backend") -> list[BenchRow]:
    """Median wall time of the projection phase on synthetic states.

    Times exactly divergence + solve + velocity update.  One untimed
    warmup run per resolution provides the reference output; every timed
    repetition must reproduce it bitwise.
    """
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions}")
    rows = []
    for dims in dims_list:
        u, g = _bench_state(dims, seed)
        reference = project_velocity(u, g, projection)
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            out = project_velocity(u, g, projection)
            times.append((time.perf_counter() - t0) * 1e3)
            if not (np.array_equal(reference.ux, out.ux)
                    and np.array_equal(reference.uy, out.uy)):
                raise RuntimeError(f"projection backend {name} is not "
                                   "deterministic across repetitions")
        rows.append(BenchRow(name, dims.nx, dims.ny, dims.n_cells,
                             repetitions, float(statistics.median(times))))
    return rows


def write_bench_csv(rows, path) -> None:
    Path(path).write_text(csv_text(BenchRow.COLUMNS, [r.row() for r in rows]))
