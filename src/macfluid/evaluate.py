"""Solver comparison harnesses: divergence curves, matching, timing.

These drive the simulation with interchangeable projection backends and
reduce the results to CSV-friendly numbers: per-frame divergence curves
over a test set, the Jacobi iteration count that matches a reference
backend's divergence, and the wall time per ``sim.step`` frame of the
closed disc plume (:func:`~macfluid.sim.plume_scenario`, sides divisible
by 4).  The timed scene is fixed: no seed changes it.  This module
writes no file; the ``eval`` and ``bench`` commands write their CSVs.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .formats import csv_text, load_model
from .pressure import DENSE_CELL_LIMIT
from .sim import (ConvnetProjection, ExactProjection, JacobiProjection,
                  NoProjection, PcgProjection, SimConfig, SimState,
                  SimulationError, plume_scenario, run, step)
from .training import divergence_loss, loss_weights

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
        if not (tol > 0 and np.isfinite(tol)):
            raise ValueError(f"pcg tolerance must be positive and finite, got {tol}")
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


def _initial_frames(scenes) -> list[tuple[SimState, float]]:
    """Each loaded scene's first recorded frame with the scene's dt."""
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
    return divergence_loss(after.u, loss_weights(after.g.distance, k), after.g)[0]


# ====== Divergence curves over a test set ======

@dataclass
class DivergenceCurves:
    """Per-frame divergence statistics across a sample set, per backend."""

    frames: int
    names: list[str]
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    excluded: dict[str, int]

    def to_csv(self) -> str:
        """Columns frame, <name>_mean, <name>_std, then a ``# excluded:`` footer."""
        header = ["frame"] + [f"{n}_{stat}" for n in self.names for stat in ("mean", "std")]
        rows = [[f + 1] + [v for n in self.names for v in (self.mean[n][f], self.std[n][f])]
                for f in range(self.frames)]
        footer = ",".join(f"{n}={self.excluded[n]}" for n in self.names)
        return csv_text(header, rows) + f"# excluded: {footer}\n"


def _unique_names(backends) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for name, _ in backends:
        seen[name] = seen.get(name, 0) + 1
        names.append(name if seen[name] == 1 else f"{name}_{seen[name]}")
    return names


def eval_divergence_curves(scenes, backends, frames: int) -> DivergenceCurves:
    """Roll every scene's initial frame forward under each backend.

    ``scenes`` is a list of loaded scenes (:func:`~macfluid.datagen.load_dataset`);
    ``backends`` is a list of (name, projection) pairs or spec strings.
    Returns per-frame mean and std of the fluid-cell divergence norm across
    the sample set, per backend (:meth:`DivergenceCurves.to_csv` is the
    CSV).  Samples that blow up under a backend are logged, dropped from
    that backend's statistics, and counted in ``excluded``.
    """
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    backends = [parse_backend(b) if isinstance(b, str) else b for b in backends]
    if not backends:
        raise ValueError("need at least one backend")
    names = _unique_names(backends)
    samples = _initial_frames(scenes)

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
    return curves


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


def match_divergence(scenes, target_projection, frames: int = 16,
                     max_iters: int = 4096) -> MatchResult:
    """Find the smallest Jacobi iteration count matching a target backend.

    ``scenes`` is a list of loaded scenes (:func:`~macfluid.datagen.load_dataset`).
    The statistic is the mean fluid divergence norm over the rollout of
    every scene's initial frame.  Returns the smallest iteration count
    whose statistic is at or below the target's; when even ``max_iters``
    does not reach it, the result carries ``matched=False``.  The statistic
    does not fall monotonically with the count (an odd count can beat the
    even count after it), so doubling only brackets the match, and the
    counts from 1 up to the bracket are scanned in turn.  ``max_iters``
    must be at least 1.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    samples = _initial_frames(scenes)
    target = _mean_rollout_div(samples, target_projection, frames)
    divs: dict[int, float] = {}

    def jacobi_div(iters: int) -> float:
        if iters not in divs:
            divs[iters] = _mean_rollout_div(samples, JacobiProjection(iters), frames)
        return divs[iters]

    hi = 1
    while jacobi_div(hi) > target:
        if hi >= max_iters:
            return MatchResult(hi, divs[hi], target, matched=False)
        hi = min(2 * hi, max_iters)
    best = next(k for k in range(1, hi + 1) if jacobi_div(k) <= target)
    return MatchResult(best, divs[best], target, matched=True)


# ====== Plume frame timing ======

@dataclass(frozen=True)
class BenchRow:
    backend: str
    nx: int
    ny: int
    cells: int
    repetitions: int
    median_ms: float
    p10_ms: float
    p90_ms: float

    COLUMNS = ("backend", "nx", "ny", "cells", "repetitions", "median_ms", "p10_ms", "p90_ms")

    def row(self) -> list:
        return [getattr(self, c) for c in self.COLUMNS]


WARMUP_FRAMES = 24  # the warm-up of perfbench's plume128_jacobi


def bench(projection, dims_list, repetitions: int = 5,
          name: str = "backend") -> list[BenchRow]:
    """Median, 10th and 90th percentile (``np.percentile``'s linear
    interpolation) of the wall time of a ``sim.step`` frame of the closed
    disc plume.

    Per resolution, ``plume_scenario(dims, obstacle="disc")`` runs
    ``WARMUP_FRAMES`` untimed frames.  From the warmed state an untimed
    reference run and then the timed run each step ``repetitions`` frames
    through :func:`~macfluid.sim.run`; the timed run must reproduce the
    reference bit for bit, in its final fields and in every frame metric
    but ``wall_ms``.  With the dense ``exact`` backend every resolution's
    fluid-cell count is checked against ``pressure.DENSE_CELL_LIMIT``
    before any frame runs.
    """
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions}")
    scenes = [plume_scenario(dims, obstacle="disc", projection=projection)
              for dims in dims_list]
    if isinstance(projection, ExactProjection):
        for start, _ in scenes:
            if start.g.n_fluid > DENSE_CELL_LIMIT:
                raise ValueError(
                    f"exact backend capped at {DENSE_CELL_LIMIT} fluid cells; the "
                    f"{start.g.dims.nx}x{start.g.dims.ny} plume has {start.g.n_fluid}")
    rows = []
    for start, cfg in scenes:
        dims = start.g.dims
        start, _ = run(start, cfg, WARMUP_FRAMES)
        reference, ref_metrics = run(start, cfg, repetitions)
        out, metrics = run(start, cfg, repetitions)
        untimed = [replace(m, wall_ms=0.0) for m in ref_metrics + metrics]
        if not (np.array_equal(reference.u.ux, out.u.ux)
                and np.array_equal(reference.u.uy, out.u.uy)
                and np.array_equal(reference.density.values, out.density.values)
                and untimed[:repetitions] == untimed[repetitions:]):
            raise RuntimeError(f"projection backend {name} is not "
                               "deterministic across repetitions")
        wall = [m.wall_ms for m in metrics]
        p10, p90 = np.percentile(wall, [10, 90])
        rows.append(BenchRow(name, dims.nx, dims.ny, dims.n_cells, repetitions,
                             float(statistics.median(wall)), float(p10), float(p90)))
    return rows
