"""The three benchmark workloads, driven through macfluid's public API.

Each workload has a set-up that the benchmark repeats and times, and an
``episode``: a fixed amount of work whose outputs depend only on the seed
and the episode index.  A measurement window runs whole episodes until
its time is used up.  Functions are always looked up on their module
(``sim.step``, never a name imported into this file), so the tracer's
wrappers see every call.

Why these three: each is dominated by a different layer, so a change to
one layer shows on one workload and should leave the others unmoved.

* ``plume128_jacobi``: large arrays; advection is most of a frame and the
  pressure layer runs fixed Jacobi sweeps, with no PCG and no convnet.
* ``datagen32_pcg``: nearly all time is the IC(0)-preconditioned PCG solve
  at tolerance 1e-6; the only workload that writes (and reads back) files.
* ``train32_convnet``: no pressure solver; small arrays where numpy
  per-call overhead dominates; the only workload with a backward pass.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from macfluid import datagen, grids, sim, training

GRID_PLUME = grids.GridDims(128, 128)
GRID_SMALL = grids.GridDims(32, 32)


def derive_seed(seed: int, *labels: int) -> int:
    """A 32-bit seed from the run seed and an episode or chunk index."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def arrays_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def state_finite(state) -> bool:
    return bool(np.isfinite(state.u.ux).all() and np.isfinite(state.u.uy).all()
                and np.isfinite(state.density.values).all())


def state_digest(state) -> str:
    return arrays_digest(state.u.ux, state.u.uy, state.density.values)


class Plume:
    """128x128 buoyant plume past a disc, MacCormack advection, Jacobi(34).

    The seed jitters the inlet speed and buoyancy by up to 10%, which
    changes the flow but not the amount of work per frame.  The set-up
    builds the scene and runs a fixed warm-up, because the first frames of
    an empty plume are cheaper than later ones; every episode then steps
    the same warmed state forward, so all episodes must agree bit for bit.
    """

    name = "plume128_jacobi"
    WARMUP_FRAMES = 24
    EPISODE_FRAMES = 16
    clock = {"sim.step": None}

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.inflow_speed = float(rng.uniform(0.9, 1.1))
        self.buoyancy = float(rng.uniform(0.45, 0.55))

    def setup(self) -> str:
        state, cfg = sim.plume_scenario(
            GRID_PLUME, obstacle="disc", inflow_speed=self.inflow_speed,
            buoyancy=self.buoyancy, projection=sim.JacobiProjection(34),
            advection="maccormack")
        for _ in range(self.WARMUP_FRAMES):
            state = sim.step(state, cfg)
        self.start, self.cfg = state, cfg
        return state_digest(state)

    def episode(self, index: int) -> dict:
        state, attempted, failed = self.start, 0, 0
        for _ in range(self.EPISODE_FRAMES):
            attempted += 1
            try:
                state = sim.step(state, self.cfg)
            except sim.SimulationError:
                failed += 1
                break
        return {"attempted": attempted, "failed": failed,
                "finite": state_finite(state), "digest": state_digest(state),
                "final_div_l2": sim.frame_metrics(state).residual}

    def frame_spans(self, spans: list) -> list[tuple[float, float]]:
        return [(s[1], s[2]) for s in spans if s[0] == "sim.step"]

    def summarize(self, episodes: list[dict], spans: list, wall: float) -> dict:
        return {
            "metrics": {"final_div_l2": episodes[0]["final_div_l2"]},
            "attempted": sum(e["attempted"] for e in episodes),
            "failed": sum(e["failed"] for e in episodes),
            "checks": {
                "final fields finite": all(e["finite"] for e in episodes),
                "episodes identical": len({e["digest"] for e in episodes}) == 1,
            },
            "digests": {"plume_final_state": episodes[0]["digest"]},
        }


class Datagen:
    """32x32 procedural scenes rolled out with PcgProjection(tol=1e-6).

    Each episode is one ``generate_dataset`` call of one scene whose master
    seed comes from (seed, episode), so a long window sees many distinct
    geometries, followed by ``load_dataset`` to read the written
    frames back and check them.  The set-up writes a short throwaway
    dataset so lazy imports and first-call costs fall outside the window.
    """

    name = "datagen32_pcg"
    SCENES = 1
    FRAMES_PER_SCENE = 8
    STRIDE = 4
    WARMUP_FRAMES = 4
    clock = {"datagen.apply_emitters": None, "sim.step": None,
             "formats.write_frame": None}

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self._setups = 0

    def setup(self) -> str:
        out = self.work / f"warmup_{self._setups}"
        self._setups += 1
        cfg = datagen.SceneConfig(dims=GRID_SMALL, seed=self.seed)
        datagen.generate_dataset(cfg, 1, frames_per_scene=self.WARMUP_FRAMES,
                                 stride=self.STRIDE, out_dir=out)
        return tree_digest(out)

    def episode(self, index: int) -> dict:
        out = self.work / f"chunk_{index:04d}"
        cfg = datagen.SceneConfig(dims=GRID_SMALL, seed=derive_seed(self.seed, index))
        datagen.generate_dataset(cfg, self.SCENES, frames_per_scene=self.FRAMES_PER_SCENE,
                                 stride=self.STRIDE, out_dir=out)
        scenes = datagen.load_dataset(out)
        return {"dir": out, "scenes": len(scenes),
                "non_converged": sum(len(s.meta["non_converged"]) for s in scenes),
                "frames_read": sum(len(s.frames) for s in scenes),
                "finite": all(state_finite(f) for s in scenes for f in s.frames)}

    def frame_spans(self, spans: list) -> list[tuple[float, float]]:
        """A frame runs from its emitter push to the end of its step or write."""
        frames: list[list[float]] = []
        for s in spans:
            if s[0] == "datagen.apply_emitters":
                frames.append([s[1], s[2]])
            elif s[0] in ("sim.step", "formats.write_frame") and frames:
                frames[-1][1] = max(frames[-1][1], s[2])
        return [(a, b) for a, b in frames]

    def summarize(self, episodes: list[dict], spans: list, wall: float) -> dict:
        scenes = sum(e["scenes"] for e in episodes)
        solves = scenes * self.FRAMES_PER_SCENE
        written = scenes * (self.FRAMES_PER_SCENE // self.STRIDE)
        return {
            "metrics": {"scenes_per_s": scenes / wall},
            "attempted": solves,
            "failed": sum(e["non_converged"] for e in episodes),
            "checks": {
                "written frames finite": all(e["finite"] for e in episodes),
                "every recorded frame read back": sum(e["frames_read"] for e in episodes) == written,
            },
            "digests": {"datagen_corpus": tree_digest(episodes[0]["dir"])},
        }


class Train:
    """``training.train`` with the default TrainConfig on a 32x32 corpus.

    The set-up generates the corpus with ``generate_dataset`` (PCG, FNF1
    frames) and loads it; repeated set-ups must write identical bytes.
    Each episode trains a fresh model for a few epochs from a seed derived
    from (seed, episode), so a long window averages over many draws of
    unroll length and augmentation.
    """

    name = "train32_convnet"
    SCENES = 2
    FRAMES_PER_SCENE = 4
    STRIDE = 1
    EPOCHS = 2
    clock = {"sim.step": None,
             "training.unrolled_loss": lambda a, k, r: r is None or not math.isfinite(r.loss)}

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self._setups = 0

    def setup(self) -> str:
        out = self.work / f"corpus_{self._setups}"
        self._setups += 1
        cfg = datagen.SceneConfig(dims=GRID_SMALL, seed=self.seed)
        datagen.generate_dataset(cfg, self.SCENES, frames_per_scene=self.FRAMES_PER_SCENE,
                                 stride=self.STRIDE, out_dir=out)
        self.samples = [f for s in datagen.load_dataset(out) for f in s.frames]
        return tree_digest(out)

    def episode(self, index: int) -> dict:
        try:
            params, log = training.train(self.samples, training.TrainConfig(), self.EPOCHS,
                                         derive_seed(self.seed, index))
        except training.TrainingError:
            return {"aborted": True, "finite": False, "digest": None,
                    "final_loss": math.nan, "epoch_ms": []}
        flat = params.pack()
        return {"aborted": False, "finite": bool(np.isfinite(flat).all()),
                "digest": arrays_digest(flat), "final_loss": log[-1].mean_loss,
                "epoch_ms": [row.wall_ms for row in log]}

    def frame_spans(self, spans: list) -> list[tuple[float, float]]:
        return [(s[1], s[2]) for s in spans if s[0] == "sim.step"]

    def summarize(self, episodes: list[dict], spans: list, wall: float) -> dict:
        samples = [s for s in spans if s[0] == "training.unrolled_loss"]
        sample_ms = [(s[2] - s[1]) * 1e3 for s in samples]
        epoch_ms = [ms for e in episodes for ms in e["epoch_ms"]]
        # a TrainingError aborts its episode at the non-finite sample
        failed = sum(1 for s in samples if s[4]) + sum(e["aborted"] for e in episodes)
        return {
            "metrics": {
                "samples_per_s": len(samples) / wall,
                "sample_ms_p50": percentile(sample_ms, 50),
                "sample_ms_p90": percentile(sample_ms, 90),
                "epoch_s": percentile(epoch_ms, 50) / 1e3,
                "final_loss": episodes[0]["final_loss"],
            },
            "attempted": len(samples),
            "failed": failed,
            "checks": {
                "model parameters finite": all(e["finite"] for e in episodes),
                "final loss finite": all(math.isfinite(e["final_loss"]) for e in episodes),
            },
            "digests": {"trained_model_params": episodes[0]["digest"]},
        }


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


WORKLOADS = {w.name: w for w in (Plume, Datagen, Train)}
