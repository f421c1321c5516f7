"""The names the benchmark in ``perfbench/`` traces still exist.

``perfbench/layers.py`` wraps ``macfluid`` functions by dotted name,
reads some of their arguments by name and reads fields of the ``PcgInfo``
that ``solve_pcg`` returns; ``perfbench/workloads.py`` passes keyword
arguments and reads fields of ``FrameMetrics`` and ``EpochStats``.  A
rename in the package would otherwise surface only when the benchmark
runs.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from macfluid import convnet, datagen, formats, pressure, sim
from macfluid.pressure import PcgInfo
from macfluid.sim import FrameMetrics
from macfluid.training import EpochStats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_a_callable_in_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for name in layers.TARGETS:
        module, attr = name.split(".")
        assert module in layers.MODULES, name
        target = getattr(importlib.import_module(f"macfluid.{module}"), attr, None)
        assert callable(target), name


READ_FIELDS = [
    # layers.py, of every PCG solve's report
    (PcgInfo, ("iterations", "converged", "preconditioner")),
    # workloads.py: Plume.episode and Train.episode
    (FrameMetrics, ("residual",)),
    (EpochStats, ("wall_ms", "mean_loss")),
]


@pytest.mark.parametrize("cls, names", READ_FIELDS, ids=[c.__name__ for c, _ in READ_FIELDS])
def test_result_types_keep_the_fields_perfbench_reads(cls, names):
    assert set(names) <= {f.name for f in dataclasses.fields(cls)}


BOUND_NAMES = [
    # argument names layers._extract reads
    (pressure.solve_jacobi, ("sys", "iters")),
    (convnet.net_forward, ("params", "g")),
    (formats.write_frame, ("path",)),
    # keywords workloads.py passes
    (sim.plume_scenario, ("obstacle", "inflow_speed", "buoyancy", "projection",
                          "advection")),
    (datagen.generate_dataset, ("frames_per_scene", "stride", "out_dir")),
]


@pytest.mark.parametrize("fn, names", BOUND_NAMES,
                         ids=[fn.__name__ for fn, _ in BOUND_NAMES])
def test_argument_names_perfbench_uses_bind(fn, names):
    inspect.signature(fn).bind_partial(**dict.fromkeys(names))
