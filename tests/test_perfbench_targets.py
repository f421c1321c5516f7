"""The names the benchmark in ``perfbench/`` traces still exist.

``perfbench/layers.py`` wraps ``macfluid`` functions by dotted name and
reads fields of the ``PcgInfo`` that ``solve_pcg`` returns; a rename in
the package would otherwise surface only when the benchmark runs.
"""

import dataclasses
import importlib
from pathlib import Path

from macfluid.pressure import PcgInfo

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


def test_pcg_info_keeps_the_fields_perfbench_reads():
    names = {f.name for f in dataclasses.fields(PcgInfo)}
    assert {"iterations", "converged", "preconditioner"} <= names
