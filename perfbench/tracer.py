"""Span recorder that times calls into macfluid from outside the package.

``Tracer.install`` wraps each named public function.  ``sim`` and
``forces`` (and several other modules) bind functions through
``from .x import y``, so a call site looks the function up in its own
module's globals; patching only the defining module would miss those
calls.  The wrapper is therefore installed on every ``macfluid.*`` module
attribute bound to the original function object, and ``uninstall`` puts
every original back.

Spans are kept in memory as ``[name, start, end, parent, extra]`` lists;
``parent`` is the index of the enclosing span or -1 for a root span, and
``extra`` holds what the target's extractor took from the call (for
example the ``PcgInfo`` that ``solve_pcg`` returned).  Everything runs on
one thread, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """Records a span for each call of the target functions.

    ``targets`` maps a dotted name relative to the package, such as
    ``"pressure.solve_pcg"``, to an extractor ``f(args, kwargs, result)``
    whose return value is stored on the span, or to None.
    """

    def __init__(self, targets: dict):
        self.targets = dict(targets)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "macfluid" or name.startswith("macfluid."))]
        for dotted, extract in self.targets.items():
            mod_name, fn_name = dotted.rsplit(".", 1)
            original = getattr(importlib.import_module(f"macfluid.{mod_name}"), fn_name)
            wrapper = self._wrap(dotted, original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extract is not None:
                rec[EXTRA] = extract(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per target: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                             "self_s": 0.0})
    for s, self_s in zip(spans, self_times(spans)):
        row = out[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
    return dict(out)


def root_seconds(spans: list[list]) -> float:
    """Wall time covered by spans that have no traced parent."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
