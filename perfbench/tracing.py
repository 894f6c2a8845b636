"""Span tracer for the masschase layers, installed from outside the package.

Every public function of a layer module is wrapped at its defining module and
at each masschase module that imported it by name (``game.running_cost``,
``scenarios.push_forward``, the package's own re-exports), so a call is
caught whichever binding the caller looks up. ``ControlSchedule.field_at`` is
wrapped on its class. One wrapper object serves every binding of a function,
so identity between bindings is kept while tracing. ``uninstall`` puts every
original binding back.

Spans stay in memory as ``(name, start, end, parent)`` tuples; ``summarize``
turns one op's spans into per-layer calls, busy time and self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("game", "cost", "flow", "controls", "grid", "scenarios")


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Wraps the layer functions of an imported masschase package.

    ``counters`` maps a span name to ``(counter_name, fn)``; ``fn`` receives
    the call's bound arguments and returns the amount to add to the counter,
    so work can be counted at the same boundary the span times.
    """

    def __init__(self, package: types.ModuleType, counters: "dict | None" = None):
        self.package = package
        self._counters = dict(counters or {})
        self.spans: "list[tuple[str, float, float, int]]" = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []
        self._saved: "list[tuple[object, str, object]]" = []

    def _modules(self) -> "list[types.ModuleType]":
        prefix = self.package.__name__
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]

    def _wrap(self, fn, name: str):
        counter = self._counters.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if counter:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[counter[0]] += counter[1](bound.arguments)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._bind()
        except BaseException:
            self.uninstall()
            raise

    def _bind(self) -> None:
        prefix = self.package.__name__ + "."
        wrappers: dict = {}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                layer = home[len(prefix):] if home.startswith(prefix) else ""
                if layer not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        schedule_cls = sys.modules[prefix + "controls"].ControlSchedule
        original = vars(schedule_cls)["field_at"]
        self._saved.append((schedule_cls, "field_at", original))
        schedule_cls.field_at = self._wrap(original, "controls.field_at")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def summarize(spans) -> Counter:
    """Per-layer and per-function totals of one set of spans.

    ``<layer>.busy_s`` counts only spans with no ancestor in the same layer,
    so nested calls within a layer are not counted twice; ``<layer>.self_s``
    is busy time minus the time spent in wrapped calls into other layers.
    ``<fn>.busy_s`` likewise counts only the outermost span of a function.
    """
    out: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers_above: "list[frozenset]" = []
    names_above: "list[frozenset]" = []
    for i, (name, t0, t1, parent) in enumerate(spans):
        layer = _layer_of(name)
        if parent >= 0:
            pname = spans[parent][0]
            la = layers_above[parent] | {_layer_of(pname)}
            na = names_above[parent] | {pname}
        else:
            la = na = frozenset()
        layers_above.append(la)
        names_above.append(na)
        dur = t1 - t0
        out[f"{layer}.calls"] += 1
        out[f"{name}.calls"] += 1
        out[f"{layer}.self_s"] += dur - child_time[i]
        if layer not in la:
            out[f"{layer}.busy_s"] += dur
        if name not in na:
            out[f"{name}.busy_s"] += dur
    return out
