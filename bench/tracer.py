"""In-memory span tracer for the public calls into the outangles modules.

The library binds names with ``from .x import y``, so a function is reachable
through every module that imported it.  :meth:`Tracer.install` therefore
rebinds each traced function in *every* loaded ``outangles`` module that holds
it, and patches traced methods on their class.  A wrapper that only replaced
the defining module's name would silently record nothing for calls made
through the other modules.

Each call records one span ``(name, start, end, parent)``; spans stay in
memory until :meth:`Tracer.layers` folds them into per-layer totals.  A
layer's self time is its span time minus the time of its child spans, less
the tracer's own per-call cost, which :meth:`Tracer.calibrate` measures on a
no-op function.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "outangles"
CALIBRATION_CALLS = 200_000

# (layer name, module, attribute) -- a dotted attribute names a method
TARGETS = (
    ("rewrite.push", "rewrite", "OuAccumulator.push"),
    ("rewrite.copy", "rewrite", "OuAccumulator.copy"),
    ("rewrite.canonical_text", "rewrite", "OuAccumulator.canonical_text"),
    ("rewrite.ou_normal_form", "rewrite", "ou_normal_form"),
    ("enumeration.tabulate", "enumeration", "tabulate"),
    ("braid.ch", "braid", "ch"),
    ("braid.iota", "braid", "iota"),
    ("braid.generator_diagram", "braid", "generator_diagram"),
    ("braid.classical_to_vpb", "braid", "classical_to_vpb"),
    ("diagram.compose", "diagram", "compose"),
    ("diagram.construct", "diagram", "Diagram.__post_init__"),
    ("diagram.canonical_key", "diagram", "canonical_key"),
    ("division.extraction_graph", "division", "extraction_graph"),
    ("division.peel", "division", "peel"),
)

# consumer modules that must see the wrapper, beyond the defining module
CONSUMERS = {
    "rewrite.ou_normal_form": ("rewrite", "braid", "division"),
    "diagram.compose": ("diagram", "braid", "division"),
    "diagram.canonical_key": ("diagram", "braid", "division"),
    "braid.generator_diagram": ("braid", "division"),
}


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Wraps library calls, records spans, and folds them into layers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.current = -1
        self.observed: dict[str, list] = {}
        self.inner_s = 0.0
        self.outer_s = 0.0
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span per call; ``observe(args,
        result)`` runs after the span closes and appends to
        ``self.observed[name]``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans = self.spans
        clock = time.perf_counter
        seen = self.observed.setdefault(name, [])
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                tracer.current = parent
            if observe is not None:
                seen.append(observe(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self) -> None:
        """Measure the wrapper's cost per call: ``inner_s`` falls inside the
        recorded span, ``outer_s`` is the whole cost seen by the caller."""
        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap("noop", noop)
        clock = time.perf_counter
        inner, outer = [], []
        calls = CALIBRATION_CALLS // 5
        for _ in range(5):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            probe.spans.clear()
            start = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - start
            outer.append((wrapped - bare) / calls)
            inner.append(sum(e - s for _, s, e, _ in probe.spans) / len(probe.spans))
        self.inner_s = statistics.median(inner)
        self.outer_s = statistics.median(outer)

    # -- installing ----------------------------------------------------------

    def install(self, observers: dict[str, Callable] | None = None) -> None:
        """Wrap every target in :data:`TARGETS` in all loaded package modules."""
        observers = observers or {}
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module, attr in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(layer, original, observers.get(layer)))
                self._undo.append(lambda cls=cls, meth=meth, original=original: setattr(cls, meth, original))
                continue
            original = getattr(home, attr)
            traced = self.wrap(layer, original, observers.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)
                        self._undo.append(
                            lambda mod=mod, name=name, original=original: setattr(mod, name, original)
                        )
        self._check_rebound()

    def _check_rebound(self) -> None:
        """The package namespace and every consumer module named in
        :data:`CONSUMERS` call the wrapper."""
        for layer, module, attr in TARGETS:
            if "." in attr:
                continue
            for consumer in ("",) + CONSUMERS.get(layer, (module,)):
                path = f"{PACKAGE}.{consumer}" if consumer else PACKAGE
                bound = getattr(sys.modules[path], attr)
                if getattr(bound, "__wrapped__", None) is None:
                    raise RuntimeError(f"{layer} is not traced through module {path}")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def reset(self) -> None:
        self.spans.clear()
        self.current = -1
        for values in self.observed.values():
            values.clear()

    # -- folding -------------------------------------------------------------

    def layers(self, context: tuple[str, ...] = ()) -> tuple[dict[str, Layer], dict[tuple[str, str], int]]:
        """Per-name calls, self time and span durations, plus call counts of
        each name under each ``context`` ancestor, as ``{(context, name): n}``.

        Self time is corrected for the tracer's own cost: ``inner_s`` for the
        span itself and ``outer_s - inner_s`` for each of its children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
        context_ids = {i for i, name in enumerate(self.names) if name in context}
        within = [-1] * len(spans)
        out = {name: Layer() for name in self.names}
        under: dict[tuple[str, str], int] = {}
        gap = self.outer_s - self.inner_s
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = self.names[name_id]
            layer = out[name]
            duration = end - start
            layer.calls += 1
            layer.durations.append(duration)
            layer.self_s += duration - child_time[idx] - self.inner_s - children[idx] * gap
            ancestor = within[parent] if parent >= 0 else -1
            if ancestor >= 0:
                key = (self.names[ancestor], name)
                under[key] = under.get(key, 0) + 1
            within[idx] = name_id if name_id in context_ids else ancestor
        return out, under
