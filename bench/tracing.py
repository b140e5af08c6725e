"""In-memory span recorder that instruments ``simplex_decomp`` from outside.

``instrument`` replaces each public function of the named layer modules by a
wrapper that records one span per call: name, start, end, parent span and
request id.  The wrapper is installed in every module namespace of the
package that binds the function, so calls made inside the package through
``from .x import y`` copies are seen too.  Hooks attached to single
functions add counts at the same boundary (computed flops and bytes, nfev,
bytes written).  Nothing leaves memory until ``dump`` is called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans plus named counts; ``request`` tags every span opened while set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.enabled = True
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def call(self, name, fn, hook, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request)
        self.spans.append(span)
        self._stack.append(index)
        cache_info = getattr(fn, "cache_info", None)
        misses = cache_info().misses if cache_info else 0
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if cache_info and cache_info().misses > misses:
            self.counts[name + ".cold_calls"] += 1
            self.counts[name + ".cold_s"] += span.duration
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def take(self) -> "Recorder":
        """Move the spans and counts so far to a new recorder; this one
        starts empty."""
        kept = Recorder()
        kept.spans, kept.counts, kept.enabled = self.spans, self.counts, False
        self.spans, self.counts, self._stack = [], Counter(), []
        return kept

    def self_times(self) -> list[float]:
        """Span duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.duration - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = agg[span.name]
            row["calls"] += 1
            row["s"] += span.duration
            row["self_s"] += self_s
        return dict(agg)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write counts and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _wrap(recorder: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, hook, args, kwargs)
    return wrapper


def instrument(recorder: Recorder, package: str, layers, hooks=None, skip=()):
    """Wrap the public functions of ``package.<layer>`` for every layer.

    A function counts as public to a layer when its name has no leading
    underscore and it is defined in that module; ``skip`` names the
    ``layer.function`` spans to leave out.  Returns a callable that puts
    every original binding back.
    """
    hooks = hooks or {}
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
    patched = []
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in skip:
                continue
            wrapper = _wrap(recorder, name, obj, hooks.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapper)
                        patched.append((ns, key, obj))

    def restore() -> None:
        for ns, key, obj in patched:
            setattr(ns, key, obj)
    return restore
