"""Span tracing from outside the package, for the benchmark's traced run.

Every public function of the traced modules is replaced, at each module
that binds its name, by a wrapper that records one span per call. Spans
hold a name, start, end and the index of the enclosing span; they stay in
memory and the caller writes them out once the run is over.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Called once per pivot per query (through cross_kernel_vector), so a
# wrapper there would dominate what it measures; their time shows up as
# the self time of the caller instead.
UNWRAPPED = {"kernel_eval", "radial_profile"}


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append((name, 0.0, 0.0, parent))
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self, home_modules, binding_modules) -> list[str]:
        """Wrap each public function of ``home_modules`` at every binding.

        Public means defined in that module under a name without a leading
        underscore, whether or not ``__all__`` lists it. A function is
        named ``<home module>.<function>`` after the module that defines
        it, wherever it is looked up. Returns the names.
        """
        names = []
        for home in home_modules:
            short = home.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn)
                for mod in binding_modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, key, value))
                            setattr(mod, key, wrapper)
                names.append(name)
        return names

    def patch(self, module, attr: str, replacement) -> None:
        """Rebind one name, remembering the old value for ``restore``."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a
    function that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return table
