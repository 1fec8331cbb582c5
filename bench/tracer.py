"""Spans recorded from outside the program, by wrapping its public names.

A wrap site is "module:attribute" or "module:Class.method": the name as the
consuming module bound it, so `from .nnet import adam_step` in `trainer` is
wrapped at `snrdistill.trainer:adam_step`. A site that does not exist at the
checked-out commit is recorded as absent instead of raising, so the same
benchmark runs before and after a refactor that deletes a layer.

Spans are (name, start, end, parent) rows kept in memory. Self time is a
span's duration minus the part of its interval that its direct children
cover. Standard library only, so the launcher can import it without numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# Span that holds a hook's own work (hashing, stat calls), so that it is
# charged to no layer's self time.
HOOK_SPAN = "trace.hook"

# Percentile levels tried for the tail figure, lowest first.
TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def rows(self):
        """(name, start, end, parent) for every recorded span; parent -1 is none."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(rows) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in rows:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(rows):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _rank(level: float, n: int) -> int:
    """1-based nearest rank of a percentile; the guard absorbs float error in level * n."""
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def tail_percentile(n: int) -> float | None:
    """Highest level in TAIL_LEVELS with at least TAIL_MIN_BEYOND samples beyond it."""
    best = None
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= TAIL_MIN_BEYOND:
            best = level
    return best


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(level, len(sorted_values)) - 1]


def span_stats(rows) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive total, self time, p50 and tail in ms."""
    selfs = self_times(rows)
    durations: dict[str, list[float]] = defaultdict(list)
    self_total: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(rows, selfs):
        durations[name].append(end - start)
        self_total[name] += own
    out = {}
    for name, values in durations.items():
        values.sort()
        level = tail_percentile(len(values))
        out[name] = {
            "calls": len(values),
            "total_s": sum(values),
            "self_s": self_total[name],
            "p50_ms": percentile(values, 50.0) * 1e3,
            "ptail_ms": percentile(values, level) * 1e3 if level is not None else 0.0,
        }
    return out


def top_level_seconds(rows) -> float:
    return sum(end - start for _, start, end, parent in rows if parent < 0)


def _resolve(site: str):
    """(owner, attribute, raw value) for "module:attr" or "module:Class.attr", or None."""
    module_name, _, dotted = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None or not callable(raw):
        return None
    return owner, attr, raw


def _wrapper(tracer: Tracer, name: str, fn, hook):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            with tracer.span(HOOK_SPAN):
                hook(tracer, signature.bind_partial(*args, **kwargs).arguments, result)
        return result

    return wrapped


@contextmanager
def instrument(tracer: Tracer, table: dict[str, tuple[tuple[str, ...], object]]):
    """Wrap every site in `table` (span name -> (sites, hook)) for the block.

    Yields the list of sites that do not exist at this commit. Originals are
    restored on exit, whatever happens inside the block.
    """
    patched = []
    absent = []
    try:
        for name, (sites, hook) in table.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    absent.append(site)
                    continue
                owner, attr, raw = found
                setattr(owner, attr, _wrapper(tracer, name, raw, hook))
                patched.append((owner, attr, raw))
        yield absent
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
