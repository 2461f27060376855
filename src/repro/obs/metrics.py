"""Metrics registry: counters, gauges and histograms, free when off.

Design
------
The registry follows a *construction-time capture* discipline: a component
asks for its instruments exactly once, when it is built, via
``metrics.active()``.  When no registry is enabled that call returns
``None`` and the component stores ``None`` — its hot loop then pays one
local ``is not None`` check (a single pointer comparison) and nothing
else.  There is no per-event name lookup, no dict hashing, and no
indirection through the module when metrics are off.

Three collection styles, by cost profile:

* **Inline instruments** (``Counter`` / ``Gauge`` / ``Histogram``) for
  code that already has the number in hand — the simulator event loop,
  the event-queue compactor.  ``inc()`` is one attribute add.
* **Callbacks** (``register_callback``) for state that can be read
  lazily — per-port switch counters, buffer occupancy, fault summaries.
  The hot path pays *zero*: the values are pulled only at
  ``snapshot()`` time.
* **Global sources** (``register_global_source``) for module-level
  counter dicts that exist whether or not a registry does (the tree-
  kernel cache).  Every registry snapshot folds them in, so a snapshot
  reports the same numbers as the source itself.

Histograms use fixed bucket upper bounds (no dynamic resizing, no
allocation per observe): an ``observe`` is a linear scan over a handful
of floats plus two adds, which for the default 12-bucket latency layout
is faster than ``bisect`` up to ~20 buckets.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "enable",
    "disable",
    "active",
    "is_enabled",
    "collecting",
    "register_global_source",
    "global_sources_snapshot",
    "merge_counts",
]

#: Default bucket upper bounds for latency-style histograms, in seconds.
#: Spans 1 µs .. 10 s in roughly-logarithmic steps; the registry adds a
#: +Inf overflow bucket implicitly.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count.  ``inc()`` is one attribute add."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """Last-written value, with a high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value, f"{self.name}.max": self.max_value}


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are upper bounds (inclusive) in ascending order; values
    above the last bound land in an implicit +Inf overflow bucket.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must ascend: {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs; the final bound is +Inf."""
        bounds = list(self.bounds) + [float("inf")]
        return list(zip(bounds, self.counts))

    def snapshot(self) -> Dict[str, float]:
        out = {
            f"{self.name}.count": self.count,
            f"{self.name}.sum": self.sum,
            f"{self.name}.mean": self.mean,
        }
        if self.count:
            out[f"{self.name}.min"] = self.min
            out[f"{self.name}.max"] = self.max
        return out


# -- module-level global sources (exist with or without a registry) -----------

_global_sources: Dict[str, Callable[[], Mapping[str, float]]] = {}


def register_global_source(prefix: str,
                           fn: Callable[[], Mapping[str, float]]) -> None:
    """Register an always-on counter source folded into every snapshot.

    Used for module-level counter dicts (e.g. the tree-kernel cache)
    that accumulate regardless of whether a registry is enabled.
    Re-registering a prefix replaces the previous source.
    """
    _global_sources[prefix] = fn


def global_sources_snapshot() -> Dict[str, float]:
    """Flat ``prefix.key -> value`` mapping over all global sources."""
    out: Dict[str, float] = {}
    for prefix, fn in _global_sources.items():
        try:
            values = fn()
        except Exception:  # a broken source must not break observability
            continue
        for key, value in values.items():
            if isinstance(value, (int, float)):
                out[f"{prefix}.{key}"] = value
    return out


def merge_counts(dicts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum numeric values key-wise across several counter dicts.

    Single source of truth for aggregating per-worker counter dicts
    (engine kernel-cache totals, CLI summaries).
    """
    totals: Dict[str, float] = {}
    for counts in dicts:
        for key, value in counts.items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    return totals


class MetricsRegistry:
    """Get-or-create instrument store plus lazy callback collection."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._callbacks: List[Tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, *args) -> object:
        with self._lock:
            found = self._instruments.get(name)
            if found is not None:
                if not isinstance(found, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(found).__name__}, not {kind.__name__}"
                    )
                return found
            made = kind(name, *args)
            self._instruments[name] = made
            return made

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get(name, Histogram, buckets)  # type: ignore[return-value]

    def register_callback(self, prefix: str,
                          fn: Callable[[], Mapping[str, float]]) -> None:
        """Attach a lazy source; read only at snapshot() time."""
        with self._lock:
            self._callbacks.append((prefix, fn))

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value mapping over instruments, callbacks and
        global sources.  Sorted keys, so output is deterministic."""
        out: Dict[str, float] = {}
        with self._lock:
            instruments = list(self._instruments.values())
            callbacks = list(self._callbacks)
        for instrument in instruments:
            out.update(instrument.snapshot())  # type: ignore[attr-defined]
        for prefix, fn in callbacks:
            try:
                values = fn()
            except Exception:
                continue
            for key, value in values.items():
                if isinstance(value, (int, float)):
                    out[f"{prefix}.{key}"] = value
        out.update(global_sources_snapshot())
        return dict(sorted(out.items()))

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return {name: inst for name, inst in self._instruments.items()
                    if isinstance(inst, Histogram)}


# -- the module-level null fast path ------------------------------------------
#
# Components capture the result of ``active()`` at construction time.
# When disabled that is ``None`` and the hot loop's only cost is a local
# ``if m is not None`` — the module globals are never consulted again.

_active: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process-wide registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    global _active
    _active = None


def active() -> Optional[MetricsRegistry]:
    """The enabled registry, or None — capture this at construction."""
    return _active


def is_enabled() -> bool:
    return _active is not None


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None
               ) -> Iterator[MetricsRegistry]:
    """Enable a registry for the duration of a with-block (tests, CLI)."""
    global _active
    previous = _active
    installed = enable(registry)
    try:
        yield installed
    finally:
        _active = previous
