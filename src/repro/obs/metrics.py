"""Typed metrics: counters, gauges, and log2-bucket histograms.

The :class:`MetricsRegistry` replaces the tracer's untyped counter
dict (its aggregated shape lives on as
:meth:`MetricsRegistry.counter_totals`).  Every metric has a name and
an optional frozen label set (``rank=3``, ``dst=0``, ``flow="0->3"``),
so the transport/fault bumps that used to collapse into one global
integer can be attributed per rank or per path while the old aggregate
keys keep working.

Everything here is deterministic: values are plain Python ints/floats
fed by the (deterministic) simulation, snapshots iterate in sorted
order, and histograms use *fixed* base-2 buckets — two runs with the
same seed produce byte-identical snapshots.

This module is deliberately dependency-free (it must be importable from
:mod:`repro.sim.trace` without creating an import cycle).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Label set as stored on a metric: sorted ``(key, value)`` pairs.
Labels = Tuple[Tuple[str, Any], ...]


def _freeze(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted(labels.items()))


def _label_str(labels: Labels) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}[{_label_str(self.labels)}]={self.value}>"


class Gauge:
    """A point-in-time value (queue depth, bytes outstanding, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value) -> None:
        # Normalize to float: callers pass ints (packet counts) and
        # floats (timestamps) interchangeably, and a snapshot that
        # renders `3` on one code path and `3.0` on another breaks
        # byte-identical snapshot comparison across runs.
        self.value = float(value)

    def add(self, delta) -> None:
        self.value = float(self.value + delta)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}[{_label_str(self.labels)}]={self.value}>"


def bucket_index(value: float) -> int:
    """The fixed log2 bucket of ``value``: the smallest integer ``i``
    with ``value <= 2**i``.

    Only defined for positive values: ``math.frexp(0.0)`` is ``(0.0, 0)``,
    so without the guard a zero would silently land in bucket 0 (the
    ``(0.5, 1]`` bucket) instead of the dedicated zero bucket.  Callers
    must route non-positive observations themselves (as
    :meth:`Histogram.observe` does)."""
    if value <= 0.0:
        raise ValueError(
            f"bucket_index({value!r}): non-positive values have no log2 "
            "bucket; route them to the zero bucket (Histogram.observe "
            "does this automatically)"
        )
    m, e = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


class Histogram:
    """Fixed-log2-bucket histogram of simulated durations.

    Bucket ``i`` counts observations in ``(2**(i-1), 2**i]``; a
    dedicated zero bucket counts non-positive observations (zero-length
    phases are common and must not distort the distribution).  Buckets
    are sparse — only non-empty ones are stored — and the boundaries are
    fixed, so merging or comparing histograms across runs is exact.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "zero_count", "_buckets")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.count: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count: int = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        # Float-normalize up front (int observations would otherwise make
        # min/max int on some code paths and float on others, breaking
        # byte-identical snapshots); non-positive observations go to the
        # dedicated zero bucket — zero-length durations are routine
        # (intra-node shared-window ops, analytic-train completions) and
        # must never reach bucket_index.
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        idx = bucket_index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact: the fixed bucket
        boundaries make cross-run merging lossless)."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        self.zero_count += other.zero_count
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n

    def quantile(self, q: float) -> float:
        """The q-quantile, resolved to its bucket's upper bound (clamped
        to the observed ``max``, so ``quantile(1.0) == max`` exactly).

        Within-bucket position is unknown, so the estimate errs high by
        at most one power of two — fine for the latency tails the
        reports quote."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for le, n in self.buckets():
            seen += n
            if seen >= target:
                return min(le, self.max)
        return self.max  # pragma: no cover - float-edge fallback

    def buckets(self) -> List[Tuple[float, int]]:
        """Non-empty buckets as ``(upper_bound, count)`` sorted by bound
        (the zero bucket, when occupied, leads with bound ``0.0``)."""
        out: List[Tuple[float, int]] = []
        if self.zero_count:
            out.append((0.0, self.zero_count))
        out.extend((2.0 ** i, n) for i, n in sorted(self._buckets.items()))
        return out

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": [[le, n] for le, n in self.buckets()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name}[{_label_str(self.labels)}] "
                f"n={self.count} sum={self.sum:.3f}>")


class MetricsRegistry:
    """Owns every metric of one simulation.

    Metrics are created on first use and memoized by ``(name, labels)``;
    repeated lookups return the same object, so hot call sites may cache
    the metric handle and skip the dict lookup entirely.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    # -- factories -------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _freeze(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _freeze(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _freeze(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, key[1])
        return metric

    # -- views -----------------------------------------------------------
    def counter_totals(self) -> Dict[str, int]:
        """Counters aggregated over labels, keyed by bare name — the
        shape of the ``"counters"`` keys in ``World.fault_stats`` and the
        fig2 report rows."""
        totals: Dict[str, int] = {}
        for (name, _labels), metric in sorted(self._counters.items()):
            if metric.value:
                totals[name] = totals.get(name, 0) + metric.value
        return totals

    def iter_counters(self) -> Iterator[Counter]:
        for key in sorted(self._counters):
            yield self._counters[key]

    def iter_gauges(self) -> Iterator[Gauge]:
        for key in sorted(self._gauges):
            yield self._gauges[key]

    def iter_histograms(self) -> Iterator[Histogram]:
        for key in sorted(self._histograms):
            yield self._histograms[key]

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as plain JSON-able data, deterministically
        ordered (list entries sorted by name then labels)."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.iter_counters() if c.value
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self.iter_gauges()
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), **h.snapshot()}
                for h in self.iter_histograms() if h.count
            ],
        }

    def reset(self) -> None:
        """Drop every metric (bench repetition / chaos-seed reuse)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")
