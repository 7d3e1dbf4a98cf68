"""Structured simulation tracing.

Higher layers (RMA engine, consistency checkers, benches) record
:class:`TraceRecord` entries into a shared :class:`Tracer`.  The
consistency checkers in :mod:`repro.consistency` consume these traces to
validate ordering/atomicity guarantees, and the bench harness uses them
to attribute simulated time to protocol phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Coarse grouping, e.g. ``"rma"``, ``"net"``, ``"mem"``.
    kind:
        Specific occurrence, e.g. ``"put_issue"``, ``"packet_deliver"``.
    rank:
        Originating rank, or ``None`` for rank-less occurrences.
    detail:
        Free-form payload describing the occurrence.
    seq:
        Global record index; breaks ties among equal timestamps.
    """

    time: float
    category: str
    kind: str
    rank: Optional[int]
    detail: Dict[str, Any]
    seq: int


class Tracer:
    """Collects :class:`TraceRecord` entries.

    Tracing is off by default; benches that don't need traces pay only a
    boolean check per potential record.
    """

    def __init__(self, enabled: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        self._seq = 0
        #: Always-on typed metrics (cheap, no record objects).  The
        #: fault-injection/reliability layers bump counters here to
        #: count retransmits, checksum drops, etc. even when record
        #: tracing is off; the span/report layers fill histograms.
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def bump(self, key: str, n: int = 1, **labels: Any) -> None:
        """Increment counter ``key`` by ``n`` (independent of
        ``enabled``), optionally labeled (e.g. ``rank=3``)."""
        self.metrics.counter(key, **labels).inc(n)

    def record(
        self,
        time: float,
        category: str,
        kind: str,
        rank: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append a record if tracing is enabled."""
        if not self.enabled:
            return
        self._records.append(
            TraceRecord(
                time=time,
                category=category,
                kind=kind,
                rank=rank,
                detail=detail,
                seq=self._seq,
            )
        )
        self._seq += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """All records in recording order."""
        return list(self._records)

    def filter(
        self,
        category: Optional[str] = None,
        kind: Optional[str] = None,
        rank: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Records matching all provided criteria."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if rank is not None and rec.rank != rank:
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        """Discard all records *and* reset every metric (counters,
        gauges, histograms), so a tracer reused across bench repetitions
        or chaos seeds never double-counts.  The record sequence counter
        stays monotonic across clears."""
        self._records.clear()
        self.metrics.reset()
