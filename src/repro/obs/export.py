"""Exporters: Chrome trace-event JSON (Perfetto-loadable).

:func:`chrome_trace` converts trace records + reconstructed spans into
the Chrome trace-event format (the JSON array flavour wrapped in a
``{"traceEvents": [...]}`` object), which https://ui.perfetto.dev and
``chrome://tracing`` both load directly.  Simulated time is already in
microseconds — the native unit of the format — so timestamps go through
unchanged.

Layout: one *process* per rank, one *thread* lane per operation (spans
of one op nest on its lane; phases are complete events).  Records that
belong to no span (faults, transport retransmissions, ...) become
instant events on the recording rank's lane 0.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.spans import OpSpan, build_spans

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Record kinds already represented by span phase slices; their raw
#: records would only duplicate the slices as instants.
_SPAN_KINDS = frozenset(
    {"inject", "deliver", "applied", "ack", "complete"}
)


def _span_events(spans: Iterable[OpSpan]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    lanes: Dict[int, List[int]] = {}
    for span in spans:
        pid = span.origin if span.origin is not None else -1
        tid = span.op[1]
        lanes.setdefault(pid, []).append(tid)
        common = {
            "pid": pid,
            "tid": tid,
            "cat": "rma",
        }
        events.append({
            "name": f"{span.kind} {span.nbytes}B -> {span.target}",
            "ph": "X",
            "ts": span.start,
            "dur": span.total,
            "args": {"op": list(span.op), "bytes": span.nbytes,
                     "target": span.target,
                     "phases": {k: v for k, v in span.phases.items()}},
            **common,
        })
        prev = span.start
        for time, label, kind in span.events:
            if label != "issue" and time > prev:
                events.append({
                    "name": label,
                    "ph": "X",
                    "ts": prev,
                    "dur": time - prev,
                    "args": {"milestone": kind},
                    **common,
                })
            prev = time
    for pid, tids in lanes.items():
        for tid in sorted(set(tids)):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"op {tid}"},
            })
    return events


def _instant_events(records: Iterable) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for rec in records:
        if rec.kind in _SPAN_KINDS and rec.detail.get("op") is not None:
            continue  # already a phase slice on the op's lane
        rank = rec.rank if rec.rank is not None else -1
        args = {k: v for k, v in sorted(rec.detail.items())
                if isinstance(v, (int, float, str, bool, type(None)))}
        events.append({
            "name": f"{rec.category}.{rec.kind}",
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": rec.time,
            "pid": rank,
            "tid": 0,
            "cat": rec.category,
            "args": args,
        })
    return events


def chrome_trace(
    records: Optional[Iterable] = None,
    spans: Optional[List[OpSpan]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace-event document.

    Pass a tracer (or any record iterable) and/or pre-built spans; with
    only ``records`` given, spans are reconstructed here.  The result is
    a plain dict ready for :func:`json.dump`.
    """
    record_list = list(records) if records is not None else []
    if spans is None:
        spans = build_spans(record_list)
    events: List[Dict[str, Any]] = []
    ranks = sorted(
        {s.origin for s in spans if s.origin is not None}
        | {r.rank for r in record_list if r.rank is not None}
    )
    for rank in ranks:
        events.append({
            "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
            "args": {"name": f"rank {rank}"},
        })
    events.extend(_span_events(spans))
    events.extend(_instant_events(record_list))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "time_unit": "us"},
    }


def write_chrome_trace(
    path: str,
    records: Optional[Iterable] = None,
    spans: Optional[List[OpSpan]] = None,
) -> Dict[str, Any]:
    """Write :func:`chrome_trace` output to ``path``; returns the doc."""
    doc = chrome_trace(records=records, spans=spans)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
