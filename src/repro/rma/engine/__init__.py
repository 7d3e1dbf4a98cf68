"""The strawman RMA protocol engine, one :class:`RmaEngine` per rank.

=========  ==========================================================
module     holds
=========  ==========================================================
core       the per-peer tables, the one issue pipeline (``_issue``)
           over the route table shared → train → packet, the packet
           route, completion / ordering, origin-side message bodies
shared     the shared-window route (co-located load/store)
target     inbound ops, ordering gates, applied watermark, flushes
board      the notification board (``engine.board``)
failure    fail-fast, the error constructor, path-failure sweeps
=========  ==========================================================

The op-train route lives beside its data structure in
:mod:`repro.rma.train`.
"""

from repro.rma.engine.core import OpRecord, RmaEngine, build_rma

__all__ = ["RmaEngine", "OpRecord", "build_rma"]
