"""The shared-window route: co-located ranks access a shared window by
direct load/store through the node's cache model — no NIC, no
transport, no serializer (DESIGN §14).

A shared op applies at one simulated instant and owns no sequence
number: the origin holds nothing of it, completion calls have nothing to
wait for and flush watermarks are untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.datatypes.pack import pack
from repro.rma.layout import (
    apply_write,
    fragment_layout,
    read_layout,
    rmw_apply,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.rma.engine.core import RmaEngine

__all__ = ["SharedRoute"]


class SharedRoute:
    """First route of the table (see :data:`RmaEngine.routes`)."""

    name = "shared"
    remote = False
    waits = True

    def __init__(self, engine: "RmaEngine") -> None:
        self.eng = engine

    def _fenced(self) -> bool:
        """False only under the planted ``shm_skip_fence`` conformance
        bug, which skips both halves of the fence below: standing aside
        for ordered remote traffic, and flushing arrived op-train
        elements before touching the target's memory."""
        return "shm_skip_fence" not in self.eng.conformance_mutations

    def declines(self, op) -> Optional[str]:
        eng = self.eng
        tmem = op.tmem
        if tmem is None or not (tmem.shared or eng.shared_default):
            # not exposed shared (``shared_default`` force-enables the
            # flavor for every exposure); an RMI addresses no window
            return "window-not-shared"
        if not (tmem.coherent and eng.mem.coherent):
            # a non-coherent personality (NEC SX style) cannot observe a
            # peer core's stores without the fence protocol the remote
            # path already models
            return "node-noncoherent"
        node_of = eng.machine.node_of_rank
        if node_of(eng.rank) != node_of(op.dst):
            return "off-node"
        if (op.dst in eng._last_seq
                and (op.ordering or eng._order_barrier.get(op.dst))
                and self._fenced()):
            # the ordering attribute (or a standing ``rma_order``
            # barrier) covers earlier *sequenced* remote ops; a shared
            # op owns no sequence number, so the remote path's barrier
            # machinery must provide the guarantee
            return "ordered-behind-remote"
        return None

    def _charge(self, op) -> float:
        """Pure CPU work: one copy (two from a non-contiguous origin),
        the accumulate ALU charge, or one CPU atomic instruction."""
        t = self.eng.timings
        n = op.nbytes
        if op.kind == "rmw":
            return t.call_overhead + t.lock_op
        if op.kind == "getacc":
            return t.call_overhead + n * (t.mem_copy_per_byte
                                          + t.accumulate_per_byte)
        cost = t.call_overhead + n * t.mem_copy_per_byte
        if op.is_write:
            if not op.origin[3].is_contiguous:
                cost += n * t.mem_copy_per_byte
            if op.acc is not None:
                cost += n * t.accumulate_per_byte
        return cost

    def issue(self, op):
        eng = self.eng
        sim = eng.sim
        tmem = op.tmem
        kind = op.kind
        issued = sim.now
        yield self._charge(op)
        if op.nbytes == 0:
            return eng._finished(op)
        tgt = eng.world.contexts[op.dst].rma.engine
        if op.has_payload:
            alloc, offset, count, dtype = op.origin
            wire = pack(eng.mem.space.buffer(alloc), offset, dtype, count,
                        copy=False)
        if self._fenced():
            # A train element whose closed-form arrival has passed *is*
            # already in the target's memory on the per-packet timeline;
            # loading/storing around it would read the past.
            tgt.materialize_inbound()
        alloc = tgt._resolve(tmem.mem_id)
        swap = eng.mem.space.endianness != tmem.endianness
        value = None
        if kind == "rmw":
            value = rmw_apply(tgt.mem, alloc, op.disp, *op.call)
        else:
            if not op.is_write:
                seen = read_layout(tgt.mem, alloc, op.disp, op.dtype,
                                   op.count)
            if op.has_payload:
                dense = kind == "put" and not swap and op.dtype.is_contiguous
                apply_write(
                    tgt.mem, alloc, op.disp,
                    None if dense else fragment_layout(op.dtype, op.count,
                                                       wire, op.nbytes),
                    swap, op.acc, wire,
                )
            if op.is_write:
                seen = wire
            else:
                eng._land(seen, op.origin, swap)
            eng.stats["shm_bytes"] += op.nbytes
        eng.stats["shm_ops"] += 1
        if op.is_write and op.notify is not None:
            # Direct store: application just happened, so delivering the
            # notification now is trivially "after apply".  Shared ops
            # own no op_key (they cannot be retransmitted), so no dedup
            # entry is needed.
            tgt.board.deliver(eng.rank, tmem.mem_id, op.notify,
                              issued=issued)
        if eng.tracer.enabled:
            if kind != "rmw" and op.nbytes <= 16:
                eng.tracer.record(
                    sim.now, "consistency",
                    "write" if op.is_write else "read", rank=eng.rank,
                    location=(op.dst, tmem.mem_id, op.disp),
                    value=tuple(seen.tolist()),
                )
            eng.tracer.record(sim.now, "rma", f"{kind}_shm", rank=eng.rank,
                              dst=op.dst, bytes=op.nbytes)
        if kind == "get" and op.notify is not None:
            # For a get the "payload" is the read itself: it was just
            # served from the target's memory, so the target's board
            # learns of it now.
            tgt.board.deliver(eng.rank, tmem.mem_id, op.notify,
                              issued=issued)
        return eng._finished(op, value)
