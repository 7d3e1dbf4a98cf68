"""Target side of the RMA engine: inbound operations, ordering gates,
the applied watermark and flush answering.

Every inbound op that came as messages is an :class:`_InboundOp` keyed
by its origin and per-origin sequence number; whether a message came
lean or as a packet, its effect here is the same call.  An op whose
*barrier* (the highest sequence number that must be applied before it)
is not yet covered by the origin's applied watermark waits in
``_gated``; :meth:`TargetSide._applied` — the tail every applied write
passes through, message or train element — rolls the watermark,
delivers the op's notification, drains the gate and answers watermark
flushes.  The per-origin tables live on the engine
(``RmaEngine.__init__``).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.mpi.endpoint import payload_nbytes
from repro.rma.layout import apply_write, read_layout, rmw_apply
from repro.rma.target_mem import RmaError

__all__ = ["TargetSide"]

#: Inbound kinds that arrive as one request message (and answer with a
#: reply); the rest arrive as ``rma.frag`` payload fragments.
_REQUESTS = ("get", "rmw", "rmi")


class _InboundOp:
    """Target-side record of one in-flight inbound operation."""

    __slots__ = (
        "desc",
        "seq",
        "barrier",
        "src",
        "parts",
        "nfrags",
        "arrived",
        "applied_frags",
        "gate_open",
        "staged",
        "wire",
    )

    def __init__(self, desc: Dict[str, Any]) -> None:
        self.desc = desc
        self.seq: int = desc["seq"]
        self.barrier: int = desc["barrier"]
        self.src: int = desc["src"]
        self.nfrags: int = desc.get("nfrags", 1)
        #: What arrived and waits — for its gate, or for the rest of a
        #: serializer-staged write: the parts of each arrival
        #: (``TargetSide._write``).
        self.parts: List[Any] = []
        self.arrived = 0
        self.applied_frags = 0
        self.gate_open = False
        self.staged = False  # atomic op already handed to the serializer
        #: A write's packed payload.
        self.wire = None


class TargetSide:
    """The target half of :class:`~repro.rma.engine.core.RmaEngine`."""

    def _barrier_ok(self, src: int, barrier: int) -> bool:
        return self._applied_upto.get(src, 0) >= barrier

    def _mark_applied(self, src: int, seq: int) -> None:
        """Roll ``src``'s applied watermark over ``seq`` (ops may apply
        out of sequence order; the watermark is the contiguous
        prefix)."""
        extra = self._applied_extra.get(src)
        if seq == self._applied_upto.get(src, 0) + 1:
            if extra:
                while seq + 1 in extra:
                    seq += 1
                    extra.discard(seq)
                if not extra:
                    del self._applied_extra[src]
            self._applied_upto[src] = seq
        else:
            self._applied_extra.setdefault(src, set()).add(seq)

    def _admit(self, src: int, desc: Dict[str, Any]) -> _InboundOp:
        """Record an op that came as messages, on its first one."""
        op = self._inbound[src, desc["seq"]] = _InboundOp(desc)
        return op

    def _gate(self, src: int, op: _InboundOp) -> None:
        """Hold ``op`` until the watermark covers its barrier."""
        self._gated.setdefault(src, []).append(op)

    def materialize_inbound(self) -> None:
        """Apply analytically-arrived train elements destined to this
        rank.  Message deliveries materialize automatically, but target
        memory is also read/written from serializer-deferred jobs
        (atomic gets, getacc, locked rmw) and from local CPU loads —
        any such access must first apply whatever the per-op path would
        already have delivered by now."""
        fabric = self.nic.fabric
        if self.rank in fabric._pending_trains:
            fabric.materialize_trains(self.rank)

    def _notify_early(self, desc: Dict[str, Any]) -> None:
        """Planted conformance bug ``notify_before_apply``: deliver the
        notification at first-fragment *arrival* instead of at apply.
        Observable whenever arrival != application — ordering-gated ops
        on unordered fabrics, serializer-staged atomics — because a
        waiter woken early reads memory the payload has not reached yet.
        The op_key dedup entry then silences the correct delivery in
        :meth:`_op_applied`, so counts stay exactly-once (the bug is a
        pure reordering, which is what the oracle's visibility edge
        catches)."""
        if ("notify_before_apply" in self.conformance_mutations
                and desc.get("notify") is not None):
            self.board.deliver(desc["src"], desc["mem_id"], desc["notify"],
                               desc["op_key"], desc["notify_ts"])

    # ------------------------------------------------------------------
    # Payload-carrying ops: put / accumulate / get-accumulate fragments
    # ------------------------------------------------------------------
    def _write(self, src: int, desc: Dict[str, Any], wire, parts) -> None:
        """Fragments of a write (put / accumulate / get-accumulate) from
        ``src`` arrive: the delivered call of its ``rma.frag`` message
        (``Nic.post_frags``).  ``wire`` is the packed payload; ``parts``
        what arrived — a list of :class:`~repro.rma.layout.Fragment`,
        or for a dense write a ``range`` of its fragments' byte offsets
        in ``wire`` (step: the fragment size).  The first arrival admits
        the op, gated or not; a serializer-staged op is handed to its
        job once complete, an open one applies what arrived, a gated one
        keeps it."""
        inbound = self._inbound
        op = inbound.get((src, desc["seq"])) if inbound else None
        if op is None:
            op = self._admit(src, desc)
            op.wire = wire
            if not self._barrier_ok(src, op.barrier):
                self.stats["gated_frags"] += 1
                self._gate(src, op)
            else:
                op.gate_open = not desc["via_job"]
            self._notify_early(desc)
        op.arrived += len(parts)
        if desc["via_job"]:
            op.parts.append(parts)
            if op.arrived == op.nfrags and self._barrier_ok(src, op.barrier):
                self._stage_atomic(op)
        elif op.gate_open:
            self._apply_parts(op, parts)
        else:
            op.parts.append(parts)

    def _deposit(self, op: _InboundOp, alloc, parts) -> None:
        """Write ``parts`` (as in :meth:`_write`) of ``op`` into
        ``alloc``: a dense write's in one deposit, fragments one by
        one."""
        desc = op.desc
        if type(parts) is range:
            lo = parts.start
            self.mem.nic_write(alloc, desc["base_disp"] + lo,
                               op.wire[lo:lo + len(parts) * parts.step])
        else:
            apply_write(self.mem, alloc, desc["base_disp"], parts,
                        desc["swap"], desc["acc"])

    def _apply_parts(self, op: _InboundOp, parts) -> None:
        """Apply what arrived of an ungated non-atomic write (``parts``
        as in :meth:`_write`)."""
        self._deposit(op, self._resolve(op.desc["mem_id"]), parts)
        op.applied_frags += len(parts)
        if op.applied_frags < op.nfrags:
            return
        if self.mem.coherent:
            self._op_applied(op)
        else:
            # Non-coherent target: the target must be involved to make
            # the deposit visible (invalidate stale scalar-cache lines)
            # before the op may count as applied (paper §III-B2).
            self.sim.spawn(self._invalidate_then_apply(op),
                           name=f"inval-{self.rank}")

    def _invalidate_then_apply(self, op: _InboundOp):
        desc = op.desc
        yield self.timings.am_handler + self.timings.cache_fence
        self.mem.cache.invalidate_range(
            self._resolve(desc["mem_id"]), desc["base_disp"],
            desc["total_bytes"]
        )
        self._op_applied(op)

    def _stage_atomic(self, op: _InboundOp) -> None:
        """Hand a fully-arrived atomic write (or any get-accumulate: the
        old contents must be read before a single fragment applies) to
        the serializer as one job."""
        if op.staged:
            return
        op.staged = True
        desc = op.desc
        fetch = desc["kind"] == "getacc"

        def job():
            nbytes = desc["total_bytes"]
            cost = nbytes * self.timings.mem_copy_per_byte
            if desc["acc"] is not None:
                cost += nbytes * self.timings.accumulate_per_byte
            yield cost
            self.materialize_inbound()
            alloc = self._resolve(desc["mem_id"])
            if fetch:
                old = read_layout(self.mem, alloc, desc["base_disp"],
                                  desc["dtype"], desc["count"])
            for parts in op.parts:
                self._deposit(op, alloc, parts)
            if not self.mem.coherent:
                # (a get-accumulate has never charged the fence wait;
                # its timestamps are pinned as they are)
                if not fetch:
                    yield self.timings.cache_fence
                self.mem.cache.invalidate_range(alloc, desc["base_disp"],
                                                nbytes)
            self._op_applied(op)
            if fetch:
                self._send_get_reply(desc["src"], desc["op_key"], old)

        self.serializer.submit_job(job)

    # ------------------------------------------------------------------
    # Request-style ops: get / rmw / rmi
    # ------------------------------------------------------------------
    def _request(self, src: int, desc: Dict[str, Any]) -> None:
        """``get_req`` / ``rmw_req`` / ``rmi_req`` from ``src``: serve
        the op described by ``desc`` now, or hold it until the applied
        watermark covers its barrier."""
        op = self._admit(src, desc)
        self._notify_early(desc)
        if self._barrier_ok(src, op.barrier):
            self._serve(op)
        else:
            self._gate(src, op)

    def _serve(self, op: _InboundOp) -> None:
        """Execute a request-style op: inline when the NIC can (plain
        get, hardware or lock-held rmw), else as a deferred job — on the
        serializer queue for atomic gets and serializer-routed rmws, and
        always off the NIC for an RMI handler."""
        desc = op.desc
        kind = desc["kind"]
        if kind != "rmi" and not desc["via_job"]:
            self._execute(op)
            return
        if kind == "get":
            delay = desc["total_bytes"] * self.timings.mem_copy_per_byte
        else:
            delay = (self.timings.lock_op if kind == "rmw"
                     else self.timings.am_handler)

        def job():
            yield delay
            self._execute(op)

        if kind == "rmi" and not (self.machine.threads_allowed
                                  and self.serializer.kind == "thread"):
            self.sim.spawn(job(), name=f"rmi-{self.rank}")
        else:
            self.serializer.submit_job(job)

    def _execute(self, op: _InboundOp) -> None:
        self.materialize_inbound()
        desc = op.desc
        kind = desc["kind"]
        if kind == "get":
            data = read_layout(self.mem, self._resolve(desc["mem_id"]),
                               desc["base_disp"], desc["dtype"],
                               desc["count"])
            self._op_applied(op)
            self._send_get_reply(desc["src"], desc["op_key"], data)
            return
        if kind == "rmw":
            value = rmw_apply(self.mem, self._resolve(desc["mem_id"]),
                              desc["base_disp"], *desc["call"])
            nbytes = desc["total_bytes"]
        else:
            name, args = desc["call"]
            fn = self._rmi_handlers.get(name)
            if fn is None:
                # The origin's mistake, answered rather than raised: this
                # rank keeps serving, and the origin's request raises the
                # error or returns it, as its error handler says.  A
                # status, not a payload: the reply carries no data bytes.
                value = RmaError(
                    f"rank {self.rank}: no RMI handler named {name!r}",
                    op="rmi", src=desc["src"], target=self.rank)
                nbytes = 0
            else:
                value = fn(*args)
                nbytes = payload_nbytes(value)
        self._op_applied(op)
        self.signal(desc["src"], "rma.reply", desc["op_key"], value,
                    data_bytes=nbytes, op=desc["op_key"])

    def _send_get_reply(self, src: int, op_key, data: np.ndarray) -> None:
        """Send the fetched bytes back into :meth:`_get_reply`: one
        ``rma.get_reply`` message in MTU chunks (``Nic.post_frags``),
        counted ``control.route{kind=reply}``."""
        nic = self.nic
        self.world.nexus.route(nic, "control.route", "reply")
        mtu = self.network.mtu
        total = data.size
        parts = range(0, total, mtu)
        nic.post_frags(src, "rma.get_reply",
                       self.world.contexts[src].rma.engine._get_reply,
                       (self.rank, op_key, data, total), parts,
                       [min(mtu, total - off) for off in parts], data, op_key)

    # ------------------------------------------------------------------
    # Applied-watermark bookkeeping
    # ------------------------------------------------------------------
    def _op_applied(self, op: _InboundOp) -> None:
        desc = op.desc
        src = op.src
        self._inbound.pop((src, op.seq), None)
        if desc.get("ack") == "sw":
            self.signal(src, "rma.ack", desc["op_key"], op=desc["op_key"])
        m = desc.get("notify")
        self._applied(src, op.seq, desc.get("mem_id"),
                      None if m is None
                      else (m, desc["op_key"], desc["notify_ts"]),
                      desc["kind"], desc.get("op_key"))

    def _applied(self, src: int, seq: int, mem_id, notify, kind=None,
                 op_key=None, at=None) -> None:
        """The one tail of target-side application — watermark roll →
        notification → gated drain → flush answers — reached by both
        appliers: :meth:`_op_applied` for an op that came as packets,
        :meth:`OpTrain.apply <repro.rma.train.OpTrain.apply>` for a
        train element.  ``notify`` is the op's ``(match, op_key,
        issued)`` or None; ``kind`` and ``op_key`` label the trace
        record, ``at`` is its time when the write applied before now (a
        train element materializes at or after its apply time)."""
        self._mark_applied(src, seq)
        if notify is not None:
            # THE delivery point: the payload is applied (watermark just
            # advanced), so the notification may now surface.  Idempotent
            # via the op_key — if the planted ``notify_before_apply``
            # mutation already delivered at arrival, this is a no-op.
            self.board.deliver(src, mem_id, *notify)
        if self.tracer.enabled:
            self.tracer.record(self.sim.now if at is None else at, "rma",
                               "applied", rank=self.rank, src=src, seq=seq,
                               kind_=kind, op=op_key)
        if src in self._gated:
            self._drain_gated(src)
        if src in self._flush_requests:
            self._answer_flushes(src)

    def _drain_gated(self, src: int) -> None:
        if src in self._draining:
            return  # the outer drain loop will re-scan after each release
        self._draining.add(src)
        try:
            while gated := self._gated.get(src):
                gated.sort(key=lambda o: o.seq)
                for i, op in enumerate(gated):
                    if self._barrier_ok(src, op.barrier):
                        del gated[i]
                        if not gated:
                            del self._gated[src]
                        self._release_gated_op(op)
                        break
                else:
                    break
        finally:
            self._draining.discard(src)

    def _release_gated_op(self, op: _InboundOp) -> None:
        if op.desc["kind"] in _REQUESTS:
            self._serve(op)
        elif op.desc["via_job"]:
            if op.arrived == op.nfrags:
                self._stage_atomic(op)
            # else: staged when the last fragment arrives (_write
            # re-checks the barrier, which is now satisfied)
        else:
            op.gate_open = True
            buffered, op.parts = op.parts, []
            for parts in buffered:
                self._apply_parts(op, parts)

    def _answer_flushes(self, src: int) -> None:
        upto = self._applied_upto.get(src, 0)
        waiting = self._flush_requests[src]
        ready = [w for w in waiting if w[0] <= upto]
        if not ready:
            return
        rest = [w for w in waiting if w[0] > upto]
        if rest:
            self._flush_requests[src] = rest
        else:
            del self._flush_requests[src]
        for _watermark, flush_id in ready:
            self.signal(src, "rma.flush_ack", flush_id)

    def _flush_req(self, src: int, watermark: int, flush_id: int) -> None:
        """``flush_req`` from ``src``: answer once everything it sent up
        to ``watermark`` has applied — now, or from
        :meth:`_answer_flushes` when the watermark gets there."""
        if self._applied_upto.get(src, 0) >= watermark:
            self.signal(src, "rma.flush_ack", flush_id)
        else:
            self._flush_requests.setdefault(src, []).append(
                (watermark, flush_id))
