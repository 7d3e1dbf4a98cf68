"""Target side of the RMA engine: inbound operations, ordering gates,
the applied watermark and flush answering.

Every inbound op is an :class:`_InboundOp` keyed by its per-origin
sequence number.  An op whose *barrier* (the highest sequence number
that must be applied before it) is not yet covered by the peer's
applied watermark waits in ``peer.gated``; :meth:`TargetSide._applied`
— the tail every applied write passes through, packet or train element —
rolls the watermark, delivers the op's notification, drains the gate
and answers watermark flushes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.endpoint import payload_nbytes
from repro.network.fabric import ack_lands
from repro.network.packet import Packet
from repro.rma.layout import Fragment, apply_write, read_layout, rmw_apply
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
        "frags",
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
        self.frags: List[Fragment] = []
        self.arrived = 0
        self.applied_frags = 0
        self.gate_open = False
        self.staged = False  # atomic op already handed to the serializer
        #: The whole payload of a dense write (``frags`` stays empty).
        self.wire = None


class _TargetPeer:
    """Target-side per-origin state.  An all-to-all makes O(P²) of
    these, so the containers are allocated by the first op that needs
    one — an out-of-order apply, a packet-borne op, a gated op, a
    waiting flush; a pair that only ever carried train elements owns
    the watermark and nothing else."""

    __slots__ = ("applied_upto", "applied_extra", "inbound", "gated",
                 "flush_waiters", "draining")

    def __init__(self) -> None:
        self.applied_upto = 0
        #: Sequence numbers applied ahead of the watermark.
        self.applied_extra: Optional[set] = None
        #: Packet-borne ops in flight, by sequence number.
        self.inbound: Optional[Dict[int, _InboundOp]] = None
        self.gated: Sequence[_InboundOp] = ()
        #: (watermark, flush_id, origin_rank) triples awaiting the watermark.
        self.flush_waiters: Sequence[Tuple[int, int, int]] = ()
        #: Reentrancy guard for gate draining (applying a gated op can
        #: recursively mark further ops applied).
        self.draining = False

    def barrier_ok(self, barrier: int) -> bool:
        return self.applied_upto >= barrier

    def mark_applied(self, seq: int) -> None:
        """Roll the applied watermark over ``seq`` (ops may apply out of
        sequence order; the watermark is the contiguous prefix)."""
        extra = self.applied_extra
        if seq == self.applied_upto + 1:
            self.applied_upto = seq
            if extra:
                while self.applied_upto + 1 in extra:
                    extra.discard(self.applied_upto + 1)
                    self.applied_upto += 1
        elif extra is None:
            self.applied_extra = {seq}
        else:
            extra.add(seq)

    def admit(self, desc: Dict[str, Any]) -> _InboundOp:
        """Record a packet-borne op on its first packet."""
        if self.inbound is None:
            self.inbound = {}
        op = self.inbound[desc["seq"]] = _InboundOp(desc)
        return op

    def gate(self, op: _InboundOp) -> None:
        """Hold ``op`` until the watermark covers its barrier."""
        if not self.gated:
            self.gated = []
        self.gated.append(op)


class TargetSide:
    """The target half of :class:`~repro.rma.engine.core.RmaEngine`."""

    def _target_peer(self, src: int) -> _TargetPeer:
        peer = self._target_peers.get(src)
        if peer is None:
            peer = self._target_peers[src] = _TargetPeer()
        return peer

    def materialize_inbound(self) -> None:
        """Apply analytically-arrived train elements destined to this
        rank.  Packet deliveries materialize automatically, but target
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
    def _on_frag(self, packet: Packet) -> None:
        """Packet form of a write: one fragment arrives."""
        payload = packet.payload
        self._write(packet.src, payload["desc"], (payload["frag"],), None)

    def _write(self, src: int, desc: Dict[str, Any], frags, wire,
               ack=None) -> None:
        """A write (put / accumulate / get-accumulate) from ``src``
        arrives, in part or whole — THE target body of both its forms: a
        packet per fragment (:meth:`_on_frag`), or a lean message
        (``PacketRoute._post``).  ``frags`` is what arrived: a sequence
        of :class:`Fragment`, or — a dense write, never cut — how many
        of its fragments, its payload being ``wire`` whole.  The first
        arrival admits the op, gated or not; a serializer-staged op is
        handed to its job once complete, an open one applies what
        arrived, a gated one buffers it.  ``ack``: the hardware ack a
        posted fragment sends back once it ran (a packet's is the
        fabric's, :meth:`Fabric._deliver
        <repro.network.fabric.Fabric._deliver>`)."""
        peer = self._target_peer(src)
        op = peer.inbound.get(desc["seq"]) if peer.inbound else None
        if op is None:
            op = peer.admit(desc)
            if not peer.barrier_ok(op.barrier):
                self.stats["gated_frags"] += 1
                peer.gate(op)
            else:
                op.gate_open = not desc["via_job"]
            self._notify_early(desc)
        if type(frags) is int:
            op.arrived += frags
            op.wire = wire
        else:
            op.arrived += len(frags)
        if desc["via_job"]:
            if op.wire is None:
                op.frags.extend(frags)
            if op.arrived == op.nfrags and peer.barrier_ok(op.barrier):
                self._stage_atomic(peer, op)
        elif op.gate_open:
            self._apply_frags(peer, op, frags)
        elif op.wire is None:
            op.frags.extend(frags)
        if ack is not None:
            self.nic.fabric.hardware_ack(src, self.rank, ack_lands, ack)

    def _apply_frags(self, peer: _TargetPeer, op: _InboundOp, frags) -> None:
        """Apply what arrived of an ungated non-atomic write (``frags``
        as in :meth:`_write`)."""
        desc = op.desc
        dense = type(frags) is int
        apply_write(self.mem, self._resolve(desc["mem_id"]),
                    desc["base_disp"], None if dense else frags,
                    desc["swap"], desc["acc"], op.wire)
        op.applied_frags += frags if dense else len(frags)
        if op.applied_frags < op.nfrags:
            return
        if self.mem.coherent:
            self._op_applied(peer, op)
        else:
            # Non-coherent target: the target must be involved to make
            # the deposit visible (invalidate stale scalar-cache lines)
            # before the op may count as applied (paper §III-B2).
            self.sim.spawn(self._invalidate_then_apply(peer, op),
                           name=f"inval-{self.rank}")

    def _invalidate_then_apply(self, peer: _TargetPeer, op: _InboundOp):
        desc = op.desc
        yield self.sim.timeout(
            self.timings.am_handler + self.timings.cache_fence
        )
        self.mem.cache.invalidate_range(
            self._resolve(desc["mem_id"]), desc["base_disp"],
            desc["total_bytes"]
        )
        self._op_applied(peer, op)

    def _stage_atomic(self, peer: _TargetPeer, op: _InboundOp) -> None:
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
            yield self.sim.timeout(cost)
            self.materialize_inbound()
            alloc = self._resolve(desc["mem_id"])
            if fetch:
                old = read_layout(self.mem, alloc, desc["base_disp"],
                                  desc["dtype"], desc["count"])
            apply_write(self.mem, alloc, desc["base_disp"],
                        None if op.wire is not None else op.frags,
                        desc["swap"], desc["acc"], op.wire)
            if not self.mem.coherent:
                # (a get-accumulate has never charged the fence wait;
                # its timestamps are pinned as they are)
                if not fetch:
                    yield self.sim.timeout(self.timings.cache_fence)
                self.mem.cache.invalidate_range(alloc, desc["base_disp"],
                                                nbytes)
            self._op_applied(peer, op)
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
        peer = self._target_peer(src)
        op = peer.admit(desc)
        self._notify_early(desc)
        if peer.barrier_ok(op.barrier):
            self._serve(peer, op)
        else:
            peer.gate(op)

    def _serve(self, peer: _TargetPeer, op: _InboundOp) -> None:
        """Execute a request-style op: inline when the NIC can (plain
        get, hardware or lock-held rmw), else as a deferred job — on the
        serializer queue for atomic gets and serializer-routed rmws, and
        always off the NIC for an RMI handler."""
        desc = op.desc
        kind = desc["kind"]
        if kind != "rmi" and not desc["via_job"]:
            self._execute(peer, op)
            return
        if kind == "get":
            delay = desc["total_bytes"] * self.timings.mem_copy_per_byte
        else:
            delay = (self.timings.lock_op if kind == "rmw"
                     else self.timings.am_handler)

        def job():
            yield self.sim.timeout(delay)
            self._execute(peer, op)

        if kind == "rmi" and not (self.machine.threads_allowed
                                  and self.serializer.kind == "thread"):
            self.sim.spawn(job(), name=f"rmi-{self.rank}")
        else:
            self.serializer.submit_job(job)

    def _execute(self, peer: _TargetPeer, op: _InboundOp) -> None:
        self.materialize_inbound()
        desc = op.desc
        kind = desc["kind"]
        if kind == "get":
            data = read_layout(self.mem, self._resolve(desc["mem_id"]),
                               desc["base_disp"], desc["dtype"],
                               desc["count"])
            self._op_applied(peer, op)
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
                raise RmaError(
                    f"rank {self.rank}: no RMI handler named {name!r}"
                )
            value = fn(*args)
            nbytes = payload_nbytes(value)
        self._op_applied(peer, op)
        self.signal(desc["src"], "rma.reply", desc["op_key"], value,
                    data_bytes=nbytes)

    def _send_get_reply(self, src: int, op_key, data: np.ndarray) -> None:
        """Send the fetched bytes back: one message when they fit the
        MTU; else MTU fragments — packets, or one lean message into
        :meth:`_get_reply` shaped as a write's payload
        (``PacketRoute._post``), counted ``control.route{kind=reply}``."""
        mtu = self.network.mtu
        total = data.size
        if total <= mtu:
            self.signal(src, "rma.get_reply", op_key, 0, data, total,
                        data_bytes=total)
            return
        offsets = range(0, total, mtu)
        nic = self.nic
        lean = self.world.nexus.route(nic, "control.route", "reply") is None
        body = self.world.contexts[src].rma.engine._get_reply
        if lean and nic.flat_ordered(src):
            nic.post_frags(src, body, (self.rank, op_key, 0, data, total),
                           [min(mtu, total - off) for off in offsets])
            return
        for off in offsets:
            chunk = data[off:off + mtu]
            if lean:
                nic.post(src, body, (self.rank, op_key, off, chunk, total),
                         len(chunk))
            else:
                self.send_control(src, "rma.get_reply",
                                  {"op_key": op_key, "wire_off": off,
                                   "data": chunk, "total": total},
                                  data_bytes=len(chunk))

    # ------------------------------------------------------------------
    # Applied-watermark bookkeeping
    # ------------------------------------------------------------------
    def _op_applied(self, peer: _TargetPeer, op: _InboundOp) -> None:
        desc = op.desc
        if peer.inbound:
            peer.inbound.pop(op.seq, None)
        if desc.get("ack") == "sw":
            self.signal(desc["src"], "rma.ack", desc["op_key"])
        m = desc.get("notify")
        self._applied(peer, desc["src"], op.seq, desc.get("mem_id"),
                      None if m is None
                      else (m, desc["op_key"], desc["notify_ts"]),
                      desc["kind"], desc.get("op_key"))

    def _applied(self, peer: _TargetPeer, src: int, seq: int, mem_id,
                 notify, kind=None, op_key=None) -> None:
        """The one tail of target-side application — watermark roll →
        notification → gated drain → flush answers — reached by both
        appliers: :meth:`_op_applied` for an op that came as packets,
        :meth:`OpTrain.apply <repro.rma.train.OpTrain.apply>` for a
        train element.  ``notify`` is the op's ``(match, op_key,
        issued)`` or None; ``kind`` and ``op_key`` label the trace
        record (train elements only form untraced)."""
        peer.mark_applied(seq)
        if notify is not None:
            # THE delivery point: the payload is applied (watermark just
            # advanced), so the notification may now surface.  Idempotent
            # via the op_key — if the planted ``notify_before_apply``
            # mutation already delivered at arrival, this is a no-op.
            self.board.deliver(src, mem_id, *notify)
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "applied",
                               rank=self.rank, src=src, seq=seq,
                               kind_=kind, op=op_key)
        self._drain_gated(peer)
        self._answer_flushes(peer)

    def _drain_gated(self, peer: _TargetPeer) -> None:
        if not peer.gated:
            return
        if peer.draining:
            return  # the outer drain loop will re-scan after each release
        peer.draining = True
        try:
            progress = True
            while progress:
                progress = False
                peer.gated.sort(key=lambda o: o.seq)
                for i, op in enumerate(peer.gated):
                    if peer.barrier_ok(op.barrier):
                        peer.gated.pop(i)
                        self._release_gated_op(peer, op)
                        progress = True
                        break
        finally:
            peer.draining = False

    def _release_gated_op(self, peer: _TargetPeer, op: _InboundOp) -> None:
        if op.desc["kind"] in _REQUESTS:
            self._serve(peer, op)
        elif op.desc["via_job"]:
            if op.arrived == op.nfrags:
                self._stage_atomic(peer, op)
            # else: staged when the last fragment arrives (_write
            # re-checks the barrier, which is now satisfied)
        else:
            op.gate_open = True
            if op.wire is not None:
                self._apply_frags(peer, op, op.arrived)
            else:
                buffered, op.frags = op.frags, []
                self._apply_frags(peer, op, buffered)

    def _answer_flushes(self, peer: _TargetPeer) -> None:
        if not peer.flush_waiters:
            return
        ready = [w for w in peer.flush_waiters if w[0] <= peer.applied_upto]
        if not ready:
            return
        peer.flush_waiters = [
            w for w in peer.flush_waiters if w[0] > peer.applied_upto
        ]
        for _watermark, flush_id, src in ready:
            self.signal(src, "rma.flush_ack", flush_id)

    def _flush_req(self, src: int, watermark: int, flush_id: int) -> None:
        """``flush_req`` from ``src``: answer once everything it sent up
        to ``watermark`` has applied — now, or from
        :meth:`_answer_flushes` when the watermark gets there."""
        peer = self._target_peer(src)
        if peer.applied_upto >= watermark:
            self.signal(src, "rma.flush_ack", flush_id)
        elif peer.flush_waiters:
            peer.flush_waiters.append((watermark, flush_id, src))
        else:
            peer.flush_waiters = [(watermark, flush_id, src)]
