"""Reliable transport: sequencing, acks, retransmission, dedup.

One :class:`ReliableTransport` per :class:`~repro.network.nic.Nic`,
created only when the world is armed with an active
:class:`~repro.faults.plan.FaultPlan` — the fault-free fast path never
pays for any of this.

Protocol
--------
- Every message the NIC posts (except the transport's own acks) gets a
  per-(src, dst) flow sequence number and a CRC32 checksum over its
  bulk bytes (the post's ``data``: a fragment's own bytes, a p2p
  payload, a get-reply chunk; control messages checksum 0), kept with
  the post's arguments in one :class:`_TxEntry` that travels with every
  copy of the message in flight.
- The receiver verifies the checksum (a corruption fault mangles the
  entry's wire checksum; the mismatch is detected here and the message
  dropped), suppresses duplicates with a contiguous-watermark + stash
  scheme, and answers every survivor *and every duplicate* with a
  selective ``xport.ack`` control message (re-acking duplicates stops a
  sender whose previous ack was lost) — posted like every other
  message.
- The sender arms a retransmission timer at each injection; the timeout
  is the path's analytic round-trip estimate
  (:meth:`~repro.network.config.NetworkConfig.retransmit_timeout`)
  scaled by ``rto_scale`` with exponential ``backoff`` per attempt.
  An unacked message is launched again (``Nic.reserve`` + ``Nic.launch``)
  until the ``retry_budget`` is exhausted or the target is known dead —
  then the whole (src, dst) flow is declared broken: every outstanding
  message on it fails at once and registered path-failure callbacks
  (the RMA engine) fire.

Whole-flow failure is deliberate: a permanently lost sequence number
would otherwise gate the target's applied-watermark forever, hanging
every later flush and ordering barrier on the path.  Breaking the flow
converts a would-be hang into structured per-operation errors.

The transport ack doubles as a delivery confirmation: when the acked
message asked for a hardware ack and that ack was lost, the transport
completes the ack event itself (guarded against double triggering in
both directions).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import TransportParams
    from repro.network.nic import Nic
    from repro.sim.core import Simulator
    from repro.sim.events import Event

__all__ = ["ReliableTransport", "TransportFailure", "payload_checksum"]

#: Message kind of the transport's own selective acks (never themselves
#: sequenced or retransmitted; a lost ack is recovered by dedup+re-ack).
ACK_KIND = "xport.ack"


def payload_checksum(data) -> int:
    """CRC32 over a message's bulk bytes (0 for a control message)."""
    if data is None:
        return 0
    return zlib.crc32(data.tobytes())


@dataclass(frozen=True, slots=True)
class TransportFailure:
    """Terminal delivery failure of one flow, reported to upper layers.

    ``kind`` carries the structured classification the RMA error
    taxonomy uses (see :data:`repro.rma.target_mem.ERROR_KINDS`):
    ``rank_failed`` when the target is known dead, ``link_partition``
    when a routed fabric has lost every route to it, and
    ``retry_exhausted`` for a live-but-unreachable path.
    """

    src: int
    dst: int
    attempts: int
    sim_time: float
    reason: str  # "retry-budget-exhausted" | "target-dead" | "restart-reset"
    packet_kind: str
    seq: int
    kind: str = "retry_exhausted"

    def __str__(self) -> str:
        return (f"flow {self.src}->{self.dst} failed at t={self.sim_time:.3f}: "
                f"{self.reason} (message #{self.seq} {self.packet_kind!r} "
                f"after {self.attempts} attempt(s))")


class _TxEntry:
    """One sequenced message: the post's arguments (what a retransmit
    launches again), its flow sequence number and incarnation, its true
    checksum and the one on the wire (a corruption fault mangles the
    latter; every copy in flight carries this entry), and the sender's
    retransmission state."""

    __slots__ = ("dst", "kind", "fn", "args", "wire", "data", "op", "ack",
                 "seq", "epoch", "checksum", "wire_checksum", "attempts",
                 "timer_gen")

    def __init__(self, dst: int, kind: str, fn: Callable[..., None],
                 args: tuple, wire: int, data: Any, op: Any,
                 ack: "Event | None", seq: int, epoch: int) -> None:
        self.dst = dst
        self.kind = kind
        self.fn = fn
        self.args = args
        self.wire = wire
        self.data = data
        self.op = op
        self.ack = ack
        self.seq = seq
        self.epoch = epoch
        self.checksum = self.wire_checksum = payload_checksum(data)
        self.attempts = 0
        #: Bumped on every (re)arm/cancel; stale timer callbacks compare
        #: their captured generation and drop themselves (the kernel has
        #: no timer cancellation).
        self.timer_gen = 0


class ReliableTransport:
    """Per-NIC reliability layer (see module docstring)."""

    def __init__(self, sim: "Simulator", nic: "Nic",
                 params: "TransportParams") -> None:
        self.sim = sim
        self.nic = nic
        self.rank = nic.rank
        self.fabric = nic.fabric
        self.params = params
        # sender side
        self._tx_seq: Dict[int, int] = {}
        self._outstanding: Dict[Tuple[int, int], _TxEntry] = {}
        self._retx_by_dst: Dict[int, int] = {}
        self._broken: Set[int] = set()
        self._path_failure_cbs: List[Callable[[int, TransportFailure], None]] = []
        # receiver side
        self._rx_upto: Dict[int, int] = {}
        self._rx_extra: Dict[int, Set[int]] = {}
        # Per-peer flow incarnation.  Both ends of a pair bump it in
        # lockstep when a rank restarts (World._restart_rank resets the
        # restarted rank and every peer at the same instant), so a
        # sequenced message or selective ack stamped with an older epoch
        # is provably stale — from before the restart — and is dropped
        # instead of being mis-deduped against the fresh sequence space.
        self._flow_epoch: Dict[int, int] = {}
        self.stats: Dict[str, int] = {
            "sent": 0,
            "retransmits": 0,
            "acks_tx": 0,
            "acks_rx": 0,
            "dup_rx": 0,
            "csum_drops": 0,
            "failures": 0,
            "stale_drops": 0,
            "stale_acks": 0,
        }

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def add_path_failure_callback(
        self, fn: Callable[[int, TransportFailure], None]
    ) -> None:
        """Call ``fn(dst, failure)`` when a flow to ``dst`` breaks."""
        self._path_failure_cbs.append(fn)

    def prepare(self, dst: int, kind: str, fn: Callable[..., None],
                args: tuple, wire: int, data: Any = None, op: Any = None,
                ack: "Event | None" = None) -> "_TxEntry | None":
        """Sequence + checksum an outgoing message (from
        :meth:`Nic.post`); ``None`` for the transport's own acks."""
        if kind == ACK_KIND:
            return None
        seq = self._tx_seq.get(dst, 0) + 1
        self._tx_seq[dst] = seq
        entry = _TxEntry(dst, kind, fn, args, wire, data, op, ack, seq,
                         self._flow_epoch.get(dst, 0))
        self._outstanding[(dst, seq)] = entry
        self.stats["sent"] += 1
        return entry

    def launched(self, entry: _TxEntry) -> None:
        """Arm (or re-arm) the retransmission timer of the message
        ``entry`` names; called by ``Nic.launch`` after it left."""
        if self._outstanding.get((entry.dst, entry.seq)) is not entry:
            # acked, failed or reset while a retransmit sat in the
            # injection queue; after a reset the key may name a fresh
            # message that reuses the sequence number
            return
        entry.attempts += 1
        entry.timer_gen += 1
        cfg = self.fabric.config_for(self.rank, entry.dst)
        rto = min(
            cfg.retransmit_timeout(entry.wire)
            * self.params.rto_scale
            * (self.params.backoff ** (entry.attempts - 1)),
            self.params.rto_max,
        )
        self.sim.schedule_call(rto, self._on_timer, entry, entry.timer_gen)

    def _on_timer(self, entry: _TxEntry, gen: int) -> None:
        if entry.timer_gen != gen:
            return  # re-armed or cancelled since
        if self._outstanding.get((entry.dst, entry.seq)) is not entry:
            return  # acked or already failed
        if self.fabric.is_dead(entry.dst):
            self._fail_flow(entry, "target-dead")
            return
        if entry.attempts > self.params.retry_budget:
            self._fail_flow(entry, "retry-budget-exhausted")
            return
        self.stats["retransmits"] += 1
        self._retx_by_dst[entry.dst] = self._retx_by_dst.get(entry.dst, 0) + 1
        # Undo any in-flight corruption: the sender retransmits pristine
        # data with the true checksum.
        entry.wire_checksum = entry.checksum
        tracer = self.fabric.tracer
        tracer.bump("xport.retransmit", rank=self.rank, dst=entry.dst)
        if tracer.enabled:
            tracer.record(self.sim.now, "xport", "retransmit",
                          rank=self.rank, dst=entry.dst, seq=entry.seq,
                          attempt=entry.attempts, kind_=entry.kind)
        nic = self.nic
        t = nic.reserve(nic.config.serialization_time(entry.wire))
        self.sim.schedule_call_at(t, nic.launch, entry.dst, entry.kind,
                                  entry.fn, entry.args, entry.wire, None,
                                  entry.op, entry.ack, entry)

    def _on_ack(self, src: int, seq: int, epoch: int) -> None:
        """``xport.ack`` from ``src``: it accepted (or had already
        accepted) our message ``seq`` of flow incarnation ``epoch``."""
        self.stats["acks_rx"] += 1
        tracer = self.fabric.tracer
        if tracer.enabled:
            tracer.record(self.sim.now, "xport", "ack_rx",
                          rank=self.rank, src=src, seq=seq)
        if epoch != self._flow_epoch.get(src, 0):
            # A delayed pre-restart ack must not confirm a message of the
            # fresh sequence space that happens to reuse its number.
            self.stats["stale_acks"] += 1
            return
        entry = self._outstanding.pop((src, seq), None)
        if entry is None:
            return  # duplicate ack, or the flow already failed
        entry.timer_gen += 1  # cancel the pending timer
        # The transport ack confirms delivery; complete the hardware-ack
        # event if the NIC-generated ack was lost (or has not landed yet).
        ev = entry.ack
        if ev is not None and not ev.triggered:
            ev.succeed(self.sim.now)

    def _classify_failure(self, dst: int, reason: str) -> str:
        """Structured kind of a flow failure (RMA error taxonomy)."""
        if reason == "target-dead" or self.fabric.is_dead(dst):
            return "rank_failed"
        topo = getattr(self.fabric, "_topo", None)
        if topo is not None and topo.path_for(self.rank, dst) is None:
            return "link_partition"
        return "retry_exhausted"

    def _fail_flow(self, entry: _TxEntry, reason: str) -> None:
        dst = entry.dst
        failure = TransportFailure(
            src=self.rank, dst=dst, attempts=entry.attempts,
            sim_time=self.sim.now, reason=reason,
            packet_kind=entry.kind, seq=entry.seq,
            kind=self._classify_failure(dst, reason),
        )
        self._broken.add(dst)
        dead = [key for key in self._outstanding if key[0] == dst]
        self.stats["failures"] += len(dead)
        for key in dead:
            doomed = self._outstanding.pop(key)
            doomed.timer_gen += 1
        tracer = self.fabric.tracer
        tracer.bump("xport.flow_failure", rank=self.rank, dst=dst)
        if tracer.enabled:
            tracer.record(self.sim.now, "xport", "flow_failure",
                          rank=self.rank, dst=dst, reason=reason,
                          attempts=entry.attempts)
        for cb in self._path_failure_cbs:
            cb(dst, failure)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def rx_accept(self, src: int, entry: _TxEntry) -> bool:
        """Verify + dedup a sequenced message from ``src`` landing here;
        ``False`` means the NIC must not run it (corrupt or duplicate)."""
        seq = entry.seq
        if entry.wire_checksum != payload_checksum(entry.data):
            self.stats["csum_drops"] += 1
            tracer = self.fabric.tracer
            tracer.bump("xport.csum_drop", rank=self.rank, src=src)
            if tracer.enabled:
                tracer.record(self.sim.now, "xport", "csum_drop",
                              rank=self.rank, src=src, seq=seq)
            return False  # no ack: the sender will retransmit
        epoch = entry.epoch
        cur_epoch = self._flow_epoch.get(src, 0)
        if epoch != cur_epoch:
            if epoch < cur_epoch:
                # Stale pre-restart message that survived in flight: its
                # sequence number belongs to a dead numbering.  Dropping
                # it silently (no ack, no dedup-state update) is the
                # only safe move — acking would confirm a fresh-epoch
                # sequence number, stashing would corrupt the new flow.
                self.stats["stale_drops"] += 1
                tracer = self.fabric.tracer
                tracer.bump("xport.stale_drop", rank=self.rank, src=src)
                if tracer.enabled:
                    tracer.record(self.sim.now, "xport", "stale_drop",
                                  rank=self.rank, src=src, seq=seq,
                                  epoch=epoch)
                return False
            # Sender is ahead (we missed the coordinated reset — can only
            # happen if an upper layer reset one side): adopt its epoch
            # with a fresh receive window.
            self._flow_epoch[src] = epoch
            self._rx_upto.pop(src, None)
            self._rx_extra.pop(src, None)
            cur_epoch = epoch
        upto = self._rx_upto.get(src, 0)
        extra = self._rx_extra.get(src)
        duplicate = seq <= upto or (extra is not None and seq in extra)
        self._send_ack(src, seq, cur_epoch)
        if duplicate:
            self.stats["dup_rx"] += 1
            return False
        if seq == upto + 1:
            upto += 1
            if extra:
                while upto + 1 in extra:
                    extra.discard(upto + 1)
                    upto += 1
            self._rx_upto[src] = upto
        else:
            if extra is None:
                extra = self._rx_extra[src] = set()
            extra.add(seq)
        return True

    def _send_ack(self, dst: int, seq: int, epoch: int) -> None:
        self.stats["acks_tx"] += 1
        self.nic.post(dst, ACK_KIND, self.fabric.nics[dst].transport._on_ack,
                      (self.rank, seq, epoch))

    # ------------------------------------------------------------------
    # Introspection / reset
    # ------------------------------------------------------------------
    def retx_to(self, dst: int) -> int:
        """Retransmissions performed toward ``dst`` so far."""
        return self._retx_by_dst.get(dst, 0)

    def is_broken(self, dst: int) -> bool:
        """Whether the flow to ``dst`` has been declared failed."""
        return dst in self._broken

    def flow_epoch(self, other: int) -> int:
        """Current flow incarnation shared with ``other``."""
        return self._flow_epoch.get(other, 0)

    def reset_flow(self, other: int) -> None:
        """Forget all state shared with ``other`` (rank restart): both
        directions restart from sequence 1 with an empty window, under
        a bumped flow epoch that fences off stale in-flight traffic."""
        self._flow_epoch[other] = self._flow_epoch.get(other, 0) + 1
        self._tx_seq.pop(other, None)
        for key in [k for k in self._outstanding if k[0] == other]:
            self._outstanding.pop(key).timer_gen += 1
        self._rx_upto.pop(other, None)
        self._rx_extra.pop(other, None)
        self._retx_by_dst.pop(other, None)
        self._broken.discard(other)

    def reset_all(self) -> None:
        """Forget every flow (this NIC's own rank restarted)."""
        for entry in self._outstanding.values():
            entry.timer_gen += 1
        peers = set(self._flow_epoch)
        peers.update(self._tx_seq, self._rx_upto, self._rx_extra,
                     self._retx_by_dst, self._broken)
        if self.fabric.n_ranks is not None:
            peers.update(r for r in range(self.fabric.n_ranks)
                         if r != self.rank)
        for other in peers:
            self._flow_epoch[other] = self._flow_epoch.get(other, 0) + 1
        self._tx_seq.clear()
        self._outstanding.clear()
        self._rx_upto.clear()
        self._rx_extra.clear()
        self._retx_by_dst.clear()
        self._broken.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ReliableTransport rank={self.rank} "
                f"outstanding={len(self._outstanding)} stats={self.stats}>")
