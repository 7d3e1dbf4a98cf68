"""The network interface controller.

Each rank owns a :class:`Nic`.  Its injection queue is a FIFO server with
the deterministic LogGP service time ``max(g, bytes*G)``, so the whole
queue is one number — the time the serializer is spoken for
(:meth:`Nic.reserve`).  A packet handed to :meth:`Nic.send` reserves its
slot at once and one callback at the end of it hands the packet to the
fabric.  ``Packet.ev_injected`` triggers then — that is the *local
completion* point of a transfer (the origin buffer is free).

A message whose effect at the destination is one call — a control
message, a request, a reply, a write — needs none of that:
:meth:`Nic.post` reserves the same slot and pushes the same two heap
entries — injection, arrival — with no ``Packet`` or payload dict behind
them.  A message longer than one MTU is one post per fragment, or, on a
flat ordered path, :meth:`Nic.post_frags`: two heap entries for all its
fragments.

On the receive side, packets are dispatched to handlers registered by
kind.  Handlers model NIC hardware (RDMA deposit, tag-match DMA): they
run without the target process calling anything.  Anything requiring
target CPU time (software acks, AM handlers, the communication-thread
serializer) is layered above by enqueueing work from inside a handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.network.packet import ACK_SIZE, HEADER_SIZE, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import TransportParams
    from repro.network.transport import ReliableTransport
    from repro.sim.core import Simulator
    from repro.sim.events import Event

__all__ = ["Nic", "UnknownPacketKind"]


class UnknownPacketKind(RuntimeError):
    """A packet arrived whose kind has no registered handler.

    Carries enough simulation context to diagnose the failure without a
    debugger: where and when the packet landed, what it was, and where
    it came from (a bare ``RuntimeError`` used to abort the event loop
    with none of this).
    """

    def __init__(self, *, rank: int, sim_time: float, packet: Packet) -> None:
        self.rank = rank
        self.sim_time = sim_time
        self.packet_id = packet.packet_id
        self.kind = packet.kind
        self.src = packet.src
        self.dst = packet.dst
        super().__init__(
            f"rank {rank}: no handler for packet kind {packet.kind!r} "
            f"at t={sim_time:.3f} (packet #{packet.packet_id}, "
            f"{packet.src}->{packet.dst})"
        )


class Nic:
    """One rank's NIC: injection queue + receive dispatch."""

    def __init__(self, sim: "Simulator", rank: int, fabric: Fabric) -> None:
        self.sim = sim
        self.rank = rank
        self.fabric = fabric
        self.config: NetworkConfig = fabric.config
        self._handlers: Dict[str, Callable[[Packet], None]] = {}
        self._default_handler: Optional[Callable[[Packet], None]] = None
        # The injection queue: the serializer is spoken for until
        # _reserved_until (see reserve), and may not start a packet inside
        # a fault plan's stall window [start, until), kept sorted.
        self._reserved_until: float = 0.0
        self._stalls: "list[tuple[float, float]]" = []
        #: Injection instant of the last thing handed to this NIC that
        #: books its arrival (``Fabric.arrival``) only when injected.
        #: While ``now`` is before it, un-booked traffic is queued ahead
        #: and nothing behind it may book an arrival at issue: the
        #: per-pair FIFO clamp would then hold the earlier-injected
        #: packet behind the later one (see ``TrainRoute.issue``).
        self._unbooked_until: float = 0.0
        #: Reliable transport, armed only for fault-injection runs (see
        #: :meth:`enable_reliability`); ``None`` keeps every fast path.
        self.transport: "ReliableTransport | None" = None
        fabric.attach(rank, self._on_deliver)
        fabric.nics[rank] = self
        #: Serialization time of a payload-free message.
        self.header_ser = self.config.serialization_time(HEADER_SIZE)
        # The two heap callbacks of a posted message, bound once per NIC
        # rather than once per message.
        self._launch = self.launch
        self._land = self.land
        # stats
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0

    # -- reliability -----------------------------------------------------
    def enable_reliability(self, params: "TransportParams") -> "ReliableTransport":
        """Arm the reliable transport (sequence numbers, acks,
        retransmission, dedup, checksums) on this NIC.  Done once per
        NIC by the :class:`~repro.runtime.World` when it is built with
        an active fault plan; with the transport armed every message
        is a packet."""
        if self.transport is not None:
            raise ValueError(f"rank {self.rank}: reliability already enabled")
        from repro.network.transport import ReliableTransport

        self.transport = ReliableTransport(self.sim, self, params)
        return self.transport

    def stall(self, start: float, until: float) -> None:
        """Wedge the serializer over ``[start, until)`` (fault injection):
        :meth:`reserve` starts no packet inside the window.  A packet
        already being serialized when it opens finishes; one whose turn
        falls inside it starts at ``until``.  Only a fault plan stalls a
        NIC and an active plan arms the transport, under which lean
        messages, op-trains and barrier walks stand down — so
        :meth:`reserve` is the only writer of the reservation that ever
        meets a window."""
        self._stalls.append((start, until))
        self._stalls.sort()

    def path_degraded(self, dst: int) -> bool:
        """Whether persistent loss toward ``dst`` crossed the transport's
        degradation threshold — the RMA engine then stops trusting
        hardware delivery acks on the path and uses software acks."""
        transport = self.transport
        return (
            transport is not None
            and transport.retx_to(dst) >= transport.params.degrade_threshold
        )

    # -- send path -------------------------------------------------------
    def reserve(self, ser: float) -> float:
        """Claim the serializer for ``ser`` behind everything already
        handed to this NIC; returns the time the claim ends.  This is
        the injection queue: FIFO, deterministic service time, so the
        backlog is the single number ``_reserved_until``.  Every caller
        (:meth:`send`, :meth:`reinject`, :meth:`post`,
        :meth:`post_frags`, the barrier walk) books the arrival from a
        callback at the returned instant or later, so the claim also
        moves ``_unbooked_until``."""
        start = self._reserved_until
        now = self.sim.now
        if start < now:
            start = now
        for opens, until in self._stalls:  # by opening: one pass composes
            if opens <= start < until:
                start = until
        self._reserved_until = self._unbooked_until = t = start + ser
        return t

    def send(self, packet: Packet) -> Packet:
        """Queue ``packet`` for injection.

        Creates ``ev_injected`` if absent.  If the packet wants an ack
        and the fabric supports remote-completion events,
        ``ev_remote_complete`` is created too (callers may wait on it).
        """
        if packet.src != self.rank:
            raise ValueError(
                f"packet src {packet.src} does not match NIC rank {self.rank}"
            )
        if packet.ev_injected is None:
            packet.ev_injected = self.sim.event()
        if (
            packet.want_ack
            and packet.ev_remote_complete is None
            and self.fabric.config_for(self.rank, packet.dst).remote_completion_events
        ):
            packet.ev_remote_complete = self.sim.event()
        if self.transport is not None:
            self.transport.prepare(packet)
        t = self.reserve(self.config.serialization_time(packet.wire_bytes))
        self.sim.schedule_call(t - self.sim.now, self._injected, packet, t)
        return packet

    def reinject(self, packet: Packet) -> None:
        """Requeue an already-prepared packet (transport retransmission)."""
        t = self.reserve(self.config.serialization_time(packet.wire_bytes))
        self.sim.schedule_call(t - self.sim.now, self._injected, packet, t)

    def _injected(self, packet: Packet, t: float) -> None:
        """Serialization of ``packet`` ends (at ``t``): it leaves for
        the fabric."""
        self.packets_sent += 1
        self.bytes_sent += packet.wire_bytes
        tracer = self.fabric.tracer
        if tracer.enabled:
            # Span milestone: serialization finished (the op's
            # "inject" phase ends at the last fragment's record).
            tracer.record(self.sim.now, "net", "inject",
                          rank=self.rank, dst=packet.dst,
                          kind_=packet.kind, op=packet.op_key(),
                          bytes=packet.wire_bytes)
        ev = packet.ev_injected
        if ev is not None and not ev.triggered:
            # Retransmits reuse the packet; only the first injection
            # is the local-completion point.
            ev.succeed(t)
        self.fabric.transmit(packet)
        transport = self.transport
        if transport is not None and packet.flow_seq is not None:
            transport.packet_injected(packet)

    def post(self, dst: int, fn: Callable[..., None], args: tuple,
             data_bytes: int = 0, injected: "Event | None" = None,
             tag: Optional[tuple] = None) -> None:
        """Send a message whose whole effect at ``dst`` is ``fn(*args)``
        — a control message, a request, a reply or a write fragment
        carrying ``data_bytes`` of payload: the lean form of
        :meth:`send`.  ``injected``, when given, succeeds with the
        injection instant, as a packet's ``ev_injected`` does.

        Same reservation (``HEADER_SIZE + data_bytes`` on the wire), and
        the same two heap entries pushed at the same instants in the
        same order as :meth:`send` → :meth:`_injected` →
        ``Fabric.transmit`` → ``Fabric._deliver`` push for a packet of
        that size — so every timestamp, counter, link reservation and
        RNG draw is the per-packet one, and equal-time ties resolve as
        they do per packet.  What is gone is the ``Packet``, its payload
        dict and the kind dispatch.  On a traced world the caller passes
        ``tag``, the ``(kind, op key)`` of the packet the message stands
        in for, and the message leaves that packet's ``net/inject`` and
        ``net/deliver`` records.  It knows neither the fault injector nor
        the transport: callers use it only where
        ``CollectiveNexus.closed_gate`` is open."""
        wire = HEADER_SIZE + data_bytes
        t = self.reserve(self.config.serialization_time(wire) if data_bytes
                         else self.header_ser)
        self.sim.schedule_call(t - self.sim.now, self._launch, dst, fn, args,
                               wire, injected, t, tag)

    def launch(self, dst: int, fn: Callable[..., None], args: tuple,
               wire: int = HEADER_SIZE, injected: "Event | None" = None,
               t: float = 0.0, tag: Optional[tuple] = None) -> None:
        """Serialization of a posted message of ``wire`` bytes ends (at
        ``t``): what :meth:`_injected` and ``Fabric.transmit`` do for a
        packet, then one callback at the arrival instant (:meth:`land`,
        on ``dst``'s NIC)."""
        self.packets_sent += 1
        self.bytes_sent += wire
        if tag is not None:
            self.fabric.tracer.record(self.sim.now, "net", "inject",
                                      rank=self.rank, dst=dst, kind_=tag[0],
                                      op=tag[1], bytes=wire)
        if injected is not None:
            injected.succeed(t)
        fabric = self.fabric
        dead = fabric._dead
        if dead and (self.rank in dead or dst in dead):
            fabric.dead_dropped += 1
            return
        arrival = fabric.arrival(self.rank, dst, wire)
        if arrival is not None:
            sim = self.sim
            sim.schedule_call(arrival - sim.now, fabric.nics[dst]._land,
                              self.rank, fn, args, wire, tag)

    def land(self, src: int, fn: Callable[..., None], args: tuple,
             wire: int, tag: Optional[tuple] = None) -> None:
        """The flight of a posted message from ``src`` ends here: what
        ``Fabric._deliver`` and :meth:`_on_deliver` do for a packet,
        then the message's effect."""
        fabric = self.fabric
        dead = fabric._dead
        if dead and (self.rank in dead or src in dead):
            fabric.dead_dropped += 1
            return
        if fabric._pending_trains:
            # as in _deliver: train elements that analytically arrived
            # before this message apply first
            fabric.materialize_trains(self.rank)
        fabric.packets_delivered += 1
        fabric.bytes_delivered += wire
        self.packets_received += 1
        if tag is not None:
            fabric.tracer.record(self.sim.now, "net", "deliver",
                                 rank=self.rank, kind_=tag[0], src=src,
                                 bytes=wire - HEADER_SIZE, op=tag[1])
        fn(*args)

    def flat_ordered(self, dst: int) -> bool:
        """Whether the path to ``dst`` takes :meth:`post_frags`: a flat
        fabric (no link to reserve in injection order across NICs) and
        an ordered path (no jitter to draw per fragment)."""
        return (self.fabric.topology is None
                and self.fabric.config_for(self.rank, dst).ordered)

    def post_frags(self, dst: int, fn: Callable[..., None], args: tuple,
                   sizes, injected: "Event | None" = None,
                   acks: "Event | None" = None,
                   tag: Optional[tuple] = None) -> None:
        """Send a message cut into fragments of ``sizes`` payload bytes
        over a flat ordered path (:meth:`flat_ordered`): the lean form
        of sending them packet by packet, in two heap entries — the last
        injection, the last arrival — instead of a pair per fragment.

        Injections are the reservation's running sum, one :meth:`reserve`
        per fragment; arrivals are ``Fabric.arrival`` at each injection
        instant.  ``fn(*args)`` runs once, at the last arrival: earlier
        fragments only deposit bytes no one may read before the message
        completes, which it cannot do before its last fragment lands.
        ``injected`` succeeds at the last injection with the list of
        injection instants (the value of an ``AllOf`` over the packets'
        ``ev_injected``); ``acks`` with the list of the fragments'
        hardware-ack instants, from one heap entry at the last.  A dead
        endpoint drops the whole message at its last injection, and only
        there.  ``tag`` as in :meth:`post`: each fragment's records carry
        its own instants, appended at the message's two heap entries."""
        wires = [HEADER_SIZE + size for size in sizes]
        ser = self.config.serialization_time
        times = [self.reserve(ser(wire)) for wire in wires]
        self.sim.schedule_call(times[-1] - self.sim.now, self._frags_launch,
                               dst, fn, args, wires, times, injected, acks,
                               tag)

    def _frags_launch(self, dst, fn, args, wires, times, injected,
                      acks, tag) -> None:
        """The last fragment of a :meth:`post_frags` message is
        serialized: every fragment leaves for the fabric."""
        n = len(wires)
        self.packets_sent += n
        self.bytes_sent += sum(wires)
        if tag is not None:
            record = self.fabric.tracer.record
            for wire, t in zip(wires, times):
                record(t, "net", "inject", rank=self.rank, dst=dst,
                       kind_=tag[0], op=tag[1], bytes=wire)
        if injected is not None:
            injected.succeed(times)
        fabric = self.fabric
        dead = fabric._dead
        src = self.rank
        if dead and (src in dead or dst in dead):
            fabric.dead_dropped += n
            return
        arrival = fabric.arrival
        arrivals = [arrival(src, dst, wire, t)
                    for wire, t in zip(wires, times)]
        sim = self.sim
        sim.schedule_call(arrivals[-1] - sim.now, fabric.nics[dst]._frags_land,
                          src, fn, args, wires, arrivals, acks, tag)

    def _frags_land(self, src, fn, args, wires, arrivals, acks,
                    tag) -> None:
        """The last fragment of a :meth:`post_frags` message from ``src``
        lands here: every fragment is delivered, then the message's
        effect, then the hardware acks leave."""
        fabric = self.fabric
        if fabric._pending_trains:
            fabric.materialize_trains(self.rank)
        n = len(wires)
        fabric.packets_delivered += n
        fabric.bytes_delivered += sum(wires)
        self.packets_received += n
        if tag is not None:
            record = fabric.tracer.record
            for wire, arrival in zip(wires, arrivals):
                record(arrival, "net", "deliver", rank=self.rank,
                       kind_=tag[0], src=src, bytes=wire - HEADER_SIZE,
                       op=tag[1])
        fn(*args)
        if acks is not None:
            fabric.acks_generated += n
            rev = fabric.config_for(self.rank, src)
            flight = rev.latency + ACK_SIZE * rev.byte_time
            landed = [arrival + flight for arrival in arrivals]
            if tag is not None:
                for t in landed:
                    fabric.tracer.record(t, "net", "ack", rank=src,
                                         src=self.rank, op=tag[1])
            self.sim.schedule_bulk_succeed(
                arrivals[-1] + flight - self.sim.now, [acks], [landed])

    # -- receive path ----------------------------------------------------
    def register_handler(self, kind: str, fn: Callable[[Packet], None]) -> None:
        """Dispatch packets of ``kind`` to ``fn`` on delivery."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = fn

    def register_default_handler(self, fn: Callable[[Packet], None]) -> None:
        """Catch-all for kinds without a specific handler."""
        self._default_handler = fn

    def _on_deliver(self, packet: Packet):
        self.packets_received += 1
        transport = self.transport
        if (
            transport is not None
            and packet.flow_seq is not None
            and not transport.rx_accept(packet)
        ):
            # Corrupt or duplicate: suppressed by the transport.  The
            # False return tells the fabric not to hardware-ack it.
            return False
        handler = self._handlers.get(packet.kind, self._default_handler)
        if handler is None:
            raise UnknownPacketKind(
                rank=self.rank, sim_time=self.sim.now, packet=packet
            )
        handler(packet)
        return True
