"""The network interface controller.

Each rank owns a :class:`Nic`.  Its injection queue is a FIFO server with
the deterministic LogGP service time ``max(g, bytes*G)``, so the whole
queue is one number — the time the serializer is spoken for
(:meth:`Nic.reserve`).

Every layer above sends the same way: :meth:`Nic.post` (or, for a
message cut into MTU fragments, :meth:`Nic.post_frags`) with the
message's kind, its size and its whole effect at the destination — one
call, ``fn(*args)``, run when it lands.  The NIC alone decides the form
(:meth:`Nic.closed_gate`):

- **lean** (the gate is open): the message reserves its slot and pushes
  two heap entries — injection (:meth:`Nic.launch`), arrival
  (:meth:`Nic.land`) — with no object behind them; a multi-fragment
  message on a flat ordered path is two heap entries for all its
  fragments.
- **packet** (a fault injector or a transport must see it, or the
  reference switch :attr:`Nic.enabled` is off): one :class:`Packet`
  per fragment carrying ``(fn, args)``, handed to :meth:`Nic.send` →
  ``Fabric.transmit`` → ``Fabric._deliver``, injected at the same
  instant with the same kind and size.

Both forms push the same heap entries at the same instants, so a
message's timing does not depend on its form.  ``Packet.ev_injected``
(or the ``injected`` event of a post) triggers at the end of
serialization — the *local completion* point of a transfer.  A
message that asks for a hardware ack gets it back after ``fn`` ran, on
either form.

:meth:`Nic.send` with a raw packet (no ``fn``) dispatches on its kind to
a handler registered with :meth:`Nic.register_handler`; only the NIC's
own tests and benchmarks send those.  Handlers model NIC hardware: they
run without the target process calling anything.  Anything requiring
target CPU time (software acks, AM handlers, the communication-thread
serializer) is layered above by enqueueing work from the delivered
call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.network.packet import ACK_SIZE, HEADER_SIZE, Packet
from repro.sim.events import AllOf

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
    """One rank's NIC: injection queue, the choice of a message's form,
    delivery."""

    #: The reference switch (tests pin it off to diff the two forms):
    #: off, every posted message — engine control messages, requests,
    #: replies and writes, p2p, locks, active messages, heartbeats —
    #: and every barrier travels as packets.
    enabled = True

    def __init__(self, sim: "Simulator", rank: int, fabric: Fabric) -> None:
        self.sim = sim
        self.rank = rank
        self.fabric = fabric
        self.config: NetworkConfig = fabric.config
        self._handlers: Dict[str, Callable[[Packet], None]] = {}
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
        is a packet (:meth:`closed_gate`)."""
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
        NIC and an active plan arms the transport, under which every
        message is a packet and op-trains and barrier walks stand down
        — so :meth:`reserve` is the only writer of the reservation that
        ever meets a window."""
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

    def closed_gate(self) -> Optional[str]:
        """Why a message leaving this NIC must travel as a
        :class:`Packet`, or ``None``: the lean form builds no object for
        an injector or a transport to look at.  A tracer needs none —
        both forms leave the same records.

        ``transport`` is fixed when the world is built; ``faulty`` flips
        once, at the first ``kill_rank`` or injector install.
        """
        if not self.enabled:
            return "disabled"       # the tests' reference switch
        if self.fabric._faulty:
            return "faulty"         # every transmit consults the injector
        if self.transport is not None:
            return "transport"      # sequence numbers, acks, retransmits
        return None

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
                          kind_=packet.kind, op=packet.op,
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

    def post(self, dst: int, kind: str, fn: Callable[..., None],
             args: tuple, data_bytes: int = 0, data=None, op=None,
             injected: "Event | None" = None,
             ack: "Event | None" = None) -> None:
        """Send a message of ``kind`` whose whole effect at ``dst`` is
        ``fn(*args)`` — a control message, a request, a reply, a write
        fragment, a p2p envelope — carrying ``data_bytes`` of payload
        (``HEADER_SIZE + data_bytes`` on the wire).  ``injected``, when
        given, succeeds with the injection instant; ``ack``, when
        given, is the hardware delivery ack: it succeeds when the ack
        the destination NIC sends after ``fn`` ran is back.  ``op``
        names the RMA operation in trace records; ``data`` is what the
        transport's checksum covers (the packet form only).

        Where :meth:`closed_gate` is open the message is lean: the same
        reservation and the same two heap entries, pushed at the same
        instants in the same order, as :meth:`send` → :meth:`_injected`
        → ``Fabric.transmit`` → ``Fabric._deliver`` push for a packet of
        that size — so every timestamp, counter, link reservation and
        RNG draw is the per-packet one, and equal-time ties resolve as
        they do per packet; traced, it leaves that packet's
        ``net/inject`` and ``net/deliver`` records.  Otherwise it is
        that packet, carrying ``(fn, args)``."""
        if self.closed_gate() is not None:
            self.send(Packet(src=self.rank, dst=dst, kind=kind, fn=fn,
                             args=args, op=op, data=data,
                             data_bytes=data_bytes, want_ack=ack is not None,
                             ev_injected=injected, ev_remote_complete=ack))
            return
        wire = HEADER_SIZE + data_bytes
        t = self.reserve(self.config.serialization_time(wire) if data_bytes
                         else self.header_ser)
        self.sim.schedule_call(t - self.sim.now, self._launch, dst, kind, fn,
                               args, wire, injected, t, op, ack)

    def launch(self, dst: int, kind: str, fn: Callable[..., None],
               args: tuple, wire: int = HEADER_SIZE,
               injected: "Event | None" = None, t: float = 0.0, op=None,
               ack: "Event | None" = None) -> None:
        """Serialization of a lean message of ``wire`` bytes ends (at
        ``t``): what :meth:`_injected` and ``Fabric.transmit`` do for a
        packet, then one callback at the arrival instant (:meth:`land`,
        on ``dst``'s NIC)."""
        self.packets_sent += 1
        self.bytes_sent += wire
        fabric = self.fabric
        if fabric.tracer.enabled:
            fabric.tracer.record(self.sim.now, "net", "inject",
                                 rank=self.rank, dst=dst, kind_=kind,
                                 op=op, bytes=wire)
        if injected is not None:
            injected.succeed(t)
        dead = fabric._dead
        if dead and (self.rank in dead or dst in dead):
            fabric.dead_dropped += 1
            return
        arrival = fabric.arrival(self.rank, dst, wire)
        if arrival is not None:
            sim = self.sim
            sim.schedule_call(arrival - sim.now, fabric.nics[dst]._land,
                              self.rank, kind, fn, args, wire, op, ack)

    def land(self, src: int, kind: str, fn: Callable[..., None],
             args: tuple, wire: int, op=None,
             ack: "Event | None" = None) -> None:
        """The flight of a lean message from ``src`` ends here: what
        ``Fabric._deliver`` and :meth:`_on_deliver` do for a packet —
        the message's effect, then its hardware ack."""
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
        if fabric.tracer.enabled:
            fabric.tracer.record(self.sim.now, "net", "deliver",
                                 rank=self.rank, kind_=kind, src=src,
                                 bytes=wire - HEADER_SIZE, op=op)
        fn(*args)
        if ack is not None:
            fabric.hardware_ack(src, self.rank, ack, op)

    def flat_ordered(self, dst: int) -> bool:
        """Whether the path to ``dst`` carries a lean multi-fragment
        message as one: a flat fabric (no link to reserve in injection
        order across NICs) and an ordered path (no jitter to draw per
        fragment)."""
        return (self.fabric.topology is None
                and self.fabric.config_for(self.rank, dst).ordered)

    def post_frags(self, dst: int, kind: str, fn: Callable[..., None],
                   args: tuple, parts, sizes, data=None, op=None,
                   injected: bool = False, ack: bool = False):
        """Send a message cut into fragments of ``sizes`` payload bytes;
        ``parts[i]`` names fragment ``i`` to the body, which runs as
        ``fn(*args, parts[a:b])`` for the fragments ``a..b-1`` that
        landed.  ``data`` is the message's bytes, fragment ``i`` being
        the next ``sizes[i]`` of them (what the transport's checksum of
        each fragment covers).  Returns the events of local completion
        (``injected``) and of the hardware acks (``ack``), or ``None``
        for each not asked for.

        One fragment is one :meth:`post`.  Several, where
        :meth:`closed_gate` is open on a flat ordered path
        (:meth:`flat_ordered`), are one lean message in two heap entries
        — the last injection, the last arrival — instead of a pair per
        fragment: injections are the reservation's running sum, one
        :meth:`reserve` per fragment; arrivals are ``Fabric.arrival`` at
        each injection instant; ``fn`` runs once, with every part, at
        the last arrival — earlier fragments only deposit bytes no one
        may read before the message completes, which it cannot do
        before its last fragment lands.  A dead endpoint drops the whole
        message at its last injection, and only there.  Elsewhere each
        fragment is a :meth:`post` of its own part, and the events are
        :class:`~repro.sim.events.AllOf` over the fragments'."""
        sim = self.sim
        if len(sizes) == 1 or (self.closed_gate() is None
                               and self.flat_ordered(dst)):
            inj = sim.event() if injected else None
            acked = sim.event() if ack else None
            if len(sizes) == 1:
                self.post(dst, kind, fn, (*args, parts), sizes[0], data, op,
                          inj, acked)
                return inj, acked
            wires = [HEADER_SIZE + size for size in sizes]
            ser = self.config.serialization_time
            times = [self.reserve(ser(wire)) for wire in wires]
            sim.schedule_call(times[-1] - sim.now, self._frags_launch, dst,
                              kind, fn, (*args, parts), wires, times, inj,
                              acked, op)
            return inj, acked
        injs = [sim.event() for _ in sizes] if injected else None
        acks = [sim.event() for _ in sizes] if ack else None
        off = 0
        for i, size in enumerate(sizes):
            self.post(dst, kind, fn, (*args, parts[i:i + 1]), size,
                      None if data is None else data[off:off + size], op,
                      injs and injs[i], acks and acks[i])
            off += size
        return (injs and AllOf(sim, injs)), (acks and AllOf(sim, acks))

    def _frags_launch(self, dst, kind, fn, args, wires, times, injected,
                      acks, op) -> None:
        """The last fragment of a lean :meth:`post_frags` message is
        serialized: every fragment leaves for the fabric."""
        n = len(wires)
        self.packets_sent += n
        self.bytes_sent += sum(wires)
        fabric = self.fabric
        if fabric.tracer.enabled:
            record = fabric.tracer.record
            for wire, t in zip(wires, times):
                record(t, "net", "inject", rank=self.rank, dst=dst,
                       kind_=kind, op=op, bytes=wire)
        if injected is not None:
            injected.succeed(times)
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
                          src, kind, fn, args, wires, arrivals, acks, op)

    def _frags_land(self, src, kind, fn, args, wires, arrivals, acks,
                    op) -> None:
        """The last fragment of a lean :meth:`post_frags` message from
        ``src`` lands here: every fragment is delivered, then the
        message's effect, then the hardware acks leave."""
        fabric = self.fabric
        if fabric._pending_trains:
            fabric.materialize_trains(self.rank)
        n = len(wires)
        fabric.packets_delivered += n
        fabric.bytes_delivered += sum(wires)
        self.packets_received += n
        traced = fabric.tracer.enabled
        if traced:
            record = fabric.tracer.record
            for wire, arrival in zip(wires, arrivals):
                record(arrival, "net", "deliver", rank=self.rank,
                       kind_=kind, src=src, bytes=wire - HEADER_SIZE,
                       op=op)
        fn(*args)
        if acks is not None:
            fabric.acks_generated += n
            rev = fabric.config_for(self.rank, src)
            flight = rev.latency + ACK_SIZE * rev.byte_time
            landed = [arrival + flight for arrival in arrivals]
            if traced:
                for t in landed:
                    fabric.tracer.record(t, "net", "ack", rank=src,
                                         src=self.rank, op=op)
            self.sim.schedule_bulk_succeed(
                arrivals[-1] + flight - self.sim.now, [acks], [landed])

    # -- receive path ----------------------------------------------------
    def register_handler(self, kind: str, fn: Callable[[Packet], None]) -> None:
        """Dispatch raw packets of ``kind`` (sent with :meth:`send`, no
        ``fn``) to ``fn`` on delivery."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = fn

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
        fn = packet.fn
        if fn is not None:
            fn(*packet.args)
            return True
        handler = self._handlers.get(packet.kind)
        if handler is None:
            raise UnknownPacketKind(
                rank=self.rank, sim_time=self.sim.now, packet=packet
            )
        handler(packet)
        return True
