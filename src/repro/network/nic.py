"""The network interface controller.

Each rank owns a :class:`Nic`.  Its injection queue is a FIFO server with
the deterministic LogGP service time ``max(g, bytes*G)``, so the whole
queue is one number — the time the serializer is spoken for
(:meth:`Nic.reserve`).

Every layer above sends the same way: :meth:`Nic.post` (or, for a
message cut into MTU fragments, :meth:`Nic.post_frags`) with the
message's kind, its size and its whole effect at the destination — one
call, ``fn(*args)``, run when it lands.  Every message takes one flight
with no object behind it: it reserves its slot and pushes two heap
entries — injection (:meth:`Nic.launch`), arrival (:meth:`Nic.land`).
A fault injector draws its fate in :meth:`launch` (drop: no arrival;
delay: a later one; duplicate: a second one), and an armed transport
sequences and checksums it at :meth:`post`, screens it in :meth:`land`
and retransmits it by launching it again.  ``injected`` (an event a
poster may pass) triggers at the end of serialization — the *local
completion* point of a transfer.  A message that asks for a hardware
ack gets it back after ``fn`` ran.

What the NIC still decides is a shape (:meth:`Nic.closed_gate`): where
an injector or a transport must see each fragment, or the reference
switch :attr:`Nic.enabled` is off, a multi-fragment message is one post
per fragment instead of two heap entries for all of them, and a barrier
runs per message instead of as a live walk.

:meth:`Nic.send` posts a raw :class:`Packet` onto the same flight; at
the destination it is dispatched on its kind to a handler registered
with :meth:`Nic.register_handler`.  Only the NIC's own tests and
benchmarks send those.  Handlers model NIC hardware: they run without
the target process calling anything.  Anything requiring target CPU
time (software acks, AM handlers, the communication-thread serializer)
is layered above by enqueueing work from the delivered call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.network.packet import ACK_SIZE, HEADER_SIZE, Packet
from repro.sim.events import AllOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import TransportParams
    from repro.network.transport import ReliableTransport, _TxEntry
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
    """One rank's NIC: injection queue, the flight of a message,
    delivery."""

    #: The reference switch (tests pin it off to diff the two shapes):
    #: off, every multi-fragment message is one post per fragment and
    #: every barrier runs per message.
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
        fabric.attach(rank)
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
        an active fault plan; with the transport armed every fragment
        is a message of its own (:meth:`closed_gate`)."""
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
        fragment is a message of its own and op-trains and barrier walks
        stand down — so :meth:`reserve` is the only writer of the
        reservation that ever meets a window."""
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
        (:meth:`post`, :meth:`post_frags`, a transport retransmit, the
        barrier walk) books the arrival from a callback at the returned
        instant or later, so the claim also moves ``_unbooked_until``."""
        start = self._reserved_until
        now = self.sim.now
        if start < now:
            start = now
        for opens, until in self._stalls:  # by opening: one pass composes
            if opens <= start < until:
                start = until
        self._reserved_until = self._unbooked_until = t = start + ser
        return t

    def fault_gate(self) -> Optional[str]:
        """Why fault handling must see each fragment of a message on
        its own, or ``None``: an injector draws a fate per message and
        a transport sequences, acks and retransmits each one.  The
        op-train's gate and :meth:`closed_gate` both ask it.

        ``transport`` is fixed when the world is built; ``faulty`` flips
        once, at the first ``kill_rank`` or injector install.
        """
        if self.fabric._faulty:
            return "faulty"         # every launch consults the injector
        if self.transport is not None:
            return "transport"      # sequence numbers, acks, retransmits
        return None

    def closed_gate(self) -> Optional[str]:
        """Why a multi-fragment message leaving this NIC must be one
        post per fragment (and a barrier run message by message), or
        ``None``.  A tracer needs neither — every shape leaves the same
        records."""
        if not self.enabled:
            return "disabled"       # the tests' reference switch
        return self.fault_gate()

    def send(self, packet: Packet) -> Packet:
        """Post a raw ``packet``: its body at the destination is the
        handler registered there for its kind (:meth:`register_handler`).

        Creates ``ev_injected`` if absent."""
        if packet.src != self.rank:
            raise ValueError(
                f"packet src {packet.src} does not match NIC rank {self.rank}"
            )
        if packet.ev_injected is None:
            packet.ev_injected = self.sim.event()
        self.post(packet.dst, packet.kind, self._dispatch, (packet,),
                  packet.data_bytes, injected=packet.ev_injected)
        return packet

    def _dispatch(self, packet: Packet) -> None:
        """The body of a raw packet, run where it landed."""
        dst = packet.dst
        handler = self.fabric.nics[dst]._handlers.get(packet.kind)
        if handler is None:
            raise UnknownPacketKind(rank=dst, sim_time=self.sim.now,
                                    packet=packet)
        handler(packet)

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
        transport's checksum covers.

        The message reserves its slot and pushes one callback at the
        end of its serialization (:meth:`launch`); with the transport
        armed it is first sequenced and checksummed.  Traced, it leaves
        ``net/inject`` and ``net/deliver`` records."""
        wire = HEADER_SIZE + data_bytes
        transport = self.transport
        entry = None if transport is None else transport.prepare(
            dst, kind, fn, args, wire, data, op, ack)
        t = self.reserve(self.config.serialization_time(wire) if data_bytes
                         else self.header_ser)
        self.sim.schedule_call_at(t, self._launch, dst, kind, fn, args, wire,
                                  injected, op, ack, entry)

    def launch(self, dst: int, kind: str, fn: Callable[..., None],
               args: tuple, wire: int = HEADER_SIZE,
               injected: "Event | None" = None, op=None,
               ack: "Event | None" = None,
               entry: "_TxEntry | None" = None) -> None:
        """Serialization of a message of ``wire`` bytes ends (now): it
        leaves for the fabric, and one callback is pushed at each
        instant it lands (:meth:`land`, on ``dst``'s NIC) — none when a
        dead port, a lost route or the injector drops it, two when the
        injector duplicates it.  ``entry`` is the transport's record of
        a sequenced message (its retransmit timer is armed here)."""
        self.packets_sent += 1
        self.bytes_sent += wire
        fabric = self.fabric
        if fabric.tracer.enabled:
            fabric.tracer.record(self.sim.now, "net", "inject",
                                 rank=self.rank, dst=dst, kind_=kind,
                                 op=op, bytes=wire)
        if injected is not None:
            injected.succeed(self.sim.now)
        try:
            land = fabric.nics[dst]._land
        except KeyError:
            raise ValueError(
                f"no NIC attached for destination rank {dst}") from None
        src = self.rank
        dead = fabric._dead
        if dead and (src in dead or dst in dead):
            fabric.dead_dropped += 1
        elif (arrival := fabric.arrival(src, dst, wire)) is not None:
            sim = self.sim
            if fabric._injector is None:
                sim.schedule_call_at(arrival, land, src, kind, fn, args,
                                     wire, op, ack, entry)
            else:
                fate = fabric._injector.fate(src, dst, kind, sim.now)
                if fate.corrupt and entry is not None:
                    from repro.faults.injector import CORRUPT_MASK

                    # the wire checksum, never the bytes: a retransmit
                    # resends them pristine
                    entry.wire_checksum = entry.checksum ^ CORRUPT_MASK
                for at in fabric.landings(src, dst, wire, arrival, fate):
                    sim.schedule_call_at(at, land, src, kind, fn, args, wire,
                                         op, ack, entry)
        if entry is not None:
            self.transport.launched(entry)

    def land(self, src: int, kind: str, fn: Callable[..., None],
             args: tuple, wire: int, op=None,
             ack: "Event | None" = None,
             entry: "_TxEntry | None" = None) -> None:
        """The flight of a message from ``src`` ends here: the train
        elements that arrived before it apply, the transport screens a
        sequenced one (a corrupt or duplicate message runs nothing and
        is not acked), then the message's effect, then its hardware
        ack."""
        fabric = self.fabric
        dead = fabric._dead
        if dead and (self.rank in dead or src in dead):
            fabric.dead_dropped += 1
            return
        if self.rank in fabric._pending_trains:
            # train elements that analytically arrived before this
            # message apply first: the per-pair FIFO clamped it after
            # them
            fabric.materialize_trains(self.rank)
        fabric.packets_delivered += 1
        fabric.bytes_delivered += wire
        self.packets_received += 1
        if fabric.tracer.enabled:
            fabric.tracer.record(self.sim.now, "net", "deliver",
                                 rank=self.rank, kind_=kind, src=src,
                                 bytes=wire - HEADER_SIZE, op=op)
        if entry is not None and not self.transport.rx_accept(src, entry):
            return
        fn(*args)
        if ack is not None:
            fabric.hardware_ack(src, self.rank, ack, op)

    def flat_ordered(self, dst: int) -> bool:
        """Whether the path to ``dst`` carries a multi-fragment message
        as one: a flat fabric (no link to reserve in injection
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
        (:meth:`flat_ordered`), are one message in two heap entries
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
            sim.schedule_call_at(times[-1], self._frags_launch, dst, kind, fn,
                                 (*args, parts), wires, times, inj, acked,
                                 op)
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
        """The last fragment of a two-entry :meth:`post_frags` message is
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
        self.sim.schedule_call_at(arrivals[-1], fabric.nics[dst]._frags_land,
                                  src, kind, fn, args, wires, arrivals, acks,
                                  op)

    def _frags_land(self, src, kind, fn, args, wires, arrivals, acks,
                    op) -> None:
        """The last fragment of a two-entry :meth:`post_frags` message from
        ``src`` lands here: every fragment is delivered, then the
        message's effect, then the hardware acks leave."""
        fabric = self.fabric
        if self.rank in fabric._pending_trains:
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
            self.sim.schedule_bulk_succeed_at(landed[-1], [acks], [landed])

    # -- receive path ----------------------------------------------------
    def register_handler(self, kind: str, fn: Callable[[Packet], None]) -> None:
        """Dispatch raw packets of ``kind`` (sent with :meth:`send`) to
        ``fn`` on delivery."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = fn
