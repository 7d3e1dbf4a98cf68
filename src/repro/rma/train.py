"""Analytic op-trains: closed-form delivery of attribute-uniform runs.

The flight of an uncontended run of fragments on a flat, ordered,
fault-free path is closed-form: injection times are a running sum of
serialization charges, arrivals are ``inject + latency`` clamped
monotonic per (src, dst) pair.  The *op-train* route lifts that
observation from one operation's fragments to a whole run of
operations: :class:`TrainRoute` — the second route of the engine's
table — computes every timestamp of each eligible put/accumulate at
issue time and records the op on an :class:`OpTrain` instead of
injecting packets.

An element learns its arrivals in one of two ways
(:meth:`TrainRoute.books_late`).  *At issue*: the closed form above,
valid on a flat path with nothing un-booked queued ahead on the NIC —
zero heap entries.  *At the injection instant*: the NIC side stays
closed-form and one callback per fragment (:meth:`TrainRoute.inject`)
calls :meth:`Fabric.arrival <repro.network.fabric.Fabric.arrival>` —
the one arrival function, link reservations and FIFO clamp included —
which is what a routed path needs, and what keeps the per-pair clamp in
injection order behind traffic that books at injection itself.  A
remote-complete element booked so adds one callback per fragment at its
arrival (:meth:`TrainRoute._acked`), where a packet's delivery would
send the hardware ack, and sends it through the fabric's one copy of
that ack (:meth:`Fabric.hardware_ack
<repro.network.fabric.Fabric.hardware_ack>`).

A train is a per-(src, dst) sequence of write records (:class:`OpRecord`),
each a fully-described write (put/accumulate) with an *apply time* (its
last fragment's arrival) and, if notified, who waits for it; it exists
only while it holds one.  Application
happens at **materialization points** (DESIGN §12): the
fabric materializes the arrived prefix of every train headed for a rank
immediately before delivering any real packet to it, in global
analytic-arrival order across origins
(:meth:`~repro.network.fabric.Fabric.materialize_trains`), a notified
element wakes the target at its apply time, the ack callbacks of a
late-booked remote-complete element are deliveries too, a train that
grows first sheds what has arrived at its target (so a train holds
what is in simulated flight, however long the target goes unobserved),
and the world drains all trains at end of run.  Because arrivals on an
ordered path are clamped strictly monotonic, any real packet was sent
*after* the train elements it follows and arrives after them — so handlers
(flush requests, later gets, atomics) always observe exactly the
target-memory and watermark state the per-packet path would have
produced at the same simulated time.

Timestamps are bit-identical to the event-loop path by construction:
the arithmetic below is the same float arithmetic `Nic.reserve` /
`Fabric.arrival` perform, evaluated eagerly — or, for arrivals booked
at injection, the same call at the same instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.network.packet import ACK_SIZE, HEADER_SIZE
from repro.rma.attributes import RmaAttrs
from repro.rma.layout import (Fragment, apply_write, dense_sizes,
                               fragment_layout)
from repro.sim.events import AllOf, DeferredEvent, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.rma.engine.core import RmaEngine

__all__ = ["OpRecord", "OpTrain", "TrainRoute"]


#: Conformance mutations under which the train route may stay active:
#: its own planted bugs, plus ``shm_skip_fence`` — that one only alters
#: the shared-window route (and in fact *needs* live trains: the bug it
#: plants is skipping the train flush before a shared access).  Any
#: other mutation alters per-packet behaviour the closed form does not
#: model, so the route stands down.
_TRAIN_MUTATIONS = frozenset({"train_mistime", "train_overtake",
                              "shm_skip_fence"})


class OpRecord:
    """One issued write (put / accumulate): the one record of it, filled
    by whichever route takes it, and what ``issue_put`` /
    ``issue_accumulate`` return.

    Every route sets ``kind``, ``attrs`` and the two completion events:
    ``ev_local`` (the origin buffer is free again) and ``ev_remote``
    (the write is remotely complete — None for a write that only a
    watermark flush completes).  The origin keeps a record after issue
    only while a completion call must wait on its ``ev_remote`` (an
    acknowledged write); a flushed write leaves a watermark and a run
    count instead (``RmaEngine._retain``).

    On the op-train the record *is* the train element: the other slots
    describe the write as the target applies it, and :meth:`OpTrain.apply`
    lets go of its payload (``wire``, ``frags``) once it has."""

    __slots__ = ("kind", "attrs", "ev_local", "ev_remote", "seq", "mem_id",
                 "base_disp", "swap", "frags", "wire", "nfrags",
                 "apply_time", "acc", "notification", "booked", "op_key")

    def __init__(self, kind: str, attrs: Optional[RmaAttrs], ev_local: Event,
                 ev_remote: Optional[Event], seq: int = 0, mem_id: int = 0,
                 base_disp: int = 0, swap: bool = False,
                 frags: Optional[List[Fragment]] = None, wire: Any = None,
                 nfrags: int = 0, apply_time: Optional[float] = None,
                 acc: Optional[tuple] = None,
                 notification: Optional[tuple] = None,
                 op_key: Optional[tuple] = None) -> None:
        self.kind = kind
        self.attrs = attrs
        self.ev_local = ev_local
        self.ev_remote = ev_remote
        self.seq = seq
        self.mem_id = mem_id
        self.base_disp = base_disp
        self.swap = swap
        #: Explicit fragment layout, or None for a *lazy* element — a
        #: contiguous same-endian put whose application is one dense
        #: deposit of ``wire`` at ``base_disp`` (fragmentation is pure
        #: timing there, so no Fragment objects are ever built).
        self.frags = frags
        self.wire = wire
        self.nfrags = nfrags
        #: Analytic arrival of the last fragment — the instant the op
        #: counts as applied (where ``Nic.post_frags`` delivers a lean
        #: message).
        #: None until the last fragment is injected when the element
        #: books its arrivals late (:meth:`TrainRoute.inject`); for a
        #: remote-complete one then, the instant its ack callback runs.
        self.apply_time = apply_time
        #: (np_elem, op, scale) for accumulates, None for puts.
        self.acc = acc
        #: ``(match, op_key, issued)`` of a notified write, else None.
        self.notification = notification
        #: Fragments of a late-booked element put in flight so far.
        self.booked = 0
        #: The op key its trace records carry (None untraced: a record
        #: the origin holds would keep the key alive for nothing).
        self.op_key = op_key


class OpTrain:
    """The pending analytic ops from one origin to one target, in issue
    (= arrival) order.  It exists exactly while it has elements: the
    first one creates it (``TrainRoute._arrives``) and arms it on the
    fabric's arrival heap, taking the last one off drops it from its
    origin's table."""

    __slots__ = ("src", "dst", "_elements", "_head", "_target", "_trains")

    def __init__(self, src: int, dst: int, target: "RmaEngine",
                 trains: Dict[int, "OpTrain"]) -> None:
        self.src = src
        self.dst = dst
        #: Elements from index ``_head`` on are pending.
        self._elements: List[OpRecord] = []
        self._head = 0
        self._target = target  # the target rank's engine
        self._trains = trains  # the origin's trains, by destination

    def append(self, elem: OpRecord) -> None:
        """Queue ``elem``; appending to an empty train arms it on the
        fabric's arrival heap."""
        if not self._elements:
            self._target.nic.fabric.register_train(
                self.dst, self, elem.apply_time)
        self._elements.append(elem)

    def drop_rest(self) -> int:
        """Discard every unmaterialized element (rank death); returns
        the number of fragments dropped (they count as in-flight
        packets for the fabric's ``dead_dropped`` stat)."""
        dropped = sum(e.nfrags for e in self._elements[self._head:])
        del self._trains[self.dst]
        return dropped

    def pop_head(self):
        """Take the earliest pending element off the train.  Returns it
        with the arrival of the next one (``None`` when none is left,
        and the train is gone), so the fabric can re-key the train on
        its heap *before* :meth:`apply` runs target-side hooks that may
        re-enter it."""
        elements = self._elements
        elem = elements[self._head]
        self._head += 1
        if self._head < len(elements):
            return elem, elements[self._head].apply_time
        del self._trains[self.dst]
        return elem, None

    def apply(self, elem: OpRecord) -> None:
        """Replay the exact target-side effects of per-packet delivery:
        fragment application, delivery stats, then the tail every
        applied write shares (:meth:`TargetSide._applied
        <repro.rma.engine.target.TargetSide._applied>`: watermark roll,
        notification, gate draining, flush answering).  Train ops never
        register an inbound op and never sw-ack, so the rest of
        `_op_applied` is moot.  Its ``rma/applied`` record carries the
        apply time, which a materialization point may have passed.  The
        payload is let go of: a record the origin still holds for its
        completion keeps only what that reads."""
        eng = self._target
        fabric = eng.nic.fabric
        wire = elem.wire
        nfrags = elem.nfrags
        fabric.packets_delivered += nfrags
        fabric.bytes_delivered += wire.nbytes + HEADER_SIZE * nfrags
        # A train riding a same-node path carries the same packets the
        # per-packet path would have: keep the intra-node stat honest —
        # one count per fragment, exactly like Fabric.arrival.
        if (fabric.intra_config is not None
                and fabric.config_for(self.src, self.dst)
                is fabric.intra_config):
            fabric.intra_node_packets += nfrags
        apply_write(eng.mem, eng._resolve(elem.mem_id), elem.base_disp,
                    elem.frags, elem.swap, elem.acc, wire)
        elem.wire = elem.frags = None
        eng._applied(self.src, elem.seq, elem.mem_id, elem.notification,
                     elem.kind, elem.op_key, elem.apply_time)


class TrainRoute:
    """Closed-form issue of one non-atomic write riding an op-train —
    the second route of the engine's table.

    When no gate of :meth:`declines` closes, the op's entire lifetime —
    injection, serialization, arrival, application, hardware ack — is
    a pure function of NIC/fabric state, so :meth:`issue` — a plain
    call, where the other routes' are generators — computes it as float
    arithmetic identical to what the event-loop path would perform and
    records it on the destination's :class:`OpTrain`.
    Booked at issue it costs zero kernel events until observed; booked
    at injection (:meth:`books_late`), one per fragment — three when
    the element is remote-complete: injection, arrival, ack, as a
    packet costs.
    """

    name = "train"
    remote = True
    waits = False

    def __init__(self, engine: "RmaEngine") -> None:
        self.eng = engine
        # This origin's pending trains by destination (a drained one
        # leaves: OpTrain.pop_head), and the destinations already
        # mis-timed by the ``train_mistime`` mutation.
        self._trains: Dict[int, OpTrain] = {}
        self._mistimed: set = set()
        # fig2/halo issue thousands of identically-shaped ops, so the
        # per-fragment serialization charges (keyed by the sizes tuple)
        # are computed once.
        self._ser_cache: Dict[tuple, Any] = {}

    def declines(self, op) -> Optional[str]:
        """The gate that closes for ``op``, or None to ride the train.
        Each is load-bearing (DESIGN §12 renders this list): facts fixed
        when the world was built, then the op's own attributes, then
        the (src, dst) path, then what the peer window holds right
        now."""
        eng = self.eng
        nic = eng.nic
        fabric = nic.fabric
        if not eng.train_enabled:
            return "disabled"       # the tests' reference switch
        reason = nic.fault_gate()   # "faulty", then "transport"
        if reason is not None:
            return reason
        if not eng.conformance_mutations <= _TRAIN_MUTATIONS:
            return "mutation"       # planted bugs live on the per-op path
        if not op.is_write:
            return "reply"          # get/rmw/rmi: the target must answer
        if op.via_queue or op.via_lock:
            return "atomic"         # serializer job / lock round trips
        if not op.tmem.coherent:
            return "noncoherent"    # invalidate-then-apply runs per op
        path = fabric.config_for(eng.rank, op.dst)
        if not path.ordered:
            return "unordered"      # arrival clamping assumes FIFO order
        if op.attrs.remote_completion and not path.remote_completion_events:
            return "sw-ack"         # the target engine must ack per op
        if op.dst in eng._last_atomic_seq or op.dst in eng._last_deferred_seq:
            # an earlier op's application is deferred past its delivery,
            # so "delivery order == application order" does not hold
            return "deferred-window"
        return None

    def _arrives(self, dst: int, elem: OpRecord, wake: bool = True) -> None:
        """``elem``'s apply time is known: it joins the train to ``dst``
        (a new one if none is pending).  A
        notified element also pushes its wake — one heap entry at the
        apply time that materializes the target's arrived trains, so a
        waiter parked on the board resumes at the instant a packet's
        delivery would have woken it.  An acked element needs none
        (``wake=False``): its last fragment's :meth:`_acked`, already on
        the heap for that instant, is one.

        A train that grows first sheds what has arrived: the target's
        pending elements whose arrival has passed are applied before
        this one is queued, so what a train holds is bounded by what is
        in simulated flight, not by how long ago the target was last
        observed."""
        eng = self.eng
        fabric = eng.nic.fabric
        if dst in fabric._pending_trains:
            fabric.materialize_trains(dst)
        trains = self._trains
        train = trains.get(dst)
        if train is None:
            train = trains[dst] = OpTrain(
                eng.rank, dst, eng.world.contexts[dst].rma.engine, trains)
        if "train_overtake" in eng.conformance_mutations:
            # Planted train-only bug: an element overtakes the pending
            # write before it to the same bytes and applies first (both
            # apply once the earlier one's arrival has passed).
            pending = train._elements
            for i in range(len(pending) - 1, train._head - 1, -1):
                if (pending[i].mem_id == elem.mem_id
                        and pending[i].base_disp == elem.base_disp):
                    pending.insert(i, elem)
                    break
            else:
                train.append(elem)
        else:
            train.append(elem)
        if wake and elem.notification is not None:
            eng.sim.schedule_call_at(
                elem.apply_time, fabric.materialize_trains, dst)

    def inject(self, dst: int, elem: OpRecord, wire_bytes: int,
               last: bool, ack: Optional[Event]) -> None:
        """Serialization of one fragment of a late-booked element ends:
        what ``Nic.launch`` does for a message.  A dead endpoint drops
        it; otherwise :meth:`Fabric.arrival
        <repro.network.fabric.Fabric.arrival>` books its flight — link
        reservations and FIFO clamp — at this instant, and the fragment
        of a remote-complete element (``ack``: the event its hardware
        ack succeeds) pushes :meth:`_acked` at its arrival, as
        ``launch`` pushes ``Nic.land``.  The last fragment's arrival is
        the element's apply time.  Traced, it leaves the fragment's
        ``net/inject`` record and, with its arrival, the ``net/deliver``
        one."""
        src = self.eng.rank
        fabric = self.eng.nic.fabric
        tracer = fabric.tracer
        if tracer.enabled:
            tracer.record(self.eng.sim.now, "net", "inject", rank=src,
                          dst=dst, kind_="rma.frag", op=elem.op_key,
                          bytes=wire_bytes)
        dead = fabric._dead
        if dead and (src in dead or dst in dead):
            # with it die the fragments already in flight: the element
            # never joins its train
            fabric.dead_dropped += 1 + (elem.booked if last else 0)
            return
        arrival = fabric.arrival(src, dst, wire_bytes)
        if arrival is None:
            return
        elem.booked += 1
        if ack is not None:
            self.eng.sim.schedule_call_at(arrival, self._acked, dst, ack,
                                          elem.op_key)
        if tracer.enabled:
            tracer.record(arrival, "net", "deliver", rank=dst,
                          kind_="rma.frag", src=src,
                          bytes=wire_bytes - HEADER_SIZE, op=elem.op_key)
        if last and elem.booked == elem.nfrags:
            elem.apply_time = arrival
            self._arrives(dst, elem, ack is None)

    def _acked(self, dst: int, ack: Event, op_key: tuple) -> None:
        """A fragment of a remote-complete element booked at injection
        lands at ``dst``: what ``Nic.land`` does for a message that
        wants an ack.  The target's arrived elements apply first — at
        the last fragment the element itself, as the message's body
        would apply it — then the fragment's hardware ack leaves
        (:meth:`Fabric.hardware_ack
        <repro.network.fabric.Fabric.hardware_ack>`).  A dead endpoint
        drops it uncounted: ``inject`` or ``kill_rank`` has already
        counted every fragment of an element that never applies."""
        src = self.eng.rank
        fabric = self.eng.nic.fabric
        dead = fabric._dead
        if dead and (src in dead or dst in dead):
            return
        if dst in fabric._pending_trains:
            fabric.materialize_trains(dst)
        fabric.hardware_ack(src, dst, ack, op_key)

    def books_late(self, path, now: float) -> bool:
        """Whether an element issued ``now`` learns its arrivals at the
        injection instant instead of at issue.  The closed form books
        ``_last_delivery`` at issue, which is only right when nothing
        un-booked stands between issue and injection: not on a routed
        path (link reservations must be made in injection order across
        all NICs), and not while something that books at injection is
        still queued on this NIC — booking ahead of it would FIFO-clamp
        the earlier-injected packet behind this later one.  Inclusive:
        at the bit-identical instant the queued packet leaves, its
        callback may still be behind the issuing process on the heap."""
        nic = self.eng.nic
        fabric = nic.fabric
        return ((fabric._topo is not None
                 and path is not fabric.intra_config)
                or now <= nic._unbooked_until)

    def issue(self, op) -> OpRecord:
        eng = self.eng
        sim = eng.sim
        nic = eng.nic
        fabric = nic.fabric
        dst = op.dst
        tmem = op.tmem
        nbytes = op.nbytes
        wire = op.wire
        path = fabric.config_for(eng.rank, dst)
        # With a clean window on an ordered path to a coherent target,
        # _pick_remote_mode would choose exactly this: hardware acks for
        # a remote-complete write, else the flush.
        hw = op.attrs.remote_completion
        cfg = eng.network
        mtu = cfg.mtu
        if nbytes > mtu and hw:
            # A remote-complete payload rides as a zero-copy view, pinned
            # until its application (RmaEngine._issue); an element
            # applies at a materialization point, possibly after its ack
            # let the caller reuse the buffer, so snapshot it at issue.
            wire = wire.copy()
        seq = eng._next_seq(dst)
        op_key = (eng.rank, next(eng._op_counter))
        swap = eng.mem.space.endianness != tmem.endianness
        dtype = op.dtype
        if op.kind == "put" and not swap and dtype.is_contiguous:
            # Lazy element: one dense run — fragment sizes are pure
            # arithmetic and application is a single NIC deposit of the
            # whole wire, so no Fragment objects are ever built.
            frags = None
            sizes = dense_sizes(dtype, op.count, mtu)
        else:
            frags = fragment_layout(dtype, op.count, wire, mtu)
            sizes = tuple(len(f.data) for f in frags)
        nfrags = len(sizes)
        ser = self._ser_cache.get(sizes)
        if ser is None:
            gap, bt = cfg.gap, cfg.byte_time
            ser = self._ser_cache[sizes] = [
                max(gap, (HEADER_SIZE + s) * bt) for s in sizes
            ]
        now = sim.now
        start = now if now > nic._reserved_until else nic._reserved_until
        late = self.books_late(path, now)
        clamp = fabric._last_delivery[eng.rank]
        inject_value = None
        arrivals = None
        arrival = None
        if late:
            # The NIC side stays closed-form (the same running sum);
            # arrivals are learnt fragment by fragment, in inject().
            if nfrags == 1:
                inject_end = start + ser[0]
            else:
                inject_end = start
                inject_value = []
                for s in ser:
                    inject_end += s
                    inject_value.append(inject_end)
        elif nfrags == 1:
            # Scalar algebra: exactly Nic.reserve + Fabric.arrival.
            inject_end = start + ser[0]
            arrival = inject_end + path.latency
            prev = clamp.get(dst, -1.0)
            if arrival <= prev:
                arrival = prev + 1e-9
        else:
            # A plain running sum: it IS the float sequence of
            # Nic.post_frags's reservations and arrivals, so it is
            # trivially bit-exact.
            latency = path.latency
            t = start
            a = clamp.get(dst, -1.0)
            inject_value = []
            arrivals = []
            for s in ser:
                t += s
                inject_value.append(t)
                r = t + latency
                if r <= a:
                    r = a + 1e-9
                a = r
                arrivals.append(r)
            inject_end = t
            arrival = a
        if ("train_mistime" in eng.conformance_mutations
                and dst not in self._mistimed):
            # Planted batch-path bug: shift every timestamp of the first
            # train op per destination (a late element's arrivals follow
            # its shifted injections).  Reservation and FIFO bookkeeping
            # shift too, so nothing hangs — the run simply diverges.
            self._mistimed.add(dst)
            shift = 1e-3
            inject_end += shift
            if inject_value is not None:
                inject_value = [v + shift for v in inject_value]
            if not late:
                arrival += shift
                if arrivals is not None:
                    arrivals = [a + shift for a in arrivals]
        nic._reserved_until = inject_end
        nic.packets_sent += nfrags
        nic.bytes_sent += nbytes + HEADER_SIZE * nfrags
        ev_local = DeferredEvent(
            sim, inject_end,
            inject_end if inject_value is None else inject_value,
        )
        ev_remote = None
        acks = None
        ack_value = None
        if hw and late:
            # learnt like the arrivals: each fragment's _acked sends its
            # ack, which succeeds one event — as per packet
            acks = [sim.event() for _ in sizes]
            ev_remote = acks[0] if nfrags == 1 else AllOf(sim, acks)
        elif hw:
            rev = fabric.config_for(dst, eng.rank)
            ack_flight = rev.latency + ACK_SIZE * rev.byte_time
            if nfrags == 1:
                ack_due = ack_value = arrival + ack_flight
            else:
                ack_value = [a + ack_flight for a in arrivals]
                ack_due = ack_value[-1]
            fabric.acks_generated += nfrags
            ev_remote = DeferredEvent(sim, ack_due, ack_value)

        traced = eng.tracer.enabled
        if traced:
            self._trace(op, seq, op_key, sizes,
                        inject_value or (inject_end,),
                        None if late else arrivals or (arrival,),
                        ack_value if nfrags > 1 or ack_value is None
                        else (ack_value,))
        element = OpRecord(
            op.kind, op.attrs, ev_local, ev_remote, seq, tmem.mem_id,
            op.disp, swap, frags, wire, nfrags, arrival, op.acc,
            None if op.notify is None else (op.notify, op_key, now),
            op_key if traced else None,
        )
        if late:
            # One callback per fragment, filed at its injection as
            # Nic.post files Nic.launch: equal-instant injections of two
            # NICs reserve shared links in the order messages would.
            nic._unbooked_until = inject_end
            last = nfrags - 1
            for i, t in enumerate(inject_value or (inject_end,)):
                sim.schedule_call_at(t, self.inject, dst, element,
                                     HEADER_SIZE + sizes[i], i == last,
                                     None if acks is None else acks[i])
        else:
            clamp[dst] = arrival
            self._arrives(dst, element)
        eng.stats["train_ops"] += 1
        eng.stats["train_bytes"] += nbytes
        eng._retain(dst, element, seq)
        return element

    def _trace(self, op, seq: int, op_key: tuple, sizes, injects,
               arrivals, acks) -> None:
        """Leave the records the packet route leaves for ``op``: its
        issue records now and — for an element booked at issue (given
        ``arrivals``) — each fragment's ``net/inject``, ``net/deliver``
        and, acknowledged (given ``acks``), ``net/ack`` at the instants
        computed for them, which lie ahead (DESIGN §9).  A late-booked
        element's flight is recorded as it is learnt (:meth:`inject`,
        :meth:`Fabric.hardware_ack
        <repro.network.fabric.Fabric.hardware_ack>`)."""
        eng = self.eng
        record = eng.tracer.record
        now = eng.sim.now
        src = eng.rank
        dst = op.dst
        if op.nbytes <= 16:
            record(now, "consistency", "write", rank=src,
                   location=(dst, op.tmem.mem_id, op.disp),
                   value=tuple(op.wire.tolist()))
        record(now, "rma", f"{op.kind}_issue", rank=src, dst=dst, seq=seq,
               bytes=op.nbytes, attrs=str(op.attrs), op=op_key)
        if arrivals is None:
            return
        for i, size in enumerate(sizes):
            record(injects[i], "net", "inject", rank=src, dst=dst,
                   kind_="rma.frag", op=op_key, bytes=HEADER_SIZE + size)
            record(arrivals[i], "net", "deliver", rank=dst, kind_="rma.frag",
                   src=src, bytes=size, op=op_key)
            if acks is not None:
                record(acks[i], "net", "ack", rank=src, src=dst, op=op_key)
