"""Live analytic barriers: the dissemination rounds as heap callbacks.

The op-train fast path (:mod:`repro.rma.train`) removes the per-packet
cost of the *data* plane; what remains on the halo critical path is the
*control* plane — above all the dissemination barrier behind
``MPI_RMA_complete_collective``.  Per packet, one barrier message costs
a ``Packet``, an ``Event`` or three, two process resumes, a spawned
receiver coroutine and a predicate scan of the endpoint's inbox, although
none of its timestamps needs any of them: injection is a running
reservation per NIC (``Nic.reserve``), arrival is whatever the fabric
says a packet leaving now lands at (``Fabric.arrival`` — flat or routed,
FIFO-clamped or jittered), matching is ``max(posted, arrived)`` plus the
receive overhead.

:class:`CollectiveNexus` keeps the arithmetic and drops the objects.  A
rank entering ``Comm.barrier`` parks on one event while a
:class:`_BarrierWalk` takes its place: plain ``(fn, args)`` callbacks on
the simulator's **own** heap, one per heap pop of the per-packet path
(send charge over → serialization over → flight over → receive overhead
over).  The middle two are the NIC's message flight (``Nic.launch`` /
``Nic.land``, shared with ``Nic.post``), which read and write the live
NIC reservation, the fabric's per-pair and per-link state and the NIC /
fabric counters at the real simulated instant.  Nothing is deferred or
replayed, so entry skew
between ranks and real traffic interleaved with the rounds need no
handling: a flush acknowledgement leaving a NIC in mid-barrier chains
off the same reservation the walk just wrote, exactly as it would behind
a real barrier packet.  Ties cannot reorder anything either — a walk
pushes the same heap entries, at the same instants and in the same
order, as the coroutines it stands in for, and the heap breaks ties by
push order.

The only decision left is whether each barrier message must be a p2p
message of its own — where the fault injector draws a fate per message
or a transport sequences each one: the NIC's own gate
(:meth:`Nic.closed_gate <repro.network.nic.Nic.closed_gate>`), the one
a multi-fragment post asks too.  Trace records are not among them: on a traced world a walk
leaves the ``net/inject`` and ``net/deliver`` records of the
``p2p.msg`` messages it stands in for, at the same instants.  The first
rank to enter a collective instance decides for all of them, so a
``kill_rank`` between two entries cannot split one instance across the
two paths.  The message-by-message collectives in :mod:`repro.mpi.comm`
stay as they are: they are the reference the tests diff against
(``Nic.enabled = False``) and the path every gated world takes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm
    from repro.network.nic import Nic
    from repro.runtime import World

__all__ = ["CollectiveNexus"]


class _BarrierWalk:
    """One rank's trip through a dissemination barrier.

    Each method is one heap pop of the per-packet path; the docstrings
    name the code they stand in for.  ``parked`` is cleared when the
    rank's coroutine leaves the barrier — normally, or because it was
    killed: the steps a *process* takes (send, post a receive) then
    stop, the ones NIC and fabric take on their own (finish a
    serialization, land a packet, finish a receive) do not.
    """

    __slots__ = ("nexus", "sim", "ep", "nic", "local", "n", "wmap",
                 "slots", "k", "dist", "ev", "parked", "charge", "orecv")

    def __init__(self, nexus: "CollectiveNexus", comm: "Comm",
                 slots: dict) -> None:
        ep = comm.endpoint
        cfg = ep.nic.config
        self.nexus = nexus
        self.sim = nexus.sim
        self.ep = ep
        self.nic = ep.nic
        self.local = comm.rank
        self.n = comm.size
        self.wmap = comm.group.world_ranks
        self.slots = slots
        self.k = 0
        self.dist = 1
        self.ev = self.sim.event()
        self.parked = True
        # identical operand order to MpiEndpoint.isend's timeout; a
        # barrier message carries no payload, so irecv's per-byte copy
        # terms are exact zeros
        self.charge = ep.timings.call_overhead + cfg.overhead_send
        self.orecv = cfg.overhead_recv

    def send(self) -> None:
        """The send charge is over (``MpiEndpoint.isend`` resumes): claim
        the serializer as ``Nic.post`` does."""
        if not self.parked:
            return
        ep = self.ep
        ep.sends += 1
        ep.eager_sends += 1
        nic = self.nic
        self.sim.schedule_call_at(nic.reserve(nic.header_ser), self.injected)

    def injected(self) -> None:
        """Serialization is over: the payload-free ``p2p.msg`` leaves
        (``Nic.launch``), then the resumed rank posts this round's
        receive."""
        dst_local = (self.local + self.dist) % self.n
        self.nic.launch(self.wmap[dst_local], "p2p.msg", self.nexus.arrive,
                        (self.slots, (self.k, dst_local)))
        if self.parked:
            key = (self.k, self.local)
            arrived = self.slots.pop(key, None)
            if arrived is None:
                self.slots[key] = self
            else:
                sim = self.sim
                if arrived < sim.now:
                    self.ep.unexpected_matches += 1
                sim.schedule_call(self.orecv, self.got)

    def got(self) -> None:
        """The receive overhead is paid (``irecv``'s receiver finishes):
        the rank starts the next round or leaves the barrier."""
        self.ep.recvs += 1
        self.k += 1
        self.dist <<= 1
        if self.dist < self.n:
            self.sim.schedule_call(self.charge, self.send)
        else:
            self.ev.succeed()


class CollectiveNexus:
    """World-level live fast path for ``Comm.barrier``, and the counter
    of which form the NIC gives each message.

    One instance per :class:`~repro.runtime.World`, reachable as
    ``sim.context["nexus"]``.  Every barrier instance is counted once in
    the world's metrics as ``collective.route{kind=barrier, path=live}``
    or ``{…, path=packet, reason=<the gate that closed>}``; the RMA
    engine counts its messages the same way under ``control.route``.
    The reference switch that sends every barrier and every posted
    message down the packet path is ``Nic.enabled``.
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        self.sim = world.sim
        self.fabric = world.fabric
        # Barrier instances some but not all ranks have entered, by
        # collective context: [the instance's shared match slots (None:
        # it runs per packet), ranks entered so far].
        self._instances: Dict[tuple, list] = {}
        # Route-telemetry counter handles per (metric, kind, reason).
        self._counters: Dict[tuple, object] = {}

    def route(self, nic: "Nic", metric: str, kind: str) -> Optional[str]:
        """Count the form ``nic`` gives one engine message (or one
        barrier instance) as ``metric{kind=, path=live}`` or ``{…,
        path=packet, reason=}``.  Returns :meth:`Nic.closed_gate
        <repro.network.nic.Nic.closed_gate>`'s verdict: ``None`` means
        live."""
        reason = nic.closed_gate()
        counter = self._counters.get((metric, kind, reason))
        if counter is None:
            labels = ({"path": "live"} if reason is None
                      else {"path": "packet", "reason": reason})
            counter = self._counters[(metric, kind, reason)] = \
                self.world.metrics.counter(metric, kind=kind, **labels)
        counter.inc()
        return reason

    def enter_barrier(self, comm: "Comm",
                      ctx: tuple) -> Optional[_BarrierWalk]:
        """Start the calling rank's walk; ``None`` means "this instance
        runs per packet, do it yourself"."""
        inst = self._instances.get(ctx)
        if inst is None:
            reason = self.route(comm.endpoint.nic, "collective.route",
                                "barrier")
            inst = self._instances[ctx] = [{} if reason is None else None, 0]
        inst[1] += 1
        if inst[1] == comm.size:
            del self._instances[ctx]
        if inst[0] is None:
            return None
        walk = _BarrierWalk(self, comm, inst[0])
        self.sim.schedule_call(walk.charge, walk.send)
        return walk

    def arrive(self, slots: dict, key: tuple) -> None:
        """A barrier message landed (``Nic.land``): the match against
        the endpoint's posted receives."""
        walk = slots.pop(key, None)
        if walk is None:
            slots[key] = self.sim.now
        else:
            self.sim.schedule_call(walk.orecv, walk.got)
