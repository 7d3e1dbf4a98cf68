"""Live routing state: link contention, dead links, per-link metrics.

A :class:`TopoRuntime` binds a :class:`~repro.topo.graph.Topology` to a
running simulation.  The :class:`~repro.network.fabric.Fabric` consults
it once per inter-node message to compute the arrival time over the
routed path; everything else (NIC injection, ordering clamps, acks,
fault fates) stays in the fabric.

**Contention model.**  Transfers are store-and-forward: at each hop the
packet serializes onto the directed link (``wire_bytes * byte_time``)
and then flies the hop latency.  Every link keeps a *busy-until* time;
a packet reaching a link before it is free queues (FIFO) and the wait
is charged as queueing delay.  Reservations are made analytically at
injection (``Fabric.arrival``) — the simulator processes events in
nondecreasing simulated-time order, so later transmissions always see
every earlier reservation and the model is causally consistent without
per-hop events.  This is what makes hotspot/incast traffic measurably
congest: N flows crossing one link serialize on it.

**Adaptive routing.**  When the topology is adaptive the runtime draws
the per-packet route from a dedicated RNG stream (``topo.route``) of
the world's registry, so two runs with the same seed route identically
and arming other stochastic consumers never perturbs routes.

**Dead links.**  :meth:`fail_link` removes a cable from service; routes
are recomputed around it (BFS on the surviving graph).  When no path
survives the packet is unroutable — the fabric drops it, and with the
reliable transport armed the retry budget eventually surfaces the
partition as a structured RMA error.

**Compiled routes.**  Each directed link's live state is one slotted
:class:`_Hop` (latency, byte time, busy-until, its :class:`LinkStats`),
and the per-pair route memo holds tuples of those records, so
:meth:`TopoRuntime.flight` — once per inter-node packet — walks
attributes instead of copying a path list and doing four tuple-keyed
dict lookups per hop.  ``tests/topo/test_flight_equivalence.py`` keeps
the dict-walking loop as the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.topo.graph import Link, NoRoute, Topology, link_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import Tracer

__all__ = ["LinkStats", "TopoRuntime"]

#: Cache sentinel for pairs with no surviving route.
_UNROUTABLE = object()


class LinkStats:
    """Traffic accounting of one directed link (plain attributes on the
    hot path; published as metrics by :meth:`TopoRuntime.publish_metrics`)."""

    __slots__ = ("packets", "bytes", "busy_us", "queue_us")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.busy_us = 0.0
        self.queue_us = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LinkStats packets={self.packets} bytes={self.bytes} "
                f"busy={self.busy_us:.1f}us queue={self.queue_us:.1f}us>")


class _Hop:
    """One directed link as :meth:`TopoRuntime.flight` sees it: its
    parameters, when it is next free, and its :class:`LinkStats` —
    created, and entered into the public ``link_stats`` dict, by the
    first packet that crosses it."""

    __slots__ = ("link", "latency", "byte_time", "busy_until", "stats")

    def __init__(self, link: Link, latency: float, byte_time: float) -> None:
        self.link = link
        self.latency = latency
        self.byte_time = byte_time
        self.busy_until = 0.0
        self.stats: Optional[LinkStats] = None


class TopoRuntime:
    """One simulation's routed-fabric state.

    Parameters
    ----------
    topology:
        The interconnect graph.
    rank_to_host:
        Mapping from world rank to the topology host its node plugs
        into (built by the World from the machine's placement layer).
    rng:
        The world's :class:`~repro.sim.rng.RngRegistry`; only consulted
        when the topology routes adaptively.
    tracer:
        Optional tracer for fault/unroutable counters.
    """

    def __init__(self, topology: Topology,
                 rank_to_host: Mapping[int, Any],
                 rng: "RngRegistry | None" = None,
                 tracer: "Tracer | None" = None) -> None:
        self.topology = topology
        self._host_of: Dict[int, Any] = dict(rank_to_host)
        hosts = set(topology.hosts)
        for rank, host in self._host_of.items():
            if host not in hosts:
                raise ValueError(
                    f"rank {rank} placed on unknown host {host!r}")
        # Per-directed-link contention + accounting state.
        self._hops: Dict[Link, _Hop] = {
            link: _Hop(link, *topology.link_params(*link))
            for link in topology.links()
        }
        self.tracer = tracer
        self._route_rng = (
            rng.stream("topo.route")
            if (rng is not None and topology.adaptive) else None
        )
        #: Accounting of every link a packet has crossed (no entry for
        #: an untraversed one).
        self.link_stats: Dict[Link, LinkStats] = {}
        # Compiled-route memo per (src rank, dst rank): a tuple of hops,
        # or _UNROUTABLE.  Valid only while the set of dead links stands
        # and routing is deterministic (adaptive routes are drawn per
        # packet).
        self._routes: Dict[Tuple[int, int], Any] = {}
        self._dead: Set[Link] = set()
        # stats
        self.packets_routed = 0
        self.hops_traversed = 0
        self.unroutable = 0

    # -- placement -------------------------------------------------------
    def host_of(self, rank: int) -> Any:
        """The topology host ``rank``'s node plugs into."""
        return self._host_of[rank]

    # -- routing ---------------------------------------------------------
    def _compile(self, src_rank: int, dst_rank: int) -> Any:
        """The compiled route for one packet: a tuple of hops (empty
        between ranks sharing a host port), or ``_UNROUTABLE`` when the
        pair is partitioned by dead links."""
        src = self._host_of[src_rank]
        dst = self._host_of[dst_rank]
        hops = self._hops
        try:
            route = tuple([hops[link] for link in self.topology.route(
                src, dst, rng=self._route_rng, avoid=self._dead)])
        except NoRoute:
            route = _UNROUTABLE
        if self._route_rng is None:
            self._routes[(src_rank, dst_rank)] = route
        return route

    def path_for(self, src_rank: int, dst_rank: int) -> Optional[List[Link]]:
        """The directed-link route for one packet, or ``None`` when the
        pair is partitioned by dead links."""
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._compile(src_rank, dst_rank)
        return None if route is _UNROUTABLE else [hop.link for hop in route]

    # -- flight-time model ----------------------------------------------
    def flight(self, src_rank: int, dst_rank: int, wire_bytes: int,
               now: float) -> Optional[float]:
        """Arrival time of a packet injected at ``now``, accruing
        per-hop serialization and queueing; ``None`` if unroutable."""
        route = self._routes.get((src_rank, dst_rank))
        if route is None:
            route = self._compile(src_rank, dst_rank)
        if route is _UNROUTABLE:
            self.unroutable += 1
            if self.tracer is not None:
                self.tracer.bump("topo.unroutable")
            return None
        if not route:
            # Loopback between ranks sharing a host port: one switch
            # traversal, no cable contention.
            return now + self.topology.link_latency
        t = now
        for hop in route:
            start = hop.busy_until
            if start < t:
                start = t
            ser = wire_bytes * hop.byte_time
            hop.busy_until = free = start + ser
            st = hop.stats
            if st is None:
                st = hop.stats = self.link_stats[hop.link] = LinkStats()
            st.packets += 1
            st.bytes += wire_bytes
            st.busy_us += ser
            st.queue_us += start - t
            t = free + hop.latency
        self.packets_routed += 1
        self.hops_traversed += len(route)
        return t

    # -- fault surface ---------------------------------------------------
    def fail_link(self, u: Any, v: Any, both: bool = True) -> None:
        """Take the cable ``u -> v`` (and ``v -> u`` unless ``both`` is
        false) out of service; routes recompute around it."""
        if (u, v) not in self._hops:
            raise ValueError(f"unknown link {link_label((u, v))}")
        self._dead.add((u, v))
        if both:
            self._dead.add((v, u))
        self._routes.clear()
        if self.tracer is not None:
            self.tracer.bump("topo.link_down")

    def restore_link(self, u: Any, v: Any, both: bool = True) -> None:
        """Return a failed cable to service."""
        self._dead.discard((u, v))
        if both:
            self._dead.discard((v, u))
        self._routes.clear()
        if self.tracer is not None:
            self.tracer.bump("topo.link_up")

    # -- observability ---------------------------------------------------
    def utilization(self, link: Link, now: float) -> float:
        """Fraction of simulated time the link spent serializing."""
        st = self.link_stats.get(link)
        if st is None or now <= 0.0:
            return 0.0
        return st.busy_us / now

    def publish_metrics(self, metrics: "MetricsRegistry",
                        now: float) -> None:
        """Publish per-link traffic/utilization gauges into ``metrics``
        (idempotent — gauges are set, not incremented)."""
        for link in sorted(self.link_stats):
            st = self.link_stats[link]
            label = link_label(link)
            metrics.gauge("topo.link.packets", link=label).set(st.packets)
            metrics.gauge("topo.link.bytes", link=label).set(st.bytes)
            metrics.gauge("topo.link.busy_us", link=label).set(st.busy_us)
            metrics.gauge("topo.link.queue_us", link=label).set(st.queue_us)
            metrics.gauge("topo.link.util", link=label).set(
                self.utilization(link, now))
        metrics.gauge("topo.packets_routed").set(self.packets_routed)
        metrics.gauge("topo.hops_traversed").set(self.hops_traversed)
        metrics.gauge("topo.unroutable").set(self.unroutable)
        metrics.gauge("topo.links_dead").set(len(self._dead))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TopoRuntime {self.topology.name} "
                f"ranks={len(self._host_of)} routed={self.packets_routed} "
                f"dead_links={len(self._dead)}>")
