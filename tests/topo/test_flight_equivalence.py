"""Compiled routes against the dict-walking ``flight`` they replaced.

:class:`ReferenceRuntime` below *is* the pre-PR-18 ``TopoRuntime``
routing and flight code (per-host-pair path memo, ``_params`` / ``_busy``
/ ``link_stats`` dicts keyed by link tuple, the path list copied per
packet), kept here as the model the compiled routes must reproduce:
arrival times ``repr``-equal, the public ``link_stats`` dict equal key by
key and field by field after every step (so no entry appears for a link
nothing crossed), and the routed / hop / unroutable counters equal —
through link failures, restorations and partitions in mid-sequence, on
deterministic and adaptive routing.
"""

import random

import pytest

from repro.sim.rng import RngRegistry
from repro.topo import Crossbar, FatTree, NoRoute, TopoRuntime, Torus3D

_UNROUTABLE = object()


class ReferenceRuntime:
    """The flight model as it stood before routes were compiled."""

    def __init__(self, topology, rank_to_host, rng):
        self.topology = topology
        self._host_of = dict(rank_to_host)
        self._params = {link: topology.link_params(*link)
                        for link in topology.links()}
        self._route_rng = rng.stream("topo.route") if topology.adaptive \
            else None
        self._busy = {}
        self.link_stats = {}
        self._routes = {}
        self._dead = set()
        self.packets_routed = 0
        self.hops_traversed = 0
        self.unroutable = 0

    def path_for(self, src_rank, dst_rank):
        src = self._host_of[src_rank]
        dst = self._host_of[dst_rank]
        if src == dst:
            return []
        if self._route_rng is not None:
            try:
                return self.topology.route(src, dst, rng=self._route_rng,
                                           avoid=self._dead)
            except NoRoute:
                return None
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            try:
                path = tuple(self.topology.route(src, dst, avoid=self._dead))
            except NoRoute:
                path = _UNROUTABLE
            self._routes[key] = path
        return None if path is _UNROUTABLE else list(path)

    def flight(self, src_rank, dst_rank, wire_bytes, now):
        path = self.path_for(src_rank, dst_rank)
        if path is None:
            self.unroutable += 1
            return None
        if not path:
            return now + self.topology.link_latency
        t = now
        busy = self._busy
        stats = self.link_stats
        for link in path:
            latency, byte_time = self._params[link]
            start = busy.get(link, 0.0)
            if start < t:
                start = t
            ser = wire_bytes * byte_time
            busy[link] = start + ser
            st = stats.get(link)
            if st is None:
                st = stats[link] = [0, 0, 0.0, 0.0]
            st[0] += 1
            st[1] += wire_bytes
            st[2] += ser
            st[3] += start - t
            t = start + ser + latency
        self.packets_routed += 1
        self.hops_traversed += len(path)
        return t

    def fail_link(self, u, v):
        self._dead.update(((u, v), (v, u)))
        self._routes.clear()

    def restore_link(self, u, v):
        self._dead.difference_update(((u, v), (v, u)))
        self._routes.clear()


TOPOLOGIES = {
    "torus": lambda: Torus3D((3, 2, 2), link_byte_time=0.002),
    "torus-adaptive": lambda: Torus3D((3, 2, 2), link_byte_time=0.002,
                                      adaptive=True),
    "fattree": lambda: FatTree(2, 3, 2, link_byte_time=0.002),
    "fattree-adaptive": lambda: FatTree(2, 3, 2, link_byte_time=0.002,
                                        adaptive=True),
    "crossbar": lambda: Crossbar(6, link_latency=0.3, link_byte_time=0.001),
}
SEEDS = range(44)   # x 5 topologies = 220 sequences
STEPS = 60


def _snapshot(runtime):
    stats = {link: (tuple(st) if isinstance(st, list)
                    else (st.packets, st.bytes, st.busy_us, st.queue_us))
             for link, st in runtime.link_stats.items()}
    return (stats, runtime.packets_routed, runtime.hops_traversed,
            runtime.unroutable)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_compiled_routes_reproduce_the_dict_walk(name):
    topology = TOPOLOGIES[name]()
    cables = sorted({tuple(sorted(link)) for link in topology.links()})
    for seed in SEEDS:
        rnd = random.Random(f"{name}/{seed}")
        # more ranks than hosts: some pairs share a host port (loopback)
        n_ranks = topology.n_hosts + 3
        placement = {r: topology.hosts[rnd.randrange(topology.n_hosts)]
                     for r in range(n_ranks)}
        compiled = TopoRuntime(topology, placement, rng=RngRegistry(seed))
        reference = ReferenceRuntime(topology, placement, RngRegistry(seed))
        down = []
        now = 0.0
        for step in range(STEPS):
            draw = rnd.random()
            if draw < 0.08:
                cable = rnd.choice(cables)
                down.append(cable)
                compiled.fail_link(*cable)
                reference.fail_link(*cable)
            elif draw < 0.12:
                # partition: every cable of one host goes at once
                host = placement[rnd.randrange(n_ranks)]
                for cable in cables:
                    if host in cable:
                        down.append(cable)
                        compiled.fail_link(*cable)
                        reference.fail_link(*cable)
            elif draw < 0.24 and down:
                cable = down.pop(rnd.randrange(len(down)))
                compiled.restore_link(*cable)
                reference.restore_link(*cable)
            else:
                src, dst = rnd.sample(range(n_ranks), 2)
                nbytes = rnd.choice((32, 40, 544, 2080, 4128))
                now += rnd.choice((0.0, 0.0, 0.05, 0.7, 3.0))
                got = compiled.flight(src, dst, nbytes, now)
                want = reference.flight(src, dst, nbytes, now)
                assert repr(got) == repr(want), (seed, step)
                if not topology.adaptive:
                    # (an adaptive path_for draws a route: asking would
                    # advance one stream and not the other)
                    assert compiled.path_for(src, dst) == \
                        reference.path_for(src, dst)
            assert _snapshot(compiled) == _snapshot(reference), (seed, step)
        assert compiled.unroutable == reference.unroutable
    assert compiled.packets_routed > 0


def test_untraversed_links_have_no_stats_entry():
    topology = Crossbar(4)
    runtime = TopoRuntime(topology, {r: ("h", r) for r in range(4)})
    runtime.flight(0, 1, 64, now=0.0)
    assert sorted(runtime.link_stats) == [(("h", 0), ("xbar", 0)),
                                          (("xbar", 0), ("h", 1))]
