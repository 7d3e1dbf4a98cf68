"""Routed fabrics inside a full World: congestion, placement, metrics."""

import pytest

from repro.bench.workloads import (
    all_to_all_time,
    hotspot_incast,
    torus_halo_time,
)
from repro.machine import generic_cluster
from repro.network import seastar_portals
from repro.runtime import World
from repro.topo import crossbar_network, fattree_network, torus_network


def slow_torus(dims=(4, 4, 4)):
    # link_byte_time=0.002 makes per-hop serialization (4.1us for a
    # 2KiB put) exceed the open-loop issue interval, so fan-in actually
    # backs up instead of draining between puts.
    return torus_network(dims, link_byte_time=0.002)


class TestHotspotCongestion:
    def test_torus_incast_tail_grows_superlinearly(self):
        net = slow_torus()
        p99 = {}
        for fanin in (2, 8):
            r = hotspot_incast(
                fanin, network=net,
                machine=generic_cluster(n_nodes=fanin + 1))
            p99[fanin] = r["p99"]
        # 4x the fan-in, far more than 4x the tail: the hot ingress
        # links at rank 0's host saturate and the backlog compounds.
        assert p99[8] > 5 * (8 / 2) * p99[2]

    def test_flat_fabric_shows_no_incast_tail(self):
        p99 = {}
        for fanin in (2, 8):
            r = hotspot_incast(fanin)
            p99[fanin] = r["p99"]
        assert p99[8] == pytest.approx(p99[2], rel=0.5)

    def test_congestion_on_every_topology(self):
        nets = {
            "torus": slow_torus(),
            "fattree": fattree_network(link_byte_time=0.002),
            "crossbar": crossbar_network(n_hosts=9, link_byte_time=0.002),
        }
        for name, net in nets.items():
            r = hotspot_incast(
                8, network=net, machine=generic_cluster(n_nodes=9))
            flat = hotspot_incast(8)
            assert r["p99"] > 2 * flat["p99"], name


class TestPlacement:
    def test_random_placement_slows_torus_halo(self):
        blk = torus_halo_time(dims=(4, 4, 4), iterations=3,
                              placement="block")
        rnd = torus_halo_time(dims=(4, 4, 4), iterations=3,
                              placement="random", placement_seed=1)
        # Block placement puts halo neighbours one hop apart; random
        # placement scatters them across the torus.
        assert rnd > blk * 1.05


class TestDeterminismAndMetrics:
    def test_adaptive_torus_world_is_seed_deterministic(self):
        net = torus_network((2, 2, 2), adaptive=True)
        machine = generic_cluster(n_nodes=8)
        a = all_to_all_time(n_ranks=8, iterations=2, network=net,
                            machine=machine, seed=11)
        b = all_to_all_time(n_ranks=8, iterations=2, network=net,
                            machine=machine, seed=11)
        assert a == b

    def test_world_without_topology_has_no_topo_runtime(self):
        world = World(n_ranks=2, network=seastar_portals(), seed=0)
        assert world.topo is None
        assert world.fabric.topology is None

    def test_world_rejects_machine_larger_than_topology(self):
        net = torus_network((2, 2, 2))  # 8 hosts
        with pytest.raises(ValueError):
            World(machine=generic_cluster(n_nodes=9), network=net, seed=0)

    def test_topo_metrics_published_and_consistent(self):
        out = []
        hotspot_incast(3, network=crossbar_network(n_hosts=4),
                       machine=generic_cluster(n_nodes=4), world_out=out)
        world = out[0]
        topo = world.topo
        assert topo is not None
        link_sum = sum(st.packets for st in topo.link_stats.values())
        assert link_sum == topo.hops_traversed
        assert topo.packets_routed > 0

        snap = world.collect_metrics().snapshot()
        gauges = {g["name"] for g in snap["gauges"]}
        assert "topo.packets_routed" in gauges
        assert "topo.link.busy_us" in gauges
        assert "fabric.unroutable_dropped" in gauges

    def test_burst_delivery_disabled_on_routed_fabric(self, monkeypatch):
        """A write of several fragments that declines the train is one
        post per fragment on a routed fabric — each reserves its links
        at its own injection — never the flat message of two heap
        entries (``Nic.post_frags``'s ``_frags_launch``), which would
        bypass per-link accounting."""
        from repro.datatypes import BYTE
        from repro.network.nic import Nic

        flat = []
        monkeypatch.setattr(Nic, "_frags_launch",
                            lambda self, *args: flat.append(args))
        world = World(machine=generic_cluster(n_nodes=3),
                      network=slow_torus())
        nbytes = 3 * world.nics[0].config.mtu

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(nbytes)
            yield from ctx.comm.barrier()
            if ctx.rank:
                src = ctx.mem.space.alloc(nbytes, fill=ctx.rank)
                yield from ctx.rma.put(src, 0, nbytes, BYTE, tmems[0], 0,
                                       nbytes, BYTE, atomicity=True,
                                       blocking=True)
            yield from ctx.comm.barrier()

        world.run(program)
        assert not flat
        topo = world.topo
        assert topo.packets_routed > 0
        assert (sum(st.packets for st in topo.link_stats.values())
                == topo.hops_traversed)
