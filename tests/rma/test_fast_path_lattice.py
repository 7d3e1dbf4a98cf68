"""The fast-path lattice: every combination of the three class switches
(op-train, NIC burst, live control plane) must be indistinguishable from
the all-off per-packet run — simulated times, returns, final window
memory, every engine statistic except the train's own two counters, and
the NIC, fabric and per-link counters.  The ``nexus`` axis covers the
barrier walk *and* the engine's header-only messages (flush round-trips,
software acks, lock hand-offs), so the scenarios below include each."""

import hashlib
import itertools

import pytest

from repro.bench.workloads import fig2_attribute_cost, rank_fill
from repro.datatypes import BYTE, INT64
from repro.machine import generic_cluster
from repro.network.config import seastar_portals
from repro.network.nic import Nic
from repro.rma.engine import RmaEngine
from repro.runtime import World
from repro.sim.core import SimulationError
from repro.topo import torus_network
from tests.conftest import fast_paths
from tests.rma.test_route_telemetry import control_routes

COMBOS = list(itertools.product((False, True), repeat=3))
BIG = 33 * 4096 + 100  # 34 fragments at the 4 KiB MTU


def _observe(world, results):
    """Everything a run exposes, minus the train's own counters."""
    memory, stats = {}, {}
    for rank, ctx in world.contexts.items():
        space = world.memories[rank].space
        memory[rank] = [hashlib.sha256(bytes(space.buffer(a))).hexdigest()
                        for a in ctx.rma.engine._exposures.values()]
        stats[rank] = {k: v for k, v in ctx.rma.stats.items()
                       if k not in ("train_ops", "train_bytes")}
    return results, world.sim.now, memory, stats


def _traffic(world):
    """NIC, fabric and per-link counters.  Last comes ``packets_received``
    per rank: a train element counts as delivered by the fabric but not
    as received by the NIC, so that one counter is comparable only
    between runs with the same ``train``."""
    nics = {rank: (nic.packets_sent, nic.bytes_sent, nic._reserved_until)
            for rank, nic in world.nics.items()}
    fabric = world.fabric
    counters = (fabric.packets_delivered, fabric.bytes_delivered,
                fabric.acks_generated, fabric.reorder_count,
                fabric.intra_node_packets, fabric.dead_dropped,
                fabric.unroutable_dropped, dict(fabric._last_delivery))
    links = None if world.topo is None else {
        link: (st.packets, st.bytes, st.busy_us, st.queue_us)
        for link, st in world.topo.link_stats.items()}
    received = {rank: nic.packets_received
                for rank, nic in world.nics.items()}
    return nics, counters, links, received


def _fig2(mode, size=65536):
    def run():
        sink = []
        t = fig2_attribute_cost(mode, size, puts_per_origin=6,
                                world_out=sink)
        return sink[0], t
    return run


def _halo():
    world = World(n_ranks=8, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * 4096)
        src = ctx.mem.space.alloc(4096, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for _ in range(4):
            yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[right], 0,
                                   4096, BYTE, blocking=True)
            yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[left], 4096,
                                   4096, BYTE, blocking=True)
            yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    return world, world.run(program)


def _mixed():
    """A > 32-fragment put (rides the train's running-sum loop when the
    train is on) beside ops that decline it: a notified put, a
    get-accumulate and a CAS."""
    world = World(n_ranks=4, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(BIG + 4096)
        src = ctx.mem.space.alloc(BIG, fill=rank_fill(ctx.rank))
        old = ctx.mem.space.alloc(64)
        yield from ctx.comm.barrier()
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        req = yield from ctx.rma.put(src, 0, BIG, BYTE, tmems[right], 0,
                                     BIG, BYTE, remote_completion=True)
        yield from ctx.rma.put(src, 0, 512, BYTE, tmems[right], BIG, 512,
                               BYTE, notify=4)
        yield from ctx.rma.wait_notify(tmems[ctx.rank], 4)
        yield from ctx.rma.get_accumulate(old, 0, 4, INT64, tmems[left],
                                          BIG + 1024, 4, INT64, op="sum")
        swapped = yield from ctx.rma.compare_and_swap(
            tmems[left], BIG + 2048, "int64", 0, ctx.rank + 1)
        yield from req.wait()
        yield from ctx.rma.complete_collective(ctx.comm)
        return (ctx.sim.now, int(swapped),
                bytes(ctx.mem.space.buffer(old)[:32]))

    return world, world.run(program)


def _torus_halo():
    """6-neighbour halo on a 2x2x2 torus, seeded random placement: every
    put is packets over contended links, every completion a flush round
    trip and a barrier."""
    machine = generic_cluster(n_nodes=8).with_placement("random", 11)
    world = World(machine=machine, network=torus_network((2, 2, 2)))

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(6 * 2048)
        src = ctx.mem.space.alloc(2048, fill=rank_fill(ctx.rank))
        peers = [ctx.rank ^ 4, ctx.rank ^ 4, ctx.rank ^ 2, ctx.rank ^ 2,
                 ctx.rank ^ 1, ctx.rank ^ 1]
        yield from ctx.comm.barrier()
        for _ in range(3):
            for slot, peer in enumerate(peers):
                yield from ctx.rma.put(src, 0, 2048, BYTE, tmems[peer],
                                       slot * 2048, 2048, BYTE)
            yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    return world, world.run(program)


def _hierarchical():
    """Two ranks per node: flushes and software acks to the on-node
    neighbour fly under the intra-node personality, the rest under the
    interconnect's."""
    world = World(machine=generic_cluster(n_nodes=4, ranks_per_node=2),
                  network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(3 * 4096)
        src = ctx.mem.space.alloc(4096, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        for _ in range(3):
            for slot, peer in enumerate((ctx.rank ^ 1,
                                         (ctx.rank + 2) % ctx.size)):
                yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[peer],
                                       slot * 4096, 4096, BYTE)
                yield from ctx.rma.put(src, 0, 512, BYTE, tmems[peer],
                                       2 * 4096 + slot * 512, 512, BYTE,
                                       atomicity=True)
            yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    return world, world.run(program)


WORKLOADS = {"fig2-none": _fig2("none"),
             # software acks (`rma.ack`) from the serializer thread
             "fig2-atomicity": _fig2("atomicity+thread"),
             # lock_req -> lock_grant -> unlock hand-offs, 7 contenders
             "fig2-lock": _fig2("atomicity+lock", 1024),
             "halo8": _halo, "mixed": _mixed,
             "torus-halo": _torus_halo, "hierarchical": _hierarchical}
#: Scenarios in which no op can ride the train, whatever the switch.
TRAINLESS = ("fig2-atomicity", "fig2-lock", "torus-halo")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_combination_equals_all_off(name):
    run = WORKLOADS[name]
    seen = {}
    for train, burst, nexus in COMBOS:
        with fast_paths(train=train, burst=burst, nexus=nexus):
            world, results = run()
        seen[train, burst, nexus] = (_observe(world, results),
                                     _traffic(world))
        trains = sum(c.rma.stats["train_ops"]
                     for c in world.contexts.values())
        if name not in TRAINLESS:
            # the switches are independent: the train needs only its own
            assert (trains > 0) == train, (train, burst, nexus)
        if name == "mixed" and train:
            assert all(c.rma.stats["train_bytes"] == BIG
                       for c in world.contexts.values())
    reference, ref_traffic = seen[False, False, False]
    for combo, (observed, traffic) in seen.items():
        assert observed == reference, combo
        assert traffic[:-1] == ref_traffic[:-1], combo
        assert traffic[-1] == seen[combo[0], False, False][1][-1], combo


def _nexus_on_off(run):
    """``run()`` with the live control plane on, then off; checks the
    two observations agree and returns the two worlds."""
    seen = {}
    for nexus in (True, False):
        with fast_paths(nexus=nexus):
            world, results = run()
        seen[nexus] = (world, _observe(world, results), _traffic(world))
    assert seen[True][1:] == seen[False][1:]
    return seen[True][0], seen[False][0]


def test_a_flush_that_must_wait_answers_at_the_per_packet_instant(
        monkeypatch):
    """A put ordered behind a large atomic put: the flush request lands
    while the serializer job still runs, waits on the target, and is
    answered from ``_answer_flushes`` when the watermark gets there."""
    waited = []
    flush_req = RmaEngine._flush_req

    def spy(self, src, watermark, flush_id):
        flush_req(self, src, watermark, flush_id)
        waited.append(bool(self._target_peer(src).flush_waiters))

    monkeypatch.setattr(RmaEngine, "_flush_req", spy)

    def run():
        world = World(n_ranks=2, network=seastar_portals())

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(1 << 16)
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(1 << 16, fill=9)
                yield from ctx.rma.put(src, 0, 1 << 16, BYTE, tmems[1], 0,
                                       1 << 16, BYTE, atomicity=True)
                yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1], 0, 64,
                                       BYTE, ordering=True)
                yield from ctx.rma.complete(ctx.comm, 1)
            done = ctx.sim.now
            yield from ctx.comm.barrier()
            return done

        return world, world.run(program)

    live, packet = _nexus_on_off(run)
    assert waited == [True, True]
    assert live.contexts[1].rma.stats["gated_frags"] == 1
    assert control_routes(live) == {("flush", "live", None): 2,
                                    ("ack", "live", None): 1}
    assert control_routes(packet) == {("flush", "packet", "disabled"): 2,
                                      ("ack", "packet", "disabled"): 1}


def test_kill_rank_drops_live_flushes_in_flight_like_packets():
    """Three origins flush toward a rank that dies while the requests
    (or its answers) are serializing or in flight: each is dropped where
    a packet would be, so ``dead_dropped`` matches the per-packet run."""
    posted, answered = [], []

    def run(at=None):
        world = World(n_ranks=4, network=seastar_portals())

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(4096)
            if ctx.rank:
                src = ctx.mem.space.alloc(1024, fill=ctx.rank)
                yield ctx.sim.timeout(ctx.rank * 0.7)
                yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[0], 0,
                                       1024, BYTE)
                posted.append(ctx.sim.now)
                yield from ctx.rma.complete(ctx.comm, 0)
                answered.append(ctx.sim.now)

        if at is None:
            return world, world.run(program)
        world.sim.schedule_call(at, world.fabric.kill_rank, 0)
        with pytest.raises(SimulationError):
            world.run(program)      # the origins' flushes never return
        return world, None

    run()
    # from the last flush posted to the first one answered: every
    # origin hangs, each with its round trip cut at a different point
    start, end = max(posted), min(answered)
    assert start < end
    for i in range(12):
        live, _packet = _nexus_on_off(
            lambda: run(start + (end - start) * (i + 0.5) / 12))
        # each round trip lost its request or its answer
        assert live.fabric.dead_dropped >= 3
        assert ("flush", "live", None) in control_routes(live)


def test_quiet_alltoall_builds_no_control_packet(monkeypatch):
    """The counting guard: with the gate open no flush or software ack
    reaches ``Nic.send``, yet every traffic counter reads what the
    per-packet run reads."""
    sent = []
    send = Nic.send

    def spy(self, packet):
        sent.append(packet.kind)
        return send(self, packet)

    monkeypatch.setattr(Nic, "send", spy)

    def run():
        world = World(n_ranks=24, network=seastar_portals())

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(
                ctx.size * 256)
            src = ctx.mem.space.alloc(256, fill=rank_fill(ctx.rank))
            yield from ctx.comm.barrier()
            for step in range(1, ctx.size):
                peer = (ctx.rank + step) % ctx.size
                yield from ctx.rma.put(src, 0, 192, BYTE, tmems[peer],
                                       ctx.rank * 256, 192, BYTE)
                # applied by the serializer thread, acked in software
                yield from ctx.rma.put(src, 0, 64, BYTE, tmems[peer],
                                       ctx.rank * 256 + 192, 64, BYTE,
                                       atomicity=True)
            yield from ctx.rma.complete_collective(ctx.comm)
            return ctx.sim.now

        return world, world.run(program)

    def control(kinds):
        return sorted(k for k in kinds
                      if k.startswith("rma.flush_") or k == "rma.ack")

    with fast_paths(nexus=True):
        live, live_results = run()
    live_sent, sent[:] = list(sent), []
    with fast_paths(nexus=False):
        packet, packet_results = run()
    n = 24 * 23
    assert control(live_sent) == []
    assert control(sent) == sorted(["rma.flush_req", "rma.flush_ack",
                                    "rma.ack"] * n)
    assert control_routes(live) == {("flush", "live", None): 2 * n,
                                    ("ack", "live", None): n}
    assert _observe(live, live_results) == _observe(packet, packet_results)
    assert _traffic(live) == _traffic(packet)
    assert (sum(nic.packets_sent for nic in live.nics.values())
            == live.fabric.packets_delivered)
