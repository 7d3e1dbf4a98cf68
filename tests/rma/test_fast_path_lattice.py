"""The fast-path lattice: every combination of the two class switches
(op-train, live control plane) must be indistinguishable from the
all-off per-packet run — simulated times, returns, final window memory,
every engine statistic except the train's own two counters, the
notification boards (deliveries and latencies), and the NIC, fabric and
per-link counters.  The ``nexus`` axis covers the barrier walk *and*
every message the engine can send without a packet (flush round-trips,
software acks, lock hand-offs, get / rmw / rmi requests and their
replies, the payloads of writes that decline the train — one fragment,
several on a flat ordered path, several elsewhere), so the scenarios
below include each; the ``train`` axis covers both ways an element is
timed (at issue; at the injection instant, on routed paths and behind
queued traffic), remote-complete elements that ack themselves, and
notified writes."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.bench.workloads import fig2_attribute_cost, rank_fill
from repro.datatypes import BYTE, INT64
from repro.ga import ShardedStore
from repro.machine import generic_cluster, nec_sx9
from repro.mpi.constants import ERRORS_RETURN
from repro.network.config import quadrics_like, seastar_portals
from repro.network.fabric import Fabric
from repro.network.nic import Nic
from repro.notify import DisseminationBarrier, McsLock, NotifyQueue
from repro.pgas import Team
from repro.rma.engine import RmaEngine
from repro.runtime import World
from repro.sim.core import SimulationError
from repro.topo import fattree_network, torus_network
from tests.conftest import fast_paths, gated_posts
from tests.rma.test_route_telemetry import control_routes

COMBOS = list(itertools.product((False, True), repeat=2))
BIG = 33 * 4096 + 100  # 34 fragments at the 4 KiB MTU


def _observe(world, results):
    """Everything a run exposes, minus the train's own counters."""
    memory, stats, boards = {}, {}, {}
    for rank, ctx in world.contexts.items():
        space = world.memories[rank].space
        memory[rank] = [hashlib.sha256(bytes(space.buffer(a))).hexdigest()
                        for a in ctx.rma.engine._exposures.values()]
        stats[rank] = {k: v for k, v in ctx.rma.stats.items()
                       if k not in ("train_ops", "train_bytes")}
        board = ctx.rma.engine.board
        boards[rank] = (board.delivered(), list(board.latencies))
    return results, world.sim.now, memory, stats, boards


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
                fabric.unroutable_dropped,
                {src: dict(clamp)
                 for src, clamp in fabric._last_delivery.items()})
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
    train is on) and a notified put, beside ops that decline the train:
    a get-accumulate and a CAS."""
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


def _torus_world():
    machine = generic_cluster(n_nodes=8).with_placement("random", 11)
    return World(machine=machine, network=torus_network((2, 2, 2)))


def _torus_halo(notified=False):
    """6-neighbour halo on a 2x2x2 torus, seeded random placement: every
    put crosses contended links (a train element booking its link
    reservations at the injection instant, or a packet), every
    completion is a flush round trip and a barrier — or, ``notified``,
    six waits on the board."""
    def run():
        world = _torus_world()

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(6 * 2048)
            src = ctx.mem.space.alloc(2048, fill=rank_fill(ctx.rank))
            peers = [ctx.rank ^ 4, ctx.rank ^ 4, ctx.rank ^ 2, ctx.rank ^ 2,
                     ctx.rank ^ 1, ctx.rank ^ 1]
            yield from ctx.comm.barrier()
            for _ in range(3):
                for slot, peer in enumerate(peers):
                    yield from ctx.rma.put(
                        src, 0, 2048, BYTE, tmems[peer], slot * 2048, 2048,
                        BYTE, notify=slot if notified else None)
                if notified:
                    for slot in range(6):
                        yield from ctx.rma.wait_notify(tmems[ctx.rank], slot)
                else:
                    yield from ctx.rma.complete_collective(ctx.comm)
            if notified:
                yield from ctx.rma.complete_collective(ctx.comm)
            return ctx.sim.now

        return world, world.run(program)
    return run


def _torus_big():
    """A 34-fragment put on the torus (34 late-booked fragments, or 34
    packets) beside a get to the same target: request and reply share
    the NICs and the links with the fragments."""
    world = _torus_world()

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(BIG + 4096)
        src = ctx.mem.space.alloc(BIG, fill=rank_fill(ctx.rank))
        got = ctx.mem.space.alloc(4096)
        peer = ctx.rank ^ 5
        yield from ctx.comm.barrier()
        yield from ctx.rma.put(src, 0, BIG, BYTE, tmems[peer], 0, BIG, BYTE)
        yield from ctx.rma.get(got, 0, 4096, BYTE, tmems[peer], BIG, 4096,
                               BYTE, blocking=True)
        fetched = ctx.sim.now
        yield from ctx.rma.complete_collective(ctx.comm)
        return fetched, ctx.sim.now

    return world, world.run(program)


def _notified_halo():
    """8-rank ring halo synchronized by the board alone: both
    neighbours, two waits per iteration."""
    world = World(n_ranks=8, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * 1024)
        src = ctx.mem.space.alloc(1024, fill=rank_fill(ctx.rank))
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        yield from ctx.comm.barrier()
        woken = []
        for _ in range(4):
            yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[right], 0, 1024,
                                   BYTE, notify=1)
            yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[left], 1024,
                                   1024, BYTE, notify=2)
            for match in (1, 2):
                yield from ctx.rma.wait_notify(tmems[ctx.rank], match)
                woken.append(ctx.sim.now)
        yield from ctx.rma.complete_collective(ctx.comm)
        return woken, ctx.sim.now

    return world, world.run(program)


def _notify_queue():
    """4-stage ``NotifyQueue`` pipeline: data one way, credits the
    other, every hand-off a notified put and a wait."""
    world = World(n_ranks=4, network=seastar_portals())

    def program(ctx):
        queues = []
        for stage in range(ctx.size - 1):
            queues.append((yield from NotifyQueue.create(
                ctx, producer=stage, consumer=stage + 1, capacity=2,
                slot_bytes=64, name=f"stage{stage}")))
        yield from ctx.comm.barrier()
        seen = []
        for i in range(10):
            if ctx.rank:
                data = yield from queues[ctx.rank - 1].pop()
                seen.append((ctx.sim.now, int(data[0])))
            else:
                data = np.full(64, i + 1, dtype=np.uint8)
            if ctx.rank < ctx.size - 1:
                yield from queues[ctx.rank].push(data)
        yield from ctx.rma.complete_collective(ctx.comm)
        return seen, ctx.sim.now

    return world, world.run(program)


def _dissemination():
    """Five generations of the notified dissemination barrier."""
    world = World(n_ranks=6, network=seastar_portals())

    def program(ctx):
        bar = yield from DisseminationBarrier.create(ctx)
        left = []
        for i in range(5):
            yield ctx.sim.timeout(0.3 * ((ctx.rank + i) % 4))
            yield from bar.wait()
            left.append(ctx.sim.now)
        yield from ctx.rma.complete_collective(ctx.comm)
        return left, ctx.sim.now

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


def _store():
    """``ShardedStore`` on a fat-tree, two ranks per node, open loop:
    gets (a request and a reply each, or a load off the node's shared
    window), remote-complete puts (late-acked train elements on the
    routed path, or packets) and atomic adds, to keys on and off the
    node; then every rank reads its slice back."""
    world = World(machine=generic_cluster(n_nodes=4, ranks_per_node=2),
                  network=fattree_network())

    def program(ctx):
        team = Team.world(ctx)
        store = yield from ShardedStore.create(team, 32)
        yield from ctx.comm.barrier()
        done = []
        for i in range(15):
            key = (ctx.rank * 5 + i * 7) % 32
            yield ctx.sim.timeout(0.7 * ((ctx.rank + i) % 3))
            if i % 3 == 0:
                req = yield from store.get_nb(key)
            elif key % 4 == 3:      # counters only ever receive adds
                req = yield from store.add_nb(key, 1)
            else:
                req = yield from store.put_nb(key, ctx.rank * 100 + i)
            req.event.add_callback(
                lambda _ev, i=i: done.append((i, ctx.sim.now)))
        yield from store.sync()
        finals = []
        for key in range(ctx.rank, 32, ctx.size):
            finals.append((yield from store.get(key)))
        return sorted(done), finals, ctx.sim.now

    return world, world.run(program)


def _mcs_lock():
    """Six ranks contend for an ``McsLock``: every acquire is a swap and
    every release a compare-and-swap on rank 0 — requests answered with
    replies — between notified hand-off puts."""
    world = World(n_ranks=6, network=seastar_portals())

    def program(ctx):
        lock = yield from McsLock.create(ctx)
        held = []
        for i in range(3):
            yield ctx.sim.timeout(0.4 * ((ctx.rank + i) % 3))
            yield from lock.acquire()
            held.append(ctx.sim.now)
            yield ctx.sim.timeout(0.5)
            yield from lock.release()
        yield from ctx.rma.complete_collective(ctx.comm)
        return held, ctx.sim.now

    return world, world.run(program)


def _rmi():
    """Remote method invocations around a ring: argument payloads in the
    requests, list-valued results in the replies."""
    world = World(n_ranks=4, network=seastar_portals())
    for rank, ctx in world.contexts.items():
        ctx.rma.register_rmi(
            "scale", lambda xs, k, r=rank: [x * k + r for x in xs])

    def program(ctx):
        yield from ctx.comm.barrier()
        out = []
        for i in range(3):
            peer = (ctx.rank + 1 + i) % ctx.size
            got = yield from ctx.rma.invoke(peer, "scale",
                                            list(range(i + 2)), ctx.rank + 1)
            out.append((got, ctx.sim.now))
        yield from ctx.rma.complete_collective(ctx.comm)
        return out

    return world, world.run(program)


BIG_GET = 3 * 4096 + 100    # a four-packet reply


def _big_get(torus):
    """A get whose reply spans four MTUs — one lean message of four
    fragments, or one post per fragment on the torus — beside a one-MTU
    get, after a put to the same target."""
    def run():
        world = (_torus_world() if torus
                 else World(n_ranks=8, network=seastar_portals()))

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(BIG_GET + 512)
            ctx.mem.space.buffer(alloc)[:] = rank_fill(ctx.rank)
            src = ctx.mem.space.alloc(512, fill=rank_fill(ctx.rank + 8))
            got = ctx.mem.space.alloc(BIG_GET + 64)
            peer = ctx.rank ^ 5
            yield from ctx.comm.barrier()
            yield from ctx.rma.put(src, 0, 512, BYTE, tmems[peer], BIG_GET,
                                   512, BYTE)
            yield from ctx.rma.get(got, 0, BIG_GET, BYTE, tmems[peer], 0,
                                   BIG_GET, BYTE, blocking=True)
            fetched = ctx.sim.now
            yield from ctx.rma.get(got, BIG_GET, 64, BYTE, tmems[ctx.rank ^ 3],
                                   BIG_GET, 64, BYTE, blocking=True)
            yield from ctx.rma.complete_collective(ctx.comm)
            return fetched, ctx.sim.now, hashlib.sha256(
                bytes(ctx.mem.space.buffer(got))).hexdigest()

        return world, world.run(program)
    return run


def _gated_get():
    """An ``ordering`` get behind an atomic accumulate on the unordered
    fabric: the request waits in ``peer.gated`` until the serializer job
    applied the accumulate, then reads what it wrote."""
    world = World(n_ranks=4, network=quadrics_like(), seed=3)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2048)
        src = ctx.mem.space.alloc(2048, fill=rank_fill(ctx.rank))
        got = ctx.mem.space.alloc(64)
        peer = (ctx.rank + 1) % ctx.size
        yield from ctx.comm.barrier()
        yield from ctx.rma.accumulate(src, 0, 256, INT64, tmems[peer], 0,
                                      256, INT64, atomicity=True)
        yield from ctx.rma.get(got, 0, 64, BYTE, tmems[peer], 0, 64, BYTE,
                               ordering=True, blocking=True)
        fetched = ctx.sim.now
        yield from ctx.rma.complete_collective(ctx.comm)
        return fetched, bytes(ctx.mem.space.buffer(got))

    return world, world.run(program)


def _atomic_big():
    """Seven origins put 64 KiB onto one region of rank 0 under
    ``atomicity``, with the communication-thread serializer and with the
    process lock: sixteen-fragment lean messages into a serializer job,
    and into a lock-held deposit.  The thread world's observation rides
    in the results of the lock world's."""
    sink = []
    elapsed = fig2_attribute_cost("atomicity+thread", 65536,
                                  puts_per_origin=3, world_out=sink)
    thread = (_observe(sink[0], elapsed), _traffic(sink[0]))
    sink = []
    elapsed = fig2_attribute_cost("atomicity+lock", 65536,
                                  puts_per_origin=3, world_out=sink)
    return sink[0], (thread, elapsed)


def _atomic_torus():
    """2x2x2 torus: every rank sends a four-fragment atomic accumulate
    (fragments, posted one by one into a serializer job) and a
    four-fragment atomic put (dense, posted one by one) to the same
    peer, then reads the accumulated words back."""
    world = _torus_world()
    count = (3 * 4096 + 64) // 8

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * count * 8)
        src = ctx.mem.space.alloc(count * 8, fill=rank_fill(ctx.rank))
        got = ctx.mem.space.alloc(64)
        peer = ctx.rank ^ 5
        yield from ctx.comm.barrier()
        yield from ctx.rma.accumulate(src, 0, count, INT64, tmems[peer], 0,
                                      count, INT64, op="sum",
                                      atomicity=True, blocking=True)
        yield from ctx.rma.put(src, 0, count * 8, BYTE, tmems[peer],
                               count * 8, count * 8, BYTE, atomicity=True)
        yield from ctx.rma.get(got, 0, 64, BYTE, tmems[peer], count * 8 - 64,
                               64, BYTE, blocking=True)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now, bytes(ctx.mem.space.buffer(got))

    return world, world.run(program)


def _unordered_big():
    """quadrics: a 16 KiB put, then a 16 KiB ``ordering`` put to the same
    peer.  The second one's fragments overtake the first's and are
    buffered behind its barrier, gated and released fragment by
    fragment, posted or packets; a buffered put on the same fabric
    waits for an atomic one ahead of it."""
    world = World(n_ranks=4, network=quadrics_like(), seed=5)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(3 * 16384)
        src = ctx.mem.space.alloc(16384, fill=rank_fill(ctx.rank))
        peer = (ctx.rank + 1) % ctx.size
        yield from ctx.comm.barrier()
        for _ in range(2):
            yield from ctx.rma.put(src, 0, 16384, BYTE, tmems[peer], 0,
                                   16384, BYTE)
            yield from ctx.rma.put(src, 0, 16384, BYTE, tmems[peer], 16384,
                                   16384, BYTE, ordering=True)
        yield from ctx.rma.put(src, 0, 16384, BYTE, tmems[peer], 2 * 16384,
                               16384, BYTE, atomicity=True)
        yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[peer], 2 * 16384,
                               4096, BYTE, ordering=True)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    world_results = world, world.run(program)
    assert sum(c.rma.stats["gated_frags"] for c in world.contexts.values())
    return world_results


def _noncoherent():
    """NEC SX-9, two ranks per node: non-coherent targets invalidate
    their caches before a write counts as applied — a 16 KiB put (four
    fragments, flat), a software-acked remote-complete one and an
    accumulate, to peers on and off the node."""
    world = World(machine=nec_sx9(n_nodes=2, ranks_per_node=2))

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(3 * 16384)
        src = ctx.mem.space.alloc(16384, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        for peer in (ctx.rank ^ 1, ctx.rank ^ 2):
            yield from ctx.rma.put(src, 0, 16384, BYTE, tmems[peer], 0,
                                   16384, BYTE)
            yield from ctx.rma.put(src, 0, 16384, BYTE, tmems[peer], 16384,
                                   16384, BYTE, remote_completion=True,
                                   blocking=True)
            yield from ctx.rma.accumulate(src, 0, 64, INT64, tmems[peer],
                                          2 * 16384, 64, INT64)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    return world, world.run(program)


#: Fabrics of the buffer-reuse scenario, and the world each builds.
REUSE = {"reuse-after-put": lambda trace: World(
             n_ranks=2, network=seastar_portals(), trace=trace),
         "reuse-after-put-unordered": lambda trace: World(
             n_ranks=2, network=quadrics_like(), seed=3, trace=trace),
         "reuse-after-put-torus": lambda trace: World(
             machine=generic_cluster(n_nodes=8).with_placement("random", 11),
             network=torus_network((2, 2, 2)), trace=trace)}


def _reuse_after_put(fabric, trace=False):
    """Rank 0 writes four fragments at a time to rank 1 — blocking and
    non-blocking puts and accumulates — and overwrites its buffer the
    moment each request completes, while the fragments may still be in
    flight.  Whatever the route and the form, the target holds the
    bytes the buffer held at each call and nothing written after."""
    def run():
        world = REUSE[fabric](trace)
        nbytes = 4 * 4096
        tmem = world.contexts[1].rma.expose(
            world.memories[1].space.alloc(4 * nbytes))

        def program(ctx):
            src = ctx.mem.space.alloc(nbytes)
            buf = ctx.mem.space.buffer(src)
            for slot in range(4):
                buf[:] = 7
                if slot < 2:
                    req = yield from ctx.rma.put(
                        src, 0, nbytes, BYTE, tmem, slot * nbytes, nbytes,
                        BYTE, blocking=slot == 0)
                else:
                    req = yield from ctx.rma.accumulate(
                        src, 0, nbytes // 8, INT64, tmem, slot * nbytes,
                        nbytes // 8, INT64, blocking=slot == 2)
                yield from req.wait()
                buf[:] = 99
            yield from ctx.rma.complete(1)
            return ctx.sim.now

        results = world.run(program, ranks=[0])
        window = world.memories[1].space.buffer(
            world.contexts[1].rma.engine._exposures[tmem.mem_id])
        assert set(window.tolist()) == {7}, fabric
        return world, results
    return run


WORKLOADS = {"fig2-none": _fig2("none"),
             # software acks (`rma.ack`) from the serializer thread
             "fig2-atomicity": _fig2("atomicity+thread"),
             # lock_req -> lock_grant -> unlock hand-offs, 7 contenders
             "fig2-lock": _fig2("atomicity+lock", 1024),
             "halo8": _halo, "mixed": _mixed,
             "torus-halo": _torus_halo(), "hierarchical": _hierarchical,
             "notified-halo": _notified_halo, "notify-queue": _notify_queue,
             "dissemination": _dissemination,
             "torus-notified": _torus_halo(notified=True),
             "torus-big": _torus_big, "store": _store, "mcs-lock": _mcs_lock,
             "rmi": _rmi, "big-get": _big_get(torus=False),
             "big-get-torus": _big_get(torus=True), "gated-get": _gated_get,
             "atomic-big": _atomic_big, "atomic-torus": _atomic_torus,
             "unordered-big": _unordered_big, "noncoherent": _noncoherent,
             **{name: _reuse_after_put(name) for name in REUSE}}
#: Scenarios in which no op can ride the train, whatever the switch.
TRAINLESS = ("fig2-atomicity", "fig2-lock", "rmi", "gated-get",
             "atomic-big", "atomic-torus", "unordered-big", "noncoherent",
             "reuse-after-put-unordered")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_combination_equals_all_off(name):
    run = WORKLOADS[name]
    seen = {}
    for train, nexus in COMBOS:
        with fast_paths(train=train, nexus=nexus):
            world, results = run()
        seen[train, nexus] = (_observe(world, results), _traffic(world))
        trains = sum(c.rma.stats["train_ops"]
                     for c in world.contexts.values())
        if name not in TRAINLESS:
            # the switches are independent: the train needs only its own
            assert (trains > 0) == train, (train, nexus)
        if name == "mixed" and train:
            assert all(c.rma.stats["train_bytes"] == BIG + 512
                       for c in world.contexts.values())
    reference, ref_traffic = seen[False, False]
    for combo, (observed, traffic) in seen.items():
        assert observed == reference, combo
        assert traffic[:-1] == ref_traffic[:-1], combo
        assert traffic[-1] == seen[combo[0], False][1][-1], combo


@pytest.mark.parametrize("fabric", sorted(REUSE))
def test_a_buffer_reused_after_its_request_completes_never_lands(fabric):
    """The traced half of the ``reuse-after-put*`` scenarios (the lattice
    runs them untraced on every combination): tracing changes no path
    and no number — the same ops ride the train, the same bytes land."""
    traced, traced_results = _reuse_after_put(fabric, trace=True)()
    quiet, quiet_results = _reuse_after_put(fabric)()
    assert _observe(traced, traced_results) == _observe(quiet, quiet_results)
    assert _traffic(traced) == _traffic(quiet)
    trains = [sum(c.rma.stats["train_ops"] for c in world.contexts.values())
              for world in (traced, quiet)]
    assert trains[0] == trains[1]
    assert (trains[0] > 0) == (fabric not in TRAINLESS)


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
        waited.append(bool(self._flush_requests.get(src)))

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
    # (the ordered put declines the train behind the atomic one)
    assert control_routes(live) == {("flush", "live", None): 2,
                                    ("write", "live", None): 2,
                                    ("ack", "live", None): 1}
    assert control_routes(packet) == {("flush", "packet", "disabled"): 2,
                                      ("write", "packet", "disabled"): 2,
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
    """The counting guard: with the gate open no flush, no software ack
    and no atomic write is posted as the reference path posts it, yet
    every traffic counter reads what the reference run reads."""
    sent = gated_posts(monkeypatch)

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
        kinds = [k.partition(":")[0] for k in kinds]
        return sorted(k for k in kinds
                      if k.startswith("rma.flush_") or k == "rma.ack"
                      or k == "rma.frag")

    with fast_paths(nexus=True):
        live, live_results = run()
    live_sent, sent[:] = list(sent), []
    with fast_paths(nexus=False):
        packet, packet_results = run()
    n = 24 * 23
    assert control(live_sent) == []
    assert control(sent) == sorted(["rma.flush_req", "rma.flush_ack",
                                    "rma.frag", "rma.ack"] * n)
    assert control_routes(live) == {("flush", "live", None): 2 * n,
                                    ("write", "live", None): n,
                                    ("ack", "live", None): n}
    assert _observe(live, live_results) == _observe(packet, packet_results)
    assert _traffic(live) == _traffic(packet)
    assert (sum(nic.packets_sent for nic in live.nics.values())
            == live.fabric.packets_delivered)


# ----------------------------------------------------------------------
# Notified and late-booked train elements (PR 19)
# ----------------------------------------------------------------------
def _two_ranks(call_overhead, **network):
    """Two ranks whose windows exist before the program starts (no
    collective set-up), so an op can be issued at a chosen instant."""
    machine = generic_cluster(n_nodes=2)
    machine = dataclasses.replace(machine, timings=dataclasses.replace(
        machine.timings, call_overhead=call_overhead))
    world = World(machine=machine, network=dataclasses.replace(
        seastar_portals(), overhead_send=0.0, **network))
    tmem = world.contexts[1].rma.expose(world.memories[1].space.alloc(64))
    return world, tmem


def test_the_wake_of_a_notified_element_cannot_miss_it():
    """The wake is a heap entry at the element's apply time itself.  A
    put issued so early that ``now + (apply - now)`` rounds one ulp
    short of ``apply`` would, scheduled by delay, run before its element
    is due, find nothing to materialize and leave the waiter parked."""
    world, tmem = _two_ranks(call_overhead=1776 * 1e-7)

    def program(ctx):
        if ctx.rank == 1:
            yield from ctx.rma.wait_notify(tmem, 3)
            return ctx.sim.now
        src = ctx.mem.space.alloc(8, fill=9)
        yield from ctx.rma.put(src, 0, 8, BYTE, tmem, 0, 8, BYTE, notify=3)
        return ctx.sim.now

    issued, woken = world.run(program)      # a missed wake is a deadlock
    assert world.contexts[0].rma.stats["train_ops"] == 1
    assert woken == (issued + 0.3) + 2.2    # inject (the gap), then fly
    assert issued + (woken - issued) != woken


def test_a_board_query_at_the_arrival_instant_sees_the_notification():
    """The tie rule (DESIGN §15): a board query is an observation point,
    so at the bit-identical instant of an element's arrival it sees the
    notification even when its own heap entry is older than the wake.
    All times dyadic: issue 0.5, injected 0.75, applied 2.75."""
    world, tmem = _two_ranks(call_overhead=0.5, gap=0.25, latency=2.0)

    def program(ctx):
        if ctx.rank == 1:
            yield ctx.sim.timeout(2.75)     # pushed before the put exists
            board = ctx.rma.engine.board
            return ctx.sim.now, board.test_notify(tmem, 3)
        src = ctx.mem.space.alloc(8, fill=9)
        yield from ctx.rma.put(src, 0, 8, BYTE, tmem, 0, 8, BYTE, notify=3)

    _, seen = world.run(program)
    assert world.contexts[0].rma.stats["train_ops"] == 1
    assert world.contexts[1].rma.engine.board.latencies == [2.25]
    assert seen == (2.75, True)


def test_a_put_issued_at_a_queued_replys_injection_instant_books_late():
    """``now <= _unbooked_until`` is inclusive: at the bit-identical
    instant a queued packet leaves, its injection callback may still be
    behind the issuing process on the heap.  All times dyadic: rank 1's
    get request lands on rank 0 at 3.25, the reply is injected at 3.5 —
    the instant rank 0, parked since 3.0, issues a put to rank 1.
    Booked at issue the put would clamp the reply from 5.5 to behind
    its own 5.75."""
    def run():
        world, to_1 = _two_ranks(call_overhead=0.5, gap=0.25, latency=2.0)
        to_0 = world.contexts[0].rma.expose(world.memories[0].space.alloc(64))

        def program(ctx):
            buf = ctx.mem.space.alloc(8, fill=9)
            if ctx.rank == 0:
                yield ctx.sim.timeout(3.0)
                yield from ctx.rma.put(buf, 0, 8, BYTE, to_1, 0, 8, BYTE)
            else:
                yield ctx.sim.timeout(0.5)
                yield from ctx.rma.get(buf, 0, 8, BYTE, to_0, 0, 8, BYTE,
                                       blocking=True)
            return ctx.sim.now

        return world, world.run(program)

    seen = {}
    for train in (True, False):
        with fast_paths(train=train):
            world, results = run()
        assert world.contexts[0].rma.stats["train_ops"] == train
        assert world.fabric._last_delivery == {0: {1: 5.75}, 1: {0: 3.25}}
        seen[train] = results
    assert seen[True] == seen[False] and seen[True][0] == 3.5


def test_kill_rank_drops_late_and_notified_elements_like_packets():
    """2x2x2 torus, every rank sends a notified halo to its three
    neighbours (elements booked at injection) and waits for theirs,
    watching them.  Rank 0 dies at twelve instants spread over the
    exchange — fragments queued, in flight, applied: drops, the
    watchers' errors and the survivors' memory match the per-packet
    run."""
    spans = []

    def run(at=None):
        world = _torus_world()
        world.set_errhandler(ERRORS_RETURN)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(3 * 2048)
            src = ctx.mem.space.alloc(2048, fill=rank_fill(ctx.rank))
            yield from ctx.comm.barrier()
            start = ctx.sim.now
            outcome = []
            for round_ in range(2):
                for slot, bit in enumerate((1, 2, 4)):
                    yield from ctx.rma.put(
                        src, 0, 2048, BYTE, tmems[ctx.rank ^ bit],
                        slot * 2048, 2048, BYTE, notify=slot)
                for slot, bit in enumerate((1, 2, 4)):
                    errs = yield from ctx.rma.wait_notify(
                        tmems[ctx.rank], slot, watch=[ctx.rank ^ bit])
                    outcome.append((ctx.sim.now,
                                    [(e.kind, e.target) for e in errs]))
            if ctx.rank == 0:
                spans.append((start, ctx.sim.now))
            return outcome

        if at is not None:
            world.sim.schedule_call(at, world._kill_rank, 0)
        return world, world.run(program)

    run()
    (start, end), = spans
    for i in range(12):
        at = start + (end - start) * (i + 0.5) / 12
        seen = {}
        for train in (True, False):
            with fast_paths(train=train):
                world, results = run(at)
            observed = _observe(world, results)
            memory = {r: m for r, m in observed[2].items() if r != 0}
            seen[train] = (results, observed[1], memory, observed[4],
                           world.fabric.dead_dropped)
            assert results[0] is None
        assert seen[True] == seen[False], at
        assert seen[True][4] > 0


def test_kill_rank_between_the_fragments_of_a_late_element():
    """A three-fragment put on the torus whose origin dies after the
    first fragment left and before it lands: the fragment in flight and
    the two still queued are dropped, the element never forms and the
    target's window is untouched — as with packets."""
    seen = {}
    for train in (True, False):
        with fast_paths(train=train):
            world = _torus_world()
            tmem = world.contexts[5].rma.expose(
                world.memories[5].space.alloc(3 * 4096))

            def program(ctx):
                if ctx.rank == 0:
                    src = ctx.mem.space.alloc(3 * 4096, fill=7)
                    yield from ctx.rma.put(src, 0, 3 * 4096, BYTE, tmem, 0,
                                           3 * 4096, BYTE)
                    # issued at 4.2 us; fragments leave 2.064 us apart
                    world.sim.schedule_call(3.0, world._kill_rank, 0)
                yield ctx.sim.timeout(40.0)

            world.run(program)
        assert world.contexts[0].rma.stats["train_ops"] == train
        seen[train] = (world.fabric.dead_dropped,
                       world.fabric.packets_delivered,
                       bytes(world.memories[5].space.buffer(
                           world.contexts[5].rma.engine._exposures[
                               tmem.mem_id])))
    assert seen[True] == seen[False]
    assert seen[True][:2] == (3, 0) and not any(seen[True][2])


@pytest.mark.parametrize("name", ["notified-ring", "torus-halo"])
def test_train_writes_build_no_fragment_packet(name, monkeypatch):
    """The counting guard: notified writes and writes over a routed
    fabric are posted as ``rma.frag`` only where the reference path
    posts them — on the op-train, or with it off as lean messages, they
    are not — yet every traffic counter reads what the reference run
    reads."""
    sent = gated_posts(monkeypatch)

    def ring():
        world = World(n_ranks=16, network=seastar_portals())

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(2 * 1024)
            src = ctx.mem.space.alloc(1024, fill=rank_fill(ctx.rank))
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            yield from ctx.comm.barrier()
            for _ in range(3):
                yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[right], 0,
                                       1024, BYTE, notify=1)
                yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[left], 1024,
                                       1024, BYTE, notify=2)
                yield from ctx.rma.wait_notify(tmems[ctx.rank], 1)
                yield from ctx.rma.wait_notify(tmems[ctx.rank], 2)
            yield from ctx.rma.complete_collective(ctx.comm)
            return ctx.sim.now

        return world, world.run(program)

    run = ring if name == "notified-ring" else WORKLOADS["torus-halo"]
    counted = {}
    for train, nexus in ((True, True), (False, True), (False, False)):
        del sent[:]
        with fast_paths(train=train, nexus=nexus):
            world, results = run()
        puts = sum(c.rma.stats["puts"] for c in world.contexts.values())
        assert (sum(k.startswith("rma.frag") for k in sent)
                == (0 if nexus else puts))
        counted[train, nexus] = (
            results,
            sum(nic.packets_sent for nic in world.nics.values()),
            sum(nic.bytes_sent for nic in world.nics.values()),
            world.fabric.packets_delivered, world.fabric.bytes_delivered,
            None if world.topo is None else world.topo.hops_traversed)
    assert (counted[True, True] == counted[False, True]
            == counted[False, False])


# ----------------------------------------------------------------------
# Requests, replies and late-acked train elements
# ----------------------------------------------------------------------
#: What travels as a posted message or a train element on a quiet world.
LEAN = ("rma.get_req", "rma.rmw_req", "rma.rmi_req", "rma.get_reply",
        "rma.reply", "rma.frag:hw")


def test_quiet_store_builds_no_request_reply_or_acked_write_packet(
        monkeypatch):
    """The counting guard: on a quiet fat-tree no get request, no reply
    and no remote-complete fragment is posted as the reference path
    posts it — they are lean messages and late-acked train elements —
    yet every NIC, fabric and per-link counter reads what the all-off
    run reads."""
    sent = gated_posts(monkeypatch)
    live, live_results = _store()
    live_sent, sent[:] = list(sent), []
    with fast_paths(train=False, nexus=False):
        packet, packet_results = _store()

    assert [k for k in live_sent if k in LEAN] == []
    by_packet = {k: sent.count(k) for k in LEAN if k in sent}
    assert set(by_packet) == {"rma.get_req", "rma.get_reply", "rma.frag:hw"}
    routes = control_routes(live)
    assert routes[("request", "live", None)] == by_packet["rma.get_req"]
    assert routes[("reply", "live", None)] == by_packet["rma.get_reply"]
    assert (sum(c.rma.stats["train_ops"] for c in live.contexts.values())
            == by_packet["rma.frag:hw"])
    assert _observe(live, live_results) == _observe(packet, packet_results)
    assert _traffic(live)[:-1] == _traffic(packet)[:-1]


def test_the_gated_get_waits_in_the_gate(monkeypatch):
    """The ``gated-get`` scenario does what it says: every rank's get
    request is held in the gate (``_gated``) behind the accumulate."""
    gated = []
    gate = RmaEngine._gate

    def spy(self, src, op):
        gated.append(op.desc["kind"])
        gate(self, src, op)

    monkeypatch.setattr(RmaEngine, "_gate", spy)
    world, _ = _gated_get()
    assert gated.count("get") == world.n_ranks
    assert not any(c.rma.engine._gated for c in world.contexts.values())
    assert control_routes(world)[("request", "live", None)] == world.n_ranks


def test_kill_rank_drops_requests_replies_and_late_acks_like_packets():
    """2x2x2 torus: every rank sends each of its three neighbours a
    remote-complete put (a late-acked train element), a get and a
    fetch-add, and notes what completes when without waiting on any of
    it.  Rank 0 dies at twelve instants spread over the exchange —
    requests and replies serializing, in flight or served, elements in
    flight, applied or acked: what completed, the end time, the
    survivors' memory and ``dead_dropped`` match the all-off run."""
    def run(at=None):
        world = _torus_world()

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(4 * 1024)
            ctx.mem.space.buffer(alloc)[3 * 1024:] = rank_fill(ctx.rank)
            src = ctx.mem.space.alloc(1024, fill=rank_fill(ctx.rank + 8))
            got = ctx.mem.space.alloc(3 * 256)
            yield from ctx.comm.barrier()
            start, log = ctx.sim.now, []
            for slot, bit in enumerate((1, 2, 4)):
                peer = ctx.rank ^ bit
                issued = [
                    ("put", (yield from ctx.rma.put(
                        src, 0, 1024, BYTE, tmems[peer], slot * 1024, 1024,
                        BYTE, remote_completion=True))),
                    ("get", (yield from ctx.rma.get(
                        got, slot * 256, 256, BYTE, tmems[peer], 3 * 1024,
                        256, BYTE))),
                    ("fetch_add", (yield from ctx.rma.fetch_and_add(
                        tmems[peer], 3 * 1024 + 512, "int64", 1,
                        blocking=False)))]
                for what, req in issued:
                    req.event.add_callback(
                        lambda ev, key=(what, peer): log.append(
                            (key, ctx.sim.now, repr(ev.value))))
            yield ctx.sim.timeout(40.0)
            return start, sorted(log), bytes(ctx.mem.space.buffer(got))

        if at is not None:
            world.sim.schedule_call(at, world._kill_rank, 0)
        return world, world.run(program)

    _, results = run()
    start, log, _ = results[0]
    assert len(log) == 9        # rank 0's own ops, all complete
    end = max(t for _, t, _ in log)
    engaged = 0
    for i in range(12):
        at = start + (end - start) * (i + 0.5) / 12
        seen = {}
        for on in (True, False):
            with fast_paths(train=on, nexus=on):
                world, results = run(at)
            observed = _observe(world, results)
            memory = {r: m for r, m in observed[2].items() if r != 0}
            seen[on] = (results, observed[1], memory,
                        world.fabric.dead_dropped)
            assert results[0] is None
            if on:
                # (ops issued after the kill find the world faulty)
                engaged += sum(c.rma.stats["train_ops"]
                               for c in world.contexts.values())
        assert seen[True] == seen[False], at
        assert seen[True][3] > 0
    assert engaged > 0


def test_a_late_acked_element_applies_before_its_ack_leaves(monkeypatch):
    """On a one-hop torus whose link latency and per-byte time make the
    fragment's flight ``(now + 0.3) + 2.2`` from an injection at
    0.3000003 us, the late-acked fragment's callback runs at its
    arrival, the element's apply time, so it finds its element due: the
    hardware ack leaves at the per-packet instant, the arrival itself,
    with the payload already in the window, never before it."""
    acks, window = [], []
    hardware_ack = Fabric.hardware_ack

    def spy(self, origin, target, fn, *args):
        acks.append((self.sim.now, bytes(window[0][:8])))
        hardware_ack(self, origin, target, fn, *args)

    monkeypatch.setattr(Fabric, "hardware_ack", spy)

    def run():
        machine = generic_cluster(n_nodes=2)
        machine = dataclasses.replace(machine, timings=dataclasses.replace(
            machine.timings, call_overhead=3e-7))
        world = World(machine=machine, network=dataclasses.replace(
            torus_network((2, 1, 1), link_latency=2.2,
                          link_byte_time=0.0075), overhead_send=0.0))
        alloc = world.memories[1].space.alloc(64)
        tmem = world.contexts[1].rma.expose(alloc)
        window[:] = [world.memories[1].space.buffer(alloc)]

        def program(ctx):
            src = ctx.mem.space.alloc(8, fill=9)
            yield from ctx.rma.put(src, 0, 8, BYTE, tmem, 0, 8, BYTE,
                                   remote_completion=True, blocking=True)
            return ctx.sim.now

        return world, world.run(program, ranks=[0])

    seen = {}
    for train in (True, False):
        del acks[:]
        with fast_paths(train=train):
            world, (done,) = run()
        assert world.contexts[0].rma.stats["train_ops"] == train
        (sent, deposited), = acks
        assert deposited == bytes([9]) * 8
        seen[train] = (sent, done, world.fabric._last_delivery[0][1])
    assert seen[True] == seen[False]
    sent, _, arrival = seen[True]
    assert sent == arrival


# ----------------------------------------------------------------------
# Writes that decline the train: lean messages
# ----------------------------------------------------------------------
FIG2_MODES = ("none", "ordering", "remote_complete", "atomicity+thread",
              "atomicity+lock")
QUIET = {**{f"fig2-{mode}-{size}": _fig2(mode, size)
            for mode in FIG2_MODES for size in (1024, 16384)},
         "store": _store, "mcs-lock": _mcs_lock}


@pytest.mark.parametrize("name", sorted(QUIET))
def test_quiet_writes_build_no_fragment_packet(name, monkeypatch):
    """The counting guard: on a quiet world no ``rma.frag`` packet is
    even constructed (``Packet.__init__`` is counted, so nothing that
    builds packets outside ``Nic.send`` escapes), no write is posted as
    the reference path posts it, no contiguous put is cut into
    ``Fragment`` objects — only the store's accumulates are — and every
    NIC, fabric and per-link counter reads what the run with the live
    control plane off reads."""
    from repro.network.packet import Packet
    from repro.rma.layout import Fragment

    built, cut = [], []
    sent = gated_posts(monkeypatch)
    for cls, log in ((Packet, built), (Fragment, cut)):
        def counting(self, *args, init=cls.__init__, log=log, **kwargs):
            init(self, *args, **kwargs)
            log.append(self)

        monkeypatch.setattr(cls, "__init__", counting)
    live, live_results = QUIET[name]()
    assert [p.kind for p in built if p.kind.startswith("rma.")] == []
    assert [k for k in sent if k.startswith("rma.frag")] == []
    accumulated = sum(c.rma.stats["accumulates"]
                      for c in live.contexts.values())
    assert len(cut) == (accumulated if name == "store" else 0)
    with fast_paths(nexus=False):
        packet, packet_results = QUIET[name]()
    assert built == []      # neither path builds a packet
    # one count per write that declined the train, on its form
    writes = control_routes(live).get(("write", "live", None), 0)
    assert control_routes(packet).get(("write", "packet", "disabled"),
                                      0) == writes
    assert sum(k.startswith("rma.frag") for k in sent) >= writes
    assert writes or "atomicity" not in name
    assert _observe(live, live_results) == _observe(packet, packet_results)
    assert _traffic(live) == _traffic(packet)


def _burst_reference(monkeypatch):
    """Make the reference shape of a multi-fragment write on a flat
    ordered path what it was before that write went lean: its fragments
    batched into one callback at the last injection, one at the last
    arrival and one for the hardware acks, a dead endpoint counted at
    the last injection only.  ``Nic.post_frags`` copies that shape, so
    this is its reference wherever a rank dies with such a write in
    flight — one body call per fragment, each counted at delivery
    too."""
    from repro.network.packet import ACK_SIZE, HEADER_SIZE
    from repro.sim.events import AllOf

    post_frags = Nic.post_frags

    def batched(nic, dst, kind, fn, args, parts, sizes, data=None, op=None,
                injected=False, ack=False):
        sim, src = nic.sim, nic.rank
        fabric = nic.fabric
        if (len(sizes) < 2 or nic.closed_gate() is None
                or not nic.flat_ordered(dst)):
            return post_frags(nic, dst, kind, fn, args, parts, sizes, data,
                              op, injected, ack)
        wires = [HEADER_SIZE + size for size in sizes]
        injs = [sim.event() for _ in sizes]
        acks = [sim.event() for _ in sizes] if ack else None
        times = [nic.reserve(nic.config.serialization_time(wire))
                 for wire in wires]

        def launched():
            for wire, inj, t in zip(wires, injs, times):
                nic.packets_sent += 1
                nic.bytes_sent += wire
                inj.succeed(t)
            if fabric._dead and (src in fabric._dead or dst in fabric._dead):
                fabric.dead_dropped += len(wires)
                return
            arrivals = [fabric.arrival(src, dst, wire, t)
                        for wire, t in zip(wires, times)]
            sim.schedule_call_at(arrivals[-1], delivered, arrivals)

        def delivered(arrivals):
            if fabric._pending_trains:
                fabric.materialize_trains(dst)
            for i, wire in enumerate(wires):
                fabric.packets_delivered += 1
                fabric.bytes_delivered += wire
                fabric.nics[dst].packets_received += 1
                fn(*args, parts[i:i + 1])
            if ack:
                fabric.acks_generated += len(wires)
                rev = fabric.config_for(dst, src)
                flight = rev.latency + ACK_SIZE * rev.byte_time
                sim.schedule_bulk_succeed_at(
                    arrivals[-1] + flight, acks,
                    [arrival + flight for arrival in arrivals])

        sim.schedule_call_at(times[-1], launched)
        return ((AllOf(sim, injs) if injected else None),
                (AllOf(sim, acks) if ack else None))

    monkeypatch.setattr(Nic, "post_frags", batched)


@pytest.mark.parametrize("serializer", ["thread", "lock"])
@pytest.mark.parametrize("torus", [False, True], ids=["flat", "torus"])
def test_kill_rank_drops_lean_writes_like_packets(torus, serializer,
                                                  monkeypatch):
    """Every rank sends its ring neighbour two non-blocking 12 KiB
    atomic puts — three-fragment lean messages into the serializer job
    or under the process lock: on the flat fabric two heap entries each
    (``Nic.post_frags``), on the 2x2x2 torus one post per fragment.
    Rank 0 dies at twelve instants spread over the exchange — fragments
    queued, in flight, landed, applied, acked: what completed when, the
    end time, the survivors' memory and ``dead_dropped`` match the
    packet form each lean shape replaces (per packet on the torus; on
    the flat path the batched reference, :func:`_burst_reference`)."""
    nbytes = 3 * 4096

    def run(at=None):
        if torus:
            machine = generic_cluster(n_nodes=8).with_placement("random", 11)
            world = World(machine=machine, network=torus_network((2, 2, 2)),
                          serializer=serializer)
        else:
            world = World(n_ranks=4, network=seastar_portals(),
                          serializer=serializer)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(2 * nbytes)
            src = ctx.mem.space.alloc(nbytes, fill=rank_fill(ctx.rank))
            peer = (ctx.rank + 1) % ctx.size
            yield from ctx.comm.barrier()
            start, log = ctx.sim.now, []
            for slot in range(2):
                req = yield from ctx.rma.put(
                    src, 0, nbytes, BYTE, tmems[peer], slot * nbytes, nbytes,
                    BYTE, atomicity=True, blocking=False)
                req.event.add_callback(lambda ev, slot=slot: log.append(
                    (slot, ctx.sim.now, repr(ev.value))))
            yield ctx.sim.timeout(80.0)
            return start, sorted(log)

        if at is not None:
            world.sim.schedule_call(at, world._kill_rank, 0)
        try:
            results = world.run(program)
        except SimulationError as exc:      # a lock the victim held
            results = str(exc)
        return world, results

    _, results = run()
    start = results[0][0]
    end = max(t for _, t, _ in results[0][1])
    engaged = 0
    for i in range(12):
        at = start + (end - start) * (i + 0.5) / 12
        seen = {}
        for nexus in (True, False):
            with fast_paths(nexus=nexus), monkeypatch.context() as patch:
                if not nexus:
                    _burst_reference(patch)
                world, results = run(at)
            observed = _observe(world, results)
            memory = {r: m for r, m in observed[2].items() if r != 0}
            seen[nexus] = (results, world.sim.now, memory,
                           world.fabric.dead_dropped)
            if nexus:
                engaged += control_routes(world).get(
                    ("write", "live", None), 0)
        assert seen[True] == seen[False], at
        assert seen[True][3] > 0
    assert engaged > 0
