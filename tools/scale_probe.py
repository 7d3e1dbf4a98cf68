#!/usr/bin/env python3
"""How host cost per op grows with the rank count: personalized
all-to-all and 1-target incast on the flat Portals fabric, and
(``--torus``) the routed point: a 6-neighbour halo on a 4x4x4 and an
8x8x8 torus, seeded random placement; (``--notify``) a ring halo
synchronized by notified puts alone on 64 / 256 / 1 024 flat ranks;
(``--stream``) one origin streaming 400 blocking 64 KiB puts onto an
idle target, flat and on a 2x2x2 torus; (``--store``) a
``ShardedStore`` on a fat-tree, two ranks per node, serving an open
loop of Zipf-keyed 60/30/10 get/put/add requests on 16 / 64 / 256
ranks; (``--atomic``) P - 1 origins each issuing 100 blocking 1 / 16 /
64 KiB atomic puts to rank 0, under the communication-thread and the
process-lock serializer, on 8 ranks by default.  Every point runs twice:
once plain for the wall, the cyclic collector's collections and seconds
by generation (``gc.callbacks``), the timed callbacks the kernel ran
and the distinct instants it popped them at, then once under ``tracemalloc`` for *its own* peak (the process's RSS
high-water would be the largest earlier point's), the high-water of
pending op-train elements, the ``Packet`` and ``Fragment`` objects
constructed, the messages posted (``Nic.post``,
``Nic.post_frags``), the objects the collector tracks when the last
rank enters its last ``complete_all`` and the flushes in flight then
(requests signalled minus acks handled).  Report only
(``PYTHONPATH=src python tools/scale_probe.py [--torus | --notify |
--stream | --store | --atomic] [P ...]``) — the gates are counting
tests: ``tests/network/test_train_registry.py`` on the fan-in
structures, ``tests/rma/test_train_fanin.py`` on what a train may hold,
``tests/rma/test_fast_path_lattice.py`` on what a quiet world builds."""

import bisect
import gc
import random
import sys
import time
import tracemalloc

import repro.sim.core as kernel
from repro.datatypes import BYTE
from repro.ga import ShardedStore
from repro.machine import generic_cluster
from repro.network.config import seastar_portals
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.pgas import Team
from repro.rma.engine import RmaEngine
from repro.rma.layout import Fragment
from repro.rma.train import OpTrain
from repro.runtime import World
from repro.sim import Simulator
from repro.topo import fattree_network, torus_network

NBYTES, INCAST_PUTS, HALO_ITERS = 1024, 32, 4
STREAM_BYTES, STREAM_PUTS = 65536, 400
STORE_KEYS, STORE_REQUESTS, STORE_GAP_US = 512, 60, 4.0
ATOMIC_PUTS = 100


def program(ctx, incast):
    alloc, tmems = yield from ctx.rma.expose_collective(NBYTES * ctx.size)
    src = ctx.mem.space.alloc(NBYTES, fill=1 + ctx.rank % 250)
    yield from ctx.comm.barrier()
    peers = [0] * INCAST_PUTS if incast else range(ctx.size)
    for peer in peers:
        if peer != ctx.rank:
            yield from ctx.rma.put(src, 0, NBYTES, BYTE, tmems[peer],
                                   ctx.rank * NBYTES, NBYTES, BYTE)
    yield from ctx.rma.complete_collective(ctx.comm)


def halo(ctx, side):
    alloc, tmems = yield from ctx.rma.expose_collective(6 * NBYTES)
    src = ctx.mem.space.alloc(NBYTES, fill=1 + ctx.rank % 250)
    coord = (ctx.rank // (side * side), ctx.rank // side % side,
             ctx.rank % side)
    peers = []
    for dim in range(3):
        for sign in (1, -1):
            c = list(coord)
            c[dim] = (c[dim] + sign) % side
            peers.append((c[0] * side + c[1]) * side + c[2])
    yield from ctx.comm.barrier()
    for _ in range(HALO_ITERS):
        for slot, peer in enumerate(peers):
            yield from ctx.rma.put(src, 0, NBYTES, BYTE, tmems[peer],
                                   slot * NBYTES, NBYTES, BYTE)
        yield from ctx.rma.complete_collective(ctx.comm)


def notified_ring(ctx):
    alloc, tmems = yield from ctx.rma.expose_collective(2 * NBYTES)
    src = ctx.mem.space.alloc(NBYTES, fill=1 + ctx.rank % 250)
    right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
    yield from ctx.comm.barrier()
    for _ in range(HALO_ITERS):
        yield from ctx.rma.put(src, 0, NBYTES, BYTE, tmems[right], 0,
                               NBYTES, BYTE, notify=1)
        yield from ctx.rma.put(src, 0, NBYTES, BYTE, tmems[left], NBYTES,
                               NBYTES, BYTE, notify=2)
        yield from ctx.rma.wait_notify(tmems[ctx.rank], 1)
        yield from ctx.rma.wait_notify(tmems[ctx.rank], 2)
    yield from ctx.rma.complete_collective(ctx.comm)


def stream(ctx):
    alloc, tmems = yield from ctx.rma.expose_collective(STREAM_BYTES)
    src = ctx.mem.space.alloc(STREAM_BYTES, fill=1)
    yield from ctx.comm.barrier()
    if ctx.rank == 0:
        for _ in range(STREAM_PUTS):
            yield from ctx.rma.put(src, 0, STREAM_BYTES, BYTE, tmems[1], 0,
                                   STREAM_BYTES, BYTE, blocking=True)
    elif ctx.rank == 1:
        yield from ctx.compute(STREAM_PUTS * 60.0)
    yield from ctx.rma.complete_collective(ctx.comm)


def atomic(ctx, nbytes):
    alloc, tmems = yield from ctx.rma.expose_collective(nbytes)
    yield from ctx.comm.barrier()
    if ctx.rank:
        src = ctx.mem.space.alloc(nbytes, fill=1 + ctx.rank % 250)
        for _ in range(ATOMIC_PUTS):
            yield from ctx.rma.put(src, 0, nbytes, BYTE, tmems[0], 0, nbytes,
                                   BYTE, atomicity=True, blocking=True)
    yield from ctx.rma.complete_collective(ctx.comm)


def store_schedule(n_ranks):
    """Per rank, ``(due_us, class, key)`` of an open loop: exponential
    gaps, 60/30/10 get/put/add, Zipf(1.2) keys — adds only to every
    eighth key, puts to the others."""
    weights = [1.0 / (k + 1) ** 1.2 for k in range(STORE_KEYS)]
    keys = {"get": list(range(STORE_KEYS)),
            "put": [k for k in range(STORE_KEYS) if k % 8 != 7],
            "add": [k for k in range(STORE_KEYS) if k % 8 == 7]}
    cdfs = {}
    for cls, ks in keys.items():
        total, cdf = 0.0, []
        for k in ks:
            total += weights[k]
            cdf.append(total)
        cdfs[cls] = cdf
    schedule = []
    for rank in range(n_ranks):
        rng, due, reqs = random.Random(rank), 0.0, []
        for _ in range(STORE_REQUESTS):
            due += rng.expovariate(1.0 / STORE_GAP_US)
            draw = rng.random()
            cls = "get" if draw < 0.6 else "put" if draw < 0.9 else "add"
            cdf = cdfs[cls]
            reqs.append((due, cls, keys[cls][bisect.bisect_left(
                cdf, rng.random() * cdf[-1])]))
        schedule.append(reqs)
    return schedule


def store(ctx, schedule):
    team = Team.world(ctx)
    kv = yield from ShardedStore.create(team, STORE_KEYS)
    yield from ctx.comm.barrier()
    t0 = ctx.sim.now
    for i, (due, cls, key) in enumerate(schedule[ctx.rank]):
        if ctx.sim.now < t0 + due:
            yield ctx.sim.timeout(t0 + due - ctx.sim.now)
        if cls == "get":
            yield from kv.get_nb(key)
        elif cls == "put":
            yield from kv.put_nb(key, ctx.rank * 1_000_000 + i)
        else:
            yield from kv.add_nb(key, 1)
    yield from kv.sync()


def store_world(n_ranks):
    nodes = n_ranks // 2
    return World(machine=generic_cluster(n_nodes=nodes, ranks_per_node=2),
                 network=fattree_network(hosts_per_leaf=8,
                                         n_leaf=max(2, -(-nodes // 8))))


def store_ops(world):
    return world.n_ranks * STORE_REQUESTS


def memory_pass(world, rank_program, *args):
    """Run under ``tracemalloc`` with a counter on the op-train's queue,
    on the objects a message may be built of, on the messages posted,
    on flush requests and answers and on ``complete_all``: (peak
    MiB allocated by the run, most elements pending at once, ``Packet``s
    constructed, ``Fragment``s constructed, messages posted, objects
    tracked by the collector when the last rank entered
    its last ``complete_all`` and flushes in flight then — both None if
    no round of them ever completed)."""
    pending = [0, 0]                    # now, high-water
    built = [0, 0, 0]                   # Packet, Fragment, posted
    tracked = [0, None, None]           # complete_all calls, census, flushes
    flushes = [0, 0]                    # requests signalled, acks handled
    peaks = [0]                         # traced peak before each census
    saved = [(OpTrain, "append"), (OpTrain, "pop_head"),
             (Packet, "__init__"), (Fragment, "__init__"),
             (Nic, "post"), (Nic, "_frags_launch"),
             (RmaEngine, "complete_all"),
             (RmaEngine, "signal"), (RmaEngine, "_flush_ack")]
    saved = [(cls, name, getattr(cls, name)) for cls, name in saved]
    (append, pop_head, packet, fragment, post, frags_launch, complete_all,
     signal, flush_ack) = (fn for _cls, _name, fn in saved)

    def counting_append(train, elem):
        pending[0] += 1
        pending[1] = max(pending[1], pending[0])
        append(train, elem)

    def counting_pop(train):
        pending[0] -= 1
        return pop_head(train)

    def counting(fn, i):
        def count(*a, **kw):
            built[i] += 1
            return fn(*a, **kw)
        return count

    def census_complete_all(engine):
        tracked[0] += 1
        if tracked[0] % world.n_ranks == 0:     # the last rank of a round
            # the census's own list is no allocation of the run's
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracked[1] = len(gc.get_objects())
            tracked[2] = flushes[0] - flushes[1]
            tracemalloc.reset_peak()
        return complete_all(engine)

    def counting_signal(engine, dst, message, *fields, **kw):
        flushes[0] += message == "rma.flush_req"
        return signal(engine, dst, message, *fields, **kw)

    def counting_flush_ack(engine, src, flush_id):
        flushes[1] += 1
        return flush_ack(engine, src, flush_id)

    OpTrain.append, OpTrain.pop_head = counting_append, counting_pop
    Packet.__init__ = counting(packet, 0)
    Fragment.__init__ = counting(fragment, 1)
    # a message is one post, or one two-entry post_frags message (whose
    # other shapes are posts)
    Nic.post, Nic._frags_launch = counting(post, 2), counting(frags_launch, 2)
    RmaEngine.complete_all = census_complete_all
    RmaEngine.signal, RmaEngine._flush_ack = counting_signal, counting_flush_ack
    tracemalloc.start()
    try:
        world.run(rank_program, *args)
        peak = max(*peaks, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for cls, name, fn in saved:
            setattr(cls, name, fn)
    return (peak / 2**20, pending[1], *built, *tracked[1:])


class CollectorClock:
    """Collections and seconds in the cyclic collector, by generation,
    while installed (``gc.callbacks``)."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            gen = info["generation"]
            self.collections[gen] += 1
            self.seconds[gen] += time.perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class KernelCount:
    """The timed callbacks ``sim`` runs while installed — those pending
    at entry plus those filed since (every ``Simulator.schedule*`` entry
    point but the urgent one), less those pending at exit: a timed
    callback leaves the kernel only by running — and the instants the
    kernel pops (``repro.sim.core._heappop``, which the run loops bind
    per call)."""

    FILINGS = ("schedule", "schedule_call", "schedule_call_at",
               "schedule_bulk_succeed_at")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = 0
        self.instants = 0
        self._filings = {}
        self._heappop = None

    def _timed_pending(self):
        return self.sim.pending_count() - len(self.sim._urgent)

    def __enter__(self):
        def counting(file):
            def filing(sim, *args):
                self.callbacks += 1
                return file(sim, *args)
            return filing

        def counting_pop(heap):
            self.instants += 1
            return heappop(heap)

        self.callbacks = self._timed_pending()
        self._filings = {name: getattr(Simulator, name)
                         for name in self.FILINGS}
        for name, file in self._filings.items():
            setattr(Simulator, name, counting(file))
        heappop = self._heappop = kernel._heappop
        kernel._heappop = counting_pop
        return self

    def __exit__(self, *exc):
        for name, file in self._filings.items():
            setattr(Simulator, name, file)
        kernel._heappop = self._heappop
        self.callbacks -= self._timed_pending()


def puts(world):
    return sum(ctx.rma.stats["puts"] for ctx in world.contexts.values())


def point(label, make_world, rank_program, *args, ops=puts):
    world = make_world()
    gc.collect()
    t0 = time.perf_counter()
    with KernelCount(world.sim) as kernel_count, \
            CollectorClock() as collector:
        world.run(rank_program, *args)
    wall = time.perf_counter() - t0
    ops = ops(world)
    n_ranks = world.n_ranks
    del world
    gc.collect()
    peak, pending, packets, fragments, posted, tracked, flushes = (
        memory_pass(make_world(), rank_program, *args))
    print(f"{label:11s} P={n_ranks:4d} "
          f"ops={ops:6d} wall={wall:7.3f}s {1e6 * wall / ops:7.1f}us/op "
          f"gc={'/'.join(map(str, collector.collections))} "
          f"gc_s={'/'.join(f'{s:.3f}' for s in collector.seconds)} "
          f"callbacks={kernel_count.callbacks} "
          f"instants={kernel_count.instants} "
          f"run_peak={peak:6.1f}MiB pending_high_water={pending} "
          f"packets_built={packets} fragments_built={fragments} "
          f"lean_messages={posted} "
          f"tracked_at_last_complete={'-' if tracked is None else tracked} "
          f"flushes_in_flight={'-' if flushes is None else flushes}")
    return 1e6 * wall / ops


def torus_world(side):
    return World(machine=generic_cluster(n_nodes=side ** 3)
                 .with_placement("random", 0),
                 network=torus_network((side,) * 3))


if __name__ == "__main__":
    if "--torus" in sys.argv[1:]:
        sides = [int(a) for a in sys.argv[1:] if a != "--torus"] or [4, 8]
        per_op = [point("torushalo", lambda: torus_world(side), halo, side)
                  for side in sides]
        print(f"  us/op(side={sides[-1]}) / us/op(side={sides[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
        sys.exit(0)
    if "--notify" in sys.argv[1:]:
        sizes = ([int(a) for a in sys.argv[1:] if a != "--notify"]
                 or [64, 256, 1024])
        per_op = [
            point("notifyhalo",
                  lambda: World(n_ranks=ranks, network=seastar_portals()),
                  notified_ring)
            for ranks in sizes]
        print(f"  us/op(P={sizes[-1]}) / us/op(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
        sys.exit(0)
    if "--store" in sys.argv[1:]:
        sizes = ([int(a) for a in sys.argv[1:] if a != "--store"]
                 or [16, 64, 256])
        per_op = [point("store", lambda: store_world(ranks), store,
                        store_schedule(ranks), ops=store_ops)
                  for ranks in sizes]
        print(f"  us/request(P={sizes[-1]}) / us/request(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
        sys.exit(0)
    if "--atomic" in sys.argv[1:]:
        sizes = [int(a) for a in sys.argv[1:] if a != "--atomic"] or [8]
        for ranks in sizes:
            for nbytes in (1024, 16384, 65536):
                for serializer in ("thread", "lock"):
                    point(f"{serializer}{nbytes // 1024}K",
                          lambda: World(n_ranks=ranks,
                                        network=seastar_portals(),
                                        serializer=serializer),
                          atomic, nbytes)
        sys.exit(0)
    if "--stream" in sys.argv[1:]:
        point("stream", lambda: World(n_ranks=2, network=seastar_portals()),
              stream)
        point("streamtorus", lambda: torus_world(2), stream)
        sys.exit(0)
    sizes = [int(a) for a in sys.argv[1:]] or [24, 48, 96, 192]
    for incast in (False, True):
        per_op = [
            point("incast" if incast else "alltoall",
                  lambda: World(n_ranks=ranks, network=seastar_portals()),
                  program, incast)
            for ranks in sizes]
        print(f"  us/op(P={sizes[-1]}) / us/op(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
