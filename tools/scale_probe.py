#!/usr/bin/env python3
"""How host cost per op grows with the rank count: personalized
all-to-all and 1-target incast on the flat Portals fabric, and
(``--torus``) the routed point: a 6-neighbour halo on a 4x4x4 and an
8x8x8 torus, seeded random placement; (``--notify``) a ring halo
synchronized by notified puts alone on 64 / 256 / 1 024 flat ranks;
(``--stream``) one origin streaming 400 blocking 64 KiB puts onto an
idle target, flat and on a 2x2x2 torus.  Every point runs twice: once
plain for the wall, the full collections and the heap entries the
kernel popped, then once under ``tracemalloc`` for *its own* peak (the
process's RSS high-water would be the largest earlier point's) and the
high-water of pending op-train elements.  Report only
(``PYTHONPATH=src python tools/scale_probe.py [--torus | --notify |
--stream] [P ...]``) — the gates are counting tests:
``tests/network/test_train_registry.py`` on the fan-in structures,
``tests/rma/test_train_fanin.py`` on what a train may hold."""

import gc
import sys
import time
import tracemalloc

import repro.sim.core as kernel
from repro.datatypes import BYTE
from repro.machine import generic_cluster
from repro.network.config import seastar_portals
from repro.rma.train import OpTrain
from repro.runtime import World
from repro.topo import torus_network

NBYTES, INCAST_PUTS, HALO_ITERS = 1024, 32, 4
STREAM_BYTES, STREAM_PUTS = 65536, 400


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


def memory_pass(world, rank_program, *args):
    """Run under ``tracemalloc`` with a counter on the op-train's queue:
    (peak MiB allocated by the run, most elements pending at once)."""
    pending = [0, 0]                    # now, high-water
    append, pop_head = OpTrain.append, OpTrain.pop_head

    def counting_append(train, elem):
        pending[0] += 1
        pending[1] = max(pending[1], pending[0])
        append(train, elem)

    def counting_pop(train):
        pending[0] -= 1
        return pop_head(train)

    OpTrain.append, OpTrain.pop_head = counting_append, counting_pop
    tracemalloc.start()
    try:
        world.run(rank_program, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        OpTrain.append, OpTrain.pop_head = append, pop_head
    return peak / 2**20, pending[1]


def point(label, make_world, rank_program, *args):
    world = make_world()
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    popped = [0]
    heappop = kernel._heappop

    def counting_pop(heap):
        popped[0] += 1
        return heappop(heap)

    kernel._heappop = counting_pop      # the run loops bind it per call
    t0 = time.perf_counter()
    try:
        world.run(rank_program, *args)
    finally:
        kernel._heappop = heappop
    wall = time.perf_counter() - t0
    ops = sum(ctx.rma.stats["puts"] for ctx in world.contexts.values())
    gen2 = gc.get_stats()[2]["collections"] - full
    n_ranks = world.n_ranks
    del world
    gc.collect()
    peak, pending = memory_pass(make_world(), rank_program, *args)
    print(f"{label:11s} P={n_ranks:4d} "
          f"ops={ops:6d} wall={wall:7.3f}s {1e6 * wall / ops:7.1f}us/op "
          f"gen2_gc={gen2} heap_pops={popped[0]} "
          f"run_peak={peak:6.1f}MiB pending_high_water={pending}")
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
