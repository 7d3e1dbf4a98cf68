#!/usr/bin/env python3
"""How host cost per op grows with the rank count: personalized
all-to-all and 1-target incast on the flat Portals fabric, and
(``--torus``) the routed point: a 6-neighbour halo on a 4x4x4 and an
8x8x8 torus, seeded random placement; (``--notify``) a ring halo
synchronized by notified puts alone on 64 / 256 / 1 024 flat ranks.
Every point also prints the heap entries the kernel popped.  Report only
(``PYTHONPATH=src python tools/scale_probe.py [--torus | --notify]
[P ...]``) — the gate on the fan-in structures is the counting test in
``tests/network/test_train_registry.py``."""

import gc
import resource
import sys
import time

import repro.sim.core as kernel
from repro.datatypes import BYTE
from repro.machine import generic_cluster
from repro.network.config import seastar_portals
from repro.runtime import World
from repro.topo import torus_network

NBYTES, INCAST_PUTS, HALO_ITERS = 1024, 32, 4


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


def point(label, world, rank_program, *args):
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
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label:9s} P={world.n_ranks:4d} "
          f"ops={ops:6d} wall={wall:7.3f}s {1e6 * wall / ops:7.1f}us/op "
          f"rss_high_water={rss:6.1f}MiB "
          f"gen2_gc={gc.get_stats()[2]['collections'] - full} "
          f"heap_pops={popped[0]}")
    return 1e6 * wall / ops


if __name__ == "__main__":
    if "--torus" in sys.argv[1:]:
        sides = [int(a) for a in sys.argv[1:] if a != "--torus"] or [4, 8]
        per_op = [
            point("torushalo",
                  World(machine=generic_cluster(n_nodes=side ** 3)
                        .with_placement("random", 0),
                        network=torus_network((side,) * 3)),
                  halo, side)
            for side in sides]
        print(f"  us/op(side={sides[-1]}) / us/op(side={sides[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
        sys.exit(0)
    if "--notify" in sys.argv[1:]:
        sizes = ([int(a) for a in sys.argv[1:] if a != "--notify"]
                 or [64, 256, 1024])
        per_op = [
            point("notifyhalo",
                  World(n_ranks=ranks, network=seastar_portals()),
                  notified_ring)
            for ranks in sizes]
        print(f"  us/op(P={sizes[-1]}) / us/op(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
        sys.exit(0)
    sizes = [int(a) for a in sys.argv[1:]] or [24, 48, 96, 192]
    for incast in (False, True):
        per_op = [
            point("incast" if incast else "alltoall",
                  World(n_ranks=ranks, network=seastar_portals()),
                  program, incast)
            for ranks in sizes]
        print(f"  us/op(P={sizes[-1]}) / us/op(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
