#!/usr/bin/env python3
"""How host cost per op grows with the rank count: personalized
all-to-all and 1-target incast on the flat Portals fabric.  Report only
(``PYTHONPATH=src python tools/scale_probe.py [P ...]``) — the gate on
the fan-in structures is the counting test in
``tests/network/test_train_registry.py``."""

import gc
import resource
import sys
import time

from repro.datatypes import BYTE
from repro.network.config import seastar_portals
from repro.runtime import World

NBYTES, INCAST_PUTS = 1024, 32


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


def point(ranks, incast):
    world = World(n_ranks=ranks, network=seastar_portals())
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    t0 = time.perf_counter()
    world.run(program, incast)
    wall = time.perf_counter() - t0
    ops = sum(ctx.rma.stats["puts"] for ctx in world.contexts.values())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'incast' if incast else 'alltoall':9s} P={ranks:4d} "
          f"ops={ops:6d} wall={wall:7.3f}s {1e6 * wall / ops:7.1f}us/op "
          f"rss_high_water={rss:6.1f}MiB "
          f"gen2_gc={gc.get_stats()[2]['collections'] - full}")
    return 1e6 * wall / ops


if __name__ == "__main__":
    sizes = [int(a) for a in sys.argv[1:]] or [24, 48, 96, 192]
    for incast in (False, True):
        per_op = [point(ranks, incast) for ranks in sizes]
        print(f"  us/op(P={sizes[-1]}) / us/op(P={sizes[0]}) = "
              f"{per_op[-1] / per_op[0]:.2f}")
