"""The fast-path lattice: every combination of the three class switches
(op-train, NIC burst, live barriers) must be indistinguishable from the
all-off per-packet run — simulated times, returns, final window memory
and every engine statistic except the train's own two counters."""

import hashlib
import itertools

import pytest

from repro.bench.workloads import fig2_attribute_cost, rank_fill
from repro.datatypes import BYTE, INT64
from repro.network.config import seastar_portals
from repro.runtime import World
from tests.conftest import fast_paths

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


def _fig2(mode):
    def run():
        sink = []
        t = fig2_attribute_cost(mode, 65536, puts_per_origin=6,
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


WORKLOADS = {"fig2-none": _fig2("none"),
             "fig2-atomicity": _fig2("atomicity+thread"),
             "halo8": _halo, "mixed": _mixed}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_combination_equals_all_off(name):
    run = WORKLOADS[name]
    seen = {}
    for train, burst, nexus in COMBOS:
        with fast_paths(train=train, burst=burst, nexus=nexus):
            world, results = run()
        seen[train, burst, nexus] = _observe(world, results)
        trains = sum(c.rma.stats["train_ops"]
                     for c in world.contexts.values())
        if name != "fig2-atomicity":
            # the switches are independent: the train needs only its own
            assert (trains > 0) == train, (train, burst, nexus)
        if name == "mixed" and train:
            assert all(c.rma.stats["train_bytes"] == BIG
                       for c in world.contexts.values())
    reference = seen[False, False, False]
    for combo, observed in seen.items():
        assert observed == reference, combo
