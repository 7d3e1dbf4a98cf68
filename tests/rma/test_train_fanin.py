"""Dense fan-in onto one target: many origins' op-trains interleave in
global analytic-arrival order (the fabric's arrival heap), exactly as
the per-packet path delivers them — bytes, times, statistics and
counters.  Where the two paths legitimately differ (a bit-identical
arrival tie; a rank killed with trains pending) the expected values
were recorded from the commit before the heap, whose registry scan this
structure replaces without moving anything."""

import numpy as np
import pytest

from repro.datatypes import BYTE
from repro.network.config import seastar_portals
from repro.runtime import World
from tests.conftest import fast_paths
from tests.rma.test_fast_path_lattice import _observe as lattice_observe

FABRIC_COUNTERS = ("packets_delivered", "bytes_delivered", "acks_generated",
                   "reorder_count", "intra_node_packets", "dead_dropped")


def _windows(world):
    return {
        rank: [bytes(world.memories[rank].space.buffer(a))
               for a in ctx.rma.engine._exposures.values()]
        for rank, ctx in world.contexts.items()
    }


def _observe(world, results):
    """The lattice's observables (returns, end time, window digests,
    stats minus the train's own two counters) plus NIC and fabric
    counters."""
    nics = {rank: (nic.packets_sent, nic.bytes_sent)
            for rank, nic in world.nics.items()}
    fabric = {name: getattr(world.fabric, name) for name in FABRIC_COUNTERS}
    return lattice_observe(world, results), nics, fabric


def _train_ops(world):
    return sum(c.rma.stats["train_ops"] for c in world.contexts.values())


def _incast(origins):
    """Every origin puts three times onto overlapping bytes of rank 0,
    staggered so that arrivals from different origins interleave."""
    world = World(n_ranks=origins + 1, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(4096)
        src = ctx.mem.space.alloc(1024, fill=1 + ctx.rank % 250)
        yield from ctx.comm.barrier()
        if ctx.rank:
            for k in range(3):
                yield from ctx.compute(0.37 * ((ctx.rank * 7 + k * 5) % 11))
                yield from ctx.rma.put(
                    src, 0, 1024, BYTE, tmems[0],
                    (ctx.rank * 96 + k * 160) % 3072, 1024, BYTE)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    return world, world.run(program)


def _alltoall():
    world = World(n_ranks=24, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(24 * 256)
        src = ctx.mem.space.alloc(256, fill=1 + ctx.rank)
        yield from ctx.comm.barrier()
        times = []
        for it in range(2):
            ctx.mem.store(src, 0, np.full(256, 1 + ctx.rank + 24 * it, np.uint8))
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    yield from ctx.rma.put(src, 0, 256, BYTE, tmems[peer],
                                           ctx.rank * 256, 256, BYTE)
            yield from ctx.rma.complete_collective(ctx.comm)
            times.append(ctx.sim.now)
        return times

    return world, world.run(program)


@pytest.mark.parametrize("run", [lambda: _incast(24), lambda: _incast(48),
                                 _alltoall],
                         ids=["incast24", "incast48", "alltoall24"])
def test_dense_fanin_equals_the_per_packet_reference(run):
    with fast_paths(train=False):
        ref_world, ref_results = run()
    world, results = run()
    assert _train_ops(ref_world) == 0
    puts = sum(c.rma.stats["puts"] for c in world.contexts.values())
    assert _train_ops(world) == puts > 0
    assert _observe(world, results) == _observe(ref_world, ref_results)


def test_bit_identical_arrivals_land_in_registration_order():
    """Ranks 1 and 2 each have an element reaching rank 0 at the same
    float instant, on the same bytes.  Rank 2's train is the older
    registration (an earlier element of it is still pending), so its
    element is applied first and rank 1's bytes win — although rank 1
    issued first at that instant.  The per-packet path breaks the tie
    by event-heap insertion and need not agree."""
    world = World(n_ranks=3, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(1024)
        src = ctx.mem.space.alloc(512, fill=ctx.rank)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            yield from ctx.compute(200.0)   # touches nothing: trains wait
            return None
        if ctx.rank == 2:
            yield from ctx.rma.put(src, 0, 64, BYTE, tmems[0], 960, 64, BYTE)
        yield ctx.sim.timeout(128.0 - ctx.sim.now)
        yield from ctx.rma.put(src, 0, 512, BYTE, tmems[0], 0, 512, BYTE)
        arrival = ctx.nic.fabric._last_delivery[ctx.rank, 0]
        yield from ctx.compute(300.0)
        return arrival

    _, first, second = world.run(program)
    assert first == second                       # the tie is real
    assert _train_ops(world) == 3
    window = _windows(world)[0][0]
    assert window[:512] == bytes([1]) * 512      # recorded from the parent
    assert window[960:] == bytes([2]) * 64


KILL_AFTER = 30.0   # µs after the barrier that starts the puts
VICTIM = 2
SLOT = 32768
#: rank -> the destinations of its back-to-back puts; put k of rank r
#: lands in slot 6 r + k of the destination's window.
PUTS = {0: (2, 1, 2, 2), 1: (2, 2, 3), 2: (0, 1, 3, 0, 1, 3),
        3: (2, 4, 2, 4), 4: (3, 3)}


def _slots(window):
    """Which (rank, k) slots of a window hold that put's bytes."""
    return sorted((r, k) for r, dsts in PUTS.items() for k in range(len(dsts))
                  if window[(6 * r + k) * SLOT:(6 * r + k + 1) * SLOT]
                  == bytes([10 * (r + 1) + k]) * SLOT)


def _kill_scenario():
    """Five ranks, 8 KiB puts (two fragments) issued back to back: three
    trains into the victim, three out of it, three between survivors;
    the victim's port dies while elements of all of them are in flight
    (no fault plan, so the trains are live until the kill)."""
    world = World(n_ranks=5, network=seastar_portals())
    seen = {}

    def kill():
        world.fabric.kill_rank(VICTIM)
        seen["dropped"] = world.fabric.dead_dropped
        seen["pending"] = sorted(
            (entry[2].src, dst)
            for dst, heap in world.fabric._pending_trains.items()
            for entry in heap)
        seen["applied"] = {rank: _slots(wins[0])
                           for rank, wins in _windows(world).items()}

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(30 * SLOT)
        src = ctx.mem.space.alloc(SLOT)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            world.sim.schedule_call(KILL_AFTER, kill)
        for k, dst in enumerate(PUTS[ctx.rank]):
            ctx.mem.store(src, 0, np.full(SLOT, 10 * (ctx.rank + 1) + k, np.uint8))
            yield from ctx.rma.put(src, 0, SLOT, BYTE, tmems[dst],
                                   (6 * ctx.rank + k) * SLOT, SLOT, BYTE)
        yield from ctx.compute(400.0)

    world.run(program)
    return world, seen


def test_kill_rank_with_pending_trains_into_and_out_of_the_victim():
    world, seen = _kill_scenario()
    assert _train_ops(world) == sum(map(len, PUTS.values()))
    # Trains between survivors stay on their heaps; none touching the
    # victim does.
    assert seen["pending"] == RECORDED["pending"]
    assert all(VICTIM not in pair for pair in seen["pending"])
    assert not world.fabric._pending_trains      # drained at end of run
    # Elements due before the kill were applied, none after; the
    # fragments of the rest count as dropped in-flight packets.
    assert seen["applied"] == RECORDED["applied_at_kill"]
    assert seen["dropped"] == world.fabric.dead_dropped == RECORDED["dropped"]
    final = {rank: _slots(wins[0]) for rank, wins in _windows(world).items()}
    assert final == RECORDED["applied_at_end"]
    assert final[VICTIM] == seen["applied"][VICTIM]


#: What the commit before the arrival heap (6730297) produces for
#: `_kill_scenario`.
RECORDED = {
    "pending": [(0, 1), (1, 3), (3, 4), (4, 3)],
    "applied_at_kill": {0: [(2, 0)], 1: [], 2: [(0, 0), (1, 0), (3, 0)],
                        3: [(4, 0)], 4: []},
    "dropped": 72,   # nine elements of eight fragments
    "applied_at_end": {0: [(2, 0)], 1: [(0, 1)],
                       2: [(0, 0), (1, 0), (3, 0)],
                       3: [(1, 2), (4, 0), (4, 1)], 4: [(3, 1), (3, 3)]},
}
