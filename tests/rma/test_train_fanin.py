"""Dense fan-in onto one target: many origins' op-trains interleave in
global analytic-arrival order (the fabric's arrival heap), exactly as
the per-packet path delivers them — bytes, times, statistics and
counters.  Where the two paths legitimately differ (a bit-identical
arrival tie; a rank killed with trains pending) the expected values
were recorded from the commit before the heap, whose registry scan this
structure replaces without moving anything."""

import tracemalloc

import numpy as np
import pytest

from repro.datatypes import BYTE
from repro.network.config import seastar_portals
from repro.runtime import World
from tests.conftest import fast_paths
from tests.rma.test_fast_path_lattice import _observe as lattice_observe
from tests.rma.test_fast_path_lattice import _torus_world, _traffic

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


def pending_elements(fabric):
    """Train elements queued and not yet applied, over all targets."""
    return sum(len(entry[2]._elements) - entry[2]._head
               for heap in fabric._pending_trains.values() for entry in heap)


def _stream(torus, puts=200, size=65536):
    """One origin streams blocking 64 KiB puts onto a target that
    computes throughout — nothing lands at it, nobody looks at it.
    Returns the world, the results, the pending-element count sampled
    after every put and the run's ``tracemalloc`` peak."""
    world = (_torus_world() if torus
             else World(n_ranks=2, network=seastar_portals()))
    pending = []

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(size)
        src = ctx.mem.space.alloc(size)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            for k in range(puts):
                ctx.mem.store(src, 0, np.full(size, 1 + k % 250, np.uint8))
                yield from ctx.rma.put(src, 0, size, BYTE, tmems[1], 0, size,
                                       BYTE, blocking=True)
                pending.append(pending_elements(world.fabric))
        elif ctx.rank == 1:
            yield from ctx.compute(puts * 60.0)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    tracemalloc.start()
    try:
        results = world.run(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return world, results, pending, peak


@pytest.mark.parametrize("torus", [False, True], ids=["flat", "torus"])
def test_a_growing_train_sheds_its_arrived_prefix(torus):
    """What the op-train holds is what is in simulated flight, not what
    was put since the target was last observed: every put applies the
    elements that have arrived before it queues its own (flat: booked
    at issue; torus: booked at injection), so a stream onto an idle
    target keeps one or two payload snapshots, not all 200 — a count
    and an allocation bound, not a wall — and everything observable
    equals the per-packet run."""
    world, results, pending, peak = _stream(torus)
    with fast_paths(train=False):
        ref_world, ref_results, ref_pending, _ = _stream(torus)
    assert _train_ops(world) == 200 and _train_ops(ref_world) == 0
    assert max(pending) <= 2 and not any(ref_pending)
    assert peak < 3 * 2**20
    assert _observe(world, results) == _observe(ref_world, ref_results)
    assert _traffic(world)[:-1] == _traffic(ref_world)[:-1]
    assert _windows(world)[1][0] == bytes([1 + 199 % 250]) * 65536


def _tie(early_put):
    """Ranks 1 and 2 each put 512 bytes onto bytes 0..511 of rank 0,
    issued at the same instant (rank 1 first) and arriving at the same
    float instant; before that, rank 2 runs ``early_put`` — an older
    element of its train."""
    world = World(n_ranks=3, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(16384)
        src = ctx.mem.space.alloc(8192, fill=ctx.rank)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            yield from ctx.compute(200.0)   # touches nothing
            return None
        if ctx.rank == 2:
            yield from early_put(ctx, src, tmems[0])
        yield ctx.sim.timeout(128.0 - ctx.sim.now)
        yield from ctx.rma.put(src, 0, 512, BYTE, tmems[0], 0, 512, BYTE)
        yield from ctx.compute(300.0)
        return ctx.nic.fabric._last_delivery[ctx.rank][0]

    _, first, second = world.run(program)
    assert first == second                       # the tie is real
    return world


def _arrived_long_ago(ctx, src, tmem):
    yield from ctx.rma.put(src, 0, 64, BYTE, tmem, 960, 64, BYTE)


def test_bit_identical_arrivals_land_in_registration_order():
    """Ranks 1 and 2 each have an element reaching rank 0 at the same
    float instant, on the same bytes.  Registration numbers are drawn
    per arming: rank 2's older element arrived long before the tie, so
    rank 1's put (issued first at that instant) sheds it, rank 2's
    train is drained and re-arms *after* rank 1's — rank 1's element is
    applied first and rank 2's bytes win.  That is the order the
    per-packet path's event-heap insertion gives, so the two arms
    agree.  (Before a growing train shed its arrived prefix, rank 2's
    train was still pending on its old number and rank 1's bytes won:
    the tie resolved by how long ago an already-arrived element had
    been queued.)"""
    world = _tie(_arrived_long_ago)
    with fast_paths(train=False):
        ref_world = _tie(_arrived_long_ago)
    assert _train_ops(world) == 3 and _train_ops(ref_world) == 0
    window = _windows(world)[0][0]
    assert window[:512] == bytes([2]) * 512
    assert window[960:1024] == bytes([2]) * 64
    assert _windows(world) == _windows(ref_world)


def _still_in_flight(ctx, src, tmem):
    # Two fragments, non-blocking: the issue charge is over by 128 µs,
    # the NIC is free again at 131.2 µs — before the tie's puts are
    # issued at 132.2 µs — and the last fragment lands at 133.4 µs.
    ser = 2 * (32 + 4096) * ctx.nic.config.byte_time
    yield ctx.sim.timeout(127.0 - ser - ctx.sim.now)
    yield from ctx.rma.put(src, 0, 8192, BYTE, tmem, 8192, 8192, BYTE,
                           blocking=False)


def test_a_pending_train_keeps_its_number_through_a_tie():
    """The same tie, but rank 2's older element is still in flight when
    the tying puts are issued: nothing can be shed, rank 2's train
    stays pending on the number it drew first, so its tying element is
    applied first and rank 1's bytes win.  (The per-packet arm inserts
    rank 1's packet first and lets rank 2's bytes win: at a
    bit-identical instant the two paths need not agree.)"""
    world = _tie(_still_in_flight)
    assert _train_ops(world) == 3
    window = _windows(world)[0][0]
    assert window[:512] == bytes([1]) * 512
    assert window[8192:] == bytes([2]) * 8192
    with fast_paths(train=False):
        ref_window = _windows(_tie(_still_in_flight))[0][0]
    assert ref_window[:512] == bytes([2]) * 512


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
