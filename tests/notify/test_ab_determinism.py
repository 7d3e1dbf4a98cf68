"""A/B determinism: the notify subsystem must be invisible when unused.

The notification board adds state to the engine and keys to op
descriptors — but only for ops that actually carry ``notify``.  These
tests pin the off-path: notify-free programs produce bit-identical
traces and simulated times whether or not the subsystem was ever
exercised in the same process, and the PR-1 perf baseline still
recomputes exactly, with the op-train fast path on and off.
"""

import json
import os

from repro.bench import perf
from repro.datatypes import BYTE
from repro.runtime import World
from tests.conftest import fast_paths

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "BENCH_PR1.json")


def _trace_tuples(world):
    return [
        (r.time, r.category, r.kind, r.rank,
         tuple(sorted(r.detail.items())), r.seq)
        for r in world.tracer
    ]


def _notify_free_run(seed=11):
    world = World(n_ranks=4, seed=seed, trace=True)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(256)
        src = ctx.mem.space.alloc(8, fill=ctx.rank + 1)
        yield from ctx.comm.barrier()
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.rma.put(
            src, 0, 8, BYTE, tmems[right], 0, 8, BYTE,
            blocking=True, remote_completion=True)
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now

    out = world.run(program)
    return out, world.sim.now, _trace_tuples(world)


def _notify_using_run():
    world = World(n_ranks=2, seed=3)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(64)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            src = ctx.mem.space.alloc(8, fill=1)
            yield from ctx.rma.put(
                src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=5)
        if ctx.rank == 1:
            yield from ctx.rma.wait_notify(tmems[1], 5)
        yield from ctx.comm.barrier()
        return None

    world.run(program)


class TestNotifyFreeBitIdentity:
    def test_no_residue_from_a_notify_using_world(self):
        """Same-seed notify-free runs are bit-identical even when a
        notify-heavy world ran in between (class/global state clean)."""
        before = _notify_free_run()
        _notify_using_run()
        after = _notify_free_run()
        assert before == after

    def test_descriptors_stay_wire_identical(self):
        """Notify-free ops carry no notify keys at all — the engine's
        stats prove the board was never touched."""
        world = World(n_ranks=2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(8, fill=2)
            yield from ctx.comm.barrier()
            yield from ctx.rma.put(
                src, 0, 8, BYTE, tmems[1 - ctx.rank], 0, 8, BYTE)
            yield from ctx.rma.complete_collective(ctx.comm)
            return None

        world.run(program)
        for ctx in world.contexts.values():
            assert ctx.rma.engine.stats["notifies"] == 0
            assert ctx.rma.engine.stats["notify_waits"] == 0
            assert ctx.rma.engine.board.delivered() == {}


class TestPerfBaselineStillExact:
    def _compare(self):
        with open(BASELINE) as fh:
            doc = json.load(fh)
        return perf.compare_to_baseline(doc, tolerance=0.0)

    def test_baseline_with_trains_on(self):
        with fast_paths(train=True):
            assert self._compare() == []

    def test_baseline_with_trains_off(self):
        with fast_paths(train=False):
            assert self._compare() == []
