"""Notified ops under fault plans (ISSUE 9 satellite).

Three properties survive a hostile transport:

- duplicated packets never double-notify (the board dedups by op key,
  so retransmissions and dup'd fragments deliver exactly once);
- a killed producer turns a parked ``wait_notify`` into a structured
  :class:`~repro.rma.target_mem.RmaError` — never a hang;
- exactly-once delivery holds across chaos seeds (drop + dup + delay).
"""

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.rma.target_mem import RmaError
from repro.runtime import World

MATCH = 3


def _producer_consumer(n_puts, consumer_body=None):
    """A program where rank 0 sends ``n_puts`` notified puts to rank 1."""

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(256)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            src = ctx.mem.space.alloc(8, fill=9)
            for k in range(n_puts):
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 8 * k, 8, BYTE,
                    notify=MATCH)
        yield from ctx.rma.complete_collective(ctx.comm)
        result = None
        if ctx.rank == 1:
            result = ctx.rma.engine.board.delivered()
        yield from ctx.comm.barrier()
        return result

    return program


class TestNoDoubleNotify:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicated_packets_deliver_once(self, seed):
        plan = FaultPlan().duplicate(0.6)
        world = World(n_ranks=2, seed=seed, fault_plan=plan)
        out = world.run(_producer_consumer(4))
        delivered = out[1]
        assert sum(delivered.values()) == 4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_chaos_exactly_once(self, seed):
        """Drop + duplicate + delay: retransmissions must not re-run
        the notification side effect."""
        plan = (FaultPlan()
                .drop(0.05)
                .duplicate(0.05)
                .delay(0.1, mean=25.0))
        world = World(n_ranks=2, seed=seed, fault_plan=plan)
        out = world.run(_producer_consumer(6))
        delivered = out[1]
        assert sum(delivered.values()) == 6


class TestKilledProducer:
    def test_wait_surfaces_structured_error_not_hang(self):
        """Rank 1 watches rank 0; rank 0 dies before notifying.  The
        wait must return an RmaError promptly — the run would hit the
        event limit if the waiter hung."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                # Killed at t=40 (past the opening collectives) before
                # ever notifying.
                yield ctx.sim.timeout(10_000.0)
                return "survived"
            try:
                yield from ctx.rma.wait_notify(
                    tmems[1], MATCH, watch=[0])
            except RmaError as exc:
                return ("err", exc.kind if hasattr(exc, "kind")
                        else str(exc))
            return "no error"

        plan = FaultPlan().kill(rank=0, at=40.0, kill_program=False)
        world = World(n_ranks=2, fault_plan=plan)
        out = world.run(program)
        assert out[1][0] == "err"

    def test_wait_after_death_fails_fast(self):
        """Parking on an already-dead producer errors immediately
        instead of enqueueing a waiter that can never be served."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                yield ctx.sim.timeout(10_000.0)
                return None
            yield ctx.sim.timeout(200.0)  # well past the kill
            t0 = ctx.sim.now
            try:
                yield from ctx.rma.wait_notify(
                    tmems[1], MATCH, watch=[0])
            except RmaError:
                return ctx.sim.now - t0
            return None

        plan = FaultPlan().kill(rank=0, at=40.0, kill_program=False)
        world = World(n_ranks=2, fault_plan=plan)
        out = world.run(program)
        assert out[1] is not None and out[1] < 10.0

    def test_unwatched_wait_still_satisfied_by_survivor(self):
        """A kill elsewhere must not disturb a wait served by a live
        producer."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                yield ctx.sim.timeout(10_000.0)
                return None
            if ctx.rank == 2:
                src = ctx.mem.space.alloc(8, fill=4)
                yield ctx.sim.timeout(100.0)  # well past the kill
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH)
                return None
            yield from ctx.rma.wait_notify(tmems[1], MATCH, watch=[2])
            return "woken"

        # Killed after the opening collectives have completed (~t=23),
        # while rank 1 is already parked.
        plan = FaultPlan().kill(rank=0, at=40.0, kill_program=False)
        world = World(n_ranks=3, fault_plan=plan)
        out = world.run(program)
        assert out[1] == "woken"
