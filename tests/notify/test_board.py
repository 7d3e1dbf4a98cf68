"""Notification-board semantics (DESIGN §15.1-§15.2).

The board is the target-side half of notified RMA: a notified put's
match value becomes visible to ``wait_notify``/``test_notify`` only
after the payload is applied, waiters wake FIFO without overtaking,
ineligible ops (rmw, zero-byte) decline loudly rather than silently
dropping the notification, and a notified op riding an op-train
surfaces at its own apply instant.
"""

import numpy as np
import pytest

from repro.datatypes import BYTE
from repro.mpi2rma import Mpi2Error
from repro.rma.attributes import RmaAttrs
from repro.rma.target_mem import RmaError
from repro.runtime import World
from tests.conftest import fast_paths

MATCH = 7


class TestDeliveryAfterApply:
    def test_wait_returns_with_payload_visible(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=42)
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH)
            got = None
            if ctx.rank == 1:
                yield from ctx.rma.wait_notify(tmems[1], MATCH)
                ctx.rma.engine.materialize_inbound()
                ctx.mem.fence()
                got = ctx.mem.load(alloc, 0, 8).tolist()
            yield from ctx.comm.barrier()
            return got

        out = World(n_ranks=2).run(program)
        assert out[1] == [42] * 8

    def test_count_accumulates_and_wait_consumes(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=1)
                for _ in range(3):
                    yield from ctx.rma.put(
                        src, 0, 8, BYTE, tmems[1], 0, 8, BYTE,
                        notify=MATCH)
                yield from ctx.rma.complete_collective(ctx.comm)
            else:
                yield from ctx.rma.complete_collective(ctx.comm)
            counts = None
            if ctx.rank == 1:
                before = ctx.rma.notify_count(tmems[1], MATCH)
                yield from ctx.rma.wait_notify(tmems[1], MATCH, count=2)
                after = ctx.rma.notify_count(tmems[1], MATCH)
                counts = (before, after)
            yield from ctx.comm.barrier()
            return counts

        out = World(n_ranks=2).run(program)
        assert out[1] == (3, 1)

    def test_test_notify_consume_once(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=5)
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH,
                    blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()
            probes = None
            if ctx.rank == 1:
                first = yield from ctx.rma.test_notify(tmems[1], MATCH)
                second = yield from ctx.rma.test_notify(tmems[1], MATCH)
                probes = (first, second)
            yield from ctx.comm.barrier()
            return probes

        out = World(n_ranks=2).run(program)
        assert out[1] == (True, False)

    def test_fifo_waiters_do_not_overtake(self):
        """Two waiters for one notification each: the first parked must
        be served by the first delivery, even though the second
        delivery arrives while both are parked."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            order = []
            if ctx.rank == 1:
                def waiter(tag, delay):
                    yield ctx.sim.timeout(delay)
                    yield from ctx.rma.wait_notify(tmems[1], MATCH)
                    order.append(tag)
                ctx.sim.spawn(waiter("first", 0.0))
                ctx.sim.spawn(waiter("second", 1.0))
                yield ctx.sim.timeout(5.0)  # both parked before any put
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=1)
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH)
                yield ctx.sim.timeout(50.0)
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH)
            yield from ctx.comm.barrier()
            yield from ctx.rma.complete_collective(ctx.comm)
            return order

        out = World(n_ranks=2).run(program)
        assert out[1] == ["first", "second"]

    def test_notify_all_releases_parked_waiters(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            released = None
            woke = []
            if ctx.rank == 1:
                def waiter():
                    yield from ctx.rma.wait_notify(tmems[1], MATCH)
                    woke.append(True)
                ctx.sim.spawn(waiter())
                yield ctx.sim.timeout(2.0)
                released = yield from ctx.rma.notify_all(tmems[1], MATCH)
                yield ctx.sim.timeout(1.0)
            yield from ctx.comm.barrier()
            return (released, len(woke))

        out = World(n_ranks=2).run(program)
        assert out[1] == (1, 1)


class TestDeclines:
    def test_rmw_with_notify_declines(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            err = None
            if ctx.rank == 0:
                try:
                    yield from ctx.rma.engine.issue_rmw(
                        tmems[1], 0, "int64", "fetch_add", 1,
                        attrs=RmaAttrs(notify=MATCH))
                except RmaError as exc:
                    err = str(exc)
            yield from ctx.comm.barrier()
            return err

        out = World(n_ranks=2).run(program)
        assert out[0] is not None and "notify" in out[0]

    def test_zero_byte_notify_declines(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            err = None
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8)
                try:
                    yield from ctx.rma.put(
                        src, 0, 0, BYTE, tmems[1], 0, 0, BYTE,
                        notify=MATCH)
                except RmaError as exc:
                    err = str(exc)
            yield from ctx.comm.barrier()
            return err

        out = World(n_ranks=2).run(program)
        assert out[0] is not None

    def test_trains_stand_down_for_notified_ops(self):
        """A long attribute-uniform run of notified puts rides the train
        (the gate this test is named after is gone) and still gives each
        op's notification its own apply point: the waiter wakes eight
        times, at the instants the per-packet run wakes it."""
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(1024)
            yield from ctx.comm.barrier()
            wakes = []
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(64, fill=3)
                for k in range(8):
                    yield from ctx.rma.put(
                        src, 0, 64, BYTE, tmems[1], 64 * k, 64, BYTE,
                        notify=MATCH)
            else:
                for _ in range(8):
                    yield from ctx.rma.wait_notify(tmems[1], MATCH)
                    wakes.append(repr(ctx.sim.now))
            yield from ctx.rma.complete_collective(ctx.comm)
            return ctx.rma.engine.stats["train_ops"], wakes

        seen = {}
        for train in (True, False):
            with fast_paths(train=train):
                seen[train] = World(n_ranks=2, trace=False).run(program)
        assert seen[True][0][0] == 8 and seen[False][0][0] == 0
        wakes = seen[True][1][1]
        assert len(set(wakes)) == 8
        assert wakes == seen[False][1][1]


class TestCountIsChecked:
    """``count`` of a wait/test must be an int >= 1: a negative one used
    to mint notifications, zero waited for nothing, a fraction parked
    forever, a string died inside ``_try_consume``."""

    @pytest.mark.parametrize("count", [-1, 0, 1.5, "2", None, True],
                             ids=repr)
    @pytest.mark.parametrize("call", ["wait_notify", "test_notify"])
    @pytest.mark.parametrize("front", ["rma", "win"])
    def test_bad_count_raises_at_once_and_leaves_the_board_alone(
            self, front, call, count):
        def program(ctx):
            alloc = ctx.mem.space.alloc(64)
            src = ctx.mem.space.alloc(8, fill=1)
            if front == "win":
                win = yield from ctx.mpi2.win_create(alloc)
                yield from win.fence()
                if ctx.rank == 0:
                    yield from win.put(src, 0, 8, BYTE, 1, 0, notify=MATCH)
                yield from win.fence()
                mine, entry, args = win._tmems[ctx.rank], win, ()
            else:
                tmems = yield from ctx.comm.allgather(ctx.rma.expose(alloc))
                if ctx.rank == 0:
                    yield from ctx.rma.put(src, 0, 8, BYTE, tmems[1], 0, 8,
                                           BYTE, notify=MATCH)
                yield from ctx.rma.complete_collective(ctx.comm)
                mine, entry, args = tmems[ctx.rank], ctx.rma, (tmems[1],)
            if ctx.rank != 1:
                return None
            board = ctx.rma.engine.board

            def state():
                return (dict(board._counts), dict(board._consumed),
                        len(board._waiters), board.notify_count(mine, MATCH),
                        ctx.rma.stats["notify_waits"], ctx.sim.now)

            before = state()
            assert before[3] == 1
            with pytest.raises(RmaError) as err:
                yield from getattr(entry, call)(*args, MATCH, count=count)
            assert str(err.value) == (
                f"notify count must be an int >= 1, got {count!r} "
                f"({call} on rank 1)")
            assert state() == before
            return True

        assert World(n_ranks=2).run(program)[1] is True


class TestWindowApi:
    def test_win_put_notify_and_wait(self):
        def program(ctx):
            alloc = ctx.mem.space.alloc(64)
            win = yield from ctx.mpi2.win_create(alloc)
            yield from win.fence()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=17)
                yield from win.put(src, 0, 8, BYTE, 1, 0, notify=MATCH)
            got = None
            if ctx.rank == 1:
                yield from win.wait_notify(MATCH, watch=[0])
                ctx.rma.engine.materialize_inbound()
                ctx.mem.fence()
                got = ctx.mem.load(alloc, 0, 8).tolist()
            yield from win.fence()
            yield from win.free()
            return got

        out = World(n_ranks=2).run(program)
        assert out[1] == [17] * 8

    def test_win_test_notify_after_free_is_error(self):
        def program(ctx):
            alloc = ctx.mem.space.alloc(64)
            win = yield from ctx.mpi2.win_create(alloc)
            yield from win.fence()
            yield from win.fence()
            yield from win.free()
            yield from win.wait_notify(MATCH)

        with pytest.raises(Mpi2Error, match="freed window"):
            World(n_ranks=2).run(program)


class TestMetricsPublication:
    def test_notify_latency_histogram_published(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(8, fill=1)
                yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[1], 0, 8, BYTE, notify=MATCH)
            if ctx.rank == 1:
                yield from ctx.rma.wait_notify(tmems[1], MATCH)
            yield from ctx.comm.barrier()
            return None

        world = World(n_ranks=2)
        world.run(program)
        metrics = world.collect_metrics()
        hist = metrics.histogram("notify.latency_us", rank=1)
        assert hist.count == 1
        assert hist.max > 0.0
        assert metrics.gauge("notify.delivered", rank=1).value == 1
