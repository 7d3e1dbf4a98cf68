"""The timed queue runs callbacks in exactly ``(time, seq)`` order.

The kernel files timed callbacks by instant: a heap of distinct instants
and, per instant, its callbacks in filing order.  The reference below is
the plain loop it replaces — one heap of ``(time, seq, fn, args)``
entries with a global filing counter.  Random schedules whose delays
come from a small set (so instants collide), with callbacks that file
more callbacks, urgent calls, absolute-time calls, bulk succeeds,
timeouts and naps, must leave the same execution log on both, through
early returns, raised exceptions, ``run(until=)``, ``limit`` and
``step()``.
"""

import heapq
import itertools

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class _Reference(Simulator):
    """The ``(time, seq)`` tuple heap: every filed callback is one heap
    entry, ties broken by a global filing counter."""

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        super().__init__()
        self._heap = []
        self._seq = 0

    def _push(self, t, fn, args):
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def schedule(self, delay, callback):
        assert delay >= 0
        self._push(self.now + delay, callback, ())

    def schedule_call(self, delay, fn, *args):
        assert delay >= 0
        self._push(self.now + delay, fn, args)

    def schedule_call_at(self, t, fn, *args):
        assert t >= self.now
        self._push(t, fn, args)

    def schedule_bulk_succeed_at(self, t, events, values):
        assert t >= self.now
        self._push(t, self._bulk_succeed, (events, values))

    def step(self):
        if self._urgent:
            fn, args = self._urgent.popleft()
            fn(*args)
            return True
        if not self._heap:
            return False
        self.now, _seq, fn, args = heapq.heappop(self._heap)
        fn(*args)
        return True

    def run(self, until=None):
        heap, urgent = self._heap, self._urgent
        while True:
            while urgent:
                fn, args = urgent.popleft()
                fn(*args)
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            self.now, _seq, fn, args = heapq.heappop(heap)
            fn(*args)
        return self.now

    def run_while_pending(self, pending, limit=None):
        heap, urgent = self._heap, self._urgent
        while pending:
            while urgent:
                fn, args = urgent.popleft()
                fn(*args)
                if not pending:
                    return
            if not heap:
                break
            if limit is not None and heap[0][0] > limit:
                break
            self.now, _seq, fn, args = heapq.heappop(heap)
            fn(*args)

    def pending_count(self):
        return len(self._heap) + len(self._urgent)


class _LifoBatches(dict):
    """A planted fault: the loop takes each instant's batch reversed."""

    def pop(self, t, *default):
        filed = dict.pop(self, t, *default)
        return filed[::-1] if filed.__class__ is list else filed


def _lifo_kernel():
    sim = Simulator()
    sim._at = _LifoBatches()
    return sim


class _Boom(Exception):
    pass


#: Delays and instants are exact binary fractions, so sums collide
#: exactly and most instants hold several callbacks.
DELAYS = (0.0, 0.5, 1.0, 1.5)
INSTANTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
KINDS = ("call", "schedule", "at", "urgent", "timeout", "bulk", "nap",
         "stop", "raise")

nodes = st.recursive(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS), st.just(())),
    lambda children: st.tuples(st.sampled_from(KINDS),
                               st.sampled_from(DELAYS),
                               st.lists(children, max_size=3)),
    max_leaves=24)
programs = st.lists(nodes, min_size=1, max_size=8)
plans = st.lists(st.one_of(
    st.tuples(st.just("pending"), st.sampled_from((None,) + INSTANTS)),
    st.tuples(st.just("until"), st.sampled_from(INSTANTS)),
    st.tuples(st.just("step"), st.integers(1, 6))), max_size=4)


class _Program:
    """Files a program's nodes on ``sim``; every run callback logs
    ``(now, id)`` and files its children."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.pending = set()
        self._ids = itertools.count()

    def file(self, node):
        kind, delay, children = node
        sim, ident = self.sim, next(self._ids)
        if kind == "call":
            sim.schedule_call(delay, self.fire, ident, children)
        elif kind == "schedule":
            sim.schedule(delay, lambda: self.fire(ident, children))
        elif kind == "at":
            sim.schedule_call_at(sim.now + delay, self.fire, ident, children)
        elif kind == "urgent":
            sim.schedule_urgent_call(self.fire, ident, children)
        elif kind == "timeout":
            sim.timeout(delay, ident).add_callback(
                lambda ev: self.fire(ev.value, children))
        elif kind == "bulk":
            events = [sim.event() for _ in range(3)]
            for k, ev in enumerate(events):
                ev.add_callback(lambda ev, k=k: self.fire(
                    (ident, k), children if k == 0 else ()))
            # One event triggers early: the bulk entry must skip it.
            sim.schedule_call(delay / 2, self.trigger, events[2])
            sim.schedule_bulk_succeed_at(sim.now + delay, events,
                                         [None] * 3)
        elif kind == "nap":
            sim.spawn(self.napper(ident, delay, children))
        elif kind == "stop":
            sim.schedule_call(delay, self.stop, ident)
        else:
            sim.schedule_call(delay, self.boom, ident)

    def fire(self, ident, children):
        self.log.append((self.sim.now, ident))
        for child in children:
            self.file(child)

    @staticmethod
    def trigger(event):
        if not event.triggered:
            event.succeed()

    def napper(self, ident, delay, children):
        yield delay
        self.log.append((self.sim.now, ident, "nap"))
        yield delay
        self.fire(ident, children)

    def stop(self, ident):
        self.log.append((self.sim.now, ident, "stop"))
        self.pending.clear()

    def boom(self, ident):
        self.log.append((self.sim.now, ident, "raise"))
        raise _Boom


def _execute(sim, program, plan):
    """Run ``program`` on ``sim`` through ``plan``'s stops and starts,
    then to the end, resuming past every raise; return the log."""
    p = _Program(sim)
    for node in program:
        p.file(node)
    for op, arg in plan + [("drain", None)] * 64:
        try:
            if op == "pending":
                p.pending.add(0)
                sim.run_while_pending(p.pending, arg)
            elif op == "until":
                p.log.append(("until", sim.run(until=arg)))
            elif op == "step":
                for _ in range(arg):
                    p.log.append(("step", sim.step(), sim.now))
            else:
                sim.run()
                p.log.append(("drained", sim.now, sim.pending_count()))
                break
        except _Boom:
            p.log.append(("caught", sim.now))
        p.log.append(("left", sim.now, sim.pending_count()))
    return p.log


@given(program=programs, plan=plans)
@settings(max_examples=300, deadline=None)
def test_every_schedule_runs_in_time_seq_order(program, plan):
    log = _execute(Simulator(), program, plan)
    assert log == _execute(_Reference(), program, plan)
    assert log[-1][0] == "drained" and log[-1][2] == 0


def test_the_order_check_catches_a_lifo_batch():
    """A kernel that runs an instant's batch last-filed-first is found
    out by the same comparison."""
    find(st.tuples(programs, plans),
         lambda case: _execute(_lifo_kernel(), *case)
         != _execute(_Reference(), *case),
         settings=settings(max_examples=300, database=None))


@pytest.mark.parametrize("stop_at", [1, 2, 3])
def test_an_early_return_mid_batch_resumes_in_order(stop_at):
    sim = Simulator()
    log, pending = [], {0}

    def cb(i):
        log.append(i)
        if i == stop_at:
            pending.clear()
            sim.schedule_call(0, cb, 10 + i)  # a new batch at this instant

    for i in range(5):
        sim.schedule_call(1.0, cb, i)
    sim.run_while_pending(pending)
    assert log == list(range(stop_at + 1))
    assert sim.pending_count() == 5 - stop_at
    sim.run()
    assert log == list(range(5)) + [10 + stop_at]


def test_a_raise_mid_batch_resumes_in_order():
    sim = Simulator()
    log = []

    def cb(i):
        log.append(i)
        if i == 2:
            sim.schedule_call(0, cb, 12)
            raise _Boom

    for i in range(5):
        sim.schedule_call(1.0, cb, i)
    with pytest.raises(_Boom):
        sim.run()
    assert log == [0, 1, 2] and sim.now == 1.0
    sim.run()
    assert log == [0, 1, 2, 3, 4, 12]


def test_ten_thousand_callbacks_at_ten_instants_are_ten_heap_entries():
    sim = Simulator()
    ran = []
    for i in range(10_000):
        sim.schedule_call(float(i % 10), ran.append, i)
    assert len(sim._times) == 10 and len(sim._at) == 10
    assert sim.pending_count() == 10_000
    sim.run()
    assert ran == sorted(range(10_000), key=lambda i: (i % 10, i))
    assert not sim._times and not sim._at
