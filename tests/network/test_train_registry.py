"""The fabric's op-train registry on its own: an arrival heap per
destination, driven here with test-double trains (the registry only
ever calls ``pop_head`` / ``apply`` / ``drop_rest`` and reads ``src``).
"""

import pytest

from repro.network import Fabric, seastar_portals
from repro.sim import Simulator


class Counted:
    """Work the registry does per element: heap comparisons on arrival
    times, and calls into trains."""

    def __init__(self):
        self.inspections = 0


def _counting(name):
    def compare(self, other):
        self.counted.inspections += 1
        return getattr(float, name)(self, other)
    return compare


class Arrival(float):
    """An arrival time that counts every comparison made on it."""

    counted = None
    __lt__ = _counting("__lt__")
    __le__ = _counting("__le__")
    __gt__ = _counting("__gt__")
    __ge__ = _counting("__ge__")
    __eq__ = _counting("__eq__")
    __hash__ = float.__hash__


class DoubleTrain:
    """A train of bare arrival times that logs what it is told to apply."""

    def __init__(self, fabric, src, dst, arrivals, log, counted=None,
                 reenter=False):
        self.fabric, self.src, self.dst = fabric, src, dst
        self.arrivals = list(arrivals)
        self.log = log
        self.counted = counted or Counted()
        self.reenter = reenter
        fabric.register_train(dst, self, self.arrivals[0])

    def pop_head(self):
        self.counted.inspections += 1
        arrival = self.arrivals.pop(0)
        return arrival, (self.arrivals[0] if self.arrivals else None)

    def apply(self, arrival):
        self.counted.inspections += 1
        self.log.append((float(arrival), self.src))
        if self.reenter:
            # what a released gated request's handler does through
            # materialize_inbound(): read the window *now*
            self.fabric.materialize_trains(self.dst)

    def drop_rest(self):
        dropped, self.arrivals = len(self.arrivals), []
        return dropped


def _fabric(now):
    return Fabric(Simulator(start_time=now), seastar_portals())


def test_arrival_order_ties_by_registration_and_prunes_empty_heaps():
    fabric, log = _fabric(7.0), []
    DoubleTrain(fabric, 1, 0, [1.0, 3.0, 5.0], log)
    DoubleTrain(fabric, 2, 0, [2.0, 4.0], log)
    DoubleTrain(fabric, 3, 0, [2.0, 6.0, 9.0], log)   # 2.0 ties with src 2
    DoubleTrain(fabric, 4, 5, [8.0], log)
    fabric.materialize_trains(0)
    assert log == [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 1), (4.0, 2),
                   (5.0, 1), (6.0, 3)]
    assert [(t, train.src) for t, _, train in
            fabric._pending_trains[0]] == [(9.0, 3)]
    fabric.materialize_trains(5)                      # nothing due
    assert len(log) == 7 and set(fabric._pending_trains) == {0, 5}
    fabric.sim = Simulator(start_time=10.0)
    fabric.materialize_all_trains()
    assert sorted(log[7:]) == [(8.0, 4), (9.0, 3)]
    assert fabric._pending_trains == {}               # `if pending:` is exact


@pytest.mark.parametrize("reentrant", [{1}, {2}, {1, 2, 3}])
def test_reentering_from_apply_keeps_order_and_applies_once(reentrant):
    """`apply` runs target-side hooks that may materialize the same
    destination again (gated request -> handler -> materialize_inbound):
    the train must already be back on the heap, or the inner pass would
    skip its later elements and apply others' ahead of them."""
    fabric, log = _fabric(7.0), []
    spec = {1: [1.0, 3.0, 5.0], 2: [2.0, 4.0, 8.0], 3: [2.0, 6.0, 9.0]}
    for src, arrivals in spec.items():
        DoubleTrain(fabric, src, 0, arrivals, log, reenter=src in reentrant)
    fabric.materialize_trains(0)
    due = sorted((t, src) for src, ts in spec.items() for t in ts if t <= 7.0)
    assert log == due                                 # once each, in order
    assert sorted((t, train.src) for t, _, train in
                  fabric._pending_trains[0]) == [(8.0, 2), (9.0, 3)]


def test_kill_rank_drops_every_train_touching_the_rank():
    fabric, log = _fabric(2.5), []
    for rank in range(4):
        fabric.attach(rank)
    DoubleTrain(fabric, 1, 0, [1.0, 3.0, 4.0], log)   # into the victim
    DoubleTrain(fabric, 2, 0, [2.0, 5.0], log)
    DoubleTrain(fabric, 0, 3, [2.0, 6.0], log)        # out of it
    DoubleTrain(fabric, 1, 3, [7.0], log)             # survivors'
    DoubleTrain(fabric, 2, 3, [3.5], log)
    fabric.kill_rank(0)
    assert sorted(log) == [(1.0, 1), (2.0, 0), (2.0, 2)]
    assert fabric.dead_dropped == 2 + 1 + 1
    assert set(fabric._pending_trains) == {3}
    heap = fabric._pending_trains[3]
    assert [(t, train.src) for t, _, train in heap] == [(3.5, 2), (7.0, 1)]
    assert heap[0] == min(heap)


def _inspections_per_element(n_trains, per_train=4):
    counted = Counted()
    Arrival.counted = counted
    fabric, log = _fabric(Arrival(1e9)), []
    for src in range(n_trains):
        # interleaved: element k of every train precedes element k + 1
        # of any, so the heap turns over on every element
        DoubleTrain(fabric, src, 0,
                    [Arrival(k * n_trains + (src * 7) % n_trains)
                     for k in range(per_train)], log, counted)
    registered = counted.inspections
    fabric.materialize_trains(0)
    assert len(log) == n_trains * per_train and log == sorted(log)
    return registered / n_trains, \
        (counted.inspections - registered) / len(log)


def test_registry_work_per_element_grows_logarithmically():
    """The scan this replaced looked at every pending train once per
    element: 16x more per element at P = 256 than at P = 16.  A heap
    pays O(log P): under twice."""
    (reg16, per16), (_, per64), (reg256, per256) = (
        _inspections_per_element(p) for p in (16, 64, 256))
    assert per16 < per64 < per256 <= 2.5 * per16, (per16, per64, per256)
    assert reg256 <= 2.5 * reg16, (reg16, reg256)


@pytest.mark.parametrize("n_trains", [16, 64, 256])
def test_nothing_due_inspects_one_train(n_trains):
    counted = Counted()
    Arrival.counted = counted
    fabric, log = _fabric(Arrival(0.5)), []
    for src in range(n_trains):
        DoubleTrain(fabric, src, 0, [Arrival(1 + src)], log, counted)
    counted.inspections = 0
    fabric.materialize_trains(0)
    fabric.materialize_trains(7)      # a destination with no train at all
    assert counted.inspections <= 2 and not log
