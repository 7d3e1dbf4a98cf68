"""Tests for the simulator event loop."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start_time=42.0).now == 42.0


def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    seen = []
    sim.schedule(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_callbacks_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("b"))
    sim.schedule(1, lambda: order.append("a"))
    sim.schedule(9, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_times_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_zero_delay_callback_runs_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.schedule(0, lambda: times.append(sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert times == [2.0]


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(10, lambda: seen.append(10))
    stopped = sim.run(until=5)
    assert stopped == 5
    assert seen == [1]
    # remaining work still runs on a later run()
    sim.run()
    assert seen == [1, 10]


def test_run_returns_final_time():
    sim = Simulator()
    sim.schedule(7, lambda: None)
    assert sim.run() == 7


def test_step_returns_false_on_empty_heap():
    assert Simulator().step() is False


def test_nested_scheduling_from_callback():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append((sim.now, n))
        if n:
            sim.schedule(1.0, lambda: chain(n - 1))

    sim.schedule(0, lambda: chain(3))
    sim.run()
    assert hits == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]


def test_run_until_complete_returns_event_value():
    sim = Simulator()
    ev = sim.event()
    sim.schedule(4, lambda: ev.succeed("done"))
    assert sim.run_until_complete(ev) == "done"
    assert sim.now == 4


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(ev)


def test_run_until_complete_respects_limit():
    sim = Simulator()
    ev = sim.event()
    sim.schedule(100, lambda: ev.succeed())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(ev, limit=10)


def test_run_until_complete_raises_event_failure():
    sim = Simulator()
    ev = sim.event()
    sim.schedule(1, lambda: ev.fail(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until_complete(ev)


def test_pending_count_tracks_heap():
    sim = Simulator()
    assert sim.pending_count() == 0
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_count() == 2
    sim.run()
    assert sim.pending_count() == 0


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0, reenter)
    sim.run()


FILINGS = {
    "schedule": lambda sim, x: sim.schedule(x, lambda: None),
    "schedule_call": lambda sim, x: sim.schedule_call(x, print),
    "schedule_call_at": lambda sim, x: sim.schedule_call_at(x, print),
    "schedule_bulk_succeed_at":
        lambda sim, x: sim.schedule_bulk_succeed_at(x, [], []),
}


@pytest.mark.parametrize("name", sorted(FILINGS))
def test_a_nan_delay_or_instant_is_rejected(name):
    """NaN compares false both ways, so ``delay < 0`` let it through;
    filed, it breaks the order of every instant after it."""
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN"):
        FILINGS[name](sim, float("nan"))
    with pytest.raises(ValueError, match="past"):
        FILINGS[name](sim, -1.0)
    assert sim.pending_count() == 0


@pytest.mark.parametrize("name", sorted(FILINGS))
def test_a_numpy_delay_enters_as_a_float(name):
    """Whichever callback files an instant first, every callback of it
    sees the same ``float`` clock."""
    import numpy as np

    sim = Simulator()
    seen = []
    FILINGS[name](sim, np.float64(2.0))
    sim.schedule_call(2.0, lambda: seen.append(sim.now))
    sim.schedule_call(np.int64(3), lambda: seen.append(sim.now))
    sim.schedule_call_at(np.float32(4.0), lambda: seen.append(sim.now))
    sim.schedule_call(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0, 3.0, 4.0, 4.0]
    assert {type(t) for t in seen} == {float}
    assert type(sim.now) is float


def test_a_numpy_nap_wakes_on_a_float_clock():
    import numpy as np

    sim = Simulator()
    seen = []

    def napper(delay):
        yield delay
        seen.append(sim.now)

    sim.spawn(napper(np.float32(1.5)))
    sim.spawn(napper(1.5))
    sim.run()
    assert seen == [1.5, 1.5]
    assert {type(t) for t in seen} == {float}
