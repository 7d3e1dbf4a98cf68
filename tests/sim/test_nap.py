"""Naps: a process that yields a number sleeps that long.

``yield d`` stands in for ``yield sim.timeout(d)`` with one heap entry
and no event object, pushed where the timeout's constructor would have
pushed its own — so equal-instant ties resolve as they did.
"""

import random

import numpy as np
import pytest

from repro.sim import Simulator


def _mixed_run(seed, use_nap):
    """Twelve processes each take twenty steps of 0, 1 or 2 time units
    (ties everywhere), some steps sleeping by nap when ``use_nap``, with
    plain callbacks and event triggers scheduled at the same instants.
    Returns the order in which everything ran."""
    rng = random.Random(seed)
    sim = Simulator()
    log = []
    plans = [[(rng.choice((0, 1, 2)), rng.random() < 0.5)
              for _ in range(20)] for _ in range(12)]
    gate = sim.event()

    def proc(i, plan):
        if i % 4 == 0:
            yield gate
            log.append((sim.now, i, "gate"))
        for step, (delay, nap) in enumerate(plan):
            if nap and use_nap:
                yield delay
            else:
                yield sim.timeout(delay)
            log.append((sim.now, i, step))

    for i, plan in enumerate(plans):
        sim.spawn(proc(i, plan))
    for t in range(0, 30, 3):
        sim.schedule(t, lambda t=t: log.append((sim.now, "cb", t)))
    sim.schedule(5, lambda: gate.succeed())
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(8))
def test_naps_resume_in_timeout_tie_order(seed):
    naps = _mixed_run(seed, use_nap=True)
    assert naps == _mixed_run(seed, use_nap=False)
    assert len(naps) == 12 * 20 + 3 + 10


def test_yield_zero_runs_after_everything_already_scheduled_for_now():
    sim = Simulator()
    log = []

    def sleeper():
        yield 0
        log.append("nap")

    def starter():
        sim.schedule(0, lambda: log.append("callback"))
        sim.spawn(sleeper())
        yield sim.timeout(0)
        log.append("timeout")

    sim.spawn(starter())
    sim.run()
    assert log == ["callback", "timeout", "nap"]
    assert sim.now == 0


@pytest.mark.parametrize("delay", [np.float64(2.5), np.float32(2.5),
                                   np.int64(2), 2, 2.5])
def test_a_real_number_sleeps(delay):
    sim = Simulator()

    def job():
        got = yield delay
        return got, sim.now

    assert sim.run_until_complete(sim.spawn(job())) == (None, float(delay))


@pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), np.float64("nan")])
def test_a_negative_or_nan_delay_raises_inside_the_generator(bad):
    sim = Simulator()

    def job():
        try:
            yield bad
        except ValueError as err:
            yield 1
            return str(err), sim.now
        return "slept", sim.now

    msg, now = sim.run_until_complete(sim.spawn(job()))
    assert "delay" in msg and now == 1


@pytest.mark.parametrize("bad", [True, False, "x", None, 1j])
def test_a_bool_or_other_non_number_fails_with_type_error(bad):
    sim = Simulator()

    def job():
        yield bad

    with pytest.raises(TypeError, match="yield Event"):
        sim.run_until_complete(sim.spawn(job()))


def test_an_interrupt_during_a_nap_drops_its_wake():
    sim = Simulator()
    log = []

    def job():
        try:
            yield 10
            log.append(("woke", sim.now))
        except Exception as exc:  # the Interrupt
            log.append((type(exc).__name__, sim.now))
        yield 20  # ends at 23, not at 10
        log.append(("second", sim.now))

    proc = sim.spawn(job())
    sim.schedule(3, lambda: proc.interrupt("stop"))
    sim.run()
    assert log == [("Interrupt", 3), ("second", 23)]


def test_a_kill_during_a_nap_drops_its_wake():
    sim = Simulator()
    log = []

    def job():
        yield 10
        log.append("woke")

    proc = sim.spawn(job())
    sim.schedule(3, proc.kill)
    sim.run()
    assert log == [] and sim.now == 10  # the stale wake popped, did nothing
    assert proc.triggered and not proc.ok
