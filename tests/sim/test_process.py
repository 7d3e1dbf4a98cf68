"""Tests for generator-coroutine processes."""

import pytest

from repro.sim import Interrupt, ProcessKilled, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_process_runs_and_returns_value(sim):
    def job(sim):
        yield sim.timeout(2)
        yield sim.timeout(3)
        return "result"

    proc = sim.spawn(job(sim))
    assert sim.run_until_complete(proc) == "result"
    assert sim.now == 5


def test_spawn_requires_generator(sim):
    with pytest.raises(TypeError, match="generator"):
        sim.spawn(lambda: None)


def test_process_receives_event_value(sim):
    def job(sim, ev):
        got = yield ev
        return got

    ev = sim.event()
    proc = sim.spawn(job(sim, ev))
    sim.schedule(1, lambda: ev.succeed(123))
    assert sim.run_until_complete(proc) == 123


def test_process_exception_fails_process_event(sim):
    def job(sim):
        yield sim.timeout(1)
        raise ValueError("inner")

    proc = sim.spawn(job(sim))
    with pytest.raises(ValueError, match="inner"):
        sim.run_until_complete(proc)
    assert proc.triggered and not proc.ok


def test_failed_event_is_thrown_into_process(sim):
    def job(sim, ev):
        try:
            yield ev
        except RuntimeError as err:
            return f"caught {err}"

    ev = sim.event()
    proc = sim.spawn(job(sim, ev))
    sim.schedule(1, lambda: ev.fail(RuntimeError("net down")))
    assert sim.run_until_complete(proc) == "caught net down"


def test_yielding_non_event_fails_with_type_error(sim):
    """A yield that is neither an event nor a delay fails the process;
    a number is a delay and sleeps."""
    def job(sim):
        yield "42"

    proc = sim.spawn(job(sim))
    with pytest.raises(TypeError, match="yield Event"):
        sim.run_until_complete(proc)

    def napper(sim):
        yield 42
        return sim.now

    assert sim.run_until_complete(sim.spawn(napper(sim))) == sim.now == 42


def test_yield_from_subroutine_composition(sim):
    def step(sim, dt):
        yield sim.timeout(dt)
        return dt * 10

    def job(sim):
        a = yield from step(sim, 1)
        b = yield from step(sim, 2)
        return a + b

    proc = sim.spawn(job(sim))
    assert sim.run_until_complete(proc) == 30
    assert sim.now == 3


def test_process_is_waitable_by_other_processes(sim):
    def child(sim):
        yield sim.timeout(4)
        return "child-done"

    def parent(sim):
        c = sim.spawn(child(sim))
        got = yield c
        return f"saw {got}"

    proc = sim.spawn(parent(sim))
    assert sim.run_until_complete(proc) == "saw child-done"


def test_two_processes_interleave_deterministically(sim):
    log = []

    def worker(sim, name, dt):
        for _ in range(3):
            yield sim.timeout(dt)
            log.append((sim.now, name))

    sim.spawn(worker(sim, "fast", 1))
    sim.spawn(worker(sim, "slow", 2))
    sim.run()
    # At t=2 both wake; "slow" scheduled its timeout earlier (at t=0 vs
    # t=1), so it holds the lower heap sequence number and runs first.
    assert log == [
        (1, "fast"),
        (2, "slow"),
        (2, "fast"),
        (3, "fast"),
        (4, "slow"),
        (6, "slow"),
    ]


def test_interrupt_is_catchable_and_process_continues(sim):
    def job(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as irq:
            assert irq.cause == "hurry"
        yield sim.timeout(1)
        return "after-interrupt"

    proc = sim.spawn(job(sim))
    sim.schedule(5, lambda: proc.interrupt("hurry"))
    assert sim.run_until_complete(proc) == "after-interrupt"
    assert sim.now == 6


def test_interrupted_wait_does_not_double_resume(sim):
    """The stale wakeup from the abandoned event must be dropped."""

    def job(sim, ev):
        try:
            yield ev
        except Interrupt:
            pass
        yield sim.timeout(10)
        return "ok"

    ev = sim.event()
    proc = sim.spawn(job(sim, ev))
    sim.schedule(1, lambda: proc.interrupt())
    sim.schedule(2, lambda: ev.succeed("late"))  # must be ignored by proc
    assert sim.run_until_complete(proc) == "ok"
    assert sim.now == 11


def test_interrupt_after_completion_is_noop(sim):
    def job(sim):
        yield sim.timeout(1)

    proc = sim.spawn(job(sim))
    sim.run()
    proc.interrupt()  # should not raise
    sim.run()
    assert proc.ok


def test_kill_terminates_process(sim):
    reached = []

    def job(sim):
        yield sim.timeout(100)
        reached.append(True)

    proc = sim.spawn(job(sim))
    sim.schedule(3, proc.kill)
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, ProcessKilled)
    assert not reached


def test_process_name_assigned(sim):
    def job(sim):
        yield sim.timeout(1)

    p = sim.spawn(job(sim), name="nic-engine")
    assert p.name == "nic-engine"
    q = sim.spawn(job(sim))
    assert q.name.startswith("proc-")


def test_immediate_return_process(sim):
    def job(sim):
        return "instant"
        yield  # pragma: no cover

    proc = sim.spawn(job(sim))
    assert sim.run_until_complete(proc) == "instant"
    assert sim.now == 0


def test_process_waiting_on_already_triggered_event(sim):
    ev = sim.event().succeed("pre")

    def job(sim):
        got = yield ev
        return got

    proc = sim.spawn(job(sim))
    assert sim.run_until_complete(proc) == "pre"


def test_unhandled_process_failure_crashes_run(sim):
    def job(sim):
        yield sim.timeout(1)
        raise RuntimeError("nobody is watching")

    sim.spawn(job(sim))
    with pytest.raises(RuntimeError, match="nobody is watching"):
        sim.run()


def test_waited_on_failure_is_not_unhandled(sim):
    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("seen")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except RuntimeError:
            return "handled"

    proc = sim.spawn(parent(sim))
    assert sim.run_until_complete(proc) == "handled"
    sim.run()  # the unhandled-check callback must not raise


def test_kill_is_never_unhandled(sim):
    def job(sim):
        yield sim.timeout(100)

    proc = sim.spawn(job(sim))
    sim.schedule(1, proc.kill)
    sim.run()  # must not raise
