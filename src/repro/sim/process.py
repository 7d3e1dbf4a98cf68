"""Generator-coroutine processes.

A process wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` instances or delays; the kernel resumes
it with the event's value once the event triggers, or throws the event's
exception into it if the event failed.  A yielded real number ``d`` (an
``int`` or a ``float``, NumPy scalars included, never a ``bool``) is a
*nap*: the process resumes ``d`` time units later with ``None``, as
after ``yield sim.timeout(d)`` but with one heap entry and no event
object.  Sub-activities are composed with ``yield from``, exactly as in
SimPy, e.g.::

    def worker(sim, lock):
        yield from lock.acquire()
        yield 3
        lock.release()

The :class:`Process` object is itself an event: it triggers when the
generator returns (value = the generator's return value) or fails when
the generator raises.
"""

from __future__ import annotations

from numbers import Real
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Process", "Interrupt", "ProcessKilled"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown into a process by :meth:`Process.kill`; do not catch."""


class Process(Event):
    """A running simulated activity (see module docstring)."""

    __slots__ = ("name", "_generator", "_waiting_on", "_dead", "_naps")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "proc",
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you call the function instead of passing its result?)"
            )
        self.name = name
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._dead = False
        # Naps taken so far: a wake carries the number of its nap and
        # runs only if no interrupt or kill came in between.
        self._naps = 0
        # First resume happens via the event queue so the spawner's
        # current callback finishes before the child starts.
        sim.schedule_urgent_call(self._resume, None, None)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process may catch the interrupt and continue; the event it
        was waiting on remains pending from its point of view (it must
        re-wait explicitly if it still wants the result).
        """
        if not self.is_alive:
            return
        self.sim.schedule_urgent_call(self._throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process; it fails with :class:`ProcessKilled`."""
        if not self.is_alive:
            return
        self._dead = True
        self.sim.schedule_urgent_call(self._throw, ProcessKilled())

    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # The process was interrupted/killed while waiting and has
            # since moved on; drop the stale wakeup.
            return
        self._waiting_on = None
        # Inlined event.ok/value/exception: the event has triggered by
        # construction (we are one of its processed callbacks).
        exc = event._exception
        if exc is None:
            self._resume(event._value, None)
        else:
            event._defused = True  # the process observes the failure
            self._resume(None, exc)

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        self._waiting_on = None
        self._naps += 1  # a nap in progress will not wake the process
        self._resume(None, exc)

    def _wake(self, nap: int) -> None:
        """The end of nap number ``nap``: resume, unless an interrupt or
        a kill came since."""
        if nap == self._naps:
            self._resume(None, None)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return  # already finished (e.g. killed then woken)
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as pk:
            self.fail(pk)
            self._defused = True  # kills are intentional, never "unhandled"
            return
        except BaseException as err:
            captured = err  # `err` is unbound once the except block exits
            self.fail(captured)
            # SimPy-style: if nothing observes this failure by the time
            # the event queue settles, crash the simulation instead of
            # silently losing the error.
            def check_unhandled() -> None:
                if not self._defused:
                    raise captured

            self.sim.schedule(0, check_unhandled)
            return
        cls = type(target)
        if cls is not float and cls is not int:
            if isinstance(target, Event):
                if target.sim is not self.sim:
                    self._generator.close()
                    self.fail(ValueError(
                        "yielded event belongs to a different simulator"))
                    return
                self._waiting_on = target
                target.add_callback(self._on_event)
                return
            if cls is bool or not isinstance(target, Real):
                self._generator.close()
                self.fail(
                    TypeError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes must yield Event instances or delays"
                    )
                )
                return
        # A nap: one heap entry where the Timeout of
        # ``yield sim.timeout(d)`` would have pushed its own.
        if target >= 0:
            self._naps += 1
            self.sim.schedule_call(target, self._wake, self._naps)
        else:  # negative or NaN: raised at the yield
            self._resume(None, ValueError(
                f"process {self.name!r} yielded the delay {target!r}; "
                "a delay must be a non-negative number"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else ("done" if self.ok else "failed")
        return f"<Process {self.name!r} {state}>"
