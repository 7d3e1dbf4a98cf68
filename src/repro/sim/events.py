"""Waitable events for the simulation kernel.

An :class:`Event` has three observable states:

- *pending* — created, not yet triggered;
- *triggered* — :meth:`Event.succeed` or :meth:`Event.fail` has been
  called; the value/exception is fixed;
- *processed* — its callbacks have run.

Callbacks added after an event has triggered are scheduled to run
immediately (at the current simulated time), so late waiters never miss a
wakeup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Event", "Timeout", "DeferredEvent", "AnyOf", "AllOf",
           "EventError"]

_PENDING = object()


class EventError(RuntimeError):
    """Raised on event misuse (double trigger, reading a pending value)."""


class Event:
    """A one-shot waitable condition.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.core.Simulator`.

    Notes
    -----
    Events are one-shot: once triggered they stay triggered and keep their
    value.  Reuse a fresh event for each wait.
    """

    __slots__ = (
        "sim",
        "_value",
        "_exception",
        "_callbacks",
        "_to_run",
        "_processed",
        "_defused",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._to_run: Optional[List[Callable[["Event"], None]]] = None
        self._processed = False
        # A failure is "defused" once some waiter observed the exception;
        # Process uses this to crash the simulation on unhandled failures.
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise EventError("event has not triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The success value (raises if pending or failed)."""
        if not self.triggered:
            raise EventError("event has not triggered yet")
        if self._exception is not None:
            self._defused = True
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None`` if the event succeeded.

        Reading it counts as handling the failure (defuses it).
        """
        if not self.triggered:
            raise EventError("event has not triggered yet")
        if self._exception is not None:
            self._defused = True
        return self._exception

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventError(f"{self!r} already triggered")
        self._value = value
        self._to_run = self._callbacks
        self._callbacks = None
        self.sim.schedule_urgent_call(self._process_callbacks)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters get the exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._schedule_callbacks()
        return self

    def trigger(self, value: Any = None) -> "Event":
        """Alias for :meth:`succeed` (reads better for signal-style use)."""
        return self.succeed(value)

    def _schedule_callbacks(self) -> None:
        # Kept for subclasses/tests; succeed() and fail() inline this.
        self._to_run = self._callbacks
        self._callbacks = None
        self.sim.schedule_urgent_call(self._process_callbacks)

    def _fire(self, value: Any) -> None:
        # A timer's timed callback (Timeout, an armed DeferredEvent): the
        # loop drains the urgent deque before every timed callback, so
        # it is empty here — invoking the callbacks inline is
        # indistinguishable from succeed()'s urgent-queue round trip,
        # and saves one kernel event per timer.
        if self._value is not _PENDING or self._exception is not None:
            return  # triggered early by other means; the timer is stale
        self._value = value
        self._processed = True
        callbacks = self._callbacks
        self._callbacks = None
        for cb in callbacks:
            cb(self)

    def _process_callbacks(self) -> None:
        self._processed = True
        callbacks = self._to_run
        self._to_run = None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)

    # -- waiting -------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event is processed.

        If the event already triggered, the callback is scheduled to run
        at the current simulated time.
        """
        if self._callbacks is not None:
            self._callbacks.append(callback)
        else:
            self.sim.schedule_urgent_call(callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._exception is None else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers a fixed delay after its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.delay = delay
        sim.schedule_call(delay, self._fire, value)


class DeferredEvent(Event):
    """An event whose trigger time and value are both known at creation.

    The op-train fast path (:mod:`repro.rma.train`) precomputes every
    completion timestamp analytically; most of the resulting events are
    never waited on individually (non-blocking operations retired
    wholesale by a later ``complete()``).  A deferred event therefore
    costs *zero* kernel events until somebody looks:

    - reading :attr:`triggered` (``Request.test()``/``state``) at or
      after the due time fires the event inline with its stored value;
    - attaching a callback before the due time arms one timer, filed at
      the due time itself, so a blocking waiter resumes at precisely the
      analytic timestamp — from that timer's own heap entry, with no
      urgent-queue hop;
    - a batch owner may :meth:`mark_armed` a whole group and retire it
      with one :meth:`~repro.sim.core.Simulator.schedule_bulk_succeed_at`
      heap entry.
    """

    __slots__ = ("due", "_deferred_value", "_armed")

    def __init__(self, sim: "Simulator", due: float, value: Any = None) -> None:
        super().__init__(sim)
        self.due = due
        self._deferred_value = value
        self._armed = False

    @property
    def triggered(self) -> bool:
        if self._value is not _PENDING or self._exception is not None:
            return True
        if self.sim.now >= self.due:
            self.succeed(self._deferred_value)
            return True
        return False

    def mark_armed(self) -> None:
        """Claim the firing: the caller promises to ``succeed()`` this
        event at (or after) its due time, so no per-event timer is
        armed when waiters attach."""
        self._armed = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if (self._value is _PENDING and self._exception is None
                and self.sim.now >= self.due):
            self.succeed(self._deferred_value)
        if self._callbacks is not None and not self._armed:
            self._armed = True
            self.sim.schedule_call_at(self.due, self._fire,
                                     self._deferred_value)
        super().add_callback(callback)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_satisfied")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        self._satisfied = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> list:
        return [ev.value for ev in self.events if ev.triggered and ev.ok]


class AnyOf(_Condition):
    """Triggers when any child event triggers.

    The condition's value is the list of values of all children that had
    triggered by the moment the condition processed.  A failing child
    fails the condition.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every child event has triggered.

    Value is the list of all child values in construction order.  A
    failing child fails the condition immediately.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._satisfied += 1
        if self._satisfied == len(self.events):
            self.succeed([e.value for e in self.events])
