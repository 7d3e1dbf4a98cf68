"""The simulator event loop.

Two scheduling structures back the loop:

- a binary heap of ``(time, seq, fn, args)`` entries for callbacks at
  a *future* simulated time;
- a plain FIFO deque for *urgent* callbacks at the **current** time
  (event-trigger processing, process resumption).  The deque is always
  drained before the heap is consulted, so urgent entries run before
  any heap entry at the same timestamp, at deque cost instead of heap
  cost.  This matters: roughly half of all kernel events in an RMA
  simulation are urgent (every ``succeed()`` is one).

``seq`` is a monotonically increasing counter so that heap entries
scheduled at the same simulated time execute in scheduling order; with
the FIFO deque this makes the whole simulation deterministic,
independent of hash seeds or dict iteration order.

Scheduling a *bound method plus arguments* (:meth:`Simulator.schedule_call`)
instead of a freshly allocated closure is the kernel's fast path: the
network and RMA layers schedule millions of callbacks per run, and a
lambda per callback used to dominate allocation on large sweeps.

Simulated time is a ``float`` in *microseconds* by convention throughout
:mod:`repro` (the network configs document their units the same way), but
the kernel itself is unit-agnostic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished loop)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated clock value.

    Notes
    -----
    All mutation of simulation state must happen from inside callbacks or
    processes run by this loop.  The class is single-threaded on purpose:
    simulated concurrency comes from interleaving coroutines, not OS
    threads, which keeps runs reproducible.
    """

    __slots__ = ("now", "_heap", "_urgent", "_seq", "_running",
                 "_processes_spawned", "context")

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time: a plain slot, read on every charge,
        #: arrival and due-event test, and written only by the loop.
        self.now: float = float(start_time)
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._urgent: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._seq: int = 0
        self._running: bool = False
        self._processes_spawned: int = 0
        #: Arbitrary per-simulation scratch space used by higher layers
        #: (e.g. the runtime stores the World here so that deeply nested
        #: components can find global services without threading them
        #: through every constructor).
        self.context: dict = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated time units.

        ``delay`` must be non-negative; a zero delay runs the callback at
        the current time, after everything already scheduled for this
        instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        _heappush(self._heap, (self.now + delay, self._seq, callback, ()))
        self._seq += 1

    def schedule_call(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (fast path).

        Equivalent to ``schedule(delay, lambda: fn(*args))`` without the
        closure allocation; ``fn`` is typically a bound method.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        _heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def schedule_call_at(
        self, t: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Absolute-time variant of :meth:`schedule_call`: the heap entry
        carries ``t`` itself.  ``now + (t - now)`` can round to one ulp
        before ``t``; a callback that tests ``something_due_at_t <= now``
        (the op-train's wake) would then find nothing due and never be
        called again."""
        if t < self.now:
            raise ValueError(f"cannot schedule in the past (t={t!r})")
        _heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def schedule_bulk_succeed(
        self, delay: float, events: List[Event], values: List[Any]
    ) -> None:
        """Succeed ``events[i]`` with ``values[i]`` after ``delay``, as a
        single heap entry.

        N completion events whose (time, value) pairs are already known
        (the hardware acks of a ``Nic.post_frags`` message) cost one
        event-loop interaction instead of N.  Events that
        trigger earlier by other means are skipped, so heap order and
        every observable timestamp stay exactly as if each event had its
        own timer at ``delay``.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        _heappush(self._heap, (self.now + delay, self._seq,
                               self._bulk_succeed, (events, values)))
        self._seq += 1

    def schedule_bulk_succeed_at(
        self, t: float, events: List[Event], values: List[Any]
    ) -> None:
        """Absolute-time variant of :meth:`schedule_bulk_succeed`: the
        heap entry carries ``t`` itself, with no ``now + (t - now)``
        float round trip, so a precomputed analytic timestamp is
        reproduced bit-exactly no matter when the call is made."""
        if t < self.now:
            raise ValueError(f"cannot schedule in the past (t={t!r})")
        _heappush(self._heap, (t, self._seq,
                               self._bulk_succeed, (events, values)))
        self._seq += 1

    @staticmethod
    def _bulk_succeed(events: List[Event], values: List[Any]) -> None:
        for ev, value in zip(events, values):
            if not ev.triggered:
                ev.succeed(value)

    def schedule_urgent_call(
        self, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` at the current time, before any ordinary
        callback scheduled for this instant (fast path)."""
        self._urgent.append((fn, args))

    # ------------------------------------------------------------------
    # Event / process factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event` bound to this loop."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def spawn(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``.

        The generator yields :class:`Event` objects and is resumed with
        each event's value once it triggers (or has the event's exception
        thrown into it if the event failed).  The returned
        :class:`Process` is itself an event that triggers when the
        generator returns; its value is the generator's return value.
        """
        self._processes_spawned += 1
        if name is None:
            name = f"proc-{self._processes_spawned}"
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns ``False`` when nothing is scheduled, ``True`` otherwise.
        """
        if self._urgent:
            fn, args = self._urgent.popleft()
            fn(*args)
            return True
        if not self._heap:
            return False
        time, _seq, fn, args = _heappop(self._heap)
        if time < self.now:
            raise SimulationError("heap time went backwards")
        self.now = time
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the loop drains or simulated time reaches ``until``.

        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        heap = self._heap
        urgent = self._urgent
        pop = _heappop
        popleft = urgent.popleft
        try:
            if until is None:
                while True:
                    # Urgent FIFO first: everything here is due *now*.
                    while urgent:
                        fn, args = popleft()
                        fn(*args)
                    if not heap:
                        break
                    time, _seq, fn, args = pop(heap)
                    self.now = time
                    fn(*args)
            else:
                while True:
                    while urgent:
                        fn, args = popleft()
                        fn(*args)
                    if not heap:
                        break
                    if heap[0][0] > until:
                        self.now = until
                        break
                    time, _seq, fn, args = pop(heap)
                    self.now = time
                    fn(*args)
        finally:
            self._running = False
        return self.now

    def run_while_pending(
        self, pending: Iterable, limit: Optional[float] = None
    ) -> None:
        """Step until ``pending`` empties, the loop drains, or the next
        heap entry lies beyond ``limit``.

        ``pending`` is any sized container that event callbacks shrink as
        work completes (the :class:`~repro.runtime.World` passes the set
        of unfinished rank processes).  This is the driver's hot loop —
        kept inside the kernel so each event costs one pop and one call,
        nothing more.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        heap = self._heap
        urgent = self._urgent
        pop = _heappop
        popleft = urgent.popleft
        try:
            while pending:
                while urgent:
                    fn, args = popleft()
                    fn(*args)
                    if not pending:
                        return
                if not heap:
                    break
                if limit is not None and heap[0][0] > limit:
                    break
                time, _seq, fn, args = pop(heap)
                self.now = time
                fn(*args)
        finally:
            self._running = False

    def run_until_complete(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises
        ------
        SimulationError
            If the loop drains (deadlock) or ``limit`` is reached before
            the event triggers.
        """
        while not event.triggered:
            if (limit is not None and not self._urgent and self._heap
                    and self._heap[0][0] > limit):
                raise SimulationError(
                    f"time limit {limit} reached before event triggered"
                )
            if not self.step():
                raise SimulationError(
                    "event loop drained before event triggered (deadlock?)"
                )
        if not event.ok:
            raise event.exception  # type: ignore[misc]
        return event.value

    def pending_count(self) -> int:
        """Number of callbacks currently scheduled (diagnostic)."""
        return len(self._heap) + len(self._urgent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending_count()}>"
