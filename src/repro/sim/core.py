"""The simulator event loop.

Two scheduling structures back the loop:

- the *timed queue*, for callbacks at a later (or the current)
  simulated time: a binary heap of the distinct pending instants, as
  plain floats, and a dict that maps each instant to the callbacks filed
  for it, in the order they were filed.  A lone callback is kept as its
  ``(fn, args)`` pair; a second one at the same instant turns the entry
  into a list, and every later one is appended to it;
- a plain FIFO deque for *urgent* callbacks at the **current** time
  (event-trigger processing, process resumption).  The deque is drained
  after every timed callback, before the next one runs, so urgent
  entries run before any timed callback still due at the same instant,
  at deque cost.  Roughly half of all kernel events in an RMA
  simulation are urgent (every ``succeed()`` is one).

The loop pops an instant once, sets ``now`` once and runs the instant's
callbacks in filing order.  That is exactly the ``(time, seq)`` order a
heap of ``(time, seq, fn, args)`` entries with a global filing counter
would give: instants run in time order, and within an instant a callback
filed earlier runs earlier.  A callback that files another for the
instant being run (a zero delay) files it into a fresh batch at that
instant, which runs after the current one — where its larger ``seq``
put it.  When the loop stops part-way through an instant (the
``pending`` container of :meth:`Simulator.run_while_pending` empties,
or a callback raises), the callbacks not yet run go back in front of any
batch filed for that instant since, so a later run resumes in the same
order.  The simulation is deterministic, independent of hash seeds or
dict iteration order.

With many callbacks per instant — lockstep ranks, a collective's
rounds, the acks of one flush — filing one is a dict lookup and an
append, and the heap holds only the distinct instants, so a push or a
pop costs log of that, and compares floats, not tuples.

Scheduling a *bound method plus arguments* (:meth:`Simulator.schedule_call`)
instead of a freshly allocated closure is the kernel's fast path: the
network and RMA layers schedule millions of callbacks per run, and a
lambda per callback used to dominate allocation on large sweeps.

Simulated time is a ``float`` in *microseconds* by convention throughout
:mod:`repro` (the network configs document their units the same way), but
the kernel itself is unit-agnostic.  An instant enters the heap as a
``float`` (a NumPy or integer delay is converted there), so every
callback of an instant sees the same ``float`` ``now``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, List,
                    Optional, Tuple, Union)

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

_Call = Tuple[Callable[..., None], tuple]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished loop)."""


def _bad_time(name: str, value: Any) -> ValueError:
    """The error for a delay or instant that fails ``>= 0`` / ``>= now``:
    one in the past, or NaN (which compares false either way and would
    silently break the heap's order)."""
    if value != value:
        return ValueError(f"cannot schedule at NaN ({name}={value!r})")
    return ValueError(f"cannot schedule in the past ({name}={value!r})")


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

    __slots__ = ("now", "_times", "_at", "_urgent", "_running",
                 "_processes_spawned", "context")

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time: a plain slot, read on every charge,
        #: arrival and due-event test, and written only by the loop.
        self.now: float = float(start_time)
        #: The distinct pending instants (a heap of floats) ...
        self._times: List[float] = []
        #: ... and what is filed for each: one ``(fn, args)`` pair, or
        #: a list of them in filing order.
        self._at: Dict[float, Union[_Call, List[_Call]]] = {}
        self._urgent: Deque[_Call] = deque()
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
    def _file(self, t: float, call: _Call) -> None:
        """File ``call`` at instant ``t``, after everything already
        filed for it.  :meth:`schedule_call`, the hot entry point,
        inlines this body."""
        filed = self._at.setdefault(t, call)
        if filed is call:
            _heappush(self._times, t if type(t) is float else float(t))
        elif type(filed) is list:
            filed.append(call)
        else:
            self._at[t] = [filed, call]

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated time units.

        ``delay`` must be non-negative; a zero delay runs the callback at
        the current time, after everything already scheduled for this
        instant.
        """
        if not delay >= 0:
            raise _bad_time("delay", delay)
        self._file(self.now + delay, (callback, ()))

    def schedule_call(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (fast path).

        Equivalent to ``schedule(delay, lambda: fn(*args))`` without the
        closure allocation; ``fn`` is typically a bound method.
        """
        if not delay >= 0:
            raise _bad_time("delay", delay)
        t = self.now + delay
        call = (fn, args)
        filed = self._at.setdefault(t, call)
        if filed is call:
            _heappush(self._times, t if type(t) is float else float(t))
        elif type(filed) is list:
            filed.append(call)
        else:
            self._at[t] = [filed, call]

    def schedule_call_at(
        self, t: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` at instant ``t`` (fast path).

        One rule picks the form: an instant a caller computed (an
        injection, an arrival, a due time, a planned fault) is filed as
        itself, here; a delay the model charges (a timeout, a nap, a CPU
        charge, a retransmission timeout) is filed as a delay
        (:meth:`schedule_call`).  So every path that computes the same
        instant files the same float."""
        if not t >= self.now:
            raise _bad_time("t", t)
        self._file(t, (fn, args))

    def schedule_bulk_succeed_at(
        self, t: float, events: List[Event], values: List[Any]
    ) -> None:
        """Succeed ``events[i]`` with ``values[i]`` at instant ``t``, as a
        single timed callback.

        N completion events whose (time, value) pairs are already known
        (the hardware acks of a ``Nic.post_frags`` message) cost one
        event-loop interaction instead of N.  Events that trigger
        earlier by other means are skipped, so callback order and every
        observable timestamp stay exactly as if each event had its own
        timer at ``t``.
        """
        if not t >= self.now:
            raise _bad_time("t", t)
        self._file(t, (self._bulk_succeed, (events, values)))

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

    def _refile(self, t: float, rest: List[_Call]) -> None:
        """Put the callbacks of instant ``t`` that a stopped loop did not
        run back in front of any batch filed for ``t`` since."""
        if not rest:
            return
        at = self._at
        filed = at.get(t)
        if filed is None:
            at[t] = rest
            _heappush(self._times, t)
        elif type(filed) is list:
            filed[:0] = rest
        else:
            rest.append(filed)
            at[t] = rest

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
        times = self._times
        if not times:
            return False
        t = times[0]
        if t < self.now:
            raise SimulationError("heap time went backwards")
        filed = self._at[t]
        if type(filed) is list and len(filed) > 1:
            fn, args = filed.pop(0)
        else:
            _heappop(times)
            del self._at[t]
            fn, args = filed if type(filed) is tuple else filed[0]
        self.now = t
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the loop drains or simulated time reaches ``until``.

        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        times = self._times
        take = self._at.pop
        urgent = self._urgent
        pop = _heappop
        popleft = urgent.popleft
        try:
            while True:
                # Urgent FIFO first: everything here is due *now*.
                while urgent:
                    fn, args = popleft()
                    fn(*args)
                if not times:
                    break
                if until is not None and times[0] > until:
                    self.now = until
                    break
                t = pop(times)
                filed = take(t)
                self.now = t
                if type(filed) is tuple:
                    fn, args = filed
                    fn(*args)
                    continue
                # Pop the batch from its reversed end, so each callback is
                # released as it runs: iterating would keep every run
                # callback of a large batch, and all it references,
                # alive until the batch ends (in a 512-rank all-to-all,
                # enough to add collector passes).
                filed.reverse()
                take_next = filed.pop
                try:
                    while filed:
                        fn, args = take_next()
                        fn(*args)
                        while urgent:
                            fn, args = popleft()
                            fn(*args)
                except BaseException:
                    filed.reverse()
                    self._refile(t, filed)
                    raise
        finally:
            self._running = False
        return self.now

    def run_while_pending(
        self, pending: Iterable, limit: Optional[float] = None
    ) -> None:
        """Step until ``pending`` empties, the loop drains, or the next
        pending instant lies beyond ``limit``.

        ``pending`` is any sized container that event callbacks shrink as
        work completes (the :class:`~repro.runtime.World` passes the set
        of unfinished rank processes); it is tested after every callback.
        This is ``World.run``'s hot loop — kept inside the kernel so an
        instant costs one pop and each callback one call, nothing more.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        times = self._times
        take = self._at.pop
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
                if not times or limit is not None and times[0] > limit:
                    break
                t = pop(times)
                filed = take(t)
                self.now = t
                if type(filed) is tuple:
                    fn, args = filed
                    fn(*args)
                    continue
                filed.reverse()  # as in run()
                take_next = filed.pop
                try:
                    while filed:
                        fn, args = take_next()
                        fn(*args)
                        if not pending:
                            filed.reverse()
                            self._refile(t, filed)
                            return
                        while urgent:
                            fn, args = popleft()
                            fn(*args)
                            if not pending:
                                filed.reverse()
                                self._refile(t, filed)
                                return
                except BaseException:
                    filed.reverse()
                    self._refile(t, filed)
                    raise
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
            if (limit is not None and not self._urgent and self._times
                    and self._times[0] > limit):
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
        return len(self._urgent) + sum(
            len(filed) if type(filed) is list else 1
            for filed in self._at.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending_count()}>"
