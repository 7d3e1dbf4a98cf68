"""Deterministic discrete-event simulation kernel.

This package is the substrate for every other subsystem in :mod:`repro`.
It provides a SimPy-flavoured, dependency-free kernel:

- :class:`~repro.sim.core.Simulator` — the event loop: a heap of
  distinct pending instants, each holding its callbacks in filing order
  (exactly ``(time, seq)`` order), behind a FIFO of urgent same-instant
  callbacks, giving fully deterministic execution.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf` —
  waitable conditions.
- :class:`~repro.sim.process.Process` — generator-coroutine processes;
  simulated actors ``yield`` events and are resumed when they trigger,
  or ``yield`` a delay and are resumed that much later.
- :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Channel` — synchronization primitives.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim, out):
...     yield 5.0
...     out.append(sim.now)
>>> out = []
>>> sim.spawn(hello(sim, out))
<Process 'proc-1' alive>
>>> sim.run()
5.0
>>> out
[5.0]
"""

from repro.sim.core import SimulationError, Simulator
from repro.sim.events import AllOf, AnyOf, Event, EventError, Timeout
from repro.sim.process import Interrupt, Process, ProcessKilled
from repro.sim.resources import Channel, Resource, Semaphore, Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Event",
    "EventError",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "Resource",
    "RngRegistry",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
