"""Requests and statuses for nonblocking operations.

A :class:`Request` wraps a kernel event.  The same class backs MPI-style
``isend``/``irecv`` and the strawman RMA operations' request argument —
matching the paper's design decision to reuse "requests for completion
of nonblocking operations" (§IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, List, Optional

from repro.mpi.constants import ERRORS_RAISE
from repro.sim.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Request", "Status"]


#: ``repro.rma.target_mem.RmaError``, resolved on first use: importing
#: it at module level would be circular (repro.rma imports repro.mpi).
_RmaError: Any = None


def _rma_error_of(value: Any) -> Any:
    """Extract an :class:`~repro.rma.target_mem.RmaError` carried as an
    event *value* (failure-aware completion never uses ``Event.fail`` —
    a failed operation's event succeeds with the error object so AllOf
    aggregation keeps working)."""
    global _RmaError
    if _RmaError is None:
        from repro.rma.target_mem import RmaError as _RmaError

    if isinstance(value, _RmaError):
        return value
    if isinstance(value, list):
        for item in value:
            if isinstance(item, _RmaError):
                return item
    return None


def _errhandler_of(sim: "Simulator") -> str:
    world = sim.context.get("world")
    if world is None:
        return ERRORS_RAISE
    return getattr(world, "rma_errhandler", ERRORS_RAISE)


@dataclass(frozen=True)
class Status:
    """Completion metadata of a receive."""

    source: int
    tag: int
    nbytes: int


class Request:
    """Handle for an in-flight nonblocking operation.

    ``wait``/``waitall`` are generators (``yield from``); ``test`` is an
    immediate poll.  The value carried by the request depends on the
    operation: received object for ``irecv``, ``None`` for ``isend``,
    fetched data for RMA gets, etc.
    """

    __slots__ = ("sim", "event", "kind", "status")

    def __init__(self, sim: "Simulator", event: Optional[Event] = None,
                 kind: str = "generic") -> None:
        self.sim = sim
        self.event = event if event is not None else sim.event()
        self.kind = kind
        self.status: Optional[Status] = None

    @property
    def error(self) -> Any:
        """The operation's :class:`~repro.rma.target_mem.RmaError`, or
        ``None`` while pending / after success."""
        if not self.event.triggered:
            return None
        return _rma_error_of(self.event.value)

    @property
    def state(self) -> str:
        """``"pending"``, ``"complete"``, or ``"failed"``."""
        if not self.event.triggered:
            return "pending"
        if not self.event.ok or self.error is not None:
            return "failed"
        return "complete"

    @property
    def complete(self) -> bool:
        """True once the operation finished (successfully or not)."""
        return self.event.triggered

    def test(self) -> bool:
        """Nonblocking completion poll (MPI_Test)."""
        return self.event.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """Suspend until complete; returns the operation's value.

        If the operation failed (failure-aware RMA completion), the
        world's error handler decides: ``ERRORS_RAISE`` (default) raises
        the :class:`~repro.rma.target_mem.RmaError`; ``ERRORS_RETURN``
        returns it as the value with the request left ``"failed"``.
        """
        if not self.event.triggered:
            yield self.event
        value = self.event.value
        err = _rma_error_of(value)
        if err is not None:
            if _errhandler_of(self.sim) == ERRORS_RAISE:
                raise err
            return err
        return value

    @staticmethod
    def waitall(requests: Iterable["Request"]) -> Generator[Event, Any, List[Any]]:
        """Wait for every request; returns their values in order.

        Under ``ERRORS_RAISE`` the first failed request's error is
        raised once all events have triggered; under ``ERRORS_RETURN``
        error objects appear in the returned list at their request's
        position.
        """
        reqs = list(requests)
        if not reqs:
            return []
        pending = [r.event for r in reqs if not r.event.triggered]
        if pending:
            sim = reqs[0].sim
            yield AllOf(sim, pending)
        values = [r.event.value for r in reqs]
        errs = [e for e in (_rma_error_of(v) for v in values) if e is not None]
        if errs:
            if _errhandler_of(reqs[0].sim) == ERRORS_RAISE:
                raise errs[0]
        return values

    @staticmethod
    def waitany(requests: Iterable["Request"]) -> Generator[Event, Any, int]:
        """Wait until at least one request completes; returns its index."""
        reqs = list(requests)
        if not reqs:
            raise ValueError("waitany on empty request list")
        for i, r in enumerate(reqs):
            if r.event.triggered:
                return i
        from repro.sim.events import AnyOf

        sim = reqs[0].sim
        yield AnyOf(sim, [r.event for r in reqs])
        for i, r in enumerate(reqs):
            if r.event.triggered:
                return i
        raise AssertionError("AnyOf fired but no request complete")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Request {self.kind} {self.state}>"
