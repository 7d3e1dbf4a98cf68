"""Atomicity serializers (paper §V-A).

A *serializer* is "a mechanism to execute memory access operations on a
remote address space in sequence".  The prototype in the paper measures
two, and mentions a third fallback; all three are implemented here:

- :class:`ThreadSerializer` — a communication thread at the target
  drains a FIFO of atomic-operation jobs, one at a time.  This models
  both the implicit (active-message handler) and explicit (helper
  thread) variants; it requires an OS that allows extra threads
  (Compute Node Linux yes, Catamount no).
- :class:`CoarseLockSerializer` — a coarse-grain MPI-process-level
  lock: the origin acquires the target's lock over the network before
  issuing the operation and releases it after remote completion.
  Correct everywhere, but each atomic op pays lock round trips and all
  contenders serialize across the full transfer.
- :class:`ProgressSerializer` — no thread, no lock: queued jobs only
  run when the target's MPI library makes progress, modeled as a
  periodic poll ("one has to rely on MPI progress (with associated
  loss of efficiency)").

The engine calls :meth:`Serializer.origin_acquire` /
:meth:`Serializer.origin_release` around issuing an atomic op (only the
lock serializer does anything there) and routes the target-side
application through :meth:`Serializer.submit_job` (only the thread and
progress serializers queue there; the lock serializer runs the job
immediately because exclusivity is already guaranteed by the lock).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Generator

from repro.rma.target_mem import RmaError
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.rma.engine import RmaEngine

__all__ = [
    "Serializer",
    "ThreadSerializer",
    "CoarseLockSerializer",
    "ProgressSerializer",
    "make_serializer",
]

JobFn = Callable[[], Generator]


class Serializer:
    """Base class; subclasses pick where serialization happens."""

    kind = "abstract"

    def __init__(self, engine: "RmaEngine") -> None:
        self.engine = engine
        self.sim = engine.sim
        self.jobs_executed = 0

    # -- origin-side hooks (around issuing an atomic op) -----------------
    def origin_acquire(self, dst: int) -> Generator:
        """Runs at the origin before issuing an atomic op to ``dst``."""
        return
        yield  # pragma: no cover

    def origin_release(self, dst: int) -> Generator:
        """Runs at the origin after the atomic op remotely completed."""
        return
        yield  # pragma: no cover

    # -- target-side hook -------------------------------------------------
    def submit_job(self, job: JobFn) -> None:
        """Schedule a target-side application job for execution."""
        raise NotImplementedError

    # -- process-lock messages (only the lock serializer speaks them) -----
    def _no_lock(self, src: int) -> None:
        raise RmaError(
            f"rank {self.engine.rank}: received a process-lock message "
            f"from rank {src} but the serializer is {self.kind!r}"
        )

    lock_req = lock_grant = unlock = _no_lock


class ThreadSerializer(Serializer):
    """A communication thread at the target executes jobs FIFO."""

    kind = "thread"

    def __init__(self, engine: "RmaEngine") -> None:
        super().__init__(engine)
        self._queue: Store = Store(self.sim)
        self.sim.spawn(self._worker(), name=f"comm-thread-{engine.rank}")

    def _worker(self):
        while True:
            job: JobFn = yield from self._queue.get()
            # The handler activation cost of the communication thread.
            yield self.engine.timings.am_handler
            yield from job()
            self.jobs_executed += 1

    def submit_job(self, job: JobFn) -> None:
        self._queue.put(job)


class CoarseLockSerializer(Serializer):
    """MPI-process-level lock acquired over the network by origins.

    The target side of the lock (grant queue) lives here; requests,
    grants and unlocks travel as the engine's ``rma.lock_req`` /
    ``rma.lock_grant`` / ``rma.unlock`` control messages
    (:meth:`RmaEngine.signal <repro.rma.engine.core.RmaEngine.signal>`).
    Grants are FIFO so contention behaviour is deterministic and
    starvation-free.
    """

    kind = "lock"

    def __init__(self, engine: "RmaEngine") -> None:
        super().__init__(engine)
        # target side
        self._held_by: int = -1
        self._wait_queue: Deque[int] = deque()
        # origin side: grant events per target, plus a local gate so this
        # rank's own back-to-back atomic ops to one target queue up
        # instead of double-requesting the remote lock.
        self._grants: Dict[int, Any] = {}
        self._local_gate: Dict[int, Any] = {}
        self.lock_acquisitions = 0

    # -- origin side ------------------------------------------------------
    def _gate(self, dst: int):
        from repro.sim.resources import Resource

        gate = self._local_gate.get(dst)
        if gate is None:
            gate = self._local_gate[dst] = Resource(self.sim)
        return gate

    def origin_acquire(self, dst: int):
        """Request the target's process lock; wait for the grant."""
        yield from self._gate(dst).acquire()
        ev = self.sim.event()
        self._grants[dst] = ev
        yield self.engine.timings.lock_op
        self.engine.signal(dst, "rma.lock_req")
        yield ev  # the grant triggers it
        self.lock_acquisitions += 1

    def origin_release(self, dst: int):
        yield self.engine.timings.lock_op
        self.engine.signal(dst, "rma.unlock")
        del self._grants[dst]
        self._gate(dst).release()

    def lock_grant(self, src: int) -> None:
        """A grant arrived from ``src`` for our pending request."""
        ev = self._grants.get(src)
        if ev is None:
            raise RuntimeError(
                f"rank {self.engine.rank}: unexpected lock grant from {src}"
            )
        ev.succeed()

    # -- target side ------------------------------------------------------
    def lock_req(self, src: int) -> None:
        if self._held_by < 0:
            self._held_by = src
            self.engine.signal(src, "rma.lock_grant")
        else:
            self._wait_queue.append(src)

    def unlock(self, src: int) -> None:
        if src != self._held_by:
            raise RuntimeError(
                f"rank {self.engine.rank}: unlock from {src} but lock "
                f"held by {self._held_by}"
            )
        if self._wait_queue:
            self._held_by = self._wait_queue.popleft()
            self.engine.signal(self._held_by, "rma.lock_grant")
        else:
            self._held_by = -1

    # -- target-side jobs run immediately (lock guarantees exclusivity) ---
    def submit_job(self, job: JobFn) -> None:
        self.jobs_executed += 1
        self.sim.spawn(job(), name=f"lockjob-{self.engine.rank}")


class ProgressSerializer(Serializer):
    """Jobs wait for the target's MPI progress engine to run."""

    kind = "progress"

    def __init__(self, engine: "RmaEngine", poll_interval: float = 25.0) -> None:
        super().__init__(engine)
        self.poll_interval = poll_interval
        self._pending: Deque[JobFn] = deque()
        self.sim.spawn(self._poller(), name=f"progress-{engine.rank}")

    def _poller(self):
        while True:
            yield self.poll_interval
            while self._pending:
                job = self._pending.popleft()
                yield self.engine.timings.am_handler
                yield from job()
                self.jobs_executed += 1

    def submit_job(self, job: JobFn) -> None:
        self._pending.append(job)


def make_serializer(kind: str, engine: "RmaEngine") -> Serializer:
    """Build the serializer named by ``kind`` (resolving ``"auto"``).

    ``auto`` follows the paper's §III-B1 logic: use a communication
    thread when the OS allows one (CNL), otherwise fall back to the
    coarse-grain process-level lock (Catamount).
    """
    if kind == "auto":
        kind = "thread" if engine.machine.threads_allowed else "lock"
    if kind == "thread":
        if not engine.machine.threads_allowed:
            raise ValueError(
                f"machine {engine.machine.name!r} does not allow "
                "communication threads; use the lock or progress serializer"
            )
        return ThreadSerializer(engine)
    if kind == "lock":
        return CoarseLockSerializer(engine)
    if kind == "progress":
        return ProgressSerializer(engine)
    raise ValueError(f"unknown serializer kind {kind!r}")
