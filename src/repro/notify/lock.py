"""MCS queue locks built on notified RMA (DESIGN §15.4).

The MCS lock keeps one *tail* word on a home rank and threads waiters
into a distributed queue: each contender swaps itself into the tail,
learns its predecessor from the swap's return value, and parks.  The
two hand-offs that classic shared-memory MCS does with spinning are
notified puts here:

- *enqueue*: the successor writes its identity into the predecessor's
  ``next`` slot with ``notify=MATCH_NEXT``;
- *grant*: the releasing holder writes the successor's ``grant`` slot
  with ``notify=MATCH_GRANT`` and the successor's ``wait_notify``
  returns — payload-before-notification means the successor owns the
  lock the moment it wakes.

No rank ever polls remote memory: every wait is a local
``wait_notify`` on the rank's own window slice, which is what makes
the lock O(1) remote ops per hand-off regardless of contention (the
property foMPI measures against ``MPI_Win_lock``).

:class:`McsTreeLock` composes two of these into a contention-localizing
tree: contenders first win their group's lock (home = the group
leader), and only group winners contend on the root lock — on a torus
or fat-tree, group = co-located ranks keeps most hand-off traffic off
the global links.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.datatypes import BYTE
from repro.rma.target_mem import TargetMem

__all__ = ["McsLock", "McsTreeLock"]

#: Notification match values (per-lock window, so no cross-object
#: collisions: every lock owns its own window slice / board slots).
MATCH_NEXT = 1
MATCH_GRANT = 2

#: Per-rank window slice layout (all int64 words).
_TAIL_DISP = 0    # meaningful on the home rank only: 0 = free, r+1 = holder
_NEXT_DISP = 8    # successor rank + 1, written remotely by the successor
_GRANT_DISP = 16  # grant payload landing zone
_SLICE = 24


def _i64(value: int) -> np.ndarray:
    return np.array([value], dtype="<i8").view(np.uint8)


class McsLock:
    """A distributed MCS lock over one collectively created window.

    Collective construction::

        lock = yield from McsLock.create(ctx)        # home = rank 0
        yield from lock.acquire()
        ...                                          # critical section
        yield from lock.release()

    ``home`` names the rank whose window slice holds the tail word;
    ranks that never call :meth:`acquire` only pay the collective
    ``create``.  Hold and wait times are recorded into
    ``notify.lock.wait_us`` / ``notify.lock.hold_us`` histograms.
    """

    def __init__(self, ctx, alloc, tmems: List[TargetMem], home: int,
                 name: str = "mcs") -> None:
        self._ctx = ctx
        self._alloc = alloc
        self._tmems = tmems
        self._home = home
        self._name = name
        self._scratch = ctx.mem.space.alloc(16)
        self._acquired_at: Optional[float] = None
        self._holding = False
        # Metric handles, looked up on first use: (acquires counter,
        # wait_us histogram) and (hold_us histogram,), or () in a world
        # without metrics.
        self._acquire_metrics: Optional[tuple] = None
        self._release_metrics: Optional[tuple] = None

    @classmethod
    def create(cls, ctx, home: int = 0, comm=None, name: str = "mcs"):
        """Collectively build the lock window (``yield from``)."""
        comm = comm if comm is not None else ctx.comm
        alloc, tmems = yield from ctx.rma.expose_collective(_SLICE, comm=comm)
        ctx.mem.store(alloc, 0, np.zeros(_SLICE, dtype=np.uint8))
        yield from comm.barrier()
        return cls(ctx, alloc, tmems, home, name=name)

    # -- helpers -----------------------------------------------------------
    def _metrics(self):
        world = getattr(self._ctx, "world", None)
        return getattr(world, "metrics", None)

    def _read_local_i64(self, disp: int) -> int:
        # Runner protocol for reading one's own window under inbound
        # traffic: apply the arrived prefix, then fence the cache.
        self._ctx.rma.engine.materialize_inbound()
        self._ctx.mem.fence()
        return int(self._ctx.mem.load(self._alloc, disp, 8).view("<i8")[0])

    @property
    def holding(self) -> bool:
        """Whether this rank currently holds the lock."""
        return self._holding

    # -- the protocol ------------------------------------------------------
    def acquire(self, watch: Sequence[int] = ()):
        """Join the queue and block until the lock is held
        (``yield from``).  ``watch`` optionally names ranks whose death
        should abort the wait with a structured RmaError."""
        if self._holding:
            raise RuntimeError(f"lock {self._name!r}: acquire while holding")
        ctx = self._ctx
        me = ctx.rank
        t0 = ctx.sim.now
        # Clear my next slot *before* publishing myself as the tail —
        # after the swap a successor may write it at any moment.
        ctx.mem.store(self._alloc, _NEXT_DISP, _i64(0))
        ctx.mem.fence()
        pred = yield from ctx.rma.swap(
            self._tmems[self._home], _TAIL_DISP, "int64", me + 1
        )
        pred = int(pred)
        if pred != 0:
            # Enqueue behind the predecessor, then sleep until granted.
            ctx.mem.store(self._scratch, 0, _i64(me + 1))
            yield from ctx.rma.put(
                self._scratch, 0, 8, BYTE,
                self._tmems[pred - 1], _NEXT_DISP, 8, BYTE,
                notify=MATCH_NEXT,
            )
            wl = list(watch) or [pred - 1]
            yield from ctx.rma.wait_notify(
                self._tmems[me], MATCH_GRANT, watch=wl
            )
        self._holding = True
        self._acquired_at = ctx.sim.now
        handles = self._acquire_metrics
        if handles is None:
            m = self._metrics()
            handles = self._acquire_metrics = () if m is None else (
                m.counter("notify.lock.acquires", lock=self._name),
                m.histogram("notify.lock.wait_us", lock=self._name))
        if handles:
            handles[0].inc()
            handles[1].observe(ctx.sim.now - t0)

    def release(self):
        """Hand the lock to the successor, or free it (``yield from``)."""
        if not self._holding:
            raise RuntimeError(f"lock {self._name!r}: release without hold")
        ctx = self._ctx
        me = ctx.rank
        old = yield from ctx.rma.compare_and_swap(
            self._tmems[self._home], _TAIL_DISP, "int64", me + 1, 0
        )
        if int(old) != me + 1:
            # A successor swapped in behind us; its enqueue put may
            # still be in flight — wait for the notification, then the
            # payload (our next slot) is guaranteed visible.
            yield from ctx.rma.wait_notify(self._tmems[me], MATCH_NEXT)
            succ = self._read_local_i64(_NEXT_DISP) - 1
            ctx.mem.store(self._scratch, 8, _i64(me + 1))
            yield from ctx.rma.put(
                self._scratch, 8, 8, BYTE,
                self._tmems[succ], _GRANT_DISP, 8, BYTE,
                notify=MATCH_GRANT,
            )
        self._holding = False
        handles = self._release_metrics
        if handles is None:
            m = self._metrics()
            handles = self._release_metrics = () if m is None else (
                m.histogram("notify.lock.hold_us", lock=self._name),)
        if handles and self._acquired_at is not None:
            handles[0].observe(ctx.sim.now - self._acquired_at)
        self._acquired_at = None

    def locked(self, ctx=None):
        """Context-manager-free convenience: acquire, run, release is
        on the caller (generators cannot ``with``)."""
        return self.acquire()


class McsTreeLock:
    """Two-level MCS lock tree: group locks feeding a root lock.

    Ranks are partitioned into groups of ``group_size`` consecutive
    ranks; a contender first wins its group's MCS lock (home = the
    group's first rank), then the root lock (home = ``root``).  Release
    order is root first, then group — the next group winner inherits
    root contention, so at most ``n_groups`` ranks ever touch the root
    tail word and hand-off traffic stays group-local under contention.
    Deeper trees are this construction composed again.
    """

    def __init__(self, local: McsLock, root: McsLock, leader: int) -> None:
        self._local = local
        self._root = root
        self.leader = leader

    @classmethod
    def create(cls, ctx, group_size: int = 4, root: int = 0, comm=None,
               name: str = "mcs_tree"):
        """Collectively build both lock levels (``yield from``)."""
        comm = comm if comm is not None else ctx.comm
        leader = (ctx.rank // group_size) * group_size
        local = yield from McsLock.create(
            ctx, home=leader, comm=comm, name=f"{name}.local"
        )
        root_lock = yield from McsLock.create(
            ctx, home=root, comm=comm, name=f"{name}.root"
        )
        return cls(local, root_lock, leader)

    @property
    def holding(self) -> bool:
        return self._root.holding

    def acquire(self, watch: Sequence[int] = ()):
        yield from self._local.acquire(watch=watch)
        yield from self._root.acquire(watch=watch)

    def release(self):
        yield from self._root.release()
        yield from self._local.release()
