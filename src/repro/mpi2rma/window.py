"""MPI-2 windows and the three synchronization methods (paper Fig. 1).

A :class:`Win` is created **collectively** (the restriction the strawman
drops) and supports ``put``/``get``/``accumulate`` plus:

- :meth:`Win.fence` — Figure 1a;
- :meth:`Win.post` / :meth:`Win.start` / :meth:`Win.complete` /
  :meth:`Win.wait` — Figure 1b;
- :meth:`Win.lock` / :meth:`Win.unlock` — Figure 1c.

Data movement reuses the strawman engine with no attributes (pure RDMA),
which mirrors how an MPI implementation would sit on a native RMA layer;
the MPI-2 semantics — epochs, collective windows, erroneous overlaps —
live entirely in this module.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.datatypes.base import Datatype
from repro.machine.address_space import Allocation
from repro.mpi.comm import Comm
from repro.mpi2rma.epoch import AccessTracker, EpochState, Mpi2Error
from repro.mpi2rma.locks import WindowLockManager
from repro.resil.errors import WindowRevoked
from repro.rma.attributes import RmaAttrs
from repro.rma.engine.board import check_notify_count
from repro.rma.target_mem import TargetMem

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import World

__all__ = ["Win", "Mpi2Interface", "build_mpi2"]

_NO_ATTRS = RmaAttrs()
_POST_TAG = 1
_COMPLETE_TAG = 2
#: Message kind of a ULFM-style revoke notice (fire-and-forget fan-out).
_REVOKE_KIND = "mpi2.revoke"


class Win:
    """One rank's handle on a collectively created window."""

    def __init__(
        self,
        iface: "Mpi2Interface",
        win_id: object,
        comm: Comm,
        alloc: Allocation,
        tmems: List[TargetMem],
    ) -> None:
        self._iface = iface
        self.win_id = win_id
        self.comm = comm
        self.alloc = alloc
        self._tmems = tmems
        self._epoch = EpochState()
        self._tracker = AccessTracker()
        self._freed = False
        self._revoked = False
        self._revoke_cause: Any = None

    # -- helpers ---------------------------------------------------------
    @property
    def _engine(self):
        return self._iface.engine

    @property
    def revoked(self) -> bool:
        """Whether this rank's handle has seen the window revoked."""
        return self._revoked

    def revoke(self, cause: Any = None) -> None:
        """ULFM ``MPI_Win_revoke``: poison the window everywhere.

        Local, non-blocking.  Marks this handle revoked and fans a
        revoke notice out to every other comm member (fire-and-forget
        packets; notices to dead ranks are simply dropped).  From the
        moment a rank's handle is revoked, its new operations and its
        synchronization calls raise :class:`WindowRevoked` instead of
        blocking inside collectives that surviving ranks can never
        finish.  Also fired automatically by the failure detector when
        a member of the window's communicator is declared failed (see
        :meth:`Mpi2Interface.win_create`).
        """
        if self._revoked or self._freed:
            return
        self._revoked = True
        self._revoke_cause = cause
        self._iface._broadcast_revoke(self)

    def _check_revoked(self, doing: str) -> None:
        if self._revoked:
            raise WindowRevoked(
                f"{doing} on revoked window {self.win_id!r}",
                win_id=self.win_id,
                failed_rank=getattr(self._revoke_cause, "rank", None),
                src=self.comm.rank,
            )

    def _check_open(self, target: int) -> None:
        if self._freed:
            raise Mpi2Error("operation on a freed window")
        self._check_revoked("RMA operation")
        if not self._epoch.access_open:
            raise Mpi2Error(
                "RMA operation outside an access epoch (MPI-2 requires "
                "fence, start, or lock first)"
            )
        if not self._epoch.allowed_target(target):
            raise Mpi2Error(
                f"target {target} is not part of the current access epoch"
            )

    def _record(self, target: int, disp: int, dtype: Datatype, count: int,
                kind: object) -> None:
        lo, hi = dtype.byte_range(count)
        self._tracker.check_and_record(target, disp + lo, disp + hi, kind)

    # -- data movement -----------------------------------------------------
    def put(self, origin_alloc: Allocation, origin_offset: int, count: int,
            dtype: Datatype, target: int, target_disp: int,
            target_count: Optional[int] = None,
            target_dtype: Optional[Datatype] = None,
            notify: Optional[int] = None):
        """MPI_Put (``yield from``; completes at epoch close).

        ``notify=match`` makes it a *notified* put (foMPI/UNR style):
        once the payload is applied, the target's notification board
        slot ``match`` counts one delivery, observable there through
        :meth:`wait_notify` / :meth:`test_notify`.
        """
        self._check_open(target)
        t_count = count if target_count is None else target_count
        t_dtype = dtype if target_dtype is None else target_dtype
        self._record(target, target_disp, t_dtype, t_count, "put")
        attrs = _NO_ATTRS if notify is None else _NO_ATTRS.with_(notify=notify)
        yield from self._engine.issue_put(
            origin_alloc, origin_offset, count, dtype,
            self._tmems[target], target_disp, t_count, t_dtype, attrs,
        )

    def get(self, origin_alloc: Allocation, origin_offset: int, count: int,
            dtype: Datatype, target: int, target_disp: int,
            target_count: Optional[int] = None,
            target_dtype: Optional[Datatype] = None):
        """MPI_Get (``yield from``; data valid after epoch close)."""
        self._check_open(target)
        t_count = count if target_count is None else target_count
        t_dtype = dtype if target_dtype is None else target_dtype
        self._record(target, target_disp, t_dtype, t_count, "get")
        ev = yield from self._engine.issue_get(
            origin_alloc, origin_offset, count, dtype,
            self._tmems[target], target_disp, t_count, t_dtype, _NO_ATTRS,
        )
        self._iface._pending_gets.append(ev)

    def accumulate(self, origin_alloc: Allocation, origin_offset: int,
                   count: int, dtype: Datatype, target: int,
                   target_disp: int, op: str = "sum",
                   notify: Optional[int] = None):
        """MPI_Accumulate: MPI-2 allows any reduce op; same-op overlaps
        are legal, anything else is erroneous.  ``notify=match`` makes
        it a notified accumulate (delivered after application)."""
        self._check_open(target)
        self._record(target, target_disp, dtype, count, ("acc", op))
        yield from self._engine.issue_accumulate(
            origin_alloc, origin_offset, count, dtype,
            self._tmems[target], target_disp, count, dtype,
            _NO_ATTRS.with_(atomicity=True, notify=notify), op=op,
        )

    # -- notified-RMA board (DESIGN §15) -----------------------------------
    def wait_notify(self, match: int, count: int = 1, watch=()):
        """Block until ``count`` notifications with ``match`` landed on
        this rank's slice of the window (``yield from``).  Returning
        implies the carrying payloads are applied locally.  ``watch``
        optionally names producer ranks whose death turns the wait into
        a structured :class:`~repro.rma.target_mem.RmaError`."""
        if self._freed:
            raise Mpi2Error("wait_notify on a freed window")
        self._check_revoked("wait_notify")
        world_watch = [self.comm.group.world_rank(r) for r in watch]
        err = yield from self._engine.board.wait_notify(
            self._tmems[self.comm.rank], match, count=count,
            watch=world_watch,
        )
        if err is not None:
            raise err
        return None

    def test_notify(self, match: int, count: int = 1):
        """Non-blocking probe of this rank's notification slot
        (``yield from``); consumes and returns True when satisfied."""
        if self._freed:
            raise Mpi2Error("test_notify on a freed window")
        self._check_revoked("test_notify")
        check_notify_count(count, "test_notify", self._engine.rank)
        yield self._engine.timings.call_overhead
        return self._engine.board.test_notify(
            self._tmems[self.comm.rank], match, count=count
        )

    def notify_all(self, match: int):
        """Release every local waiter parked on ``match`` without
        consuming board counts (``yield from``); returns the number
        released."""
        if self._freed:
            raise Mpi2Error("notify_all on a freed window")
        yield self._engine.timings.call_overhead
        return self._engine.board.notify_all(self._tmems[self.comm.rank], match)

    # -- fence (Fig. 1a) ---------------------------------------------------
    def fence(self):
        """Collective: closes the previous fence epoch and opens a new one."""
        if self._freed:
            raise Mpi2Error("fence on a freed window")
        self._check_revoked("fence")
        if self._epoch.start_group is not None or self._epoch.locked_target is not None:
            raise Mpi2Error("fence while a start/lock epoch is open")
        yield from self._drain_local_completion()
        yield from self._engine.complete_all()
        yield from self.comm.barrier()
        self._tracker.reset()
        self._epoch.fence_active = True

    # -- post/start/complete/wait (Fig. 1b) ---------------------------------
    def post(self, origin_ranks: Sequence[int]):
        """Expose local memory to ``origin_ranks`` (target side)."""
        self._check_revoked("post")
        if self._epoch.post_group is not None:
            raise Mpi2Error("post while an exposure epoch is already open")
        self._epoch.post_group = list(origin_ranks)
        for origin in self._epoch.post_group:
            yield from self._iface._win_comm(self).send(
                None, origin, _POST_TAG
            )

    def start(self, target_ranks: Sequence[int]):
        """Open an access epoch toward ``target_ranks`` (origin side);
        waits for each target's matching post."""
        self._check_revoked("start")
        if self._epoch.start_group is not None:
            raise Mpi2Error("start while an access epoch is already open")
        if self._epoch.fence_active:
            raise Mpi2Error("start inside a fence epoch")
        for target in target_ranks:
            yield from self._iface._win_comm(self).recv(target, _POST_TAG)
        self._epoch.start_group = list(target_ranks)
        self._tracker.reset()

    def complete(self):
        """Close the start epoch: force remote completion at each target
        and notify it."""
        self._check_revoked("complete")
        if self._epoch.start_group is None:
            raise Mpi2Error("complete without a matching start")
        yield from self._drain_local_completion()
        for target in self._epoch.start_group:
            yield from self._engine.complete_one(
                self.comm.group.world_rank(target)
            )
            yield from self._iface._win_comm(self).send(
                None, target, _COMPLETE_TAG
            )
        self._epoch.start_group = None
        self._tracker.reset()

    def wait(self):
        """Close the post epoch: wait for every origin's complete."""
        self._check_revoked("wait")
        if self._epoch.post_group is None:
            raise Mpi2Error("wait without a matching post")
        for origin in self._epoch.post_group:
            yield from self._iface._win_comm(self).recv(origin, _COMPLETE_TAG)
        self._epoch.post_group = None

    # -- lock/unlock (Fig. 1c) ----------------------------------------------
    def lock(self, target: int, shared: bool = True):
        """Open a passive-target epoch toward ``target``."""
        self._check_revoked("lock")
        if self._epoch.access_open:
            raise Mpi2Error("lock while another access epoch is open")
        world_target = self.comm.group.world_rank(target)
        yield self._engine.timings.lock_op
        yield from self._iface.lock_mgr.request(
            self.win_id, world_target, shared
        )
        self._epoch.locked_target = target
        self._epoch.lock_shared = shared
        self._tracker.reset()

    def unlock(self, target: int):
        """Close the passive-target epoch; all ops are remotely complete
        when unlock returns."""
        self._check_revoked("unlock")
        if self._epoch.locked_target != target:
            raise Mpi2Error(f"unlock({target}) without a matching lock")
        world_target = self.comm.group.world_rank(target)
        yield from self._drain_local_completion()
        yield from self._engine.complete_one(world_target)
        self._iface.lock_mgr.release(self.win_id, world_target)
        self._epoch.locked_target = None
        self._tracker.reset()

    # -- lifecycle -----------------------------------------------------------
    def free(self):
        """Collective window destruction (local-only once revoked)."""
        if self._freed:
            raise Mpi2Error("double free of window")
        if self._revoked:
            # ULFM semantics: a revoked window frees locally — the
            # collective drain/barrier could never complete with failed
            # members in the communicator.
            self._engine.withdraw(self._tmems[self.comm.rank])
            self._freed = True
            return
        yield from self._drain_local_completion()
        yield from self._engine.complete_all()
        yield from self.comm.barrier()
        self._engine.withdraw(self._tmems[self.comm.rank])
        self._freed = True

    def _drain_local_completion(self):
        """Wait for this rank's outstanding gets (their data must be in
        origin buffers before the epoch close returns)."""
        pending = self._iface._pending_gets
        if pending:
            from repro.sim.events import AllOf

            not_done = [ev for ev in pending if not ev.triggered]
            if not_done:
                yield AllOf(self._engine.sim, not_done)
            pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Win {self.win_id} rank={self.comm.rank}/{self.comm.size}>"


class Mpi2Interface:
    """Per-rank frontend (``ctx.mpi2``)."""

    def __init__(self, engine, comm_world: Comm,
                 lock_mgr: WindowLockManager, world: Any = None) -> None:
        self.engine = engine
        self.comm_world = comm_world
        self.lock_mgr = lock_mgr
        self.world = world
        self._win_seq = itertools.count()
        self._win_comms: Dict[object, Comm] = {}
        self._wins: Dict[object, Win] = {}
        self._pending_gets: List[Any] = []

    def win_create(self, alloc: Allocation, comm: Optional[Comm] = None,
                   shared: bool = False):
        """Collective window creation (``yield from``) — the MPI-2
        requirement the strawman API removes (§IV req. 1).
        ``shared=True`` exposes the window as a shared-memory window:
        co-located ranks then access it by direct load/store (the
        ``MPI_Win_allocate_shared`` flavor MPI-3 standardized)."""
        comm = comm if comm is not None else self.comm_world
        yield self.engine.registration_cost(alloc.size)
        tmem = self.engine.expose(alloc, shared=shared)
        tmems = yield from comm.allgather(tmem)
        win_comm = yield from comm.dup()
        win_id = ("win",) + comm.context + (next(self._win_seq),)
        win = Win(self, win_id, comm, alloc, tmems)
        self._win_comms[win_id] = win_comm
        self._wins[win_id] = win
        resil = getattr(self.world, "resil", None)
        if resil is not None:
            # Auto-revocation: a member of the window's communicator
            # declared failed by this rank's detector poisons the local
            # handle (and fans the notice out to survivors).
            me = self.engine.rank

            def on_rank_failed(notice, win=win):
                if not win._freed and notice.rank in win.comm.group:
                    win.revoke(cause=notice)

            resil.subscribe(me, on_rank_failed)
        return win

    def win_allocate_shared(self, nbytes: int, comm: Optional[Comm] = None):
        """``MPI_Win_allocate_shared`` convenience: collectively allocate
        ``nbytes`` on every rank and create a shared-memory window over
        the allocations.  Returns ``(alloc, win)`` (``yield from``)."""
        alloc = self.engine.mem.space.alloc(nbytes)
        win = yield from self.win_create(alloc, comm=comm, shared=True)
        return alloc, win

    def _win_comm(self, win: Win) -> Comm:
        return self._win_comms[win.win_id]

    # -- revocation fan-out ------------------------------------------------
    def _broadcast_revoke(self, win: Win) -> None:
        """Send a revoke notice for ``win`` to every other member."""
        nic = self.engine.nic
        me = win.comm.rank
        contexts = self.engine.world.contexts
        for member in range(win.comm.size):
            if member == me:
                continue
            dst = win.comm.group.world_rank(member)
            nic.post(dst, _REVOKE_KIND, contexts[dst].mpi2._on_revoke_notice,
                     (self.engine.rank, win.win_id))

    def _on_revoke_notice(self, src: int, win_id: object) -> None:
        """A revoke notice for ``win_id`` from ``src`` lands."""
        win = self._wins.get(win_id)
        if win is not None and not win._revoked and not win._freed:
            win._revoked = True
            win._revoke_cause = ("remote", src)
            # Propagate further in case the original notice missed
            # someone (packets to dead ranks are dropped; re-fan-out is
            # idempotent thanks to the _revoked guard).
            self._broadcast_revoke(win)


def build_mpi2(world: "World") -> None:
    """Attach an :class:`Mpi2Interface` to every rank context."""
    managers = {}
    for rank, ctx in world.contexts.items():
        lock_mgr = WindowLockManager(world.sim, rank, world.nics[rank],
                                     managers)
        ctx.mpi2 = Mpi2Interface(ctx.rma.engine, ctx.comm, lock_mgr,
                                 world=world)
