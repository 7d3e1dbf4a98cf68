"""The strawman MPI-3 RMA user API (paper §IV).

:class:`RmaInterface` exposes the operations of the proposal with the
argument shapes the paper gives::

    MPI_RMA_put(origin_addr, origin_count, origin_datatype,
                target_mem, target_disp, target_count, target_datatype,
                target_rank, comm, RMA_Attributes, request)

mapped to Python as::

    req = yield from ctx.rma.put(
        origin_alloc, origin_offset, origin_count, origin_datatype,
        target_mem, target_disp, target_count, target_datatype,
        attrs=RmaAttrs(ordering=True), comm=ctx.comm)

plus ``get``, ``accumulate``, the unified ``xfer``, the completion and
ordering calls with per-rank / ``ALL_RANKS`` / collective variants, the
RMW operations under discussion in §V, and the RMI expansion.

Attributes resolve per call → per communicator default → ``none()``;
``set_default_attrs(RmaAttrs.strict())`` gives the paper's
"most stringent rules while debugging" mode.
"""

from __future__ import annotations

from operator import index
from typing import Any, Dict, Optional, Tuple

from repro.datatypes.base import Datatype
from repro.machine.address_space import Allocation
from repro.mpi.comm import Comm
from repro.mpi.constants import ERRORS_RAISE
from repro.mpi.request import Request
from repro.rma.attributes import ALL_RANKS, RmaAttrs
from repro.rma.engine import RmaEngine
from repro.rma.engine.board import check_notify_count
from repro.rma.target_mem import RmaError, TargetMem

__all__ = ["RmaInterface"]

_XFER_OPTYPES = ("put", "get", "accumulate", "get_accumulate", "rmi")
#: The default of a communicator nobody set one for (immutable, shared).
_NO_ATTRS = RmaAttrs.none()
#: Bound on one interface's resolved-attributes memo (a program minting
#: a fresh ``notify=`` match per op must not grow it without limit).
_RESOLVED_MAX = 256


class RmaInterface:
    """Per-rank frontend over :class:`~repro.rma.engine.RmaEngine`."""

    def __init__(self, engine: RmaEngine, comm_world: Comm) -> None:
        self.engine = engine
        self.comm_world = comm_world
        self._defaults: Dict[Tuple, RmaAttrs] = {}
        #: (default attrs, keyword items, value types) -> resolved attrs
        #: (a program passes the same few keyword sets over and over).
        self._resolved: Dict[Tuple, RmaAttrs] = {}

    # ------------------------------------------------------------------
    # Attribute management (§IV req. 5)
    # ------------------------------------------------------------------
    def set_default_attrs(
        self, attrs: RmaAttrs, comm: Optional[Comm] = None
    ) -> None:
        """Set the attribute default for ``comm`` (world if omitted)."""
        comm = comm if comm is not None else self.comm_world
        self._defaults[comm.context] = attrs

    def default_attrs(self, comm: Optional[Comm] = None) -> RmaAttrs:
        """The attribute default in effect for ``comm``."""
        comm = comm if comm is not None else self.comm_world
        return self._defaults.get(comm.context, _NO_ATTRS)

    def _resolve_attrs(
        self,
        comm: Optional[Comm],
        attrs: Optional[RmaAttrs],
        kwargs: Dict[str, Any],
    ) -> RmaAttrs:
        if attrs is not None and kwargs:
            raise RmaError("pass either attrs= or attribute keywords, not both")
        if attrs is not None:
            return attrs
        default = self.default_attrs(comm)
        if not kwargs:
            return default
        # Value types are part of the key: True == 1 == 1.0 hash alike
        # but make different attribute sets (notify=True is an error).
        key = (default, tuple(kwargs.items()),
               tuple(map(type, kwargs.values())))
        try:
            resolved = self._resolved.get(key)
        except TypeError:  # an unhashable value: no memo, today's errors
            key = resolved = None
        if resolved is None:
            bad = set(kwargs) - {
                "ordering", "remote_completion", "atomicity", "blocking",
                "notify",
            }
            if bad:
                raise RmaError(f"unknown RMA attributes: {sorted(bad)}")
            resolved = default.with_(**kwargs)
            if key is not None and len(self._resolved) < _RESOLVED_MAX:
                self._resolved[key] = resolved
        return resolved

    def _world_rank(self, comm: Optional[Comm], target_rank, call: str) -> int:
        """``target_rank``'s world rank in ``comm`` — or, for a value
        that is no rank of it, an :class:`RmaError` naming the call,
        raised before any simulated time passes."""
        comm = comm if comm is not None else self.comm_world
        try:
            return comm.group.world_rank(target_rank)
        except ValueError as exc:
            raise RmaError(
                f"target_rank is not a rank of the communicator: {exc} "
                f"({call} from rank {self.engine.rank})",
                op=call, src=self.engine.rank) from None

    def _target_or_all(self, comm: Optional[Comm], target_rank,
                       call: str) -> Optional[int]:
        """As :meth:`_world_rank`, but ``ALL_RANKS`` is None."""
        try:
            if index(target_rank) == ALL_RANKS:
                return None
        except TypeError:
            pass
        return self._world_rank(comm, target_rank, call)

    def _check_target_rank(
        self, tmem: TargetMem, target_rank: Optional[int],
        comm: Optional[Comm], call: str
    ) -> None:
        if target_rank is None:
            return
        world = self._world_rank(comm, target_rank, call)
        if world != tmem.rank:
            raise RmaError(
                f"target_rank {target_rank} (world {world}) does not own "
                f"target_mem (owned by world rank {tmem.rank})"
            )

    # ------------------------------------------------------------------
    # Memory exposure
    # ------------------------------------------------------------------
    def expose(self, alloc: Allocation, shared: bool = False) -> TargetMem:
        """Non-collectively register local memory for remote access.
        ``shared=True`` requests the shared-memory window flavor:
        co-located origins bypass the NIC with direct load/store (the
        request degrades to a plain exposure on non-coherent nodes)."""
        return self.engine.expose(alloc, shared=shared)

    def withdraw(self, tmem: TargetMem) -> None:
        """Deregister previously exposed memory."""
        self.engine.withdraw(tmem)

    def expose_collective(self, nbytes: int, comm: Optional[Comm] = None,
                          shared: bool = False):
        """Allocate + expose ``nbytes`` on every rank and allgather the
        descriptors (the collective-allocation convenience §V says is
        "currently being discussed").  Returns ``(alloc, [TargetMem])``
        indexed by communicator rank (``yield from``).  ``shared=True``
        makes every exposure a shared-memory window."""
        comm = comm if comm is not None else self.comm_world
        alloc = self.engine.mem.space.alloc(nbytes)
        yield self.engine.registration_cost(nbytes)
        tmem = self.expose(alloc, shared=shared)
        tmems = yield from comm.allgather(tmem)
        return alloc, tmems

    def register_rmi(self, name: str, fn) -> None:
        """Register a remote-method-invocation handler on this rank."""
        self.engine.register_rmi(name, fn)

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def put(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_datatype: Datatype,
        target_mem: TargetMem,
        target_disp: int,
        target_count: int,
        target_datatype: Datatype,
        target_rank: Optional[int] = None,
        comm: Optional[Comm] = None,
        attrs: Optional[RmaAttrs] = None,
        **attr_kwargs: bool,
    ):
        """``MPI_RMA_put`` (``yield from``; returns a :class:`Request`).

        Completion semantics follow the attributes: the request is the
        *local* completion unless ``remote_completion`` is set; with
        ``blocking`` the call itself waits and returns a completed
        request (§IV req. 4).
        """
        a = self._resolve_attrs(comm, attrs, attr_kwargs)
        self._check_target_rank(target_mem, target_rank, comm, "put")
        rec = yield from self.engine.issue_put(
            origin_alloc, origin_offset, origin_count, origin_datatype,
            target_mem, target_disp, target_count, target_datatype, a,
        )
        req = self._write_request(rec, a)
        if a.blocking:
            yield from req.wait()
        return req

    def accumulate(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_datatype: Datatype,
        target_mem: TargetMem,
        target_disp: int,
        target_count: int,
        target_datatype: Datatype,
        op: str = "sum",
        scale: float = 1.0,
        target_rank: Optional[int] = None,
        comm: Optional[Comm] = None,
        attrs: Optional[RmaAttrs] = None,
        **attr_kwargs: bool,
    ):
        """``MPI_RMA_accumulate``: remote update with ``op`` (``sum``,
        ``prod``, ``min``, ``max``, ``replace`` or ARMCI-style
        ``daxpy`` with ``scale``)."""
        a = self._resolve_attrs(comm, attrs, attr_kwargs)
        self._check_target_rank(target_mem, target_rank, comm, "accumulate")
        rec = yield from self.engine.issue_accumulate(
            origin_alloc, origin_offset, origin_count, origin_datatype,
            target_mem, target_disp, target_count, target_datatype, a,
            op=op, scale=scale,
        )
        req = self._write_request(rec, a)
        if a.blocking:
            yield from req.wait()
        return req

    def _write_request(self, rec, a: RmaAttrs) -> Request:
        # Remote completion: per paper, the request completes remotely
        # iff the attribute is set — and atomic ops complete at their
        # (serialized) application, which is inherently remote.
        want_remote = a.remote_completion or a.atomicity
        event = rec.ev_remote if (want_remote and rec.ev_remote
                                  is not None) else rec.ev_local
        return Request(self.engine.sim, event, rec.kind)

    def get(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_datatype: Datatype,
        target_mem: TargetMem,
        target_disp: int,
        target_count: int,
        target_datatype: Datatype,
        target_rank: Optional[int] = None,
        comm: Optional[Comm] = None,
        attrs: Optional[RmaAttrs] = None,
        **attr_kwargs: bool,
    ):
        """``MPI_RMA_get``: the request completes once the data sits in
        the origin buffer (gets are inherently remotely complete)."""
        a = self._resolve_attrs(comm, attrs, attr_kwargs)
        self._check_target_rank(target_mem, target_rank, comm, "get")
        ev = yield from self.engine.issue_get(
            origin_alloc, origin_offset, origin_count, origin_datatype,
            target_mem, target_disp, target_count, target_datatype, a,
        )
        req = Request(self.engine.sim, event=ev, kind="get")
        if a.blocking:
            yield from req.wait()
        return req

    def xfer(
        self,
        rma_optype: str,
        origin_alloc: Optional[Allocation] = None,
        origin_offset: int = 0,
        origin_count: int = 0,
        origin_datatype: Optional[Datatype] = None,
        target_mem: Optional[TargetMem] = None,
        target_disp: int = 0,
        target_count: int = 0,
        target_datatype: Optional[Datatype] = None,
        target_rank: Optional[int] = None,
        comm: Optional[Comm] = None,
        attrs: Optional[RmaAttrs] = None,
        accumulate_optype: str = "sum",
        scale: float = 1.0,
        rmi_name: Optional[str] = None,
        rmi_args: tuple = (),
        **attr_kwargs: bool,
    ):
        """``MPI_RMA_xfer`` — the unified single entry point whose
        ``rma_optype`` selects put/get/accumulate, with room for future
        expansion (``"rmi"`` demonstrates the remote-method-invocation
        extension the paper sketches)."""
        if rma_optype not in _XFER_OPTYPES:
            raise RmaError(
                f"unknown rma_optype {rma_optype!r}; choose from {_XFER_OPTYPES}"
            )
        if rma_optype == "rmi":
            if rmi_name is None or target_rank is None:
                raise RmaError("xfer(rmi) requires rmi_name and target_rank")
            return (yield from self.invoke(
                target_rank, rmi_name, *rmi_args, comm=comm, attrs=attrs,
                **attr_kwargs,
            ))
        common = (
            origin_alloc, origin_offset, origin_count, origin_datatype,
            target_mem, target_disp, target_count, target_datatype,
        )
        if rma_optype == "put":
            return (yield from self.put(
                *common, target_rank=target_rank, comm=comm, attrs=attrs,
                **attr_kwargs,
            ))
        if rma_optype == "get":
            return (yield from self.get(
                *common, target_rank=target_rank, comm=comm, attrs=attrs,
                **attr_kwargs,
            ))
        if rma_optype == "get_accumulate":
            return (yield from self.get_accumulate(
                *common, op=accumulate_optype, scale=scale,
                target_rank=target_rank, comm=comm,
            ))
        return (yield from self.accumulate(
            *common, op=accumulate_optype, scale=scale,
            target_rank=target_rank, comm=comm, attrs=attrs, **attr_kwargs,
        ))

    def get_accumulate(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_datatype: Datatype,
        target_mem: TargetMem,
        target_disp: int,
        target_count: int,
        target_datatype: Datatype,
        op: str = "sum",
        scale: float = 1.0,
        target_rank: Optional[int] = None,
        comm: Optional[Comm] = None,
        blocking: bool = True,
    ):
        """Atomic fetch-and-op on a whole section: the target region is
        updated with ``op`` and its *previous* contents land in the
        origin buffer — the sectioned generalization of §V's RMW
        discussion (standardized later as ``MPI_Get_accumulate``).
        ``op="replace"`` is a section swap."""
        self._check_target_rank(target_mem, target_rank, comm,
                                "get_accumulate")
        ev = yield from self.engine.issue_get_accumulate(
            origin_alloc, origin_offset, origin_count, origin_datatype,
            target_mem, target_disp, target_count, target_datatype,
            op=op, scale=scale,
        )
        req = Request(self.engine.sim, event=ev, kind="get_accumulate")
        if blocking:
            yield from req.wait()
        return req

    # ------------------------------------------------------------------
    # RMW (§V)
    # ------------------------------------------------------------------
    def compare_and_swap(
        self,
        target_mem: TargetMem,
        target_disp: int,
        np_elem: str,
        compare,
        value,
        blocking: bool = True,
    ):
        """Conditional RMW: write ``value`` iff the target word equals
        ``compare``; returns the old value (blocking) or a Request."""
        ev = yield from self.engine.issue_rmw(
            target_mem, target_disp, np_elem, "cas", value, compare=compare,
        )
        req = Request(self.engine.sim, event=ev, kind="cas")
        if blocking:
            return (yield from req.wait())
        return req

    def fetch_and_add(
        self,
        target_mem: TargetMem,
        target_disp: int,
        np_elem: str,
        operand,
        blocking: bool = True,
    ):
        """Unconditional RMW: atomically add; returns the old value."""
        ev = yield from self.engine.issue_rmw(
            target_mem, target_disp, np_elem, "fetch_add", operand,
        )
        req = Request(self.engine.sim, event=ev, kind="fetch_add")
        if blocking:
            return (yield from req.wait())
        return req

    def swap(
        self,
        target_mem: TargetMem,
        target_disp: int,
        np_elem: str,
        value,
        blocking: bool = True,
    ):
        """Unconditional RMW: atomically exchange; returns the old value."""
        ev = yield from self.engine.issue_rmw(
            target_mem, target_disp, np_elem, "swap", value,
        )
        req = Request(self.engine.sim, event=ev, kind="swap")
        if blocking:
            return (yield from req.wait())
        return req

    # ------------------------------------------------------------------
    # RMI extension
    # ------------------------------------------------------------------
    def invoke(
        self,
        target_rank: int,
        name: str,
        *args: Any,
        comm: Optional[Comm] = None,
        attrs: Optional[RmaAttrs] = None,
        **attr_kwargs: bool,
    ):
        """Invoke a registered remote method; returns its result.  A
        name the target never registered fails like a delivery failure:
        raised under ``ERRORS_RAISE``, returned as the
        :class:`~repro.rma.target_mem.RmaError` under ``ERRORS_RETURN``."""
        a = self._resolve_attrs(comm, attrs, attr_kwargs)
        dst = self._world_rank(comm, target_rank, "invoke")
        ev = yield from self.engine.issue_rmi(dst, name, args, a)
        result = yield from Request(self.engine.sim, event=ev, kind="rmi").wait()
        return result

    # ------------------------------------------------------------------
    # Completion / ordering (§IV)
    # ------------------------------------------------------------------
    def complete(
        self, comm: Optional[Comm] = None, target_rank: int = ALL_RANKS
    ):
        """``MPI_RMA_complete``: wait for remote completion of all prior
        accesses to ``target_rank`` (or every rank with ``ALL_RANKS``).

        Failure-aware: when the reliable transport declared a path dead
        (fault-injection runs), the world's error handler decides —
        ``ERRORS_RAISE`` (default) raises the first
        :class:`~repro.rma.target_mem.RmaError`; ``ERRORS_RETURN``
        returns the list of errors (empty on success).
        """
        dst = self._target_or_all(comm, target_rank, "complete")
        if dst is None:
            errs = yield from self.engine.complete_all()
        else:
            errs = yield from self.engine.complete_one(dst)
        return self._handle_completion_errors(errs)

    def complete_collective(self, comm: Optional[Comm] = None):
        """``MPI_RMA_complete_collective``: everyone completes, then a
        barrier guarantees global visibility."""
        comm = comm if comm is not None else self.comm_world
        errs = yield from self.engine.complete_all()
        if self._barrier_doomed(errs):
            return self._handle_completion_errors(errs)
        yield from comm.barrier()
        self.engine.materialize_inbound()
        return self._handle_completion_errors(errs)

    @staticmethod
    def _barrier_doomed(errs) -> bool:
        """Whether entering the closing barrier can never finish.

        A dead member or a fabric partition makes the barrier
        unreachable for everyone — fail fast with the structured errors
        instead of hanging in it.  Retry exhaustion on a live path does
        *not* doom the barrier (peers without errors still enter it),
        so the pre-failure behavior is kept there.
        """
        return any(getattr(e, "kind", None) in ("rank_failed",
                                                "link_partition")
                   for e in errs)

    def _handle_completion_errors(self, errs):
        if errs and self.engine.world.rma_errhandler == ERRORS_RAISE:
            raise errs[0]
        return errs

    def order(self, comm: Optional[Comm] = None, target_rank: int = ALL_RANKS):
        """``MPI_RMA_order``: order later accesses to ``target_rank``
        after all earlier ones (shmem_fence-style; weaker and cheaper
        than completion — no network traffic)."""
        dst = self._target_or_all(comm, target_rank, "order")
        yield self.engine.timings.call_overhead
        if dst is None:
            self.engine.order_all()
        else:
            self.engine.order_one(dst)

    def order_collective(self, comm: Optional[Comm] = None):
        """``MPI_RMA_order_collective``."""
        comm = comm if comm is not None else self.comm_world
        yield from self.order(comm, ALL_RANKS)
        yield from comm.barrier()

    # ------------------------------------------------------------------
    # Notified RMA (DESIGN §15): target-side notification board
    # ------------------------------------------------------------------
    def wait_notify(self, target_mem: TargetMem, match: int,
                    count: int = 1, watch=()):
        """Block until ``count`` notifications with ``match`` have been
        delivered to this rank's window (``yield from``).

        A notification is delivered only after the carrying operation's
        payload has been applied here, so returning implies the payload
        is visible.  ``watch`` optionally names producer ranks: if one
        of them dies (or its path breaks) before notifying, the wait
        surfaces a structured :class:`~repro.rma.target_mem.RmaError`
        instead of hanging — raised under ``ERRORS_RAISE`` (default),
        returned under ``ERRORS_RETURN``.  Returns the error list
        (empty on success).
        """
        err = yield from self.engine.board.wait_notify(
            target_mem, match, count=count, watch=watch)
        if err is None:
            return []
        return self._handle_completion_errors([err])

    def test_notify(self, target_mem: TargetMem, match: int,
                    count: int = 1):
        """Non-blocking probe (``yield from``): consume ``count``
        notifications if present, returning whether it did."""
        check_notify_count(count, "test_notify", self.engine.rank)
        yield self.engine.timings.call_overhead
        return self.engine.board.test_notify(target_mem, match,
                                             count=count)

    def notify_all(self, target_mem: TargetMem, match: int):
        """Release every local waiter parked on ``(target_mem, match)``
        without consuming board counts (``yield from``); returns how
        many were released."""
        yield self.engine.timings.call_overhead
        return self.engine.board.notify_all(target_mem, match)

    def notify_count(self, target_mem: TargetMem, match: int) -> int:
        """Unconsumed notifications on the slot (pure local peek)."""
        return self.engine.board.notify_count(target_mem, match)

    @property
    def stats(self) -> Dict[str, int]:
        """Engine statistics (ops issued, bytes moved, gated fragments)."""
        return self.engine.stats
