"""Teams and team-collective memory (DART-style).

The PGAS runtimes the paper positions RMA under (DASH/DART, GASPI,
UPC) organize processes into *teams* — hierarchical subgroups with
their own unit numbering, collectives, and collectively allocated
memory addressed by global pointers.  This module layers that shape
over the strawman interface:

* a :class:`Team` wraps a :class:`~repro.mpi.comm.Comm` (teams split
  into sub-teams exactly like ``MPI_Comm_split``) and adds the
  machine-locality queries DART exposes (``dart_team_locality``):
  which units share my node, split me into my node-local sub-team;
* :meth:`Team.memalloc` is the team-collective symmetric allocation
  (``dart_team_memalloc_aligned``): every unit contributes an equal
  block, exposed — by default — as a *shared-memory window*, so
  accesses between co-located units move by load/store while off-node
  accesses take the RMA engine's normal path;
* the returned :class:`TeamSegment` resolves
  :class:`~repro.pgas.gptr.GlobalPtr` arithmetic (including spill
  across unit blocks) and offers typed one-sided put/get/accumulate
  plus fetch-and-add on pointer-addressed memory.

Everything communicating is a generator (``yield from``), like the
rest of the runtime.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.datatypes import PREDEFINED
from repro.pgas.gptr import GlobalPtr
from repro.rma.attributes import RmaAttrs
from repro.rma.target_mem import TargetMem

__all__ = ["PgasError", "Team", "TeamSegment"]

#: Native NumPy dtype -> predefined datatype.  ``PREDEFINED`` is keyed by
#: ``np.dtype.name``, which NumPy computes in Python on every read —
#: once per put/get/accumulate of a segment without this table.
_ELEM_OF = {t.np_dtype: t for name, t in PREDEFINED.items()
            if t.np_dtype.name == name}


class PgasError(RuntimeError):
    """Team/segment usage error."""


class Team:
    """A group of units with collectives and collective memory.

    Construct the root team with :meth:`Team.world`; derive sub-teams
    with :meth:`split` / :meth:`split_by_node`.  Unit ids are
    team-local ranks (DART's ``unitid``); :meth:`unit_world_rank`
    translates back to world ranks when talking to non-team APIs.
    """

    def __init__(self, ctx, comm, parent: Optional["Team"] = None) -> None:
        self._ctx = ctx
        self.comm = comm
        self.parent = parent
        self._seg_seq = 0

    @classmethod
    def world(cls, ctx) -> "Team":
        """The root team spanning ``ctx.comm`` (non-collective)."""
        return cls(ctx, ctx.comm)

    # -- identity ---------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def myid(self) -> int:
        """This process's unit id within the team."""
        return self.comm.rank

    def unit_world_rank(self, unit: int) -> int:
        return self.comm.group.world_rank(unit)

    # -- locality (dart_team_locality) ------------------------------------
    def node_of_unit(self, unit: int) -> int:
        machine = self._ctx.rma.engine.machine
        return machine.node_of_rank(self.unit_world_rank(unit))

    def is_local(self, unit: int) -> bool:
        """Whether ``unit`` shares this unit's node (load/store reach)."""
        return self.node_of_unit(unit) == self.node_of_unit(self.myid)

    def local_units(self) -> List[int]:
        """Unit ids co-located on this unit's node, in unit order."""
        return [u for u in range(self.size) if self.is_local(u)]

    # -- collectives (delegated to the comm) ------------------------------
    def barrier(self):
        yield from self.comm.barrier()

    def bcast(self, obj, root: int = 0):
        out = yield from self.comm.bcast(obj, root=root)
        return out

    def allgather(self, obj):
        out = yield from self.comm.allgather(obj)
        return out

    def reduce(self, obj, op: Callable, root: int = 0):
        out = yield from self.comm.reduce(obj, op, root=root)
        return out

    def allreduce(self, obj, op: Callable):
        out = yield from self.comm.allreduce(obj, op)
        return out

    # -- derivation -------------------------------------------------------
    def split(self, color, key: int = 0):
        """Partition into sub-teams by ``color`` (``yield from``).

        Returns the sub-team this unit landed in, or ``None`` for
        ``color=None`` (the unit opts out).
        """
        sub = yield from self.comm.split(color, key)
        if sub is None:
            return None
        return Team(self._ctx, sub, parent=self)

    def split_by_node(self):
        """Split into one sub-team per machine node (``yield from``) —
        DART's ``DART_LOCALITY_SCOPE_NODE`` team, the natural domain
        for shared-memory windows."""
        team = yield from self.split(self.node_of_unit(self.myid))
        return team

    # -- collective memory ------------------------------------------------
    def memalloc(self, nbytes: int, shared: bool = True):
        """Team-collective symmetric allocation (``yield from``).

        Every unit allocates and exposes ``nbytes`` bytes
        (zero-initialized) and the descriptors are allgathered;
        returns a :class:`TeamSegment`.  ``shared=True`` (default)
        requests the shared-memory window flavor so co-located units
        bypass the NIC — non-coherent nodes degrade to plain exposure
        per descriptor, exactly as :meth:`repro.rma.api.RmaInterface.expose`
        does.
        """
        if nbytes <= 0:
            raise PgasError(f"memalloc needs a positive size, got {nbytes}")
        ctx = self._ctx
        alloc = ctx.mem.space.alloc(nbytes)
        yield ctx.rma.engine.registration_cost(nbytes)
        tmem = ctx.rma.expose(alloc, shared=shared)
        tmems = yield from self.comm.allgather(tmem)
        segid = self._seg_seq
        self._seg_seq += 1
        return TeamSegment(self, segid, nbytes, alloc, tmems)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Team unit {self.myid}/{self.size}>"


_PUT_ATTRS = RmaAttrs(blocking=True, remote_completion=True)
_PUT_ATTRS_NB = RmaAttrs(blocking=False, remote_completion=True)
_ACC_ATTRS = RmaAttrs(blocking=True, remote_completion=True, atomicity=True)
_ACC_ATTRS_NB = RmaAttrs(blocking=False, remote_completion=True,
                         atomicity=True)


class TeamSegment:
    """Collectively allocated team memory addressed by global pointers.

    The segment is ``team.size`` equal blocks of ``nbytes`` bytes, one
    per unit, forming a linear global address space of
    ``team.size * nbytes`` bytes.  :class:`~repro.pgas.gptr.GlobalPtr`
    offsets past a block's end spill into the next unit's block; a
    single transfer must fit within one block (it targets exactly one
    unit's memory).
    """

    def __init__(self, team: Team, segid: int, nbytes: int, alloc,
                 tmems: List[TargetMem]) -> None:
        self.team = team
        self.segid = segid
        self.nbytes = nbytes
        self._alloc = alloc
        self._tmems = tmems
        self._freed = False

    # -- pointers ---------------------------------------------------------
    def gptr(self, unit: int = 0, offset: int = 0) -> GlobalPtr:
        """A pointer into ``unit``'s block (normalized)."""
        ptr = GlobalPtr(self.segid, unit, offset)
        unit, off = self._locate(ptr, 0)
        return GlobalPtr(self.segid, unit, off)

    def at(self, gaddr: int) -> GlobalPtr:
        """The pointer at linear global address ``gaddr``."""
        return self.gptr(0, gaddr)

    def linear(self, ptr: GlobalPtr) -> int:
        """The linear global address of ``ptr``."""
        unit, off = self._locate(ptr, 0)
        return unit * self.nbytes + off

    def _locate(self, ptr: GlobalPtr, need: int):
        """Resolve ``ptr`` to ``(unit, offset)``, spilling across
        blocks, and check ``need`` bytes fit in the landing block."""
        if ptr.segid != self.segid:
            raise PgasError(
                f"pointer into segment {ptr.segid} used on segment "
                f"{self.segid}")
        gaddr = ptr.unit * self.nbytes + ptr.offset
        # even a bare pointer (need=0) must name a real byte — unchecked
        # past-end arithmetic lives on GlobalPtr, not on the segment
        if gaddr < 0 or gaddr + max(need, 1) > self.team.size * self.nbytes:
            raise PgasError(
                f"pointer {ptr!r} outside segment of "
                f"{self.team.size} x {self.nbytes} bytes")
        unit, off = divmod(gaddr, self.nbytes)
        if off + need > self.nbytes:
            raise PgasError(
                f"{need}-byte access at {ptr!r} crosses a unit boundary")
        return unit, off

    # -- data movement ----------------------------------------------------
    def _check_alive(self) -> None:
        if self._freed:
            raise PgasError("operation on a freed TeamSegment")

    def _stage(self, data: np.ndarray):
        """Scratch copy of ``data`` in the local node's byte order (the
        engine reads origin buffers in the origin node's
        representation)."""
        ctx = self.team._ctx
        node_dt = data.dtype.newbyteorder(ctx.mem.space.np_byteorder)
        raw = np.ascontiguousarray(data, dtype=node_dt)
        scratch = ctx.mem.space.alloc(max(raw.nbytes, 1))
        ctx.mem.space.buffer(scratch)[: raw.nbytes] = (
            raw.view(np.uint8).reshape(-1))
        return scratch

    def _elem(self, dtype) -> object:
        np_dtype = np.dtype(dtype)
        elem = _ELEM_OF.get(np_dtype)
        if elem is None:  # not a native dtype: by name, or unsupported
            if np_dtype.name not in PREDEFINED:
                raise PgasError(f"unsupported dtype {dtype!r}")
            elem = PREDEFINED[np_dtype.name]
        return elem

    def put(self, ptr: GlobalPtr, data, blocking: bool = True):
        """One-sided write of ``data`` at ``ptr`` (``yield from``;
        returns the :class:`~repro.mpi.request.Request`).  Remotely
        complete when the request completes; with ``blocking`` the call
        itself waits (the open-loop benches pass ``blocking=False`` and
        harvest the request events)."""
        self._check_alive()
        data = np.asarray(data)
        elem = self._elem(data.dtype)
        unit, off = self._locate(ptr, data.nbytes)
        ctx = self.team._ctx
        scratch = self._stage(data)
        req = yield from ctx.rma.put(
            scratch, 0, data.size, elem, self._tmems[unit], off,
            data.size, elem, comm=self.team.comm,
            attrs=_PUT_ATTRS if blocking else _PUT_ATTRS_NB,
        )
        # the engine packed the wire bytes at issue; scratch is done
        ctx.mem.space.free(scratch)
        return req

    def get(self, ptr: GlobalPtr, count: int, dtype="float64"):
        """Blocking one-sided read of ``count`` elements at ``ptr``;
        returns a NumPy array (``yield from``)."""
        self._check_alive()
        elem = self._elem(dtype)
        np_dtype = np.dtype(dtype)
        unit, off = self._locate(ptr, count * np_dtype.itemsize)
        ctx = self.team._ctx
        scratch = ctx.mem.space.alloc(max(count * np_dtype.itemsize, 1))
        yield from ctx.rma.get(
            scratch, 0, count, elem, self._tmems[unit], off, count, elem,
            comm=self.team.comm, attrs=RmaAttrs(blocking=True),
        )
        out = ctx.mem.space.view(scratch, np_dtype.name, count=count).copy()
        ctx.mem.space.free(scratch)
        return out

    def get_nb(self, ptr: GlobalPtr, count: int, dtype="float64"):
        """Open-loop one-sided read: issue and return the request
        without waiting (``yield from``).  The fetched data lands in a
        scratch buffer that is reclaimed on completion — use this when
        only the access (and its latency) matters, not the value."""
        self._check_alive()
        elem = self._elem(dtype)
        np_dtype = np.dtype(dtype)
        unit, off = self._locate(ptr, count * np_dtype.itemsize)
        ctx = self.team._ctx
        scratch = ctx.mem.space.alloc(max(count * np_dtype.itemsize, 1))
        req = yield from ctx.rma.get(
            scratch, 0, count, elem, self._tmems[unit], off, count, elem,
            comm=self.team.comm, attrs=RmaAttrs(blocking=False),
        )
        req.event.add_callback(
            lambda _ev, space=ctx.mem.space, a=scratch: space.free(a))
        return req

    def accumulate(self, ptr: GlobalPtr, data, op: str = "sum",
                   blocking: bool = True):
        """Atomic one-sided update at ``ptr`` (``yield from``; returns
        the request).  Concurrent updates from any unit never lose
        increments."""
        self._check_alive()
        data = np.asarray(data)
        elem = self._elem(data.dtype)
        unit, off = self._locate(ptr, data.nbytes)
        ctx = self.team._ctx
        scratch = self._stage(data)
        req = yield from ctx.rma.accumulate(
            scratch, 0, data.size, elem, self._tmems[unit], off,
            data.size, elem, op=op, comm=self.team.comm,
            attrs=_ACC_ATTRS if blocking else _ACC_ATTRS_NB,
        )
        ctx.mem.space.free(scratch)
        return req

    def fetch_add(self, ptr: GlobalPtr, operand, dtype="int64"):
        """Atomic fetch-and-add of one element at ``ptr``; returns the
        pre-update value (``yield from``)."""
        self._check_alive()
        np_dtype = np.dtype(dtype)
        unit, off = self._locate(ptr, np_dtype.itemsize)
        old = yield from self.team._ctx.rma.fetch_and_add(
            self._tmems[unit], off, np_dtype.name, operand)
        return old

    # -- local access -----------------------------------------------------
    def local_view(self, dtype="uint8", count: Optional[int] = None):
        """Writable NumPy view of this unit's own block."""
        self._check_alive()
        ctx = self.team._ctx
        ctx.rma.engine.materialize_inbound()
        np_dtype = np.dtype(dtype)
        if count is None:
            count = self.nbytes // np_dtype.itemsize
        return ctx.mem.space.view(self._alloc, np_dtype.name, count=count)

    # -- lifecycle --------------------------------------------------------
    def sync(self):
        """Collective completion + barrier over the team
        (``yield from``) — all prior accesses to the segment are
        globally visible afterwards."""
        self._check_alive()
        yield from self.team._ctx.rma.complete_collective(self.team.comm)

    def free(self):
        """Collectively release the segment (``yield from``)."""
        self._check_alive()
        yield from self.sync()
        ctx = self.team._ctx
        ctx.rma.withdraw(self._tmems[self.team.myid])
        ctx.mem.space.free(self._alloc)
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TeamSegment {self.segid}: {self.team.size} x "
                f"{self.nbytes} B>")
