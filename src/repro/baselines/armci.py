"""An ARMCI-style RMA interface (paper §VI).

Semantics modeled from the paper's comparison:

- contiguous, **vector** and **strided** Put/Get/Accumulate;
- blocking and non-blocking variants; *all blocking operations are
  ordered by the library and all non-blocking operations have no
  ordering guarantee*;
- Accumulate is always **serialized** and supports only a daxpy-style
  update (``y += a * x``);
- completion granularity is coarse: per-handle local waits
  (:meth:`ArmciInterface.wait`), a per-target fence
  (:meth:`ArmciInterface.fence`) and a global
  :meth:`ArmciInterface.all_fence` — it is *not* possible to check
  local or remote completion of an arbitrary subset, nor to issue a
  blocking-unordered operation (both possible with the strawman API).

Memory comes from the collective :meth:`ArmciInterface.malloc`, which
mirrors ``ARMCI_Malloc`` returning every rank's base pointer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.datatypes import BYTE, FLOAT64, contiguous, hindexed, hvector
from repro.machine.address_space import Allocation
from repro.mpi.request import Request
from repro.rma.attributes import RmaAttrs
from repro.rma.engine import RmaEngine
from repro.rma.target_mem import TargetMem

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm
    from repro.runtime import World

__all__ = ["ArmciError", "ArmciInterface", "build_armci"]

#: Blocking ARMCI calls are ordered by the library.
_BLOCKING = RmaAttrs(ordering=True, blocking=True)
#: Non-blocking ARMCI calls carry no guarantees at all.
_NONBLOCKING = RmaAttrs()
#: Accumulates are serialized (atomic) and ordered like other blocking ops.
_ACC = RmaAttrs(ordering=True, blocking=True, atomicity=True,
                remote_completion=True)


class ArmciError(RuntimeError):
    """ARMCI usage error."""


def _strided_type(stride: int, block: int, count: int):
    """count blocks of `block` bytes spaced `stride` bytes apart."""
    return hvector(count, block, stride, BYTE)


def _vector_type(chunks: Sequence[Tuple[int, int]]):
    """Explicit (offset, length) byte chunks."""
    return hindexed([l for _, l in chunks], [o for o, _ in chunks], BYTE)


class ArmciInterface:
    """Per-rank ARMCI frontend (``ctx.armci``)."""

    def __init__(self, engine: RmaEngine, comm_world: "Comm") -> None:
        self.engine = engine
        self.comm = comm_world

    # ------------------------------------------------------------------
    def malloc(self, nbytes: int):
        """Collective allocation: every rank allocates ``nbytes``;
        returns ``(local_alloc, [TargetMem per rank])`` (``yield from``)."""
        alloc = self.engine.mem.space.alloc(nbytes)
        yield self.engine.registration_cost(nbytes)
        tmem = self.engine.expose(alloc)
        tmems = yield from self.comm.allgather(tmem)
        return alloc, tmems

    # -- completion plumbing ----------------------------------------------
    def _wait_local(self, rec):
        """Blocking ARMCI semantics: wait local completion."""
        if not rec.ev_local.triggered:
            yield rec.ev_local

    def _wait_remote(self, rec):
        if rec.ev_remote is not None and not rec.ev_remote.triggered:
            yield rec.ev_remote

    # -- contiguous -------------------------------------------------------
    def put(self, src: Allocation, src_off: int, tmem: TargetMem,
            dst_off: int, nbytes: int):
        """Blocking contiguous put (ordered)."""
        rec = yield from self.engine.issue_put(
            src, src_off, nbytes, BYTE, tmem, dst_off, nbytes, BYTE, _BLOCKING,
        )
        yield from self._wait_local(rec)

    def get(self, dst: Allocation, dst_off: int, tmem: TargetMem,
            src_off: int, nbytes: int):
        """Blocking contiguous get."""
        ev = yield from self.engine.issue_get(
            dst, dst_off, nbytes, BYTE, tmem, src_off, nbytes, BYTE, _BLOCKING,
        )
        if not ev.triggered:
            yield ev

    def nb_put(self, src: Allocation, src_off: int, tmem: TargetMem,
               dst_off: int, nbytes: int):
        """Non-blocking put; returns a handle (no ordering guarantee)."""
        rec = yield from self.engine.issue_put(
            src, src_off, nbytes, BYTE, tmem, dst_off, nbytes, BYTE,
            _NONBLOCKING,
        )
        return Request(self.engine.sim, event=rec.ev_local, kind="armci_nbput")

    def nb_get(self, dst: Allocation, dst_off: int, tmem: TargetMem,
               src_off: int, nbytes: int):
        """Non-blocking get; returns a handle."""
        ev = yield from self.engine.issue_get(
            dst, dst_off, nbytes, BYTE, tmem, src_off, nbytes, BYTE,
            _NONBLOCKING,
        )
        return Request(self.engine.sim, event=ev, kind="armci_nbget")

    # -- strided ----------------------------------------------------------
    def put_strided(self, src: Allocation, src_off: int, src_stride: int,
                    tmem: TargetMem, dst_off: int, dst_stride: int,
                    block: int, count: int):
        """Blocking strided put: ``count`` blocks of ``block`` bytes."""
        rec = yield from self.engine.issue_put(
            src, src_off, 1, _strided_type(src_stride, block, count),
            tmem, dst_off, 1, _strided_type(dst_stride, block, count),
            _BLOCKING,
        )
        yield from self._wait_local(rec)

    def get_strided(self, dst: Allocation, dst_off: int, dst_stride: int,
                    tmem: TargetMem, src_off: int, src_stride: int,
                    block: int, count: int):
        """Blocking strided get."""
        ev = yield from self.engine.issue_get(
            dst, dst_off, 1, _strided_type(dst_stride, block, count),
            tmem, src_off, 1, _strided_type(src_stride, block, count),
            _BLOCKING,
        )
        if not ev.triggered:
            yield ev

    # -- vector (explicit chunk lists) --------------------------------------
    def put_vector(self, src: Allocation,
                   src_chunks: Sequence[Tuple[int, int]], tmem: TargetMem,
                   dst_chunks: Sequence[Tuple[int, int]]):
        """Blocking vector put: explicit (offset, len) chunk lists."""
        if sum(l for _, l in src_chunks) != sum(l for _, l in dst_chunks):
            raise ArmciError("vector src/dst total lengths differ")
        rec = yield from self.engine.issue_put(
            src, 0, 1, _vector_type(src_chunks),
            tmem, 0, 1, _vector_type(dst_chunks), _BLOCKING,
        )
        yield from self._wait_local(rec)

    def get_vector(self, dst: Allocation,
                   dst_chunks: Sequence[Tuple[int, int]], tmem: TargetMem,
                   src_chunks: Sequence[Tuple[int, int]]):
        """Blocking vector get."""
        if sum(l for _, l in src_chunks) != sum(l for _, l in dst_chunks):
            raise ArmciError("vector src/dst total lengths differ")
        ev = yield from self.engine.issue_get(
            dst, 0, 1, _vector_type(dst_chunks),
            tmem, 0, 1, _vector_type(src_chunks), _BLOCKING,
        )
        if not ev.triggered:
            yield ev

    # -- accumulate ---------------------------------------------------------
    def acc(self, src: Allocation, src_off: int, tmem: TargetMem,
            dst_off: int, count: int, scale: float = 1.0):
        """ARMCI accumulate: ``y += scale * x`` over float64 elements —
        the only reduction ARMCI offers (§VI), always serialized; the
        call returns once the update has been applied remotely."""
        rec = yield from self.engine.issue_accumulate(
            src, src_off, count, FLOAT64, tmem, dst_off, count, FLOAT64,
            _ACC, op="daxpy", scale=scale,
        )
        yield from self._wait_remote(rec)

    # -- completion -----------------------------------------------------------
    def wait(self, handle: Request):
        """Wait local completion of one non-blocking handle."""
        yield from handle.wait()

    def wait_all(self, handles: Sequence[Request]):
        """Wait local completion of all given handles."""
        yield from Request.waitall(list(handles))

    def fence(self, tmem_or_rank):
        """ARMCI_Fence: remote-complete ALL prior ops to one target.

        Note the granularity: everything to that target, never a subset
        (the limitation §VI contrasts with the strawman)."""
        rank = (
            tmem_or_rank.rank
            if isinstance(tmem_or_rank, TargetMem)
            else int(tmem_or_rank)
        )
        yield from self.engine.complete_one(rank)

    def all_fence(self):
        """ARMCI_AllFence: remote-complete everything to everyone."""
        yield from self.engine.complete_all()


def build_armci(world: "World") -> None:
    """Attach an :class:`ArmciInterface` to every rank context."""
    for rank, ctx in world.contexts.items():
        ctx.armci = ArmciInterface(ctx.rma.engine, ctx.comm)
