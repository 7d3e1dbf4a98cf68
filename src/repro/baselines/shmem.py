"""A SHMEM-style interface (Cray SHMEM — the paper's [16]).

The third RMA library the paper's §II names as an established
one-sided programming model.  Its distinguishing constraint is the one
the strawman's requirement 1 removes: **symmetric allocation** — every
remotely accessible object must be allocated collectively at the same
time on every PE, and remote addresses are implied by one's own
(`shmem_malloc`).  The strawman's `target_mem` descriptors need no such
symmetry.

Semantics modeled:

- ``shmem_malloc`` — collective symmetric-heap allocation;
- ``put``/``get`` (blocking: put is locally complete, get returns data)
  and typed single-element ``p``/``g``;
- ``fence`` — orders my puts per target (maps to the ordering barrier);
- ``quiet`` — remote-completes all my puts everywhere;
- ``barrier_all`` — quiet + barrier;
- atomics: ``atomic_fetch_inc`` / ``atomic_cswap`` on symmetric
  addresses;
- ``wait_until`` — spin on a local symmetric variable (the classic
  SHMEM flag-synchronization idiom).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.datatypes import BYTE, PREDEFINED
from repro.machine.address_space import Allocation
from repro.rma.attributes import ALL_RANKS, RmaAttrs
from repro.rma.engine import RmaEngine
from repro.rma.target_mem import TargetMem

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm
    from repro.runtime import World

__all__ = ["ShmemError", "ShmemInterface", "build_shmem"]

_PUT = RmaAttrs(blocking=True)           # local completion, like shmem_put
_GET = RmaAttrs(blocking=True)


class ShmemError(RuntimeError):
    """SHMEM usage error."""


class _SymmetricObject:
    """One symmetric allocation: my block + everyone's descriptors."""

    __slots__ = ("alloc", "tmems", "nbytes")

    def __init__(self, alloc: Allocation, tmems: List[TargetMem],
                 nbytes: int) -> None:
        self.alloc = alloc
        self.tmems = tmems
        self.nbytes = nbytes


class ShmemInterface:
    """Per-rank SHMEM frontend (``ctx.shmem``)."""

    def __init__(self, engine: RmaEngine, comm_world: "Comm") -> None:
        self.engine = engine
        self.comm = comm_world
        self._heap: Dict[int, _SymmetricObject] = {}
        self._next_sym = 1

    # ------------------------------------------------------------------
    @property
    def my_pe(self) -> int:
        return self.comm.rank

    @property
    def n_pes(self) -> int:
        return self.comm.size

    def shmem_malloc(self, nbytes: int):
        """Collective symmetric allocation; returns a symmetric handle
        usable as the remote address on every PE (``yield from``)."""
        alloc = self.engine.mem.space.alloc(nbytes)
        yield self.engine.registration_cost(nbytes)
        tmem = self.engine.expose(alloc)
        tmems = yield from self.comm.allgather(tmem)
        sym = self._next_sym
        self._next_sym += 1
        self._heap[sym] = _SymmetricObject(alloc, tmems, nbytes)
        return sym

    def shmem_free(self, sym: int):
        """Collective symmetric free."""
        obj = self._obj(sym)
        yield from self.quiet()
        yield from self.comm.barrier()
        self.engine.withdraw(obj.tmems[self.my_pe])
        self.engine.mem.space.free(obj.alloc)
        del self._heap[sym]

    def _obj(self, sym: int) -> _SymmetricObject:
        obj = self._heap.get(sym)
        if obj is None:
            raise ShmemError(f"not a live symmetric allocation: {sym}")
        return obj

    def local_view(self, sym: int, dtype: str = "uint8") -> np.ndarray:
        """NumPy view of my block of a symmetric object."""
        obj = self._obj(sym)
        return self.engine.mem.space.view(obj.alloc, dtype)

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def put(self, sym: int, offset: int, data: np.ndarray, pe: int):
        """shmem_putmem: blocking put of raw bytes (locally complete)."""
        obj = self._obj(sym)
        data = np.asarray(data, dtype=np.uint8)
        scratch = self.engine.mem.space.alloc(max(data.size, 1))
        self.engine.mem.space.buffer(scratch)[: data.size] = data
        rec = yield from self.engine.issue_put(
            scratch, 0, data.size, BYTE, obj.tmems[pe], offset, data.size,
            BYTE, _PUT,
        )
        if not rec.ev_local.triggered:
            yield rec.ev_local
        self.engine.mem.space.free(scratch)

    def get(self, sym: int, offset: int, nbytes: int, pe: int):
        """shmem_getmem: blocking get; returns the bytes."""
        obj = self._obj(sym)
        scratch = self.engine.mem.space.alloc(max(nbytes, 1))
        ev = yield from self.engine.issue_get(
            scratch, 0, nbytes, BYTE, obj.tmems[pe], offset, nbytes, BYTE,
            _GET,
        )
        if not ev.triggered:
            yield ev
        out = self.engine.mem.space.read(scratch, 0, nbytes)
        self.engine.mem.space.free(scratch)
        return out

    def _target_dt(self, sym: int, pe: int, dtype: str) -> np.dtype:
        """The element dtype in the *target's* byte order (typed SHMEM
        accesses store values the owner can read natively — needed on
        heterogeneous machines)."""
        endian = self._obj(sym).tmems[pe].endianness
        return np.dtype(dtype).newbyteorder(
            "<" if endian == "little" else ">"
        )

    def p(self, sym: int, index: int, value, pe: int, dtype: str = "int64"):
        """shmem_p: put one typed element."""
        np_dt = self._target_dt(sym, pe, dtype)
        data = np.array([value], dtype=np_dt).view(np.uint8)
        yield from self.put(sym, index * np_dt.itemsize, data, pe)

    def g(self, sym: int, index: int, pe: int, dtype: str = "int64"):
        """shmem_g: get one typed element."""
        np_dt = self._target_dt(sym, pe, dtype)
        raw = yield from self.get(sym, index * np_dt.itemsize,
                                  np_dt.itemsize, pe)
        return raw.view(np_dt)[0].item()

    # ------------------------------------------------------------------
    # Ordering / completion (the shmem_fence / shmem_quiet pair the
    # paper's MPI_RMA_order discussion is modeled on)
    # ------------------------------------------------------------------
    def fence(self):
        """shmem_fence: order my prior puts before my later ones, per
        target — exactly MPI_RMA_order(ALL_RANKS)."""
        yield self.engine.timings.call_overhead
        self.engine.order_all()

    def quiet(self):
        """shmem_quiet: remote-complete all my puts everywhere."""
        yield from self.engine.complete_all()

    def barrier_all(self):
        """shmem_barrier_all: quiet + barrier."""
        yield from self.quiet()
        yield from self.comm.barrier()

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------
    def atomic_fetch_inc(self, sym: int, index: int, pe: int,
                         dtype: str = "int64"):
        """shmem_atomic_fetch_inc on a symmetric element."""
        obj = self._obj(sym)
        np_dt = np.dtype(dtype)
        old = yield from self.engine.issue_rmw(
            obj.tmems[pe], index * np_dt.itemsize, dtype, "fetch_add", 1,
        )
        if not old.triggered:
            value = yield old
        else:
            value = old.value
        return value

    def atomic_cswap(self, sym: int, index: int, cond, value, pe: int,
                     dtype: str = "int64"):
        """shmem_atomic_compare_swap; returns the old value."""
        obj = self._obj(sym)
        np_dt = np.dtype(dtype)
        ev = yield from self.engine.issue_rmw(
            obj.tmems[pe], index * np_dt.itemsize, dtype, "cas", value,
            compare=cond,
        )
        if not ev.triggered:
            out = yield ev
        else:
            out = ev.value
        return out

    # ------------------------------------------------------------------
    def wait_until(self, sym: int, index: int, value, dtype: str = "int64",
                   poll: float = 1.0):
        """shmem_wait_until(==): spin until my local symmetric element
        equals ``value`` (flag synchronization)."""
        view = self.local_view(sym, dtype)
        while view[index] != value:
            yield poll


def build_shmem(world: "World") -> None:
    """Attach a :class:`ShmemInterface` to every rank context."""
    for rank, ctx in world.contexts.items():
        ctx.shmem = ShmemInterface(ctx.rma.engine, ctx.comm)
