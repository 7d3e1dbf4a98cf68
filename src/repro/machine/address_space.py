"""Per-rank address spaces.

Each simulated MPI process owns an :class:`AddressSpace`: a set of
allocations, each a NumPy ``uint8`` buffer.  The space records the node's
pointer width and endianness so that RMA descriptors
(:class:`repro.rma.target_mem.TargetMem`) can carry them across the
machine — the paper's §III-B3 point that the target's address-space
properties may differ from the origin's.

Raw ``read``/``write`` here touch *memory* directly; cached access goes
through the node's :class:`~repro.machine.cache.CacheModel` (see
:class:`~repro.machine.node.RankMemory`), which is how the NEC-SX-style
staleness is made observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Dict, Optional

import numpy as np

__all__ = ["AddressSpace", "Allocation", "MemoryError_"]


class MemoryError_(RuntimeError):
    """Bad allocation handle or out-of-bounds access.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


@dataclass(frozen=True)
class Allocation:
    """Handle to one allocation in some rank's address space."""

    rank: int
    alloc_id: int
    size: int


class AddressSpace:
    """All memory owned by one rank.

    Parameters
    ----------
    rank:
        Owning rank (recorded into handles for error messages and for
        routing RMA descriptors).
    pointer_bits:
        32 or 64; allocation sizes are bounded by the address width.
    endianness:
        ``"little"`` or ``"big"``; multi-byte values in this space are
        stored in this byte order.
    """

    def __init__(
        self, rank: int, pointer_bits: int = 64, endianness: str = "little"
    ) -> None:
        if pointer_bits not in (32, 64):
            raise ValueError(f"pointer_bits must be 32 or 64, got {pointer_bits}")
        if endianness not in ("little", "big"):
            raise ValueError(f"endianness must be 'little' or 'big'")
        self.rank = rank
        self.pointer_bits = pointer_bits
        self.endianness = endianness
        self._allocations: Dict[int, np.ndarray] = {}
        self._next_id = 1
        self._bytes_allocated = 0

    # ------------------------------------------------------------------
    @property
    def np_byteorder(self) -> str:
        """NumPy byte-order character for this space ('<' or '>')."""
        return "<" if self.endianness == "little" else ">"

    @property
    def bytes_allocated(self) -> int:
        """Total live allocation size."""
        return self._bytes_allocated

    def alloc(self, nbytes: int, fill: int = 0) -> Allocation:
        """Allocate ``nbytes``; returns a handle."""
        if type(nbytes) is not int:
            try:
                nbytes = index(nbytes)      # numpy integers pass
            except TypeError:
                raise MemoryError_(
                    f"rank {self.rank}: allocation size must be an integer, "
                    f"got {nbytes!r}") from None
        if nbytes < 0:
            raise MemoryError_(f"negative allocation size: {nbytes}")
        if nbytes >= 2 ** self.pointer_bits:
            raise MemoryError_(
                f"{nbytes} bytes exceeds a {self.pointer_bits}-bit address space"
            )
        if not 0 <= fill <= 255:
            raise ValueError(f"fill must be a byte value 0..255, got {fill!r}")
        alloc_id = self._next_id
        self._next_id += 1
        self._allocations[alloc_id] = np.full(nbytes, fill, dtype=np.uint8)
        self._bytes_allocated += nbytes
        return Allocation(rank=self.rank, alloc_id=alloc_id, size=nbytes)

    def free(self, alloc: Allocation) -> None:
        """Release an allocation; later access through it is an error."""
        buf = self._allocations.pop(alloc.alloc_id, None)
        if buf is None:
            raise MemoryError_(
                f"rank {self.rank}: free of unknown allocation {alloc.alloc_id}"
            )
        self._bytes_allocated -= buf.size

    def buffer(self, alloc: Allocation) -> np.ndarray:
        """The raw ``uint8`` buffer behind a handle (a live view)."""
        buf = self._allocations.get(alloc.alloc_id)
        if buf is None:
            raise MemoryError_(
                f"rank {self.rank}: access to unknown/freed allocation "
                f"{alloc.alloc_id}"
            )
        return buf

    def _check(self, buf: np.ndarray, offset: int, n: int) -> None:
        if offset < 0 or n < 0 or offset + n > buf.size:
            raise MemoryError_(
                f"rank {self.rank}: access [{offset}, {offset + n}) outside "
                f"allocation of {buf.size} bytes"
            )

    def read(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        """Copy ``n`` bytes out of memory (bypasses any cache model)."""
        buf = self.buffer(alloc)
        self._check(buf, offset, n)
        return buf[offset : offset + n].copy()

    def write(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        """Store bytes into memory (bypasses any cache model)."""
        buf = self.buffer(alloc)
        data = np.asarray(data, dtype=np.uint8)
        self._check(buf, offset, data.size)
        buf[offset : offset + data.size] = data

    # -- typed convenience accessors -----------------------------------
    def view(
        self, alloc: Allocation, dtype: str, offset: int = 0, count: Optional[int] = None
    ) -> np.ndarray:
        """A typed view in this space's byte order (live, zero-copy).

        ``dtype`` is a NumPy scalar type name like ``"int32"``.
        """
        buf = self.buffer(alloc)
        np_dt = np.dtype(dtype).newbyteorder(self.np_byteorder)
        avail = (buf.size - offset) // np_dt.itemsize
        if count is None:
            count = avail
        if count > avail or offset < 0:
            raise MemoryError_(
                f"typed view of {count} x {dtype} at {offset} does not fit"
            )
        return buf[offset : offset + count * np_dt.itemsize].view(np_dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AddressSpace rank={self.rank} {self.pointer_bits}-bit "
            f"{self.endianness}-endian allocs={len(self._allocations)}>"
        )
