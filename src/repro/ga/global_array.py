"""The distributed array itself.

A :class:`GlobalArray` is a dense 1-D or 2-D array block-distributed
over the ranks of a communicator along axis 0.  Any rank may
:meth:`~GlobalArray.get`, :meth:`~GlobalArray.put` or
:meth:`~GlobalArray.acc` an arbitrary global region without the owners'
participation; a region spanning several owners is split into per-owner
operations, with 2-D sub-blocks described by strided (hvector)
datatypes so each owner is touched by exactly one RMA operation.

Consistency follows Global Arrays: one-sided operations complete
remotely when their call returns (puts use the remote-completion
attribute; accumulates additionally use atomicity so concurrent
updates never lose increments), and :meth:`~GlobalArray.sync` provides
the collective barrier + completion used between phases.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datatypes import PREDEFINED, contiguous, hvector
from repro.rma.attributes import RmaAttrs
from repro.rma.target_mem import TargetMem

__all__ = ["GlobalArray", "GaError"]

_PUT_ATTRS = RmaAttrs(blocking=True, remote_completion=True)
_ACC_ATTRS = RmaAttrs(blocking=True, remote_completion=True, atomicity=True)


class GaError(RuntimeError):
    """Global-array usage error."""


def _normalize_region(region, shape) -> List[Tuple[int, int]]:
    """Normalize a region spec into [(lo, hi), ...] per dimension."""
    if not isinstance(region, tuple):
        region = (region,)
    if len(region) != len(shape):
        raise GaError(
            f"region has {len(region)} dims, array has {len(shape)}"
        )
    out = []
    for spec, extent in zip(region, shape):
        if isinstance(spec, slice):
            if spec.step not in (None, 1):
                raise GaError("strided regions are not supported")
            lo = 0 if spec.start is None else spec.start
            hi = extent if spec.stop is None else spec.stop
        else:
            lo, hi = int(spec), int(spec) + 1
        if lo < 0 or hi > extent or lo >= hi:
            raise GaError(
                f"region [{lo}, {hi}) outside dimension of extent {extent}"
            )
        out.append((lo, hi))
    return out


class GlobalArray:
    """A block-distributed dense array (see module docstring).

    Create collectively with :meth:`create`; every rank must pass the
    same shape/dtype.
    """

    def __init__(self, ctx, comm, shape, np_dtype, alloc, tmems, row_starts):
        self._ctx = ctx
        self.comm = comm
        self.shape = tuple(shape)
        self.dtype = np.dtype(np_dtype)
        self._alloc = alloc
        self._tmems: List[TargetMem] = tmems
        self._row_starts: List[int] = row_starts  # len = comm.size + 1
        self._elem = PREDEFINED[self.dtype.name]
        self._destroyed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, ctx, shape: Sequence[int], dtype: str = "float64",
               comm=None):
        """Collectively create a zero-initialized array (``yield from``).

        ``shape`` is 1-D or 2-D; distribution is by blocks of rows
        (axis 0), with earlier ranks holding the remainder rows.
        """
        comm = comm if comm is not None else ctx.comm
        shape = tuple(int(s) for s in shape)
        if len(shape) not in (1, 2):
            raise GaError("GlobalArray supports 1-D and 2-D shapes")
        if any(s <= 0 for s in shape):
            raise GaError(f"invalid shape {shape}")
        np_dtype = np.dtype(dtype)
        if np_dtype.name not in PREDEFINED:
            raise GaError(f"unsupported dtype {dtype!r}")
        n0 = shape[0]
        size = comm.size
        base, rem = divmod(n0, size)
        row_starts = [0]
        for r in range(size):
            row_starts.append(row_starts[-1] + base + (1 if r < rem else 0))
        my_rows = row_starts[comm.rank + 1] - row_starts[comm.rank]
        row_bytes = (shape[1] if len(shape) == 2 else 1) * np_dtype.itemsize
        alloc = ctx.mem.space.alloc(max(my_rows * row_bytes, 1))
        yield ctx.rma.engine.registration_cost(my_rows * row_bytes)
        tmem = ctx.rma.expose(alloc)
        tmems = yield from comm.allgather(tmem)
        return cls(ctx, comm, shape, np_dtype, alloc, tmems, row_starts)

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def row_bytes(self) -> int:
        cols = self.shape[1] if self.ndim == 2 else 1
        return cols * self.dtype.itemsize

    def owner_of(self, row: int) -> int:
        """The communicator rank owning global row ``row``."""
        if row < 0 or row >= self.shape[0]:
            raise GaError(f"row {row} outside array of {self.shape[0]} rows")
        # binary search over the block boundaries
        import bisect

        return bisect.bisect_right(self._row_starts, row) - 1

    def local_slice(self) -> Tuple[int, int]:
        """(lo, hi) global rows owned by the calling rank."""
        r = self.comm.rank
        return self._row_starts[r], self._row_starts[r + 1]

    def local_view(self) -> np.ndarray:
        """Writable NumPy view of the locally owned block."""
        # A local CPU load must see every train element that has already
        # arrived analytically (same convention as check/runner).
        self._ctx.rma.engine.materialize_inbound()
        lo, hi = self.local_slice()
        cols = self.shape[1] if self.ndim == 2 else None
        count = (hi - lo) * (cols if cols else 1)
        view = self._ctx.mem.space.view(self._alloc, self.dtype.name,
                                        count=count)
        return view.reshape(hi - lo, cols) if cols else view

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._destroyed:
            raise GaError("operation on a destroyed GlobalArray")

    def _owner_pieces(
        self, region
    ) -> Iterator[Tuple[int, int, int, Tuple[int, int]]]:
        """Split a region into per-owner pieces.

        Yields ``(owner, row_lo, row_hi, (col_lo, col_hi))`` with global
        row bounds clipped to the owner's block.
        """
        bounds = _normalize_region(region, self.shape)
        (rlo, rhi) = bounds[0]
        cols = bounds[1] if self.ndim == 2 else (0, 1)
        owner = self.owner_of(rlo)
        while rlo < rhi:
            block_hi = self._row_starts[owner + 1]
            piece_hi = min(rhi, block_hi)
            yield owner, rlo, piece_hi, cols
            rlo = piece_hi
            owner += 1

    def _target_layout(self, owner, row_lo, row_hi, cols):
        """(disp, count, dtype) describing the piece in owner memory."""
        nrows = row_hi - row_lo
        col_lo, col_hi = cols
        ncols = col_hi - col_lo
        local_row0 = row_lo - self._row_starts[owner]
        disp = local_row0 * self.row_bytes + col_lo * self.dtype.itemsize
        full_width = self.shape[1] if self.ndim == 2 else 1
        if ncols == full_width:
            # whole rows: contiguous
            return disp, nrows * ncols, self._elem
        dtype = hvector(nrows, ncols, self.row_bytes, self._elem)
        return disp, 1, dtype

    def _stage(self, data: np.ndarray):
        """Copy ``data`` into a scratch allocation for the transfer.

        Encoded in the *local node's* byte order (not NumPy's native
        order): the engine interprets origin buffers in the origin
        node's representation, which differs on big-endian hosts of
        hybrid machines.
        """
        node_dt = self.dtype.newbyteorder(self._ctx.mem.space.np_byteorder)
        raw = np.ascontiguousarray(data, dtype=node_dt)
        scratch = self._ctx.mem.space.alloc(max(raw.nbytes, 1))
        self._ctx.mem.space.buffer(scratch)[: raw.nbytes] = (
            raw.view(np.uint8).reshape(-1)
        )
        return scratch

    # ------------------------------------------------------------------
    def put(self, region, data: np.ndarray):
        """Write ``data`` into the global ``region`` (``yield from``).

        Remotely complete on return.
        """
        self._check_alive()
        bounds = _normalize_region(region, self.shape)
        expect = tuple(hi - lo for lo, hi in bounds)
        data = np.asarray(data, dtype=self.dtype).reshape(expect)
        for owner, rlo, rhi, cols in self._owner_pieces(region):
            piece = data[rlo - bounds[0][0] : rhi - bounds[0][0]]
            scratch = self._stage(piece)
            disp, count, tdtype = self._target_layout(owner, rlo, rhi, cols)
            nelems = piece.size
            yield from self._ctx.rma.put(
                scratch, 0, nelems, self._elem,
                self._tmems[owner], disp, count, tdtype,
                attrs=_PUT_ATTRS, comm=self.comm,
            )
            self._ctx.mem.space.free(scratch)

    def get(self, region):
        """Read the global ``region``; returns a NumPy array."""
        self._check_alive()
        bounds = _normalize_region(region, self.shape)
        shape = tuple(hi - lo for lo, hi in bounds)
        out = np.empty(shape, dtype=self.dtype)
        for owner, rlo, rhi, cols in self._owner_pieces(region):
            nrows = rhi - rlo
            ncols = cols[1] - cols[0]
            nelems = nrows * ncols
            scratch = self._ctx.mem.space.alloc(
                max(nelems * self.dtype.itemsize, 1)
            )
            disp, count, tdtype = self._target_layout(owner, rlo, rhi, cols)
            yield from self._ctx.rma.get(
                scratch, 0, nelems, self._elem,
                self._tmems[owner], disp, count, tdtype,
                attrs=_PUT_ATTRS, comm=self.comm,
            )
            piece = (
                self._ctx.mem.space.view(scratch, self.dtype.name,
                                         count=nelems)
                .reshape(nrows, ncols)
                .copy()
            )
            r0 = rlo - bounds[0][0]
            if self.ndim == 2:
                out[r0 : r0 + nrows] = piece
            else:
                out[r0 : r0 + nrows] = piece.reshape(-1)
            self._ctx.mem.space.free(scratch)
        return out

    def acc(self, region, data: np.ndarray, scale: float = 1.0):
        """Atomic remote update: ``global[region] += scale * data``."""
        self._check_alive()
        bounds = _normalize_region(region, self.shape)
        expect = tuple(hi - lo for lo, hi in bounds)
        data = np.asarray(data, dtype=self.dtype).reshape(expect)
        for owner, rlo, rhi, cols in self._owner_pieces(region):
            piece = data[rlo - bounds[0][0] : rhi - bounds[0][0]]
            scratch = self._stage(piece)
            disp, count, tdtype = self._target_layout(owner, rlo, rhi, cols)
            yield from self._ctx.rma.accumulate(
                scratch, 0, piece.size, self._elem,
                self._tmems[owner], disp, count, tdtype,
                op="daxpy", scale=scale, attrs=_ACC_ATTRS, comm=self.comm,
            )
            self._ctx.mem.space.free(scratch)

    def get_acc(self, region, data: np.ndarray, scale: float = 1.0):
        """Atomic fetch-and-update of a region: returns the *previous*
        contents while applying ``global[region] += scale * data``
        (``yield from``)."""
        self._check_alive()
        bounds = _normalize_region(region, self.shape)
        shape = tuple(hi - lo for lo, hi in bounds)
        data = np.asarray(data, dtype=self.dtype).reshape(shape)
        out = np.empty(shape, dtype=self.dtype)
        for owner, rlo, rhi, cols in self._owner_pieces(region):
            piece = data[rlo - bounds[0][0] : rhi - bounds[0][0]]
            scratch = self._stage(piece)
            disp, count, tdtype = self._target_layout(owner, rlo, rhi, cols)
            yield from self._ctx.rma.get_accumulate(
                scratch, 0, piece.size, self._elem,
                self._tmems[owner], disp, count, tdtype,
                op="daxpy", scale=scale, comm=self.comm,
            )
            nrows = rhi - rlo
            ncols = cols[1] - cols[0]
            old = (
                self._ctx.mem.space.view(scratch, self.dtype.name,
                                         count=piece.size)
                .reshape(nrows, ncols)
                .copy()
            )
            r0 = rlo - bounds[0][0]
            if self.ndim == 2:
                out[r0 : r0 + nrows] = old
            else:
                out[r0 : r0 + nrows] = old.reshape(-1)
            self._ctx.mem.space.free(scratch)
        return out

    def read_inc(self, row: int, col: int = 0, amount: int = 1):
        """Atomic fetch-and-add on one element (must be an integer
        array) — Global Arrays' NGA_Read_inc, the work-sharing
        primitive (``yield from``; returns the pre-increment value)."""
        self._check_alive()
        if not np.issubdtype(self.dtype, np.integer):
            raise GaError("read_inc requires an integer-typed array")
        bounds = [(row, row + 1)] + (
            [(col, col + 1)] if self.ndim == 2 else []
        )
        owner = self.owner_of(row)
        disp, _, _ = self._target_layout(owner, row, row + 1,
                                         (col, col + 1))
        old = yield from self._ctx.rma.fetch_and_add(
            self._tmems[owner], disp, self.dtype.name, amount
        )
        return int(old)

    # ------------------------------------------------------------------
    def sync(self):
        """Collective phase boundary: complete all my RMA everywhere,
        then barrier (GA_Sync)."""
        self._check_alive()
        yield from self._ctx.rma.complete_collective(self.comm)

    def fill(self, value):
        """Collectively fill the whole array with ``value``."""
        self._check_alive()
        self.local_view()[...] = value
        yield from self.comm.barrier()

    def destroy(self):
        """Collectively free the array (``yield from``)."""
        self._check_alive()
        yield from self.sync()
        self._ctx.rma.withdraw(self._tmems[self.comm.rank])
        self._ctx.mem.space.free(self._alloc)
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GlobalArray {self.shape} {self.dtype.name} over "
            f"{self.comm.size} ranks>"
        )
