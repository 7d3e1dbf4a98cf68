"""Pack/unpack engine.

``pack`` gathers a (possibly noncontiguous) datatype layout from a NumPy
byte buffer into a dense wire buffer; ``unpack`` scatters a wire buffer
back out.  The wire format is the *origin's* native byte order, annotated
out-of-band (the simulated packets carry the origin endianness); the
receiver converts on unpack when orders differ — the standard
receiver-makes-right strategy for heterogeneous systems (paper §III-B3).

Contiguous single-segment layouts take a zero-copy-ish fast path (one
NumPy slice copy).
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.base import Datatype, DatatypeError

__all__ = ["pack", "unpack", "unpack_swapped", "swap_inplace", "check_bounds"]


def check_bounds(
    buf: np.ndarray, offset: int, dtype: Datatype, count: int
) -> None:
    """Validate that ``count`` instances at ``offset`` fit inside ``buf``."""
    if buf.dtype != np.uint8:
        raise DatatypeError(f"buffers must be uint8 arrays, got {buf.dtype}")
    lo, hi = dtype.byte_range(count)
    if count and (offset + lo < 0 or offset + hi > buf.size):
        raise DatatypeError(
            f"access [{offset + lo}, {offset + hi}) outside buffer of "
            f"{buf.size} bytes"
        )


def pack(
    buf: np.ndarray, offset: int, dtype: Datatype, count: int,
    copy: bool = True,
) -> np.ndarray:
    """Gather ``count`` instances of ``dtype`` at ``buf[offset...]``.

    Returns a dense ``uint8`` array of ``count * dtype.size`` bytes.

    With ``copy=False`` a *contiguous* layout is returned as a read-only
    **view** of ``buf`` instead of a fresh copy — the zero-copy
    (rendezvous-style) path.  The caller then owns the aliasing
    contract: the view reflects any later write to the underlying
    buffer, so it must either be consumed before the buffer can change
    or the buffer must be kept stable for the view's lifetime (the RMA
    engine does the latter for multi-fragment transfers, mirroring real
    zero-copy RDMA where the origin region is pinned until remote
    completion).  Noncontiguous layouts always gather into a fresh
    array; ``copy`` is ignored for them.
    """
    check_bounds(buf, offset, dtype, count)
    total = count * dtype.size
    if count != 0 and total != 0 and dtype.is_contiguous:
        if copy:
            out = buf[offset : offset + total].copy()
        else:
            out = buf[offset : offset + total]
            out.flags.writeable = False
        return out
    out = np.empty(total, dtype=np.uint8)
    if count == 0 or total == 0:
        return out
    pos = 0
    extent = dtype.extent
    segs = dtype.segments
    for i in range(count):
        base = offset + i * extent
        for seg in segs:
            start = base + seg.disp
            out[pos : pos + seg.nbytes] = buf[start : start + seg.nbytes]
            pos += seg.nbytes
    return out


def unpack(
    data: np.ndarray,
    buf: np.ndarray,
    offset: int,
    dtype: Datatype,
    count: int,
) -> None:
    """Scatter dense ``data`` into ``count`` instances at ``buf[offset..]``."""
    check_bounds(buf, offset, dtype, count)
    total = count * dtype.size
    if data.size != total:
        raise DatatypeError(
            f"wire data is {data.size} bytes but layout needs {total}"
        )
    if count == 0 or total == 0:
        return
    if dtype.is_contiguous:
        buf[offset : offset + total] = data
        return
    pos = 0
    extent = dtype.extent
    segs = dtype.segments
    for i in range(count):
        base = offset + i * extent
        for seg in segs:
            start = base + seg.disp
            buf[start : start + seg.nbytes] = data[pos : pos + seg.nbytes]
            pos += seg.nbytes


def swap_inplace(data: np.ndarray, dtype: Datatype, count: int) -> None:
    """Reverse byte order of every multi-byte element in packed ``data``.

    Uses the datatype's segment element sizes to know the swap
    granularity; 1-byte elements are left untouched.
    """
    pos = 0
    for _ in range(count):
        for seg in dtype.segments:
            if seg.elem_size > 1:
                view = data[pos : pos + seg.nbytes]
                view[:] = (
                    view.reshape(-1, seg.elem_size)[:, ::-1].reshape(-1)
                )
            pos += seg.nbytes


def unpack_swapped(
    data: np.ndarray,
    buf: np.ndarray,
    offset: int,
    dtype: Datatype,
    count: int,
    scratch: "np.ndarray | None" = None,
) -> None:
    """Like :func:`unpack` but byte-swaps elements first (heterogeneous
    receive where origin and target endianness differ).

    ``scratch`` may provide a reusable staging buffer of at least
    ``data.size`` bytes (e.g. the engine's per-rank scratch): the swap
    is transient — fully consumed by the scatter below — so the staging
    bytes never outlive this call and reuse is safe.
    """
    if scratch is not None and scratch.size >= data.size:
        swapped = scratch[: data.size]
        np.copyto(swapped, data)
    else:
        swapped = data.copy()
    swap_inplace(swapped, dtype, count)
    unpack(swapped, buf, offset, dtype, count)
