"""Transfer layout helpers: fragmentation and typed application.

Large RMA transfers are split into MTU-sized *fragments*.  For puts and
accumulates, a fragment is a list of ``(target_disp, nbytes, elem_size)``
sub-segments plus the matching dense byte blob, split only at element
boundaries so the receiver can byte-swap per element when origin and
target endianness differ (heterogeneous systems, paper §III-B3).

Get replies are simpler: dense wire bytes with offsets; the origin
assembles the full dense buffer and unpacks it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datatypes.base import Datatype, Segment
from repro.machine.node import RankMemory
from repro.machine.address_space import Allocation

__all__ = ["Fragment", "fragment_layout", "dense_sizes", "apply_put_fragment",
           "apply_accumulate", "apply_write", "rmw_apply", "read_layout"]


@dataclass(frozen=True, slots=True)
class Fragment:
    """One MTU-sized piece of a typed write transfer.

    ``subsegs`` are ``(target_disp, nbytes, elem_size)`` tuples relative
    to the transfer's base displacement; ``data`` is the dense
    concatenation of their bytes in order.
    """

    index: int
    total: int
    subsegs: Tuple[Tuple[int, int, int], ...]
    data: np.ndarray


def fragment_layout(
    dtype: Datatype, count: int, wire: np.ndarray, mtu: int
) -> List[Fragment]:
    """Split a packed transfer into element-aligned fragments.

    ``wire`` is the dense packed payload (``count * dtype.size`` bytes).
    Fragments carry at most ``mtu`` data bytes each; a sub-segment is
    split only at multiples of its element size, which is always
    possible because element sizes (<= 8) are far below any sane MTU.
    """
    frags: List[List[Tuple[int, int, int]]] = [[]]
    sizes = [0]
    for seg in dtype.segments_for(count):
        disp, remaining, elem = seg.disp, seg.nbytes, seg.elem_size
        while remaining > 0:
            room = mtu - sizes[-1]
            if room < elem:
                frags.append([])
                sizes.append(0)
                room = mtu
            take = min(remaining, room)
            take -= take % elem  # element-aligned split
            frags[-1].append((disp, take, elem))
            sizes[-1] += take
            disp += take
            remaining -= take
    if not frags[-1]:
        frags.pop()
        sizes.pop()
    out: List[Fragment] = []
    pos = 0
    total = len(frags)
    for i, (subsegs, size) in enumerate(zip(frags, sizes)):
        out.append(
            Fragment(
                index=i,
                total=total,
                subsegs=tuple(subsegs),
                data=wire[pos : pos + size],
            )
        )
        pos += size
    assert pos == wire.size, "fragmentation lost bytes"
    return out


@lru_cache(maxsize=256)
def dense_sizes(dtype: Datatype, count: int, mtu: int) -> Tuple[int, ...]:
    """Data bytes of each fragment :func:`fragment_layout` would cut a
    contiguous transfer into — without cutting it.  Where a dense write's
    fragments apply together, fragmentation is pure timing: its wire
    lands in one deposit (:func:`apply_write` with ``frags=None``)."""
    elem = dtype.segments[0].elem_size
    full = mtu - (mtu % elem) if elem > 1 else mtu
    nfull, rem = divmod(count * dtype.size, full)
    return (full,) * nfull + ((rem,) if rem else ())


def _swapped(data: np.ndarray, elem: int) -> np.ndarray:
    if elem <= 1:
        return data
    # ascontiguousarray: the reversed view cannot be retyped in place
    return np.ascontiguousarray(
        data.reshape(-1, elem)[:, ::-1]
    ).reshape(-1)


def apply_put_fragment(
    mem: RankMemory,
    alloc: Allocation,
    base_disp: int,
    frag: Fragment,
    swap: bool,
) -> None:
    """Deposit one put fragment into target memory via the NIC path."""
    pos = 0
    for disp, nbytes, elem in frag.subsegs:
        chunk = frag.data[pos : pos + nbytes]
        if swap:
            chunk = _swapped(chunk, elem)
        mem.nic_write(alloc, base_disp + disp, chunk)
        pos += nbytes


def apply_accumulate(
    mem: RankMemory,
    alloc: Allocation,
    base_disp: int,
    frag: Fragment,
    swap: bool,
    np_elem: str,
    op: str,
    scale: float,
    target_byteorder: str,
) -> None:
    """Apply one accumulate fragment element-wise at the target.

    ``op`` is one of ``sum``, ``prod``, ``min``, ``max``, ``replace``,
    ``daxpy`` (``target += scale * incoming``).
    """
    np_dt = np.dtype(np_elem).newbyteorder(target_byteorder)
    pos = 0
    for disp, nbytes, elem in frag.subsegs:
        incoming = frag.data[pos : pos + nbytes]
        if swap:
            incoming = _swapped(incoming, elem)
        incoming_vals = incoming.view(np_dt)
        if op == "replace":
            mem.nic_write(alloc, base_disp + disp, incoming)
            pos += nbytes
            continue
        current = mem.nic_read(alloc, base_disp + disp, nbytes).view(np_dt)
        if op == "sum":
            result = current + incoming_vals
        elif op == "prod":
            result = current * incoming_vals
        elif op == "min":
            result = np.minimum(current, incoming_vals)
        elif op == "max":
            result = np.maximum(current, incoming_vals)
        elif op == "daxpy":
            result = current + np.dtype(np_elem).type(scale) * incoming_vals
        else:
            raise ValueError(f"unknown accumulate op {op!r}")
        mem.nic_write(
            alloc, base_disp + disp, result.astype(np_dt).view(np.uint8)
        )
        pos += nbytes


def apply_write(
    mem: RankMemory,
    alloc: Allocation,
    base_disp: int,
    frags: Optional[Sequence[Fragment]],
    swap: bool = False,
    acc: Optional[tuple] = None,
    wire: Optional[np.ndarray] = None,
) -> None:
    """Deposit a put (``acc`` is None) or an accumulate (``acc`` is
    ``(np_elem, op, scale)``) into target memory: the one applier behind
    the packet, serializer, get-accumulate, shared-window and op-train
    paths.  ``frags=None`` is the dense form — a contiguous same-endian
    put whose whole ``wire`` lands at ``base_disp`` in one deposit."""
    if frags is None:
        mem.nic_write(alloc, base_disp, wire)
    elif acc is None:
        for frag in frags:
            apply_put_fragment(mem, alloc, base_disp, frag, swap)
    else:
        np_elem, op, scale = acc
        byteorder = mem.space.np_byteorder
        for frag in frags:
            apply_accumulate(mem, alloc, base_disp, frag, swap, np_elem, op,
                             scale, byteorder)


def rmw_apply(mem: RankMemory, alloc: Allocation, disp: int, np_elem: str,
              op: str, operand, compare=None):
    """Read-modify-write one element at the target (``fetch_add``,
    ``swap`` or ``cas`` — validated at issue); returns the old value."""
    np_dt = np.dtype(np_elem).newbyteorder(mem.space.np_byteorder)
    old = mem.nic_read(alloc, disp, np_dt.itemsize).view(np_dt)[0]
    if op == "fetch_add":
        new = old + np_dt.type(operand)
    elif op == "swap":
        new = np_dt.type(operand)
    else:
        new = np_dt.type(operand) if old == np_dt.type(compare) else old
    mem.nic_write(alloc, disp, np.array([new], dtype=np_dt).view(np.uint8))
    return old.item()


def read_layout(
    mem: RankMemory,
    alloc: Allocation,
    base_disp: int,
    dtype: Datatype,
    count: int,
) -> np.ndarray:
    """NIC-side gather of a typed region into dense wire bytes."""
    total = count * dtype.size
    out = np.empty(total, dtype=np.uint8)
    pos = 0
    for seg in dtype.segments_for(count):
        out[pos : pos + seg.nbytes] = mem.nic_read(
            alloc, base_disp + seg.disp, seg.nbytes
        )
        pos += seg.nbytes
    return out
