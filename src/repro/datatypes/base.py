"""Datatype base class and flattened layout representation.

Every datatype — primitive or derived — can be flattened into a tuple of
:class:`Segment` entries: contiguous byte runs relative to the start of
one datatype instance, each annotated with the primitive element size so
the pack engine knows the granularity for byte-order conversion.

Adjacent runs of the same element size are coalesced at flattening time,
so a ``contiguous(1024, BYTE)`` costs one segment, not 1024 — this is the
datatype-engine analogue of the "vectorize, don't loop per element"
guidance for numerical Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

__all__ = ["Datatype", "DatatypeError", "Segment"]


class DatatypeError(ValueError):
    """Raised for malformed datatype constructions or buffer misuse."""


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous byte run inside one datatype instance.

    Attributes
    ----------
    disp:
        Byte displacement from the instance start (may be negative for
        exotic struct layouts, mirroring MPI's lower-bound semantics).
    nbytes:
        Length of the run in bytes.
    elem_size:
        Size of the primitive elements the run is made of (1 for bytes;
        byte-order conversion swaps within groups of this size).
    """

    disp: int
    nbytes: int
    elem_size: int


def coalesce(segments: Sequence[Segment]) -> Tuple[Segment, ...]:
    """Merge byte-adjacent segments with identical element size.

    Input order is preserved; only immediately-adjacent mergeable pairs
    collapse, so the serialized byte order of packed data is unchanged.
    """
    out: List[Segment] = []
    for seg in segments:
        if seg.nbytes == 0:
            continue
        if (
            out
            and out[-1].elem_size == seg.elem_size
            and out[-1].disp + out[-1].nbytes == seg.disp
        ):
            prev = out[-1]
            out[-1] = Segment(prev.disp, prev.nbytes + seg.nbytes, prev.elem_size)
        else:
            out.append(seg)
    return tuple(out)


class Datatype:
    """Abstract datatype.

    Subclasses must set ``_segments`` (flattened layout of a single
    instance), ``_size`` (total payload bytes) and ``_extent`` (span in
    the buffer from one instance to the next).  A datatype is immutable
    once constructed, so what the RMA issue path asks of it per
    operation — :attr:`is_contiguous`, the hash, the one-instance byte
    span — is derived once per object.
    """

    _segments: Tuple[Segment, ...]
    _size: int
    _extent: int

    #: Human-readable constructor name for repr/debugging.
    typename: str = "datatype"

    #: NumPy scalar type name when every element of the type is the same
    #: primitive (e.g. ``"float64"``); ``None`` for mixed structs.  The
    #: accumulate engine requires a uniform element type for arithmetic.
    elem_np: "str | None" = None

    @property
    def size(self) -> int:
        """Number of payload bytes in one instance (MPI ``MPI_Type_size``)."""
        return self._size

    @property
    def extent(self) -> int:
        """Span of one instance in the buffer (MPI ``MPI_Type_extent``)."""
        return self._extent

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """Flattened, coalesced layout of one instance."""
        return self._segments

    @cached_property
    def is_contiguous(self) -> bool:
        """True when one instance is a single run starting at offset 0
        whose length equals the extent — the fast path for pack/unpack."""
        return (
            len(self._segments) == 1
            and self._segments[0].disp == 0
            and self._segments[0].nbytes == self._size == self._extent
        )

    def segments_for(self, count: int) -> Tuple[Segment, ...]:
        """Flattened layout of ``count`` consecutive instances.

        Two things keep this O(segments-in-result) rather than
        O(count * segments-per-instance) on the hot path:

        - a single-run instance whose run length equals the extent tiles
          the buffer back-to-back, so ``count`` instances coalesce to one
          ``count * nbytes`` run — computed directly (this covers every
          primitive and ``contiguous`` type, i.e. the common RMA case);
        - results are memoized per count, since the engine recomputes the
          same layout for every fragment-sized operation of a sweep.
        """
        if count < 0:
            raise DatatypeError(f"negative count: {count}")
        if count == 1:
            return self._segments
        segs = self._segments
        if len(segs) == 1 and segs[0].nbytes == self._extent:
            s = segs[0]
            return (Segment(s.disp, s.nbytes * count, s.elem_size),)
        cache = getattr(self, "_segments_for_cache", None)
        if cache is None:
            cache = self._segments_for_cache = {}
        cached = cache.get(count)
        if cached is None:
            flat: List[Segment] = []
            for i in range(count):
                base = i * self._extent
                for seg in segs:
                    flat.append(Segment(base + seg.disp, seg.nbytes, seg.elem_size))
            cached = cache[count] = coalesce(flat)
        return cached

    def byte_range(self, count: int) -> Tuple[int, int]:
        """``(lo, hi)`` byte bounds touched by ``count`` instances.

        Both are relative to the buffer offset the instances start at;
        the buffer must cover ``offset + lo .. offset + hi``.  Returns
        ``(0, 0)`` for zero count or empty types.
        """
        if count <= 0 or not self._segments:
            return (0, 0)
        lo, hi = self._span
        return (lo, (count - 1) * self._extent + hi)

    @cached_property
    def _span(self) -> Tuple[int, int]:
        """``(lo, hi)`` byte bounds of one instance."""
        return (min(s.disp for s in self._segments),
                max(s.disp + s.nbytes for s in self._segments))

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.typename} size={self._size} "
            f"extent={self._extent} nseg={len(self._segments)}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datatype):
            return NotImplemented
        return (
            self._segments == other._segments
            and self._size == other._size
            and self._extent == other._extent
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self._segments, self._size, self._extent))
