"""Cache models.

The paper's §III-B2 hinges on one architectural fact: on machines like
the NEC SX, the scalar unit reads through a **non-coherent write-through
cache**, so data deposited in memory by a remote put stays invisible to
the target until the target executes a cache/memory fence (or the RMA
runtime does it on the target's behalf).

We model exactly that observable behaviour:

- :class:`CoherentCache` — remote writes invalidate; local reads are
  always fresh (Cray XT-like; also the X1E intra-node case).
- :class:`WriteThroughNonCoherentCache` — local reads come from cached
  line snapshots; local writes update both cache and memory; remote
  writes update memory only, leaving stale lines until :meth:`fence`.
- :class:`NoCache` — vector-unit style direct memory access.

All models operate on (alloc_id, line_index) granularity with a
configurable line size.  Cached lines are indexed **per allocation**, so
what a remote write costs the host depends on how many lines of that
allocation are cached — none, on a typical RMA target — and never on
the payload size.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

import numpy as np

from repro.machine.address_space import AddressSpace, Allocation

__all__ = [
    "CacheModel",
    "CoherentCache",
    "NoCache",
    "WriteThroughNonCoherentCache",
]


def _cached_in(cached: Collection[int], span: range) -> List[int]:
    """The lines of ``span`` held in ``cached`` (a set, or a dict keyed
    by line), visiting whichever of the two is shorter."""
    if len(span) <= len(cached):
        return [line for line in span if line in cached]
    return [line for line in cached if line in span]


class CacheModel:
    """Interface between a rank's loads/stores and its memory.

    Subclasses decide whether reads may observe stale data and what
    remote (RMA) writes do to cached state.  Counters are kept for the
    benches (hit/miss/stale statistics).
    """

    #: Whether this model keeps caches coherent with remote writes.
    coherent: bool = True

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        if line_size < 1:
            raise ValueError("line_size must be >= 1")
        self.space = space
        self.line_size = line_size
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _span(self, offset: int, n: int) -> range:
        """The lines ``[offset, offset + n)`` touches (a zero-length
        access still touches the line holding ``offset``)."""
        size = self.line_size
        return range(offset // size, (offset + max(n, 1) - 1) // size + 1)

    # -- the three access paths ----------------------------------------
    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        """A local CPU read of ``n`` bytes."""
        raise NotImplementedError

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        """A local CPU write."""
        raise NotImplementedError

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        """Data deposited by the NIC/RMA engine directly into memory."""
        raise NotImplementedError

    def fence(self) -> None:
        """Memory fence: discard anything that could be stale."""
        raise NotImplementedError

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        """Targeted invalidation (used by RMA notify protocols)."""
        raise NotImplementedError


class CoherentCache(CacheModel):
    """Fully coherent: loads always observe memory; remote writes are
    immediately visible.  Hit/miss counters still model a line cache for
    statistics."""

    coherent = True

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        super().__init__(space, line_size)
        self._present: Dict[int, set] = {}

    def _touch(self, alloc: Allocation, offset: int, n: int) -> None:
        span = self._span(offset, n)
        present = self._present.get(alloc.alloc_id)
        if present is None:
            present = self._present[alloc.alloc_id] = set()
        before = len(present)
        present.update(span)
        missed = len(present) - before
        self.misses += missed
        self.hits += len(span) - missed

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        self._touch(alloc, offset, n)
        return self.space.read(alloc, offset, n)

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self._touch(alloc, offset, data.size)
        self.space.write(alloc, offset, data)

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        # Coherence protocol invalidates the lines the NIC writes — a
        # rank that has loaded nothing since its last fence has none.
        if self._present:
            data = np.asarray(data, dtype=np.uint8)
            self.invalidate_range(alloc, offset, data.size)
        self.space.write(alloc, offset, data)

    def fence(self) -> None:
        # Nothing can be stale; fence only drops statistics state.
        self._present.clear()

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        present = self._present.get(alloc.alloc_id)
        if not present:
            return
        stale = _cached_in(present, self._span(offset, n))
        present.difference_update(stale)
        self.invalidations += len(stale)


class WriteThroughNonCoherentCache(CacheModel):
    """NEC-SX-style scalar cache.

    Lines are snapshots of memory taken at miss time.  Local stores
    write through (cache + memory).  Remote writes update memory only —
    subsequent local loads of a cached line return the **stale**
    snapshot until :meth:`fence` or a targeted invalidation runs.
    """

    coherent = False

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        super().__init__(space, line_size)
        #: alloc_id -> {line: snapshot of that line taken at miss time}
        self._lines: Dict[int, Dict[int, np.ndarray]] = {}

    def _line_bounds(self, buf_size: int, line: int) -> Tuple[int, int]:
        start = line * self.line_size
        return start, min(start + self.line_size, buf_size)

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        buf = self.space.buffer(alloc)
        out = np.empty(n, dtype=np.uint8)
        lines = self._lines.get(alloc.alloc_id)
        if lines is None:
            lines = self._lines[alloc.alloc_id] = {}
        # A CPU read is per line by nature: each line is fresh or stale
        # on its own.
        for line in self._span(offset, n):
            lstart, lend = self._line_bounds(buf.size, line)
            snapshot = lines.get(line)
            if snapshot is None:
                self.misses += 1
                snapshot = lines[line] = buf[lstart:lend].copy()
            else:
                self.hits += 1
            # Copy the overlap of [offset, offset+n) with this line.
            a = max(offset, lstart)
            b = min(offset + n, lend)
            if b > a:
                out[a - offset : b - offset] = snapshot[a - lstart : b - lstart]
        return out

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self.space.write(alloc, offset, data)
        lines = self._lines.get(alloc.alloc_id)
        if not lines:
            return
        buf = self.space.buffer(alloc)
        for line in _cached_in(lines, self._span(offset, data.size)):
            # Write-through: refresh the cached snapshot from memory.
            lstart, lend = self._line_bounds(buf.size, line)
            lines[line] = buf[lstart:lend].copy()

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        # The NIC DMAs into memory; the scalar cache is not snooped.
        self.space.write(alloc, offset, np.asarray(data, dtype=np.uint8))

    def fence(self) -> None:
        self.invalidations += sum(map(len, self._lines.values()))
        self._lines.clear()

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        lines = self._lines.get(alloc.alloc_id)
        if not lines:
            return
        stale = _cached_in(lines, self._span(offset, n))
        for line in stale:
            del lines[line]
        self.invalidations += len(stale)


class NoCache(CacheModel):
    """Direct memory access (vector unit path on the SX; also useful as
    a null model in unit tests)."""

    coherent = True

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        self.misses += 1
        return self.space.read(alloc, offset, n)

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        self.space.write(alloc, offset, data)

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        self.space.write(alloc, offset, np.asarray(data, dtype=np.uint8))

    def fence(self) -> None:
        pass

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        pass
