"""The per-allocation line index against the per-line loops it replaced.

The reference models below ARE the old implementation — one
``(alloc_id, line)`` key probed per line of every span — kept here as
the brute-force oracle.  Seeded random access sequences drive both; the
counters and every loaded byte must agree after every step.
"""

import random
import time

import numpy as np
import pytest

from repro.machine import (
    AddressSpace,
    CoherentCache,
    WriteThroughNonCoherentCache,
)

LINE = 64
SIZES = (64 * 1024, 100_000, 4096 + 17)   # line-multiple, ragged, small


class _RefBase:
    def __init__(self, space, line_size):
        self.space = space
        self.line_size = line_size
        self.hits = self.misses = self.invalidations = 0

    def _lines(self, offset, n):
        first = offset // self.line_size
        last = (offset + max(n, 1) - 1) // self.line_size
        return range(first, last + 1)


class RefCoherent(_RefBase):
    def __init__(self, space, line_size):
        super().__init__(space, line_size)
        self._present = set()

    def _touch(self, alloc, offset, n):
        for line in self._lines(offset, n):
            key = (alloc.alloc_id, line)
            if key in self._present:
                self.hits += 1
            else:
                self.misses += 1
                self._present.add(key)

    def load(self, alloc, offset, n):
        self._touch(alloc, offset, n)
        return self.space.read(alloc, offset, n)

    def store(self, alloc, offset, data):
        self._touch(alloc, offset, data.size)
        self.space.write(alloc, offset, data)

    def remote_write(self, alloc, offset, data):
        self.invalidate_range(alloc, offset, data.size)
        self.space.write(alloc, offset, data)

    def fence(self):
        self._present.clear()

    def invalidate_range(self, alloc, offset, n):
        for line in self._lines(offset, n):
            if (alloc.alloc_id, line) in self._present:
                self._present.discard((alloc.alloc_id, line))
                self.invalidations += 1


class RefWriteThrough(_RefBase):
    def __init__(self, space, line_size):
        super().__init__(space, line_size)
        self._snap = {}

    def _bounds(self, buf_size, line):
        start = line * self.line_size
        return start, min(start + self.line_size, buf_size)

    def load(self, alloc, offset, n):
        buf = self.space.buffer(alloc)
        out = np.empty(n, dtype=np.uint8)
        for line in self._lines(offset, n):
            key = (alloc.alloc_id, line)
            lstart, lend = self._bounds(buf.size, line)
            snapshot = self._snap.get(key)
            if snapshot is None:
                self.misses += 1
                snapshot = self._snap[key] = buf[lstart:lend].copy()
            else:
                self.hits += 1
            a, b = max(offset, lstart), min(offset + n, lend)
            if b > a:
                out[a - offset:b - offset] = snapshot[a - lstart:b - lstart]
        return out

    def store(self, alloc, offset, data):
        self.space.write(alloc, offset, data)
        buf = self.space.buffer(alloc)
        for line in self._lines(offset, data.size):
            key = (alloc.alloc_id, line)
            if key in self._snap:
                lstart, lend = self._bounds(buf.size, line)
                self._snap[key] = buf[lstart:lend].copy()

    def remote_write(self, alloc, offset, data):
        self.space.write(alloc, offset, data)

    def fence(self):
        self.invalidations += len(self._snap)
        self._snap.clear()

    def invalidate_range(self, alloc, offset, n):
        for line in self._lines(offset, n):
            if self._snap.pop((alloc.alloc_id, line), None) is not None:
                self.invalidations += 1


def _random_span(rng, size):
    """(offset, n) inside a ``size``-byte allocation: mostly short, some
    up to 64 KiB, some empty, some ending exactly on a line boundary."""
    shape = rng.random()
    if shape < 0.08:
        n = 0
    elif shape < 0.65:
        n = rng.randint(1, 4 * LINE)
    else:
        n = rng.randint(1, min(size, 64 * 1024))
    offset = rng.randint(0, size - max(n, 1))
    if n and rng.random() < 0.25:
        # end exactly on a line boundary (or start on one)
        end = min(size, -(-(offset + n) // LINE) * LINE)
        if end % LINE == 0 and end - n >= 0:
            offset = end - n
    return offset, n


def _build(model_cls):
    space = AddressSpace(rank=0)
    allocs = [space.alloc(size, fill=i + 1) for i, size in enumerate(SIZES)]
    return model_cls(space, LINE), allocs


@pytest.mark.parametrize("model_cls, ref_cls", [
    (CoherentCache, RefCoherent),
    (WriteThroughNonCoherentCache, RefWriteThrough),
])
def test_random_sequences_match_the_per_line_reference(model_cls, ref_cls):
    stale_reads = 0
    for seq in range(200):
        rng = random.Random(seq)
        model, allocs = _build(model_cls)
        ref, ref_allocs = _build(ref_cls)
        for step in range(60):
            which = rng.randrange(len(SIZES))
            a, ra = allocs[which], ref_allocs[which]
            offset, n = _random_span(rng, SIZES[which])
            op = rng.choices(
                ("load", "store", "remote_write", "invalidate_range", "fence"),
                weights=(35, 20, 25, 12, 8))[0]
            where = f"seq {seq} step {step}: {op}({which}, {offset}, {n})"
            if op == "load":
                got, want = model.load(a, offset, n), ref.load(ra, offset, n)
                assert np.array_equal(got, want), where
                stale_reads += not np.array_equal(
                    got, model.space.read(a, offset, n))
            elif op in ("store", "remote_write"):
                data = np.frombuffer(rng.randbytes(n), dtype=np.uint8)
                getattr(model, op)(a, offset, data)
                getattr(ref, op)(ra, offset, data.copy())
            elif op == "invalidate_range":
                model.invalidate_range(a, offset, n)
                ref.invalidate_range(ra, offset, n)
            else:
                model.fence()
                ref.fence()
            assert (model.hits, model.misses, model.invalidations) == \
                (ref.hits, ref.misses, ref.invalidations), where
        for a, ra in zip(allocs, ref_allocs):
            assert np.array_equal(model.space.buffer(a), ref.space.buffer(ra))
    # The sequences really exercise the SX behaviour (and only there).
    assert (stale_reads > 0) == (model_cls is WriteThroughNonCoherentCache)


@pytest.mark.parametrize("model_cls", [CoherentCache,
                                       WriteThroughNonCoherentCache])
def test_invalidating_an_uncached_allocation_costs_the_same_at_any_size(
        model_cls):
    """65 536 lines against 1: the per-line loops made this ratio tens of
    thousands; with nothing cached it must not depend on the span."""
    space = AddressSpace(rank=0)
    cache = model_cls(space, LINE)
    big = space.alloc(4 * 1024 * 1024)
    other = space.alloc(4096)
    cache.load(other, 0, 4096)   # lines cached, but of another allocation

    def best(n):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(200):
                cache.invalidate_range(big, 0, n)
            times.append(time.perf_counter() - t0)
        return min(times)

    small, large = best(64), best(4 * 1024 * 1024)
    assert large < 20 * small, (small, large)
    assert cache.invalidations == 0
