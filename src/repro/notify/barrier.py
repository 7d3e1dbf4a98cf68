"""Dissemination barrier over notified RMA (DESIGN §15.4).

The dissemination barrier runs ``ceil(log2(P))`` rounds; in round *k*
rank *r* signals rank ``(r + 2**k) mod P`` and waits for the signal
from ``(r - 2**k) mod P``.  After the last round every rank has
(transitively) heard from every other rank, which is the barrier
property.

Signals are 1-byte notified puts with a per-round match value, and
waits are counting (``wait_notify`` consumes one delivery): signals
are *monotone* — a rank sends its round-*k* signal of generation *n+1*
only after finishing generation *n* entirely — so consuming a
fast peer's next-generation signal early is sound (it carries strictly
more information), and no sense-reversal or generation tagging is
needed.  This is the counting-semaphore construction foMPI uses for
its RMA barriers.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datatypes import BYTE
from repro.rma.target_mem import TargetMem

__all__ = ["DisseminationBarrier"]

#: Round *k* uses match value ``MATCH_ROUND0 + k``; kept away from the
#: lock/queue matches only for trace readability (each object owns its
#: own window, so boards never collide).
MATCH_ROUND0 = 16


class DisseminationBarrier:
    """A reusable P-rank barrier built purely on notified puts.

    Collective construction and use::

        bar = yield from DisseminationBarrier.create(ctx)
        yield from bar.wait()

    Every :meth:`wait` records its duration into the
    ``notify.barrier.duration_us`` histogram and bumps
    ``notify.barrier.generations``; the round count is published as the
    ``notify.barrier.rounds`` gauge at create time.
    """

    def __init__(self, ctx, alloc, tmems: List[TargetMem],
                 name: str = "dissem") -> None:
        self._ctx = ctx
        self._alloc = alloc
        self._tmems = tmems
        self._name = name
        self._size = len(tmems)
        self._rounds = max(1, (self._size - 1).bit_length())
        self._scratch = ctx.mem.space.alloc(1)
        ctx.mem.store(self._scratch, 0, np.ones(1, dtype=np.uint8))
        self.generation = 0
        # (generations counter, duration_us histogram), looked up on the
        # first wait; () in a world without metrics.
        self._wait_metrics = None
        m = self._metrics()
        if m is not None:
            m.gauge("notify.barrier.rounds", barrier=name).set(self._rounds)

    @classmethod
    def create(cls, ctx, comm=None, name: str = "dissem"):
        """Collectively build the signal window (``yield from``)."""
        comm = comm if comm is not None else ctx.comm
        alloc, tmems = yield from ctx.rma.expose_collective(
            max(1, max(1, (comm.size - 1).bit_length())), comm=comm
        )
        yield from comm.barrier()
        return cls(ctx, alloc, tmems, name=name)

    def _metrics(self):
        world = getattr(self._ctx, "world", None)
        return getattr(world, "metrics", None)

    @property
    def rounds(self) -> int:
        """Signal rounds per generation (``ceil(log2(P))``)."""
        return self._rounds

    def wait(self):
        """One barrier generation (``yield from``)."""
        ctx = self._ctx
        me = ctx.rank
        t0 = ctx.sim.now
        if self._size > 1:
            for k in range(self._rounds):
                peer = (me + (1 << k)) % self._size
                yield from ctx.rma.put(
                    self._scratch, 0, 1, BYTE,
                    self._tmems[peer], k, 1, BYTE,
                    notify=MATCH_ROUND0 + k,
                )
                yield from ctx.rma.wait_notify(
                    self._tmems[me], MATCH_ROUND0 + k
                )
        self.generation += 1
        handles = self._wait_metrics
        if handles is None:
            m = self._metrics()
            handles = self._wait_metrics = () if m is None else (
                m.counter("notify.barrier.generations", barrier=self._name),
                m.histogram("notify.barrier.duration_us",
                            barrier=self._name))
        if handles:
            handles[0].inc()
            handles[1].observe(ctx.sim.now - t0)
