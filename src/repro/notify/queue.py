"""Producer/consumer queue over notified RMA (DESIGN §15.4).

A :class:`NotifyQueue` is a single-producer / single-consumer ring
living in the *consumer's* window slice.  Data flows one way, credits
flow the other, and both directions are notified puts:

- the producer writes a slot and notifies ``MATCH_DATA`` — the
  consumer's ``wait_notify`` returning implies the payload is applied,
  so :meth:`pop` never reads a half-written slot;
- the consumer frees a slot and notifies ``MATCH_CREDIT`` into the
  producer's slice — the producer blocks in :meth:`push` only when the
  ring is full, giving bounded-memory flow control with zero remote
  polling (the UNR pipeline pattern).

Slot indices are purely local state (SPSC: each side owns its own
cursor), so the only traffic is one notified put per push and one
1-byte notified put per pop.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datatypes import BYTE
from repro.rma.target_mem import RmaError, TargetMem

__all__ = ["NotifyQueue"]

MATCH_DATA = 32
MATCH_CREDIT = 33


class NotifyQueue:
    """Bounded SPSC queue between ``producer`` and ``consumer`` ranks.

    Collective construction (every comm member participates in the
    window; only the two endpoints touch it afterwards)::

        q = yield from NotifyQueue.create(ctx, producer=0, consumer=1,
                                          capacity=8, slot_bytes=64)
        if ctx.rank == 0:
            yield from q.push(payload)          # np.uint8[slot_bytes]
        if ctx.rank == 1:
            data = yield from q.pop()

    :meth:`push` watches the consumer and :meth:`pop` watches the
    producer: if the peer dies mid-stream, the blocked side gets a
    structured :class:`~repro.rma.target_mem.RmaError` instead of
    hanging.  Waits are recorded into ``notify.queue.push_wait_us`` /
    ``notify.queue.pop_wait_us`` histograms.
    """

    def __init__(self, ctx, alloc, tmems: List[TargetMem], producer: int,
                 consumer: int, capacity: int, slot_bytes: int,
                 name: str = "spsc") -> None:
        if producer == consumer:
            raise ValueError("producer and consumer must differ")
        self._ctx = ctx
        self._alloc = alloc
        self._tmems = tmems
        self.producer = producer
        self.consumer = consumer
        self.capacity = capacity
        self.slot_bytes = slot_bytes
        self._name = name
        self._cursor = 0              # producer: next slot; consumer: next read
        self._credits = capacity      # producer-side only
        self._scratch = ctx.mem.space.alloc(max(slot_bytes, 1))
        self._credit_scratch = ctx.mem.space.alloc(1)
        ctx.mem.store(self._credit_scratch, 0, np.ones(1, dtype=np.uint8))
        # Metric handles per side, looked up on first use (see _handles).
        self._push_metrics = None
        self._pop_metrics = None

    @classmethod
    def create(cls, ctx, producer: int, consumer: int, capacity: int = 8,
               slot_bytes: int = 64, comm=None, name: str = "spsc"):
        """Collectively build the ring window (``yield from``)."""
        comm = comm if comm is not None else ctx.comm
        nbytes = max(1, capacity * slot_bytes)
        alloc, tmems = yield from ctx.rma.expose_collective(nbytes, comm=comm)
        yield from comm.barrier()
        return cls(ctx, alloc, tmems, producer, consumer, capacity,
                   slot_bytes, name=name)

    def _metrics(self):
        world = getattr(self._ctx, "world", None)
        return getattr(world, "metrics", None)

    def _handles(self, count: str, wait: str):
        """The ``notify.queue.<count>`` counter and the
        ``notify.queue.<wait>`` histogram, or ``()`` in a world without
        metrics."""
        m = self._metrics()
        if m is None:
            return ()
        return (m.counter("notify.queue." + count, queue=self._name),
                m.histogram("notify.queue." + wait, queue=self._name))

    def push(self, data: np.ndarray):
        """Producer: enqueue one slot (``yield from``); blocks while
        the ring is full.  ``data`` must be ``slot_bytes`` uint8."""
        ctx = self._ctx
        if ctx.rank != self.producer:
            raise RmaError(f"push from rank {ctx.rank}, producer is "
                           f"{self.producer}", op="queue.push")
        if len(data) != self.slot_bytes:
            raise RmaError(f"push payload must be {self.slot_bytes} bytes, "
                           f"got {len(data)}", op="queue.push")
        t0 = ctx.sim.now
        if self._credits == 0:
            yield from ctx.rma.wait_notify(
                self._tmems[self.producer], MATCH_CREDIT,
                watch=[self.consumer],
            )
            self._credits += 1
        self._credits -= 1
        slot = self._cursor % self.capacity
        self._cursor += 1
        ctx.mem.store(self._scratch, 0, np.asarray(data, dtype=np.uint8))
        yield from ctx.rma.put(
            self._scratch, 0, self.slot_bytes, BYTE,
            self._tmems[self.consumer], slot * self.slot_bytes,
            self.slot_bytes, BYTE,
            notify=MATCH_DATA,
        )
        handles = self._push_metrics
        if handles is None:
            handles = self._push_metrics = self._handles(
                "pushes", "push_wait_us")
        if handles:
            handles[0].inc()
            handles[1].observe(ctx.sim.now - t0)

    def pop(self):
        """Consumer: dequeue one slot (``yield from``); returns the
        ``slot_bytes`` payload as a fresh uint8 array."""
        ctx = self._ctx
        if ctx.rank != self.consumer:
            raise RmaError(f"pop from rank {ctx.rank}, consumer is "
                           f"{self.consumer}", op="queue.pop")
        t0 = ctx.sim.now
        yield from ctx.rma.wait_notify(
            self._tmems[self.consumer], MATCH_DATA,
            watch=[self.producer],
        )
        # The notification implies the slot payload is applied; fence
        # the local cache before loading it (runner protocol).
        ctx.rma.engine.materialize_inbound()
        ctx.mem.fence()
        slot = self._cursor % self.capacity
        self._cursor += 1
        data = np.array(
            ctx.mem.load(self._alloc, slot * self.slot_bytes,
                         self.slot_bytes),
            dtype=np.uint8,
        )
        # Free the slot: 1-byte credit notify back to the producer.
        yield from ctx.rma.put(
            self._credit_scratch, 0, 1, BYTE,
            self._tmems[self.producer], 0, 1, BYTE,
            notify=MATCH_CREDIT,
        )
        handles = self._pop_metrics
        if handles is None:
            handles = self._pop_metrics = self._handles("pops", "pop_wait_us")
        if handles:
            handles[0].inc()
            handles[1].observe(ctx.sim.now - t0)
        return data
