"""Failure-aware completion: a broken path or a dead target turns every
affected operation into a structured :class:`RmaError` *value* — issue
fails fast, waiters are swept, nothing hangs and nothing raises out of
the event loop (DESIGN §8)."""

from __future__ import annotations

from typing import Optional

from repro.rma.attributes import RmaAttrs
from repro.rma.target_mem import RmaError
from repro.rma.train import OpRecord

__all__ = ["FailureSide"]


class FailureSide:
    """The failure half of :class:`~repro.rma.engine.core.RmaEngine`."""

    def _path_broken(self, dst: int) -> bool:
        """Whether ops to ``dst`` are doomed (fail fast at issue)."""
        if dst in self._broken:
            return True
        transport = self.nic.transport
        if transport is not None and transport.is_broken(dst):
            return True
        return self.nic.fabric.is_dead(dst)

    def _error(self, dst: int, op: str, attrs: Optional[RmaAttrs] = None,
               failure=None) -> RmaError:
        """The structured error for a failed ``op`` to ``dst``; the
        transport's failure report (given, or remembered for the path)
        supplies kind, retry count and time when there is one."""
        if failure is None:
            failure = self._path_failures.get(dst)
        kind = getattr(failure, "kind", None)
        if kind is None:
            kind = ("rank_failed" if self.nic.fabric.is_dead(dst)
                    else "retry_exhausted")
        return RmaError(
            f"rma {op} to rank {dst} failed: "
            f"{failure if failure is not None else 'path broken'}",
            kind=kind, op=op, src=self.rank, target=dst,
            path=(self.rank, dst), attrs=attrs,
            retries=None if failure is None else failure.attempts,
            sim_time=self.sim.now if failure is None else failure.sim_time,
        )

    def _fail_fast(self, op):
        """Refuse ``op`` at issue — before any lock acquisition (a dead
        target would never grant it) and before burning wire time.  A
        write's errored record is still retained on the peer: a put may
        be fire-and-forget, and the sync-reports-everything contract
        means the next completion call must surface this failure
        (otherwise survivors would enter a doomed closing barrier
        believing the epoch was clean)."""
        done = self._finished(op, self._error(op.dst, op.kind, op.attrs))
        if op.is_write:
            self._broken.add(op.dst)
            self._retain(op.dst, done, 0)
            self._tally(op, 0)
        return done

    def _on_path_failure(self, dst: int, failure) -> None:
        """Reliable transport gave up on the path to ``dst``: convert
        every stranded waiter into a structured RmaError *value* (events
        succeed with the error object so AllOf aggregation in pending
        complete()/waitall() calls keeps working — no bare event-loop
        exceptions, no hangs)."""
        self._path_failures[dst] = failure
        self.failures.append(failure)

        def fail(ev, op, attrs=None):
            if ev is not None and not ev.triggered:
                ev.succeed(self._error(dst, op, attrs, failure))

        self._broken.add(dst)
        for rec in (*self._held.get(dst, ()), *self._completing.get(dst, ())):
            if type(rec) is OpRecord:
                fail(rec.ev_remote, rec.kind, rec.attrs)
        for key in [k for k, (d, _ev) in self._sw_ack_waiters.items()
                    if d == dst]:
            fail(self._sw_ack_waiters.pop(key)[1], "ack")
        flushes = self._flush_waiters
        for flush_id in [k for k, waiter in flushes.items()
                         if waiter.target(k) == dst]:
            flushes.pop(flush_id).answered(
                (dst, self._error(dst, "complete", None, failure)))
        for key in [k for k, (d, _kind, _ev) in self._pending_replies.items()
                    if d == dst]:
            _d, kind, ev = self._pending_replies.pop(key)
            fail(ev, kind)
        for key in [k for k, p in self._pending_gets.items()
                    if p.location[0] == dst]:
            self._failed_ops.add(key)
            fail(self._pending_gets.pop(key).ev_done, "get")
        self.board.fail_waiters(dst, failure=failure)
        self.tracer.bump("rma.path_failure")
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "path_failure",
                               rank=self.rank, dst=dst,
                               reason=failure.reason)

    def _peer_tables(self):
        """The engine's tables keyed by peer rank (``RmaEngine.__init__``)."""
        return (self._last_seq, self._order_barrier, self._last_atomic_seq,
                self._last_deferred_seq, self._held, self._completing,
                self._applied_upto, self._applied_extra, self._gated,
                self._flush_requests, self._path_failures)

    def reset_path(self, other: int) -> None:
        """Forget all per-path state shared with ``other`` (restart)."""
        for table in self._peer_tables():
            table.pop(other, None)
        self._broken.discard(other)
        for key in [key for key in self._inbound if key[0] == other]:
            del self._inbound[key]

    def reset_all_paths(self) -> None:
        """Forget every per-path state (this rank restarted)."""
        for table in self._peer_tables():
            table.clear()
        self._broken.clear()
        self._inbound.clear()
        self.board.reset()

    def acknowledge_path_failure(self, dst: int) -> None:
        """Consume a broken path's errored records (ULFM acknowledgment).

        A failed blocking op surfaces its error twice by design: once
        out of its own wait, and again at the next completion call —
        the MPI-style "sync reports everything since the last sync"
        contract.  A recovery layer that has already handled the
        failure calls this to drop the errored records so the *next*
        completion describes only post-recovery traffic.  The path
        itself stays broken: new ops to ``dst`` keep failing fast.
        """
        if dst in self._broken:
            self._held.pop(dst, None)
            self._completing.pop(dst, None)
