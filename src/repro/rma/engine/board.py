"""The target-side notification board (DESIGN §15).

A notified put/get/accumulate carries a *match value*; once its payload
has been applied at the target, one notification is counted on the
target's board under ``(window mem_id, match)``.  The window owner
consumes notifications with :meth:`NotifyBoard.wait_notify` /
:meth:`~NotifyBoard.test_notify`; waiters are served strictly FIFO per
slot, and a waiter whose watched producer dies is released with a
structured :class:`~repro.rma.target_mem.RmaError` value instead of
hanging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.rma.target_mem import RmaError, TargetMem
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.rma.engine.core import RmaEngine

__all__ = ["NotifyBoard", "check_notify_attr", "check_notify_count"]


def _check_match(match, **where) -> None:
    if not isinstance(match, int) or isinstance(match, bool) or match < 0:
        raise RmaError(
            f"notify match value must be an int >= 0, got {match!r}", **where
        )


def check_notify_count(count, call: str, rank: int) -> None:
    """``count`` of a ``wait_notify`` / ``test_notify`` call: consuming
    fewer than one notification would mint them (the consumed counter
    runs backwards), a non-integer can never be met."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise RmaError(
            f"notify count must be an int >= 1, got {count!r} "
            f"({call} on rank {rank})"
        )


def check_notify_attr(attrs, kind: str, nbytes: int, src: int) -> None:
    """Eligibility rules for a notify-carrying op (DESIGN §15).

    A notification only means something once a payload has been
    applied, so a zero-byte op cannot carry one; rmw/rmi decline at
    their own argument checks.  The match value must be a non-negative
    integer (it keys the target's board alongside the window id).
    """
    _check_match(attrs.notify, op=kind, src=src, attrs=attrs)
    if nbytes == 0:
        raise RmaError(
            f"a zero-byte {kind} cannot carry a notification "
            "(nothing is ever applied at the target; use a 1-byte "
            "payload for a pure signal)",
            op=kind, src=src, attrs=attrs,
        )


class _Waiter:
    """One blocked ``wait_notify`` call."""

    __slots__ = ("key", "need", "ev", "watch")

    def __init__(self, key: Tuple[int, int], need: int, ev: Event,
                 watch: frozenset) -> None:
        self.key = key
        self.need = need
        self.ev = ev
        self.watch = watch


class NotifyBoard:
    """One rank's notification board: per-(mem_id, match) delivered and
    consumed counters, FIFO waiters, and the delivered-op-key set that
    makes delivery idempotent.  The reliable transport's receiver-side
    dedup already guarantees the engine never sees a retransmitted op
    twice, so that set is defense in depth (and what keeps the planted
    ``notify_before_apply`` mutation from double-delivering at apply
    time)."""

    def __init__(self, engine: "RmaEngine") -> None:
        self._eng = engine
        self._counts: Dict[Tuple[int, int], int] = {}
        self._consumed: Dict[Tuple[int, int], int] = {}
        self._seen: set = set()
        self._waiters: List[_Waiter] = []
        #: Simulated notify latencies (target-side apply/delivery time
        #: minus origin issue time), harvested by
        #: :meth:`~repro.runtime.World.collect_metrics` into histograms.
        #: Only ever appended for notify-carrying ops, so notify-free
        #: runs pay nothing.
        self.latencies: List[float] = []
        self._published = 0

    def reset(self) -> None:
        """Forget everything (this rank restarted; any waiter still
        parked belongs to the killed program)."""
        self._counts.clear()
        self._consumed.clear()
        self._seen.clear()
        self._waiters.clear()

    def unpublished_latencies(self) -> List[float]:
        """Latencies recorded since the last call (so repeated metric
        collection observes each one once)."""
        fresh = self.latencies[self._published:]
        self._published = len(self.latencies)
        return fresh

    # -- delivery (called by the target engine at apply time) ------------
    def deliver(self, src: int, mem_id: int, match: int,
                op_key=None, issued=None) -> None:
        """Count one notification and wake FIFO waiters.

        ``op_key`` (when the op has one) makes delivery idempotent: a
        second delivery attempt for the same op is a no-op.  ``issued``
        is the origin-side issue timestamp carried in the descriptor;
        the difference to now is the end-to-end notify latency.
        """
        if op_key is not None:
            if op_key in self._seen:
                return
            self._seen.add(op_key)
        eng = self._eng
        key = (mem_id, match)
        self._counts[key] = self._counts.get(key, 0) + 1
        eng.stats["notifies"] += 1
        if issued is not None:
            self.latencies.append(eng.sim.now - issued)
        if eng.tracer.enabled:
            eng.tracer.record(eng.sim.now, "rma", "notify", rank=eng.rank,
                              src=src, match=match, op=op_key)
        self._wake(key)

    def _wake(self, key: Tuple[int, int]) -> None:
        """Satisfy waiters on ``key`` strictly in arrival (FIFO) order;
        a waiter needing more notifications than are available blocks
        later waiters on the same slot (no overtaking — that is what
        makes wakeup order deterministic and fair)."""
        waiters = self._waiters
        i = 0
        while i < len(waiters):
            w = waiters[i]
            if w.key != key:
                i += 1
                continue
            if self._available(key) < w.need:
                break
            self._consumed[key] = self._consumed.get(key, 0) + w.need
            waiters.pop(i)
            if not w.ev.triggered:
                w.ev.succeed(None)

    def fail_waiters(self, rank: int, failure=None) -> None:
        """Sweep waiters watching ``rank`` into structured errors.

        Called when ``rank`` dies (:meth:`World._kill_rank`) or when the
        reliable transport declares the path to it broken: any
        ``wait_notify`` whose watch set names the lost producer succeeds
        with an :class:`RmaError` value instead of hanging forever.
        """
        for w in [w for w in self._waiters if rank in w.watch]:
            self._waiters.remove(w)
            if not w.ev.triggered:
                w.ev.succeed(self._eng._error(rank, "wait_notify",
                                              failure=failure))

    # -- the window owner's calls -----------------------------------------
    def _slot_key(self, tmem: TargetMem, match: int) -> Tuple[int, int]:
        """Validate a local wait/test/count/notify_all call and return
        the board key.  Notifications are *target-side* state: only the
        window owner may wait on its own board.  Every such call reads
        the board, so it is an observation point like any other read of
        target state: train elements that have analytically arrived
        apply — and surface their notifications — first.  (At the
        bit-identical instant of an arrival the query therefore sees
        the notification, whichever was scheduled first.)"""
        eng = self._eng
        eng.materialize_inbound()
        if tmem.rank != eng.rank:
            raise RmaError(
                f"rank {eng.rank} cannot wait on rank {tmem.rank}'s "
                "notification board (notifications surface at the target)"
            )
        if tmem.mem_id not in eng._exposures:
            raise RmaError(
                f"rank {eng.rank}: notification wait on unknown/"
                f"withdrawn target_mem id {tmem.mem_id}"
            )
        _check_match(match)
        return (tmem.mem_id, match)

    def _available(self, key: Tuple[int, int]) -> int:
        return self._counts.get(key, 0) - self._consumed.get(key, 0)

    def _try_consume(self, key: Tuple[int, int], count: int) -> bool:
        """Consume ``count`` notifications if available *and* no earlier
        waiter is parked on the slot (FIFO, same as delivery)."""
        if (self._available(key) < count
                or any(w.key == key for w in self._waiters)):
            return False
        self._consumed[key] = self._consumed.get(key, 0) + count
        return True

    def notify_count(self, tmem: TargetMem, match: int) -> int:
        """Unconsumed notifications currently on the board slot."""
        return self._available(self._slot_key(tmem, match))

    def test_notify(self, tmem: TargetMem, match: int,
                    count: int = 1) -> bool:
        """Consume ``count`` notifications if that is possible right
        now; returns whether it consumed."""
        check_notify_count(count, "test_notify", self._eng.rank)
        return self._try_consume(self._slot_key(tmem, match), count)

    def wait_notify(self, tmem: TargetMem, match: int, count: int = 1,
                    watch=()):
        """Generator: block until ``count`` notifications on
        ``(tmem, match)`` can be consumed.  Returns ``None`` on success
        or the :class:`RmaError` describing why the wait can never be
        satisfied (a watched producer rank died or its path broke) —
        failure surfaces as a structured value, never a hang.
        """
        eng = self._eng
        check_notify_count(count, "wait_notify", eng.rank)
        yield eng.timings.call_overhead
        key = self._slot_key(tmem, match)
        eng.stats["notify_waits"] += 1
        if self._try_consume(key, count):
            return None
        watch = frozenset(watch)
        for r in watch:
            if eng.nic.fabric.is_dead(r) or r in eng._path_failures:
                return eng._error(r, "wait_notify")
        ev = eng.sim.event()
        self._waiters.append(_Waiter(key, count, ev, watch))
        return (yield ev)

    def notify_all(self, tmem: TargetMem, match: int) -> int:
        """Release every waiter currently parked on ``(tmem, match)``
        without consuming board counts — a local broadcast wakeup (used
        e.g. to shut down consumers).  Returns how many were released."""
        key = self._slot_key(tmem, match)
        released = [w for w in self._waiters if w.key == key]
        for w in released:
            self._waiters.remove(w)
            if not w.ev.triggered:
                w.ev.succeed(None)
        return len(released)

    def delivered(self) -> Dict[Tuple[int, int], int]:
        """Total notifications delivered per (mem_id, match) — the
        conformance runner's exactly-once observable."""
        return dict(self._counts)
