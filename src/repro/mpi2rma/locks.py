"""Passive-target window locks (MPI_Win_lock / MPI_Win_unlock).

One :class:`WindowLockManager` per rank arbitrates the locks of every
window whose memory that rank exposes.  Lock traffic is NIC-level
control messages (``Nic.post``: the body runs on the destination's
manager when the message lands), so the target application never calls
anything — faithful to passive-target semantics.

Grant policy: FIFO with reader sharing — a shared request joins current
shared holders only if no exclusive request is queued ahead of it, so
writers cannot starve.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.nic import Nic
    from repro.sim.core import Simulator

__all__ = ["WindowLockManager"]


class _LockState:
    __slots__ = ("holders", "exclusive", "queue")

    def __init__(self) -> None:
        self.holders: Set[int] = set()
        self.exclusive = False
        self.queue: Deque[Tuple[int, bool]] = deque()  # (rank, shared)


class WindowLockManager:
    """Target-side lock tables plus origin-side grant plumbing."""

    def __init__(self, sim: "Simulator", rank: int, nic: "Nic",
                 peers: "Optional[Dict[int, WindowLockManager]]" = None
                 ) -> None:
        self.sim = sim
        self.rank = rank
        self.nic = nic
        #: Every rank's manager by rank (this one enters itself): where
        #: a lock message's body runs.
        self.peers: Dict[int, WindowLockManager] = (
            {} if peers is None else peers)
        self.peers[rank] = self
        self._states: Dict[object, _LockState] = {}
        self._grant_events: Dict[object, object] = {}  # (win_id, target) -> Event

    # -- origin side -----------------------------------------------------
    def request(self, win_id: object, target: int, shared: bool):
        """Acquire the window lock at ``target`` (``yield from``)."""
        key = (win_id, target)
        if key in self._grant_events:
            raise RuntimeError(
                f"rank {self.rank}: window lock for {key} already requested"
            )
        ev = self.sim.event()
        self._grant_events[key] = ev
        self.nic.post(target, "mpi2.lock_req", self.peers[target]._on_lock_req,
                      (self.rank, win_id, shared))
        yield ev
        del self._grant_events[key]

    def release(self, win_id: object, target: int) -> None:
        """Send the unlock (fire-and-forget)."""
        self.nic.post(target, "mpi2.unlock", self.peers[target]._on_unlock,
                      (self.rank, win_id))

    def _on_grant(self, src: int, win_id: object) -> None:
        """``mpi2.lock_grant`` from ``src``: our lock on ``win_id``
        there is held."""
        key = (win_id, src)
        ev = self._grant_events.get(key)
        if ev is None:
            raise RuntimeError(
                f"rank {self.rank}: unexpected window-lock grant {key}"
            )
        ev.succeed()

    # -- target side -----------------------------------------------------
    def _state(self, win_id: object) -> _LockState:
        st = self._states.get(win_id)
        if st is None:
            st = self._states[win_id] = _LockState()
        return st

    def _grant(self, win_id: object, rank: int) -> None:
        self.nic.post(rank, "mpi2.lock_grant", self.peers[rank]._on_grant,
                      (self.rank, win_id))

    def _on_lock_req(self, src: int, win_id: object, shared: bool) -> None:
        """``mpi2.lock_req`` from ``src``: grant now or queue."""
        st = self._state(win_id)
        if self._can_grant(st, shared):
            st.holders.add(src)
            st.exclusive = not shared
            self._grant(win_id, src)
        else:
            st.queue.append((src, shared))

    @staticmethod
    def _can_grant(st: _LockState, shared: bool) -> bool:
        if not st.holders:
            return not st.queue  # empty queue: grant immediately
        if st.exclusive:
            return False
        # shared holders present: more readers may join only if no
        # writer is waiting (no-starvation)
        return shared and not st.queue

    def _on_unlock(self, src: int, win_id: object) -> None:
        """``mpi2.unlock`` from ``src``: release, then grant the next."""
        st = self._state(win_id)
        if src not in st.holders:
            raise RuntimeError(
                f"rank {self.rank}: unlock from {src} which does not "
                f"hold the lock on window {win_id}"
            )
        st.holders.discard(src)
        if st.holders:
            return
        st.exclusive = False
        self._drain_queue(win_id, st)

    def _drain_queue(self, win_id: object, st: _LockState) -> None:
        if not st.queue:
            return
        rank, shared = st.queue.popleft()
        st.holders.add(rank)
        st.exclusive = not shared
        self._grant(win_id, rank)
        if shared:
            # admit the contiguous run of shared requests behind it
            while st.queue and st.queue[0][1]:
                nxt, _ = st.queue.popleft()
                st.holders.add(nxt)
                self._grant(win_id, nxt)
