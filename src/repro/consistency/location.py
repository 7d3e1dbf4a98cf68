"""Location consistency (Gao & Sarkar — the paper's [20]).

LC drops the cache-coherence assumption: "the state of a memory location
is modeled as a partially ordered multiset of write and synchronization
operations".  A read may return the value of any write in the *frontier*
of the pomset visible to the reading processor — any write not dominated
by another visible write.

This is exactly the model of a non-cache-coherent machine like the NEC
SX (paper §III-B2): without synchronization, a processor may legally
observe a stale value, and the RMA "ordering" attribute narrows the
frontier back to a single write.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Set, Tuple

from repro.consistency.reach import Reachability

__all__ = ["LocationPomset"]


class LocationPomset:
    """The partially ordered multiset of writes to one location."""

    def __init__(self, location: Hashable = None, initial: Any = 0) -> None:
        self.location = location
        self.initial = initial
        # write id -> the writes ordered right after it; 0 is the
        # initial write.
        self._succ: Dict[int, List[int]] = {0: []}
        self._reach = Reachability(self._succ)
        self._ids = itertools.count(1)
        self._last_by_proc: Dict[int, int] = {}
        self._values: Dict[int, Any] = {0: initial}
        self._sync_edges: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def write(self, process: int, value: Any) -> int:
        """Add a write by ``process``; ordered after that process's own
        previous operation on this location (program order).  Returns
        the write id."""
        wid = next(self._ids)
        self._values[wid] = value
        self._succ[wid] = []
        self._succ[0].append(wid)
        prev = self._last_by_proc.get(process)
        if prev is not None:
            self._succ[prev].append(wid)
        self._last_by_proc[process] = wid
        self._reach = Reachability(self._succ)
        return wid

    def synchronize(self, before_process: int, after_process: int) -> None:
        """A synchronization edge: everything ``before_process`` has done
        to this location becomes visible to ``after_process`` (release/
        acquire pairs, fences, or the RMA ordering attribute)."""
        before = self._last_by_proc.get(before_process)
        if before is None:
            return
        self._sync_edges.setdefault(after_process, []).append(before)

    def _visible_frontier(self, process: int) -> Set[int]:
        """Writes not dominated by another write that ``process`` is
        ordered after."""
        # The reader's knowledge: its own last op + any sync predecessors
        known: Set[int] = set()
        own = self._last_by_proc.get(process)
        if own is not None:
            known.add(own)
        for pred in self._sync_edges.get(process, []):
            known.add(pred)
        # A write w is ruled out if some w' in the pomset satisfies
        # w < w' and w' <= some known op (the reader provably saw w
        # superseded).
        all_writes = set(self._succ)
        dominated: Set[int] = set()
        reach = self._reach.descendants
        for w in all_writes:
            for w2 in reach(w):
                # w < w2; is w2 <= something known?
                if any(
                    w2 == k or k in reach(w2) for k in known
                ):
                    dominated.add(w)
                    break
        return all_writes - dominated

    def legal_read_values(self, process: int) -> List[Any]:
        """Every value a read by ``process`` may legally return."""
        frontier = self._visible_frontier(process)
        # preserve deterministic ordering by write id
        return [self._values[w] for w in sorted(frontier)]

    def is_legal_read(self, process: int, value: Any) -> bool:
        """Whether ``value`` is an admissible result for a read."""
        return value in self.legal_read_values(process)

    def observe(self, process: int, write_id: int) -> None:
        """Record that ``process`` observed ``write_id`` (e.g. a read
        returned it): future reads by this process cannot go back past
        it."""
        self._sync_edges.setdefault(process, []).append(write_id)
