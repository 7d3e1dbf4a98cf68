"""Reachability in a small directed graph, memoized per source.

The consistency checkers ask "is there a path from ``a`` to ``b``?" of
graphs given as plain adjacency dicts ``{node: [successor, ...]}``:
program order plus reads-from (:func:`~repro.consistency.check_causal`,
which may hold cycles) and a location's write pomset
(:class:`~repro.consistency.LocationPomset`).  The causal checker asks
it from writes only, so a search per source asked beats closing the
whole graph; a search that reaches a source already answered takes
that answer instead of walking on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Mapping

__all__ = ["Reachability"]


class Reachability:
    """Who reaches whom over ``succ`` (``{node: [successors]}``).

    ``succ`` is read, never copied: build a new instance after the
    graph changes.
    """

    def __init__(self, succ: Mapping[Hashable, Iterable[Hashable]]) -> None:
        self._succ = succ
        self._memo: Dict[Hashable, FrozenSet[Hashable]] = {}

    def descendants(self, node: Hashable) -> FrozenSet[Hashable]:
        """Every node at the end of a path of one or more edges from
        ``node`` (``node`` itself only if it lies on a cycle)."""
        found = self._memo.get(node)
        if found is None:
            memo, succ = self._memo, self._succ
            seen = set()
            stack = [node]
            while stack:
                for nxt in succ.get(stack.pop(), ()):
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    done = memo.get(nxt)
                    if done is None:
                        stack.append(nxt)
                    else:  # everything past nxt is known: no need to walk it
                        seen |= done
            found = memo[node] = frozenset(seen)
        return found
