"""Consistency checkers over histories.

Each checker returns a (possibly empty) list of :class:`Violation`; an
empty list means the history is admissible under that model.  The models
form the paper's §III-A ladder:

read/write ("ordering")  <  causal  <  sequential

so a history admissible under a stronger model is admissible under the
weaker ones (property-tested in the suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Set, Tuple

from repro.consistency.history import History, MemOp
from repro.consistency.reach import Reachability

__all__ = [
    "Violation",
    "Skipped",
    "check_read_your_writes",
    "check_causal",
    "check_sequential",
]


@dataclass(frozen=True)
class Violation:
    """One detected consistency violation."""

    model: str
    message: str
    ops: Tuple[MemOp, ...]

    def __str__(self) -> str:
        return f"[{self.model}] {self.message}"


@dataclass(frozen=True)
class Skipped:
    """Explicit "this check did not run" marker.

    :func:`check_sequential` returns it for histories larger than its
    backtracking cap.  It is falsy and iterates like an empty violation
    list, so ``if check_sequential(h):`` and ``for v in ...`` keep
    working — but callers that care (e.g. ``repro.check``) can
    distinguish *verified clean* from *not verified* instead of
    treating an oversized history as vacuously passing.
    """

    model: str
    reason: str

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def __str__(self) -> str:
        return f"[{self.model}] skipped: {self.reason}"


# ----------------------------------------------------------------------
# Read-your-writes — the paper's "ordering property"
# ----------------------------------------------------------------------
def check_read_your_writes(history: History) -> List[Violation]:
    """A read must see the process's own latest prior write to that
    location, *provided no other process wrote the location* (the
    paper's single-source guarantee)."""
    violations = []
    for loc in history.locations():
        writers = {w.process for w in history.writes_to(loc)}
        for proc in history.processes():
            if writers - {proc}:
                continue  # other sources altered it: guarantee waived
            last_write: Optional[MemOp] = None
            for op in history.by_process(proc):
                if op.location != loc:
                    continue
                if op.kind == "write":
                    last_write = op
                elif last_write is not None and op.value != last_write.value:
                    violations.append(
                        Violation(
                            "read-your-writes",
                            f"process {proc} wrote {last_write.value!r} to "
                            f"{loc!r} but later read {op.value!r}",
                            (last_write, op),
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# Causal consistency (Hutto & Ahamad)
# ----------------------------------------------------------------------
def _causal_graph(history: History) -> Dict[int, List[int]]:
    """Program-order + reads-from edges, ``{op_id: [successor op_ids]}``."""
    succ: Dict[int, List[int]] = {op.op_id: [] for op in history.ops}
    for proc in history.processes():
        ops = history.by_process(proc)
        for a, b in zip(ops, ops[1:]):
            succ[a.op_id].append(b.op_id)
    for op in history.ops:
        if op.kind == "read":
            w = history.writer_of(op)
            if w is not None:
                succ[w.op_id].append(op.op_id)
    return succ


def check_causal(history: History) -> List[Violation]:
    """No read may return a write that is causally overwritten: if
    ``w -> w' -> r`` causally, with ``w``/``w'`` to the read's location,
    then ``r`` must not return ``w``."""
    reach = Reachability(_causal_graph(history))
    violations = []
    for op in history.ops:
        if op.kind != "read":
            continue
        w = history.writer_of(op)
        if w is None:
            # Read of the initial value: the initial (virtual) write
            # causally precedes everything, so any write to this
            # location that causally precedes the read overwrites it.
            for other in history.writes_to(op.location):
                if op.op_id in reach.descendants(other.op_id):
                    violations.append(
                        Violation(
                            "causal",
                            f"read by {op.process} of {op.location!r} "
                            f"returned the initial value, but the write of "
                            f"{other.value!r} causally precedes it",
                            (other, op),
                        )
                    )
                    break
            continue
        for other in history.writes_to(op.location):
            if other.op_id == w.op_id:
                continue
            if (
                other.op_id in reach.descendants(w.op_id)
                and op.op_id in reach.descendants(other.op_id)
            ):
                violations.append(
                    Violation(
                        "causal",
                        f"read by {op.process} of {op.location!r} returned "
                        f"{w.value!r}, but write of {other.value!r} is "
                        "causally between them",
                        (w, other, op),
                    )
                )
    return violations


# ----------------------------------------------------------------------
# Sequential consistency (Lamport)
# ----------------------------------------------------------------------
def check_sequential(
    history: History, max_ops: int = 14
) -> "List[Violation] | Skipped":
    """Search for a legal serialization: one total order of all ops
    respecting program order in which every read returns the latest
    preceding write (or the initial value ``None``-style: here, a read
    with no matching write must come before any write to its location).

    Backtracking search that remembers the states it has seen fail (a
    state is each process's position and each location's last write),
    so no dead end is explored twice.  Still exponential in the worst
    case — the states are exponentially many — so histories
    larger than ``max_ops`` return an explicit (falsy, empty-iterable)
    :class:`Skipped` marker instead of running: the caller learns the
    history was *not verified* rather than mistaking the cap for a
    clean pass.
    """
    ops = history.ops
    if len(ops) > max_ops:
        return Skipped(
            "sequential",
            f"history has {len(ops)} ops; the backtracking search is "
            f"capped at {max_ops}",
        )

    per_proc = {p: history.by_process(p) for p in history.processes()}
    # precompute reads-from for legality checking
    rf = {}
    for op in ops:
        if op.kind == "read":
            w = history.writer_of(op)
            rf[op.op_id] = w.op_id if w is not None else None

    # a state's verdict depends on nothing else: one that failed once
    # fails again
    failed: Set[tuple] = set()

    def backtrack(positions: Dict[int, int], last_write: Dict) -> bool:
        if all(positions[p] == len(per_proc[p]) for p in per_proc):
            return True
        key = (tuple(positions.values()),
               frozenset((loc, w) for loc, w in last_write.items()
                         if w is not None))
        if key in failed:
            return False
        for p in per_proc:
            i = positions[p]
            if i >= len(per_proc[p]):
                continue
            op = per_proc[p][i]
            if op.kind == "write":
                prev = last_write.get(op.location)
                last_write[op.location] = op.op_id
                positions[p] = i + 1
                if backtrack(positions, last_write):
                    return True
                positions[p] = i
                last_write[op.location] = prev
            else:
                if last_write.get(op.location) == rf[op.op_id]:
                    positions[p] = i + 1
                    if backtrack(positions, last_write):
                        return True
                    positions[p] = i
        failed.add(key)
        return False

    ok = backtrack({p: 0 for p in per_proc}, {})
    if ok:
        return []
    return [
        Violation(
            "sequential",
            "no serialization of the history respects program order and "
            "reads-from",
            tuple(ops),
        )
    ]
