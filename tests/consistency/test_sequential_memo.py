"""``check_sequential`` remembers the search states that failed.

Whether the backtracking search succeeds from a state depends only on
the state (each process's position, each location's last write), so the
memo may change how long the search takes but never its verdict.  The
un-memoized search is kept here as the reference, and a counting guard
bounds the calls on a history built to make that reference blow up.
"""

import random
import sys

from repro.consistency import History, Skipped, check_sequential


def reference_sequential(history: History) -> bool:
    """The search without the memo: whether a legal serialization
    exists (program order kept, every read returns the latest preceding
    write, a read of the initial value precedes every write to its
    location)."""
    per_proc = {p: history.by_process(p) for p in history.processes()}
    rf = {}
    for op in history.ops:
        if op.kind == "read":
            w = history.writer_of(op)
            rf[op.op_id] = w.op_id if w is not None else None

    def backtrack(positions, last_write):
        if all(positions[p] == len(per_proc[p]) for p in per_proc):
            return True
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
            elif last_write.get(op.location) == rf[op.op_id]:
                positions[p] = i + 1
                if backtrack(positions, last_write):
                    return True
                positions[p] = i
        return False

    return backtrack({p: 0 for p in per_proc}, {})


def random_history(rng: random.Random) -> History:
    """2-4 processes, at most 14 ops, 1-3 locations, unique write
    values.  Half are generated from one random interleaving (each read
    returns what that order shows it, so the history is sequentially
    consistent); the other half read a random written or initial
    value."""
    n_procs = rng.randint(2, 4)
    n_ops = rng.randint(n_procs, 14)
    locations = ["x", "y", "z"][:rng.randint(1, 3)]
    programs = {p: [] for p in range(n_procs)}
    for _ in range(n_ops):
        programs[rng.randrange(n_procs)].append(
            ("write" if rng.random() < 0.5 else "read",
             rng.choice(locations)))
    consistent = rng.random() < 0.5
    h = History()
    memory = {}
    written = {loc: [] for loc in locations}
    value = 0
    cursors = {p: 0 for p in programs}
    while any(cursors[p] < len(programs[p]) for p in programs):
        p = rng.choice([p for p in programs if cursors[p] < len(programs[p])])
        kind, loc = programs[p][cursors[p]]
        cursors[p] += 1
        if kind == "write":
            value += 1
            memory[loc] = value
            written[loc].append(value)
            h.write(p, loc, value)
        elif consistent:
            h.read(p, loc, memory.get(loc, 0))
        else:
            h.read(p, loc, rng.choice([0] + written[loc]))
    return h


def test_verdicts_match_the_unmemoized_search():
    verdicts = {True: 0, False: 0}
    for seed in range(400):
        h = random_history(random.Random(seed))
        result = check_sequential(h)
        assert not isinstance(result, Skipped), seed
        expected = reference_sequential(h)
        assert (result == []) == expected, seed
        verdicts[expected] += 1
    # both verdicts are well represented
    assert min(verdicts.values()) >= 50, verdicts


def _backtrack_calls(history: History):
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "backtrack":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = check_sequential(history)
    finally:
        sys.setprofile(None)
    return result, calls[0]


def test_a_dead_end_is_explored_once():
    """Three processes of independent writes beside one read that no
    serialization can satisfy (a process reads the initial value after
    its own write).  Without the memo the search tries every
    interleaving of the nine writes (~51 000 calls); with it, every
    state once (~350)."""
    h = History()
    h.write(0, "a", 1)
    h.read(0, "a", 0)
    value = 10
    for p in (1, 2, 3):
        for i in range(3):
            value += 1
            h.write(p, (p, i), value)
    result, calls = _backtrack_calls(h)
    assert len(result) == 1 and result[0].model == "sequential"
    assert calls <= 2000, calls
