"""The checkers' reachability against a brute-force closure.

``check_causal`` and ``LocationPomset`` answer "is there a path from a
to b" by a memoized search per source.  Here seeded random small
histories (reads-from cycles included) and pomsets are judged again
from a Floyd–Warshall closure of the same edges, and both answers must
agree.
"""

import random

from repro.consistency import History, LocationPomset, check_causal


def closure(nodes, edges):
    """Floyd–Warshall: ``reach[a][b]`` iff a path of one or more edges
    leads from ``a`` to ``b``."""
    reach = {a: {b: False for b in nodes} for a in nodes}
    for a, b in edges:
        reach[a][b] = True
    for k in nodes:
        for i in nodes:
            if reach[i][k]:
                for j in nodes:
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def random_history(rng):
    """2–3 processes, 2 locations, 4–11 ops; unique write values, and
    each read returns the initial value 0 or any write to its location,
    earlier or later (so reads-from may close a cycle)."""
    n_proc = rng.randint(2, 3)
    shape = [(rng.randrange(n_proc), rng.choice("wr"), rng.choice("xy"))
             for _ in range(rng.randint(4, 11))]
    values = {}
    for i, (_, kind, loc) in enumerate(shape):
        if kind == "w":
            values.setdefault(loc, []).append(i + 1)
    h = History()
    for i, (proc, kind, loc) in enumerate(shape):
        if kind == "w":
            h.write(proc, loc, i + 1)
        else:
            h.read(proc, loc, rng.choice([0] + values.get(loc, [])))
    return h


def brute_force_causal(h):
    """The op tuples ``check_causal`` must report, from the closure."""
    ops = h.ops
    edges = []
    for proc in h.processes():
        mine = h.by_process(proc)
        edges += [(a.op_id, b.op_id) for a, b in zip(mine, mine[1:])]
    writer = {}
    for op in ops:
        if op.kind == "read":
            writer[op.op_id] = h.writer_of(op)
            if writer[op.op_id] is not None:
                edges.append((writer[op.op_id].op_id, op.op_id))
    reach = closure([op.op_id for op in ops], edges)
    found = []
    for op in ops:
        if op.kind != "read":
            continue
        w = writer[op.op_id]
        writes = h.writes_to(op.location)
        if w is None:
            found += [(o, op) for o in writes if reach[o.op_id][op.op_id]][:1]
            continue
        found += [(w, o, op) for o in writes
                  if o.op_id != w.op_id and reach[w.op_id][o.op_id]
                  and reach[o.op_id][op.op_id]]
    has_cycle = any(reach[n][n] for n in reach)
    return found, has_cycle


def test_check_causal_matches_closure():
    rng = random.Random(20091)
    cycles = flagged = 0
    for _ in range(400):
        h = random_history(rng)
        expected, has_cycle = brute_force_causal(h)
        got = check_causal(h)
        assert [v.model for v in got] == ["causal"] * len(got)
        assert [v.ops for v in got] == expected
        cycles += has_cycle
        flagged += bool(expected)
    # The draw must exercise both cycles and violations.
    assert cycles > 20 and flagged > 20


class PomsetModel:
    """The same pomset as plain lists, judged from the closure."""

    def __init__(self):
        self.edges = []
        self.values = {0: "init"}
        self.last = {}
        self.known = {}

    def write(self, proc, value, wid):
        self.values[wid] = value
        self.edges.append((0, wid))
        if proc in self.last:
            self.edges.append((self.last[proc], wid))
        self.last[proc] = wid

    def add_known(self, proc, wid):
        self.known.setdefault(proc, []).append(wid)

    def legal(self, proc):
        nodes = sorted(self.values)
        reach = closure(nodes, self.edges)
        known = set(self.known.get(proc, []))
        if proc in self.last:
            known.add(self.last[proc])
        dominated = {w for w in nodes for w2 in nodes
                     if reach[w][w2]
                     and any(w2 == k or reach[w2][k] for k in known)}
        return [self.values[w] for w in nodes if w not in dominated]


def test_legal_read_values_match_closure():
    rng = random.Random(35)
    narrowed = 0
    for _ in range(60):
        pom, model = LocationPomset("x", initial="init"), PomsetModel()
        for step in range(rng.randint(3, 14)):
            proc = rng.randrange(4)
            action = rng.random()
            if action < 0.5:
                value = f"v{step}"
                model.write(proc, value, pom.write(proc, value))
            elif action < 0.7:
                other = rng.randrange(4)
                pom.synchronize(before_process=other, after_process=proc)
                if other in model.last:
                    model.add_known(proc, model.last[other])
            elif action < 0.8 and len(model.values) > 1:
                wid = rng.randrange(1, len(model.values))
                pom.observe(proc, wid)
                model.add_known(proc, wid)
            # Query between steps too: answers must follow every write.
            reader = rng.randrange(4)
            expected = model.legal(reader)
            assert pom.legal_read_values(reader) == expected
            narrowed += len(expected) < len(model.values)
    assert narrowed > 50
