"""Layer mapping and the ledger's span arithmetic."""

import cProfile

import pytest

from rmabench.ledger import (FILES, LAYERS, Call, Entry, build_ledger,
                             entries_from_profile, layer_of, ledger_metrics,
                             longest_prefix, module_of)


def test_module_of_source_paths():
    assert module_of("/x/src/repro/rma/engine.py") == "rma.engine"
    assert module_of("/x/src/repro/sim/__init__.py") == "sim"
    assert module_of("/x/src/repro/runtime.py") == "runtime"
    assert module_of("/x/rmabench/workloads.py") == "rmabench.workloads"
    assert module_of("/usr/lib/python3.11/heapq.py") is None
    assert module_of("<frozen importlib._bootstrap>") is None


def test_layer_by_longest_module_prefix():
    assert layer_of("rma.engine") == "rma"
    assert layer_of("ga.sharded") == "pgas_ga"
    assert layer_of("pgas.team") == "pgas_ga"
    assert layer_of("rmabench.workloads") == "workload"
    # Unlisted packages and everything outside the library.
    for module in ("mpi2rma.window", "resil.detector", "runtime", None):
        assert layer_of(module) == "other"
    assert {layer_of(f) for f in FILES} <= set(LAYERS)
    # A file later split into a sub-package keeps its line.
    assert longest_prefix("rma.engine", FILES) == "rma.engine"
    assert longest_prefix("rma.engine.routes.train", FILES) == "rma.engine"
    assert longest_prefix("rma.engineering", FILES) is None
    assert longest_prefix("rma", FILES) is None


# A synthetic call tree: (name, module or None for inline code — a C
# builtin or a generated function — self seconds, calls, children).  Binary fractions keep every sum exact.
TREE = ("run", "rmabench.workloads", 1.0, 1, [
    ("put", "rma.engine", 2.0, 3, [
        ("send", "network.nic", 0.5, 3, [
            ("<built-in heappush>", None, 0.125, 3, []),
            ("<string>:__init__", None, 0.125, 3, []),
        ]),
        ("commit", "rma.train", 0.25, 1, []),
    ]),
    ("loop", "sim.core", 4.0, 1, [
        ("<built-in heappop>", None, 1.0, 10, []),
        ("deliver", "rma.engine.apply", 0.5, 2, []),
    ]),
])


def _flatten(node, entries):
    """What cProfile reports for the tree: one entry per function with
    an arc (own + inclusive seconds) per callee; returns inclusive."""
    name, module, self_s, calls, children = node
    arcs, total = [], self_s
    for child in children:
        inclusive = _flatten(child, entries)
        total += inclusive
        arcs.append(Call(child[0], child[1], child[1] is None, child[3],
                         child[2], inclusive))
    entries.append(Entry(name, module, module is None, calls, self_s, arcs))
    return total


def test_span_self_time_on_a_synthetic_tree():
    entries = []
    total = _flatten(TREE, entries)
    ledger = build_ledger(entries)
    layers = ledger["layers"]
    # Self time = span duration minus what child spans cover; inline
    # code is charged to the function that called it.
    assert layers["workload"] == {"self_s": 1.0, "calls": 1}
    assert layers["rma"] == {"self_s": 2.75, "calls": 6}
    assert layers["network"] == {"self_s": 0.75, "calls": 3}
    assert layers["sim"] == {"self_s": 5.0, "calls": 1}
    assert layers["other"] == {"self_s": 0.0, "calls": 0}
    # The exact-sum identity.
    assert ledger["total_s"] == total == 9.5
    assert sum(row["self_s"] for row in layers.values()) == total
    # File lines, including the split sub-package.
    assert ledger["files"]["rma.engine"] == 2.5
    assert ledger["files"]["rma.train"] == 0.25
    assert ledger["files"]["network.nic"] == 0.75
    assert ledger["files"]["sim.core"] == 5.0
    # Boundary spans: caller layer -> callee layer, inclusive seconds.
    edges = {(e["from"], e["to"]): (e["count"], e["inclusive_s"])
             for e in ledger["edges"]}
    assert edges == {
        ("workload", "rma"): (3, 3.0),
        ("workload", "sim"): (1, 5.5),
        ("rma", "network"): (3, 0.75),
        ("sim", "rma"): (2, 0.5),
    }


def test_unowned_inline_time_lands_in_other():
    # Inline code nobody profiled the caller of (top of the profile).
    entries = [Entry("<built-in exec>", None, True, 1, 0.5, [])]
    ledger = build_ledger(entries)
    assert ledger["layers"]["other"]["self_s"] == 0.5
    assert ledger["total_s"] == 0.5


def test_exact_sum_identity_on_a_real_profile():
    def leaf(n):
        return sorted(range(n), key=lambda v: -v)

    def branch(n):
        return [leaf(50) for _ in range(n)]

    profile = cProfile.Profile()
    profile.enable()
    branch(200)
    profile.disable()
    ledger = build_ledger(entries_from_profile(profile))
    layer_sum = sum(row["self_s"] for row in ledger["layers"].values())
    assert layer_sum == pytest.approx(ledger["total_s"], rel=1e-9)
    # This file lives under rmabench/: its functions are "workload".
    assert ledger["layers"]["workload"]["calls"] >= 200 + 1 + 200 * 50
    metrics = ledger_metrics(ledger)
    assert metrics["trace.total_s"] == ledger["total_s"]
    assert set(metrics) == (
        {f"{layer}.{k}" for layer in LAYERS for k in ("self_s", "calls")}
        | {f"{name}.self_s" for name in FILES} | {"trace.total_s"})
