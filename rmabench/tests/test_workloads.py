"""Input generation from the seed, and output verification that bites."""

import sys

import numpy as np
import pytest

from rmabench import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from rmabench import workloads  # noqa: E402
from rmabench.selfcheck import _Untimed  # noqa: E402
from rmabench.workloads import (CONFORM_STRICT, WORKLOADS, _Checker,  # noqa: E402
                                _conform_programs, _store_requests, fill,
                                ring_halo)


def test_fill_never_zero_never_overflows():
    values = {fill(rank, seed) for rank in range(600) for seed in (0, 7, 250)}
    assert min(values) == 1 and max(values) == 251


def test_store_schedule_comes_from_the_seed_alone():
    a = _store_requests(3, n_ranks=4, per_rank=50, n_keys=64, zipf_s=1.2,
                        mean_gap_us=4.0)
    assert a == _store_requests(3, 4, 50, 64, 1.2, 4.0)
    assert a != _store_requests(4, 4, 50, 64, 1.2, 4.0)
    for reqs in a:
        dues = [due for due, _, _ in reqs]
        assert dues == sorted(dues)
        for _, cls, key in reqs:
            # Adds only on counter keys, puts only on record keys.
            assert cls in ("get", "put", "add") and 0 <= key < 64
            assert (cls != "add" or key % 8 == 7)
            assert (cls != "put" or key % 8 != 7)


def test_conform_programs_fill_the_op_budget_exactly():
    for seed in range(6):
        chosen = _conform_programs(seed, 10, 500)
        assert len(chosen) == 10
        assert sum(len(p.ops) for _, p in chosen) == 500
        assert all(1000 * seed <= s < 1000 * (seed + 1) for s, _ in chosen)
    assert ([s for s, _ in _conform_programs(2, 10, 500)]
            == [s for s, _ in _conform_programs(2, 10, 500)])


def test_conform_strict_programs_run_the_consistency_search():
    # The seeded programs are all non-strict; the fixed ones keep the
    # causal / sequential checkers inside the measured work.
    from repro.check import generate_program
    from repro.ir import PIPELINE, verify_program

    assert not any(p.strict for _, p in _conform_programs(1, 2, 80))
    for pseed, n_ranks in CONFORM_STRICT:
        program = generate_program(pseed, n_ranks=n_ranks, strict=True)
        report = verify_program(program, "unordered", pseed, passes=PIPELINE)
        assert report.ok
        assert {"causal", "sequential"} <= set(
            report.original_report.checks_run)
        assert not report.original_report.skipped


def test_halo_verifies_and_a_wrong_window_is_counted(monkeypatch):
    check = _Checker()
    ring_halo(_Untimed, 8, 256, 2, seed=5, check=check)
    assert check.failed == 0 and not check.failures

    real = workloads._window

    def stale(world, rank, alloc):
        out = real(world, rank, alloc).copy()
        if rank == 3:
            out[:] = 0          # rank 3 never received its halos
        return out

    monkeypatch.setattr(workloads, "_window", stale)
    check = _Checker()
    ring_halo(_Untimed, 8, 256, 2, seed=5, check=check)
    assert check.failed == 2 * 2            # its two puts x two iterations
    assert "rank 3" in check.failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_workload_counts_ops_and_passes(name):
    from rmabench.worker import run_once
    import time

    doc = run_once(name, seed=1, spawned=time.time(), quick=True)
    assert doc["failed"] == 0 and doc["failures"] == []
    assert doc["ops"] > 0 and doc["sim_us"] > 0 and doc["wall_s"] > 0
    assert doc["counters"]["rma.ops"] > 0
    assert np.isfinite(doc["setup_s"]) and doc["setup_s"] > 0
