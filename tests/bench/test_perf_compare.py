"""Simulated time must never drift from ``BENCH_PR1.json``.

``BENCH_PR1.json`` at the repo root records the flat-fabric simulated
times of the Figure-2 sweep and the strawman halo.  Recomputing the
whole document with the default switches must match to the bit on any
machine.  (The per-point, per-arm pin is
``tests/rma/test_perf_determinism.py::TestObservabilityOffPinnedToBaseline``.)
"""

from tests.conftest import bench_pr1_drift


class TestCompareToBaseline:
    def test_repo_baseline_matches_bit_for_bit(self):
        assert bench_pr1_drift() == []
