"""Tests for the bench harness utilities and paper workloads."""

import pytest

from repro.bench import (
    FIG2_ATTR_MODES,
    Series,
    fig2_attribute_cost,
    format_table,
    halo_exchange_time,
    latency_once,
    run_sweep,
)
from repro.bench.workloads import _fig2_attrs, all_to_all_time, rank_fill


class TestFig2Attrs:
    def test_blocking_always_set(self):
        for mode in FIG2_ATTR_MODES:
            assert _fig2_attrs(mode).blocking

    def test_mode_mapping(self):
        assert not _fig2_attrs("none").ordering
        assert _fig2_attrs("ordering").ordering
        assert _fig2_attrs("remote_complete").remote_completion
        assert _fig2_attrs("atomicity+lock").atomicity
        assert _fig2_attrs("atomicity+thread").atomicity
        both = _fig2_attrs("ordering+remote_complete")
        assert both.ordering and both.remote_completion

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown Figure-2"):
            _fig2_attrs("causal")


class TestFig2Workload:
    def test_deterministic(self):
        a = fig2_attribute_cost("none", 64, n_origins=3, puts_per_origin=10)
        b = fig2_attribute_cost("none", 64, n_origins=3, puts_per_origin=10)
        assert a == b

    def test_scales_with_put_count(self):
        t10 = fig2_attribute_cost("none", 64, n_origins=3, puts_per_origin=10)
        t20 = fig2_attribute_cost("none", 64, n_origins=3, puts_per_origin=20)
        assert 1.5 < t20 / t10 < 2.5

    def test_returns_positive_time(self):
        assert fig2_attribute_cost("ordering", 8, n_origins=2,
                                   puts_per_origin=5) > 0


class TestLatencyWorkload:
    @pytest.mark.parametrize("api", ["strawman", "mpi2_lock", "mpi2_fence",
                                     "send_recv"])
    def test_all_apis_run(self, api):
        assert latency_once(api, size=8) > 0

    def test_unknown_api_rejected(self):
        with pytest.raises(ValueError, match="unknown api"):
            latency_once("smoke-signals")


class TestHaloWorkload:
    @pytest.mark.parametrize("mode", ["fence", "pscw", "lock", "strawman"])
    def test_all_modes_run(self, mode):
        assert halo_exchange_time(mode, n_ranks=4, iterations=2) > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sync mode"):
            halo_exchange_time("vibes", n_ranks=2, iterations=1)


class TestBeyond256Ranks:
    """``fill=ctx.rank`` used to overflow ``uint8`` at rank 256."""

    def test_rank_fill_is_a_nonzero_byte_at_any_rank(self):
        fills = {rank_fill(r) for r in range(5000)}
        assert min(fills) == 1 and max(fills) == 251

    def test_halo_runs_at_260_ranks(self):
        assert halo_exchange_time("strawman", n_ranks=260, halo_bytes=256,
                                  iterations=1) > 0

    def test_all_to_all_runs_at_260_ranks(self):
        assert all_to_all_time(n_ranks=260, nbytes=64, iterations=1) > 0

    def test_small_points_did_not_move(self):
        # payload bytes never reach a timestamp
        assert halo_exchange_time("strawman") == 38.38599999999998
        assert all_to_all_time() == 61.18799999999999


class TestHarness:
    def test_run_sweep_shapes(self):
        def fn(size, factor):
            return size * factor

        out = run_sweep(fn, [1, 2, 3], {"x2": {"factor": 2},
                                        "x3": {"factor": 3}})
        assert out["x2"].values == [2, 4, 6]
        assert out["x3"].values == [3, 6, 9]

    def test_run_sweep_custom_x_key(self):
        def fn(n, base):
            return base + n

        out = run_sweep(fn, [10, 20], {"s": {"base": 1}}, x_key="n")
        assert out["s"].values == [11, 21]

    def test_format_table_contains_all_values(self):
        series = {
            "a": Series("a", [1.0, 2.0]),
            "b": Series("b", [3.0, 4.0]),
        }
        text = format_table("T", "x", [10, 20], series, unit="ms", scale=0.5)
        assert "T" in text
        assert "0.500" in text and "2.000" in text
        assert "(values in ms)" in text
        assert text.count("\n") >= 5

    def test_format_table_row_per_x(self):
        series = {"only": Series("only", [7.0, 8.0, 9.0])}
        text = format_table("t", "n", [1, 2, 3], series)
        rows = [l for l in text.splitlines() if l.strip().startswith(("1", "2", "3"))]
        assert len(rows) == 3
