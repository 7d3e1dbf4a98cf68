"""Unit tests for fault plans and the seeded injector."""

import math

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    KillSpec,
    LossSpec,
    StallSpec,
    TransportParams,
)
from repro.sim import RngRegistry


class TestPlanValidation:
    @pytest.mark.parametrize("field", ["drop_p", "dup_p", "corrupt_p", "delay_p"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_must_be_in_unit_interval(self, field, bad):
        with pytest.raises(ValueError, match="probability"):
            LossSpec(**{field: bad})

    def test_negative_delay_mean_rejected(self):
        with pytest.raises(ValueError, match="delay_mean"):
            LossSpec(delay_p=0.1, delay_mean=-1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="stop"):
            LossSpec(drop_p=0.1, start=100.0, stop=50.0)

    def test_negative_stall_rejected(self):
        with pytest.raises(ValueError):
            StallSpec(rank=0, start=-1.0, duration=5.0)
        with pytest.raises(ValueError):
            StallSpec(rank=0, start=1.0, duration=-5.0)

    def test_restart_must_follow_kill(self):
        with pytest.raises(ValueError, match="restart_at"):
            KillSpec(rank=0, at=100.0, restart_at=100.0)
        KillSpec(rank=0, at=100.0, restart_at=100.1)  # ok

    def test_transport_params_validated(self):
        with pytest.raises(ValueError):
            TransportParams(retry_budget=0)
        with pytest.raises(ValueError):
            TransportParams(backoff=0.5)
        with pytest.raises(ValueError):
            TransportParams(degrade_threshold=0)


class TestPlanBuilders:
    def test_builders_chain_and_accumulate(self):
        plan = (FaultPlan()
                .drop(0.05)
                .duplicate(0.01, src=1)
                .corrupt(0.02, dst=3)
                .delay(0.1, mean=25.0, kinds=("rma.put",))
                .stall(rank=1, start=100.0, duration=50.0)
                .kill(rank=2, at=500.0, restart_at=900.0))
        assert len(plan.losses) == 4
        assert plan.losses[0].drop_p == 0.05
        assert plan.losses[1].src == 1
        assert plan.losses[3].delay_mean == 25.0
        assert plan.stalls[0].duration == 50.0
        assert plan.kills[0].restart_at == 900.0
        assert plan.active

    def test_with_transport_replaces_params(self):
        plan = FaultPlan().with_transport(retry_budget=3, backoff=1.5)
        assert plan.transport.retry_budget == 3
        assert plan.transport.backoff == 1.5
        # untouched fields keep their defaults
        assert plan.transport.rto_max == TransportParams().rto_max

    def test_empty_plan_is_inactive(self):
        assert not FaultPlan.empty().active
        assert not FaultPlan().active
        # transport tuning alone injects nothing
        assert not FaultPlan().with_transport(retry_budget=2).active


class TestMatching:
    def test_src_dst_kind_filters(self):
        spec = LossSpec(drop_p=1.0, src=0, dst=2, kinds=("rma.put",))
        assert spec.matches(0, 2, "rma.put", 10.0)
        assert not spec.matches(1, 2, "rma.put", 10.0)
        assert not spec.matches(0, 3, "rma.put", 10.0)
        assert not spec.matches(0, 2, "rma.get", 10.0)

    def test_time_window_is_half_open(self):
        spec = LossSpec(drop_p=1.0, start=100.0, stop=200.0)
        assert not spec.matches(0, 1, "x", 99.9)
        assert spec.matches(0, 1, "x", 100.0)
        assert spec.matches(0, 1, "x", 199.9)
        assert not spec.matches(0, 1, "x", 200.0)

    def test_unbounded_window_by_default(self):
        spec = LossSpec(drop_p=1.0)
        assert spec.matches(5, 7, "anything", 0.0)
        assert spec.matches(5, 7, "anything", 1e12)
        assert spec.stop == math.inf


def _packets(n, src=0, dst=1, kind="rma.put"):
    """``n`` messages as the ``(src, dst, kind)`` a fate is drawn for."""
    return [(src, dst, kind)] * n


class TestInjectorDeterminism:
    def _fates(self, seed, plan, packets):
        inj = FaultInjector(plan, RngRegistry(seed))
        return [inj.fate(*p, now=float(i)) for i, p in enumerate(packets)], inj

    def test_same_seed_same_fates(self):
        plan = FaultPlan().drop(0.2).duplicate(0.1).corrupt(0.1).delay(0.3)
        a, _ = self._fates(42, plan, _packets(200))
        b, _ = self._fates(42, plan, _packets(200))
        assert a == b

    def test_different_seeds_diverge(self):
        plan = FaultPlan().drop(0.2)
        a, _ = self._fates(1, plan, _packets(200))
        b, _ = self._fates(2, plan, _packets(200))
        assert a != b

    def test_paths_draw_from_independent_streams(self):
        # Fates on path 0->1 must not depend on traffic on other paths.
        plan = FaultPlan().drop(0.3)
        inj1 = FaultInjector(plan, RngRegistry(9))
        alone = [inj1.fate(*p, 0.0) for p in _packets(50, dst=1)]
        inj2 = FaultInjector(plan, RngRegistry(9))
        mixed = []
        for p1, p2 in zip(_packets(50, dst=1), _packets(50, dst=2)):
            inj2.fate(*p2, 0.0)  # interleaved traffic on 0->2
            mixed.append(inj2.fate(*p1, 0.0))
        assert alone == mixed

    def test_stats_account_for_every_fault(self):
        plan = FaultPlan().drop(0.3).duplicate(0.2)
        fates, inj = self._fates(5, plan, _packets(500))
        assert inj.stats["examined"] == 500
        assert inj.stats["dropped"] == sum(f.drop for f in fates) > 0
        assert inj.stats["duplicated"] == sum(f.duplicate for f in fates) > 0

    def test_unmatched_packets_are_clean(self):
        plan = FaultPlan().drop(1.0, kinds=("rma.get",))
        fates, inj = self._fates(0, plan, _packets(20, kind="rma.put"))
        assert all(f.clean for f in fates)
        assert inj.stats["dropped"] == 0

    def test_hw_ack_drop_uses_pseudo_kind(self):
        plan = FaultPlan().drop(1.0, kinds=("hw.ack",))
        inj = FaultInjector(plan, RngRegistry(0))
        assert inj.drop_hw_ack(1, 0, now=0.0)
        assert inj.stats["hw_acks_dropped"] == 1
        # data packets are untouched by an ack-only spec
        assert inj.fate(0, 1, "rma.put", 0.0).clean
