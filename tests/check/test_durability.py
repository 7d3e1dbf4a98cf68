"""The durable_kv workload, its oracle, and the artifact pipeline.

The contract under test: an acknowledged write is never lost (rf=2),
the oracle is exact per key (single-writer partitioning), planted
bugs are caught (``skip_backup`` acks after the primary alone), and a
violation survives the save → load → replay round trip so a failing
seed from CI is debuggable offline.
"""

import json

import pytest

from repro.check.durability import (
    KvCase,
    KvOp,
    check_kv,
    generate_case,
    kv_from_doc,
    run_kv,
    save_kv_artifact,
    shrink_kv,
)
from repro.check.shrink import ARTIFACT_VERSION, load_artifact, replay_artifact


class TestGenerateCase:
    def test_deterministic_in_the_seed(self):
        a_case, a_ops = generate_case(42)
        b_case, b_ops = generate_case(42)
        assert a_case == b_case
        assert a_ops == b_ops

    def test_different_seeds_differ(self):
        a_case, a_ops = generate_case(0)
        b_case, b_ops = generate_case(1)
        assert (a_case, a_ops) != (b_case, b_ops)

    def test_single_writer_partitioning(self):
        """Client c only writes keys with k % n_ranks == c — the
        property that keeps the oracle exact."""
        case, ops = generate_case(3)
        for op in ops:
            if op.kind != "get":
                assert op.key % case.n_ranks == op.client

    def test_scenario_fields_are_plausible(self):
        for seed in range(8):
            case, ops = generate_case(seed)
            assert 0 <= case.victim < case.n_ranks
            assert case.kill_at > 0
            if case.restart_at is not None:
                assert case.restart_at > case.kill_at
            assert len(ops) == case.n_ranks * 25


class TestCleanRunsAreDurable:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_rf2_kill_loses_no_acked_write(self, seed):
        case, ops = generate_case(seed, rf=2)
        result = run_kv(case, ops)
        assert result.deadlock is None
        assert check_kv(result) == [], \
            "rf=2 must survive a single failure without losing acks"

    def test_runs_are_bit_deterministic(self):
        case, ops = generate_case(7, rf=2)
        a = run_kv(case, ops)
        b = run_kv(case, ops)
        assert a.finals == b.finals
        assert a.key_log == b.key_log
        assert a.stats == b.stats


class TestPlantedBugIsCaught:
    """The oracle's power check: a deliberately weakened write path
    (ack after the primary alone) must produce violations."""

    def _violating_seed(self):
        # the bug only bites when the victim was a primary with
        # in-flight acked writes; scan a few seeds for one that trips
        for seed in range(12):
            case, ops = generate_case(seed, rf=2)
            result = run_kv(case, ops, mutations=("skip_backup",))
            violations = check_kv(result)
            if violations:
                return case, ops, violations
        pytest.fail("skip_backup never produced a violation in 12 seeds")

    def test_skip_backup_violates_durability(self):
        _case, _ops, violations = self._violating_seed()
        assert any("not admissible" in v for v in violations)

    def test_shrink_keeps_the_violation(self):
        case, ops, _ = self._violating_seed()
        small, evidence, execs = shrink_kv(
            case, ops, mutations=("skip_backup",), max_executions=40)
        assert evidence, "shrinking lost the violation"
        assert len(small) <= len(ops)
        assert execs <= 40
        # the reduced list still violates when re-run from scratch
        assert check_kv(run_kv(case, small, ("skip_backup",)))


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        case, ops = generate_case(5)
        path = str(tmp_path / "kv.json")
        save_kv_artifact(path, case, ops, ["key 1: boom"],
                         mutations=("skip_backup",))
        got_case, got_ops, got_mut = kv_from_doc(load_artifact(path))
        assert got_case == case
        assert got_ops == ops
        assert got_mut == ("skip_backup",)

    def test_artifact_is_plain_reviewable_json(self, tmp_path):
        case, ops = generate_case(5)
        path = str(tmp_path / "kv.json")
        save_kv_artifact(path, case, ops, [])
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "durable_kv"
        assert doc["version"] == ARTIFACT_VERSION
        assert doc["case"]["seed"] == 5

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "rma_conformance",
                                    "version": ARTIFACT_VERSION}))
        with pytest.raises(ValueError, match="durable_kv"):
            load_artifact(str(path))

    def test_replay_reproduces_the_verdict(self, tmp_path):
        """The debuggability contract: an artifact saved from a
        violating run yields the same verdict when replayed."""
        for seed in range(12):
            case, ops = generate_case(seed, rf=2)
            violations = check_kv(run_kv(case, ops,
                                         mutations=("skip_backup",)))
            if violations:
                break
        else:
            pytest.fail("no violating seed found")
        path = str(tmp_path / "repro.json")
        save_kv_artifact(path, case, ops, violations,
                         mutations=("skip_backup",))
        fresh = replay_artifact(path)
        assert fresh == violations

    def test_clean_artifact_replays_clean(self, tmp_path):
        case, ops = generate_case(0, rf=2)
        path = str(tmp_path / "clean.json")
        save_kv_artifact(path, case, ops, [])
        assert replay_artifact(path) == []


class TestOracleUnit:
    """check_kv in isolation on hand-built evidence."""

    def test_lost_acked_put_is_flagged(self):
        from repro.check.durability import KvResult
        op = KvOp(client=0, kind="put", key=0, value=5.0, think=1.0)
        result = KvResult(
            case=KvCase(seed=0, victim=3, kill_at=1000.0),
            key_log={0: [(op, True)]},
            finals={0: 0.0},      # the acked 5.0 vanished
            survivors=[0, 1, 2],
        )
        violations = check_kv(result)
        assert len(violations) == 1
        assert "key 0" in violations[0]

    def test_unacked_write_may_or_may_not_apply(self):
        from repro.check.durability import KvResult
        op = KvOp(client=0, kind="put", key=0, value=5.0, think=1.0)
        for final in (0.0, 5.0):
            result = KvResult(
                case=KvCase(seed=0, victim=3, kill_at=1000.0),
                key_log={0: [(op, False)]},
                finals={0: final},
                survivors=[0, 1, 2],
            )
            assert check_kv(result) == [], final

    def test_acc_chain_is_summed(self):
        from repro.check.durability import KvResult
        ops = [KvOp(0, "acc", 0, 2.0, 1.0), KvOp(0, "acc", 0, 3.0, 1.0)]
        result = KvResult(
            case=KvCase(seed=0, victim=3, kill_at=1000.0),
            key_log={0: [(ops[0], True), (ops[1], True)]},
            finals={0: 5.0},
            survivors=[0, 1, 2],
        )
        assert check_kv(result) == []
        result.finals[0] = 2.0    # second acked acc lost
        assert check_kv(result)

    def test_deadlock_is_itself_a_violation(self):
        from repro.check.durability import KvResult
        result = KvResult(
            case=KvCase(seed=0, victim=3, kill_at=1000.0),
            key_log={}, finals={}, survivors=[0, 1, 2],
            deadlock="no runnable events",
        )
        violations = check_kv(result)
        assert violations and "deadlock" in violations[0]
