"""Conformance fuzzing of notified RMA (ISSUE 9).

The generator's notify clause pairs a notify-carrying put with an
owner-side ``wait_notify`` + ``load``; the oracle then demands the
load see the notified write (an ``observe`` edge in the location
pomset) and every notified put deliver to the board exactly once —
chaos, duplicates and retransmissions included.  The planted
``notify_before_apply`` mutation (deliver at first-fragment arrival
instead of after apply) proves the oracle has teeth.
"""

import pytest

from repro.check import (
    RunConfig,
    check_program,
    generate_program,
    run_program,
)
from repro.check.shrink import replay_artifact, save_artifact, shrink


class TestGeneratorInvariants:
    def test_notify_off_is_byte_identical(self):
        """The default grammar must not move: old seeds keep their
        programs so artifact replays and cross-PR comparisons hold."""
        for seed in range(10):
            assert (generate_program(seed).to_json()
                    == generate_program(seed, notify=False).to_json())

    def test_pairs_and_unique_matches(self):
        for seed in range(15):
            p = generate_program(seed, notify=True)
            puts = [op for op in p.ops if op.kind == "put" and op.notify]
            waits = [op for op in p.ops if op.kind == "wait_notify"]
            assert len(puts) == len(waits)
            matches = [op.notify for op in puts]
            assert len(set(matches)) == len(matches)
            for w in waits:
                # the waiter is the variable's owner
                assert w.rank == p.var(w.var).owner

    def test_waiters_and_notifiers_disjoint_per_epoch(self):
        """The no-deadlock construction: within an epoch no rank both
        waits and notifies."""
        for seed in range(15):
            p = generate_program(seed, notify=True)
            epochs = p.epochs()
            by_epoch = {}
            for i, op in enumerate(p.ops):
                if op.kind == "put" and op.notify:
                    by_epoch.setdefault(epochs[i], ([], []))[0].append(
                        op.rank)
                if op.kind == "wait_notify":
                    by_epoch.setdefault(epochs[i], ([], []))[1].append(
                        op.rank)
            for notifiers, waiters in by_epoch.values():
                assert not set(notifiers) & set(waiters)

    def test_serialization_roundtrip(self):
        p = generate_program(0, notify=True)
        from repro.check.program import RmaProgram

        q = RmaProgram.from_json(p.to_json())
        assert q == p


class TestCleanSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_fault_free(self, seed):
        p = generate_program(seed, notify=True)
        for fabric in ("ordered", "unordered"):
            report = check_program(run_program(p, fabric, seed))
            assert report.ok, [str(v) for v in report.violations]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exactly_once_under_chaos(self, seed):
        p = generate_program(seed, notify=True)
        result = run_program(p, "unordered", seed, chaos=0.05)
        report = check_program(result)
        assert report.ok, [str(v) for v in report.violations]
        if any(op.notify and op.kind == "put" for op in p.ops):
            assert "notify-exactly-once" in report.checks_run


class TestPower:
    def test_notify_before_apply_is_caught(self):
        """The planted mutation delivers the notification at packet
        arrival; some seed/fabric must expose the stale read."""
        caught = False
        for seed in range(10):
            p = generate_program(seed, notify=True)
            if not any(op.kind == "wait_notify" for op in p.ops):
                continue
            for fabric in ("torus", "unordered"):
                result = run_program(p, fabric, seed,
                                     mutations=("notify_before_apply",))
                if not check_program(result).ok:
                    caught = True
                    break
            if caught:
                break
        assert caught, "planted notify_before_apply survived the sweep"

    def test_mutation_shrinks_to_minimal_reproducer(self, tmp_path):
        seed, fabric = 0, "torus"
        p = generate_program(seed, notify=True)
        res = shrink(p, fabric, seed, mutations=("notify_before_apply",))
        assert res.shrunk_ops < res.original_ops
        kinds = {op.kind for op in res.program.ops}
        assert "wait_notify" in kinds
        assert any(op.notify for op in res.program.ops
                   if op.kind == "put")
        path = str(tmp_path / "notify-fail.json")
        save_artifact(path, res.program, res.report,
                      config=RunConfig(fabric=fabric, seed=seed,
                                       mutations=("notify_before_apply",),
                                       notify=True))
        assert replay_artifact(path)
