"""Shrinker + artifact tests: the planted ordering bug must minimize
to a tiny reproducer whose JSON artifact replays to the same violation."""

import json

import pytest

from repro.check import (
    ProgOp,
    RmaProgram,
    VarSpec,
    check_program,
    generate_program,
    RunConfig,
    load_artifact,
    replay_artifact,
    run_program,
    shrink,
)
from repro.check.shrink import ARTIFACT_VERSION, save_artifact

MUTATION = ("drop_order_barrier",)


def _litmus():
    """Two back-to-back puts where only `ordering` sequences the second
    — the smallest program the planted bug can break."""
    v = VarSpec(vid=0, vtype="data", owner=1)
    return RmaProgram(
        n_ranks=2, vars=(v,),
        ops=(ProgOp(rank=0, kind="put", var=0, value=1),
             ProgOp(rank=0, kind="put", var=0, value=2,
                    attrs=("ordering",))),
        label="litmus")


def _failing_seed(program_factory, fabric="unordered", seeds=range(25)):
    for seed in seeds:
        program = program_factory(seed)
        result = run_program(program, fabric, seed, mutations=MUTATION)
        if not check_program(result).ok:
            return program, seed
    pytest.fail("planted bug never reproduced in the seed scan")


class TestShrink:
    def test_planted_bug_shrinks_to_small_reproducer(self):
        program, seed = _failing_seed(generate_program)
        assert len(program.ops) > 4
        res = shrink(program, "unordered", seed, mutations=MUTATION)
        assert res.shrunk_ops <= 4
        assert res.original_ops == len(program.ops)
        assert res.report.violations
        # The only guarantee the mutation can break is the `ordering`
        # attribute's sequence gating, so it must appear in the core.
        assert any(op.has("ordering") for op in res.program.ops)

    def test_litmus_shrinks_to_itself(self):
        program = _litmus()
        _, seed = _failing_seed(lambda _s: program)
        res = shrink(program, "unordered", seed, mutations=MUTATION)
        assert res.shrunk_ops == 2

    def test_shrink_rejects_passing_program(self):
        program = _litmus()
        with pytest.raises(ValueError, match="does not fail"):
            # No mutation: the program conforms, nothing to shrink.
            shrink(program, "ordered", 0)


class TestArtifacts:
    def test_artifact_replays_to_same_violation(self, tmp_path):
        program, seed = _failing_seed(generate_program)
        res = shrink(program, "unordered", seed, mutations=MUTATION)
        path = tmp_path / "reproducer.json"
        save_artifact(str(path), res.program, res.report,
                      config=RunConfig(fabric="unordered", seed=seed,
                                       mutations=MUTATION))

        doc = load_artifact(str(path))
        assert doc["version"] == ARTIFACT_VERSION
        config = doc["config"]
        assert config["mutations"] == list(MUTATION)

        replayed = check_program(run_program(
            RmaProgram.from_dict(doc["program"]), config["fabric"],
            config["seed"], mutations=tuple(config["mutations"])))
        assert not replayed.ok
        assert (sorted(v.check for v in replayed.violations)
                == sorted(v.check for v in res.report.violations))

        # And the one-call replay path agrees.
        assert replay_artifact(str(path))

    def test_load_artifact_rejects_bad_version(self, tmp_path):
        program = _litmus()
        report = check_program(run_program(program, "ordered", 0))
        path = tmp_path / "art.json"
        save_artifact(str(path), program, report,
                      config=RunConfig(fabric="ordered", seed=0))
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_artifact(str(path))
