"""Power check for the differential harness: the planted-unsound
``coalesce_too_eager`` pass must be *caught* within the standard
25-seed budget on an unordered fabric, ddmin-shrink to a <=4-op
reproducer, and leave a replayable artifact that records the pass
pipeline in its config."""

import pytest

from repro.check.config import RunConfig
from repro.check.generator import generate_program
from repro.check.shrink import (
    load_artifact,
    replay_artifact,
    save_artifact,
    shrink,
)
from repro.ir.ops import IrProgram
from repro.ir.passes import PASSES

FABRIC = "unordered"
SEED_BUDGET = range(25)


@pytest.fixture(scope="module")
def catch():
    """The first (config, program, report) the harness flags."""
    for seed in SEED_BUDGET:
        config = RunConfig(fabric=FABRIC, seed=seed,
                           ir_passes=("coalesce_too_eager",))
        program = generate_program(seed)
        report = config.check(program)
        if report.violations:
            return config, program, report
    pytest.fail("the planted-unsound pass escaped the 25-seed budget")


def test_eager_pass_caught_by_refinement_arm(catch):
    _, _, report = catch
    assert "ir-refinement" in report.checks_run
    # The optimized program is consistent with its own weakened text —
    # only re-keying onto the original (or the commutative-finals
    # diff) can expose the unsoundness.
    assert all(v.check.startswith(("refined:", "opt:"))
               or v.check == "commutative-finals"
               for v in report.violations)
    assert any(v.check.startswith("refined:")
               or v.check == "commutative-finals"
               for v in report.violations)


def test_honest_legality_gate_flags_the_same_plan(catch):
    _, program, _ = catch
    problems = PASSES["coalesce_too_eager"].precondition(
        IrProgram.from_program(program))
    assert problems  # static gate and differential harness agree


def test_shrinks_to_tiny_reproducer_with_replayable_artifact(catch, tmp_path):
    config, program, _ = catch
    result = shrink(program, config)
    assert result.original_ops > 4
    assert result.shrunk_ops <= 4
    assert result.report.violations

    path = tmp_path / "eager_reproducer.json"
    save_artifact(str(path), result.program, result.report, config=config)
    doc = load_artifact(str(path))
    assert doc["config"]["ir_passes"] == ["coalesce_too_eager"]
    assert doc["config"]["fabric"] == FABRIC

    replayed = replay_artifact(str(path))
    assert replayed
    assert ({v.check for v in replayed}
            & {v.check for v in result.report.violations})
