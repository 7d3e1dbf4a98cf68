"""Conformance fuzzing of the op-train fast path (ISSUE 6).

The generator's op-train clause emits long attribute-uniform put runs;
untraced runs (``trace=False``) let the engine's vectorized train path
engage.  The differential oracle runs every program twice — train path
forced on, then forced off — and requires bit-identical final memory,
fetch returns, and simulated end time.  The ``train_mistime`` mutation
proves the oracle is not vacuous: a planted one-element timing bug in
the batch path must be caught.
"""

import pytest

from repro.check import generate_program, run_program
from tests.conftest import fast_paths


def _run(program, fabric, seed, train, **kw):
    with fast_paths(train=train):
        return run_program(program, fabric, seed, trace=False, **kw)


def _observables(result):
    return (result.sim_time, result.finals, result.returns)


@pytest.mark.parametrize("program_seed", range(25))
def test_train_on_off_differential_sweep(program_seed):
    """25-seed sweep: the train path must not move a single simulated
    observable on the flat ordered fabrics where it engages."""
    program = generate_program(program_seed)
    for fabric in ("ordered", "portals"):
        on = _run(program, fabric, seed=program_seed, train=True)
        off = _run(program, fabric, seed=program_seed, train=False)
        assert _observables(on) == _observables(off), (
            f"program seed {program_seed} on {fabric}: train path "
            f"changed simulated results")
        assert off.stats["train_ops"] == 0


def test_generated_programs_reach_the_train_path():
    """The op-train clause must actually drive the fast path: across
    the sweep's seeds, untraced runs issue a healthy number of train
    ops (not a degenerate boundary where the path never engages)."""
    engaged = 0
    for seed in range(25):
        program = generate_program(seed)
        result = _run(program, "portals", seed=seed, train=True)
        engaged += result.stats["train_ops"]
    assert engaged > 50


def test_train_path_self_disables_when_traced():
    """Traced runs (the consistency-oracle configuration) must never
    take the batch path — tracing is an eligibility gate."""
    program = generate_program(3)
    with fast_paths(train=True):
        result = run_program(program, "portals", seed=3)  # trace=True
    assert result.stats["train_ops"] == 0


def test_train_mistime_mutation_is_caught():
    """Planted batch-path bug: mis-timing one train element per
    destination must surface in the differential observables on at
    least one sweep seed (it shifts injections, arrivals and the
    closing flush round trip)."""
    caught = []
    for seed in range(10):
        program = generate_program(seed)
        clean = _run(program, "portals", seed=seed, train=True)
        if clean.stats["train_ops"] == 0:
            continue
        mutated = _run(program, "portals", seed=seed, train=True,
                       mutations=("train_mistime",))
        if _observables(mutated) != _observables(clean):
            caught.append(seed)
    assert caught, "train_mistime mutation was never detected"


def test_mistime_mutation_inert_without_train():
    """The mutation hooks the batch path only: with the train disabled
    the mutated run must match the clean per-op run exactly."""
    program = generate_program(0)
    clean = _run(program, "portals", seed=0, train=False)
    mutated = _run(program, "portals", seed=0, train=False,
                   mutations=("train_mistime",))
    assert _observables(mutated) == _observables(clean)
