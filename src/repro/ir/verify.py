"""Differential verification of optimizing passes (DESIGN §16).

A pass is *verified*, not trusted: for every (program, fabric, seed)
the harness runs both arms through the full simulated stack and checks
three things, each against the zero-latency reference oracle:

1. **original arm** — the unoptimized program conforms (the baseline
   sanity the conformance suite already sweeps);
2. **optimized arm** — the optimized program conforms under *its own*
   oracle (its attributes/flushes as written);
3. **refinement** — the optimized run's observables, re-keyed onto the
   *original* program through the passes' provenance map, still
   satisfy the original program's oracle.

Arm 3 is the load-bearing one.  A self-check alone is vacuous for an
unsound pass: a program weakened by dropping a load-bearing flush is
perfectly consistent *with its own weakened text*.  Only by re-keying
the optimized execution onto the original text does the original's
stronger sequenced-before relation apply — which is exactly how the
planted ``coalesce_too_eager`` pass is caught.

Re-keying is sound because no pass touches a traced access or a
value-producing op: histories are compared structurally (per-rank
traced-read counts are part of the oracle), returns are pinned back to
source ops via ``op_map``, and finals are keyed by vid.  On top of the
oracle, *commutative* finals — counter and rmw variables, whose final
bytes are order-insensitive — must be bit-identical between the arms.

CLI::

    python -m repro.ir.verify --seeds 0:25 --fabric all
    python -m repro.ir.verify --seeds 0:25 --fabric unordered --each
    python -m repro.ir.verify --seeds 0:10 --passes coalesce_too_eager
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.oracle import CheckReport, CheckViolation, check_program
from repro.check.program import RmaProgram
from repro.check.runner import FABRICS, RunResult, run_program
from repro.ir.passes import PIPELINE, PassStats, optimize

__all__ = ["VerifyReport", "rekey_result", "verify_program",
           "check_optimized", "main"]


def rekey_result(program: RmaProgram, opt_result: RunResult,
                 op_map: Dict[int, int]) -> RunResult:
    """Re-key an optimized run's observables onto the original program.

    The history, finals, locations and notify counts carry over
    unchanged (passes never add, drop or reorder traced accesses or
    notified ops); per-op returns are pinned back to their source
    canonical indices through the provenance map."""
    returns: Dict[int, int] = {}
    for opt_idx, val in opt_result.returns.items():
        src = op_map.get(opt_idx)
        if src is not None:
            returns[src] = val
    return replace(opt_result, program=program, returns=returns)


@dataclass
class VerifyReport:
    """Outcome of verifying one (program, passes, fabric, seed)."""

    fabric: str
    seed: int
    passes: Tuple[str, ...]
    program: RmaProgram
    optimized: RmaProgram
    pass_stats: List[PassStats]
    original_report: CheckReport
    optimized_report: Optional[CheckReport]  # None when passes no-opped
    refinement_report: Optional[CheckReport]
    commutative_mismatches: List[str] = field(default_factory=list)
    sim_time_original: float = 0.0
    sim_time_optimized: float = 0.0

    @property
    def changed(self) -> bool:
        return self.optimized.ops != self.program.ops

    @property
    def ok(self) -> bool:
        if not self.original_report.ok:
            return False
        if not self.changed:
            return True
        return (self.optimized_report.ok and self.refinement_report.ok
                and not self.commutative_mismatches)

    def violations(self) -> List[CheckViolation]:
        """Every violation across the arms, arm-tagged."""
        out = list(self.original_report.violations)
        if self.optimized_report is not None:
            out += [CheckViolation(f"opt:{v.check}", v.message, v.vid)
                    for v in self.optimized_report.violations]
        if self.refinement_report is not None:
            out += [CheckViolation(f"refined:{v.check}", v.message, v.vid)
                    for v in self.refinement_report.violations]
        out += [CheckViolation("commutative-finals", msg)
                for msg in self.commutative_mismatches]
        return out


def _commutative_diff(program: RmaProgram, a: RunResult,
                      b: RunResult) -> List[str]:
    """Counter/rmw finals must be bit-identical between the arms: their
    outcomes are order-insensitive (commutative +1s; a single-user rmw
    sequence), so optimization has nothing legitimate to change."""
    out = []
    for v in program.vars:
        if v.vtype not in ("counter", "rmw"):
            continue
        if a.finals[v.vid] != b.finals[v.vid]:
            out.append(
                f"var {v.vid} ({v.vtype}): original arm {a.finals[v.vid]!r}"
                f" != optimized arm {b.finals[v.vid]!r}")
    return out


def verify_program(
    program: RmaProgram,
    fabric: str,
    seed: int,
    passes: Sequence[str] = PIPELINE,
    chaos: float = 0.0,
    mutations: Tuple[str, ...] = (),
    shared: bool = False,
    original_result: Optional[RunResult] = None,
) -> VerifyReport:
    """Run the three-arm differential check (see module docstring).

    ``original_result`` lets sweeps reuse one original-arm execution
    across several pass configurations of the same (program, fabric,
    seed)."""
    optimized, op_map, pass_stats = optimize(program, passes)
    if original_result is None:
        original_result = run_program(program, fabric, seed, chaos=chaos,
                                      mutations=mutations, shared=shared)
    original_report = check_program(original_result)

    if optimized.ops == program.ops:
        return VerifyReport(
            fabric=fabric, seed=seed, passes=tuple(passes),
            program=program, optimized=optimized, pass_stats=pass_stats,
            original_report=original_report, optimized_report=None,
            refinement_report=None,
            sim_time_original=original_result.sim_time,
            sim_time_optimized=original_result.sim_time)

    opt_result = run_program(optimized, fabric, seed, chaos=chaos,
                             mutations=mutations, shared=shared)
    optimized_report = check_program(opt_result)
    refinement_report = check_program(
        rekey_result(program, opt_result, op_map))
    return VerifyReport(
        fabric=fabric, seed=seed, passes=tuple(passes), program=program,
        optimized=optimized, pass_stats=pass_stats,
        original_report=original_report,
        optimized_report=optimized_report,
        refinement_report=refinement_report,
        commutative_mismatches=_commutative_diff(
            program, original_result, opt_result),
        sim_time_original=original_result.sim_time,
        sim_time_optimized=opt_result.sim_time)


def check_optimized(program: RmaProgram, config) -> CheckReport:
    """One merged report for a :class:`~repro.check.config.RunConfig`
    with ``ir_passes``: all three verification arms folded into a
    single :class:`CheckReport` so the fuzzing CLI, the shrinker and
    artifact replay can treat an optimized run like any other."""
    rep = verify_program(
        program, config.fabric, config.seed, passes=config.ir_passes,
        chaos=config.chaos, mutations=config.mutations,
        shared=config.shared)
    merged = CheckReport(program=program, fabric=config.fabric,
                         seed=config.seed)
    merged.violations = rep.violations()
    merged.checks_run = list(rep.original_report.checks_run)
    merged.skipped = list(rep.original_report.skipped)
    merged.stats = dict(rep.original_report.stats)
    if rep.refinement_report is not None:
        merged.checks_run.append("ir-refinement")
        merged.skipped += rep.refinement_report.skipped
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ir.verify",
        description="Differentially verify the IR optimizing passes.")
    parser.add_argument("--seeds", default="0:25",
                        help="seed range A:B or count N. Default: 0:25.")
    parser.add_argument("--fabric", default="all",
                        help="comma-separated fabric names or 'all'.")
    parser.add_argument("--passes", default=",".join(PIPELINE),
                        help="comma-separated pass names. Default: the "
                             "full pipeline.")
    parser.add_argument("--each", action="store_true",
                        help="verify every pass individually as well as "
                             "the listed pipeline.")
    parser.add_argument("--notify", action="store_true",
                        help="generate programs with the notified-RMA "
                             "clause.")
    parser.add_argument("--chaos", nargs="?", type=float, const=0.02,
                        default=0.0, metavar="P")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from repro.check.generator import generate_program

    if ":" in args.seeds:
        lo, hi = (int(s) for s in args.seeds.split(":", 1))
        seeds = range(lo, hi)
    else:
        seeds = range(int(args.seeds))
    fabrics = (sorted(FABRICS) if args.fabric == "all"
               else [f.strip() for f in args.fabric.split(",") if f.strip()])
    for f in fabrics:
        if f not in FABRICS:
            parser.error(f"unknown fabric {f!r}")
    pipeline = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    configs: List[Tuple[str, ...]] = [pipeline]
    if args.each and len(pipeline) > 1:
        configs = [(name,) for name in pipeline] + [pipeline]

    failures = checked = 0
    for seed in seeds:
        program = generate_program(seed, notify=args.notify)
        for fabric in fabrics:
            original_result = run_program(program, fabric, seed,
                                          chaos=args.chaos)
            for passes in configs:
                rep = verify_program(program, fabric, seed, passes=passes,
                                     chaos=args.chaos,
                                     original_result=original_result)
                checked += 1
                tag = "+".join(passes) if len(passes) <= 1 else "pipeline"
                if rep.ok:
                    if not args.quiet:
                        eliminated = sum(s.ops_eliminated
                                         for s in rep.pass_stats)
                        print(f"seed {seed} [{fabric}] {tag}: ok "
                              f"({eliminated} op(s) eliminated"
                              f"{'' if rep.changed else ', no-op'})")
                    continue
                failures += 1
                print(f"seed {seed} [{fabric}] {tag}: "
                      f"{len(rep.violations())} VIOLATION(S)")
                for v in rep.violations():
                    print(f"  {v}")
    print(f"verified {checked} configuration(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
