"""``python -m repro.check`` — the conformance-fuzzing driver.

Examples::

    python -m repro.check --seeds 0:100 --fabric all
    python -m repro.check --seeds time:60 --fabric ordered,torus --shrink
    python -m repro.check --seeds 50 --chaos 0.03
    python -m repro.check --notify --seeds 0:25 --chaos 0.02
    python -m repro.check --replay check-fail-unordered-s7.json

Exit status: 0 — every program conformed; 1 — at least one violation
(failing-program artifacts are written to ``--artifact-dir``);
2 — usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterator, List, Optional, Tuple

from repro.check.config import RunConfig
from repro.check.generator import generate_program
from repro.check.runner import FABRICS
from repro.check.shrink import (
    describe_artifact,
    load_artifact,
    replay_artifact,
    save_artifact,
    shrink,
)
from repro.obs.metrics import MetricsRegistry

__all__ = ["main"]


def _parse_seeds(spec: str) -> Tuple[Optional[Iterator[int]], float]:
    """``N`` | ``A:B`` | ``time:SECONDS`` -> (seed iterator, budget).

    A time budget returns an unbounded iterator; the caller stops when
    the wall-clock budget runs out."""
    if spec.startswith("time:"):
        budget = float(spec[len("time:"):])
        if budget <= 0:
            raise ValueError("time budget must be positive")

        def unbounded() -> Iterator[int]:
            seed = 0
            while True:
                yield seed
                seed += 1

        return unbounded(), budget
    if ":" in spec:
        lo_s, hi_s = spec.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi <= lo:
            raise ValueError(f"empty seed range {spec!r}")
        return iter(range(lo, hi)), float("inf")
    n = int(spec)
    if n <= 0:
        raise ValueError("seed count must be positive")
    return iter(range(n)), float("inf")


def _parse_fabrics(spec: str) -> List[str]:
    if spec == "all":
        return sorted(FABRICS)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    for name in names:
        if name not in FABRICS:
            raise ValueError(
                f"unknown fabric {name!r}; choose from {sorted(FABRICS)} "
                "or 'all'")
    if not names:
        raise ValueError("no fabrics selected")
    return names


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Model-based RMA conformance fuzzing.",
    )
    parser.add_argument(
        "--seeds", default="25",
        help="N (seeds 0..N-1), A:B (half-open range), or time:SECONDS "
             "(fuzz until the wall-clock budget runs out). Default: 25.")
    parser.add_argument(
        "--fabric", default="all",
        help=f"comma-separated fabric names or 'all' "
             f"({', '.join(sorted(FABRICS))}). Default: all.")
    parser.add_argument(
        "--chaos", nargs="?", type=float, const=0.02, default=0.0,
        metavar="P",
        help="run under a lossy FaultPlan (drop/dup/delay, no kills); "
             "optional per-packet probability, default 0.02 when given "
             "without a value.")
    parser.add_argument(
        "--shrink", action="store_true",
        help="ddmin-minimize each failing program before writing its "
             "artifact.")
    parser.add_argument(
        "--replay", metavar="FILE.json",
        help="re-execute a failing-program artifact and re-check it. "
             "The artifact's recorded configuration (fabric, seed, "
             "chaos, mutations, shared machine shape) is restored "
             "automatically — --seeds/--fabric/--chaos/--shared/"
             "--mutate are ignored; durability artifacts replay "
             "through the durability oracle.")
    parser.add_argument(
        "--durability", action="store_true",
        help="run the durable_kv workload instead of conformance "
             "fuzzing: seeded kill/restart scenarios checked by the "
             "acknowledged-write durability oracle (see "
             "repro.check.durability).")
    parser.add_argument(
        "--rf", type=int, default=2,
        help="replication factor for --durability runs. Default: 2.")
    parser.add_argument(
        "--artifact-dir", default=".",
        help="where failing-program JSON artifacts are written.")
    parser.add_argument(
        "--shared", action="store_true",
        help="run every program on a paired machine (two ranks per "
             "node) with the shared-memory window flavor forced on, so "
             "co-located ops take the load/store fast path under the "
             "consistency oracle.")
    parser.add_argument(
        "--notify", action="store_true",
        help="generate programs with the notified-RMA clause: puts "
             "carrying notification matches, owner-side wait_notify + "
             "load pairs, checked for payload-before-notify and "
             "exactly-once board delivery.")
    parser.add_argument(
        "--mutate", action="append", default=[],
        metavar="NAME",
        help="apply a test-only engine mutation (e.g. drop_order_barrier) "
             "— used to prove the oracle catches planted bugs.")
    parser.add_argument(
        "--ir-opt", action="store_true",
        help="run every program through the IR optimizing pipeline and "
             "check all three differential arms (original, optimized, "
             "refinement against the original's oracle).")
    parser.add_argument(
        "--ir-passes", metavar="NAMES",
        help="comma-separated IR pass names to apply instead of the "
             "full pipeline (implies --ir-opt); test-only passes like "
             "coalesce_too_eager are allowed here.")
    parser.add_argument(
        "--max-failures", type=int, default=5,
        help="stop after this many violating programs. Default: 5.")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.replay:
        try:
            doc = load_artifact(args.replay)
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
        if args.shared or args.chaos or args.mutate or args.ir_opt \
                or args.ir_passes:
            print("note: --shared/--chaos/--mutate/--ir-opt are ignored "
                  "during replay; the artifact's recorded configuration "
                  "is restored instead")
        print(f"replaying {args.replay} [{describe_artifact(doc)}]")
        violations = replay_artifact(doc)
        for v in violations:
            print(f"  {v}")
        if not violations:
            print(f"replay of {args.replay}: no violation reproduced")
            return 0
        print(f"replay of {args.replay}: {len(violations)} "
              f"violation(s) reproduced")
        return 1

    try:
        seeds, budget = _parse_seeds(args.seeds)
        fabrics = _parse_fabrics(args.fabric)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    if args.durability:
        from repro.check.durability import sweep

        failures = sweep(
            seeds, rf=args.rf, chaos=args.chaos, do_shrink=args.shrink,
            artifact_dir=args.artifact_dir, mutations=tuple(args.mutate),
            max_failures=args.max_failures, quiet=args.quiet,
        )
        return 1 if failures else 0

    mutations = tuple(args.mutate)
    if args.ir_passes:
        ir_passes = tuple(
            p.strip() for p in args.ir_passes.split(",") if p.strip())
    elif args.ir_opt:
        from repro.ir.passes import PIPELINE

        ir_passes = PIPELINE
    else:
        ir_passes = ()
    if ir_passes:
        from repro.ir.passes import PASSES

        for name in ir_passes:
            if name not in PASSES:
                parser.error(f"unknown IR pass {name!r}; choose from "
                             f"{sorted(PASSES)}")
    metrics = MetricsRegistry()
    programs = metrics.counter("check.programs")
    ops_counter = metrics.counter("check.ops")
    violations_counter = metrics.counter("check.violations")
    skipped_counter = metrics.counter("check.sequential_skipped")

    started = time.monotonic()
    failures = 0
    artifacts: List[str] = []

    for seed in seeds:
        if time.monotonic() - started >= budget:
            break
        program = generate_program(seed, notify=args.notify)
        for fabric in fabrics:
            if time.monotonic() - started >= budget:
                break
            config = RunConfig(
                fabric=fabric, seed=seed, chaos=args.chaos,
                mutations=mutations, shared=args.shared,
                notify=args.notify, ir_passes=ir_passes)
            report = config.check(program)
            programs.inc()
            ops_counter.inc(len(program.ops))
            skipped_counter.inc(len(report.skipped))
            for note in report.skipped:
                if not args.quiet:
                    print(f"seed {seed} [{fabric}]: skipped {note}")
            if report.ok:
                if not args.quiet:
                    arms = (", 3 differential arms"
                            if "ir-refinement" in report.checks_run else "")
                    print(f"seed {seed} [{fabric}]: ok "
                          f"({len(program.ops)} ops{arms})")
                continue

            failures += 1
            violations_counter.inc(len(report.violations))
            print(f"seed {seed} [{fabric}]: "
                  f"{len(report.violations)} VIOLATION(S)")
            for v in report.violations:
                print(f"  {v}")
            if args.shrink:
                res = shrink(program, config=config)
                program_out, report_out = res.program, res.report
                print(f"  shrunk {res.original_ops} -> {res.shrunk_ops} "
                      f"ops in {res.executions} executions")
            else:
                program_out, report_out = program, report
            path = os.path.join(
                args.artifact_dir, f"check-fail-{fabric}-s{seed}.json")
            save_artifact(path, program_out, report_out, config=config)
            artifacts.append(path)
            print(f"  artifact: {path}")
            if failures >= args.max_failures:
                break
        if failures >= args.max_failures:
            print(f"stopping after {failures} failing program(s)")
            break

    totals = metrics.counter_totals()
    print(f"checked {totals.get('check.programs', 0)} program-runs, "
          f"{totals.get('check.ops', 0)} ops, "
          f"{totals.get('check.violations', 0)} violation(s), "
          f"{totals.get('check.sequential_skipped', 0)} sequential "
          f"check(s) skipped "
          f"[{time.monotonic() - started:.1f}s]")
    if artifacts:
        print("failing-program artifacts:")
        for path in artifacts:
            print(f"  {path}")
    return 1 if failures else 0
