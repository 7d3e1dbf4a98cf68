"""``python3 -m rmabench`` — see ``rmabench/README.md``.

Two ways to run:

``python3 -m rmabench [--quick] [--seed N]``
    The full benchmark: every workload, every metric by name with its
    unit, outputs verified, results written to ``rmabench/out/``.
    ``--ab`` takes two full sets and checks they agree; ``--selfcheck``
    pins the rank programs to the recorded model.

``python3 -m rmabench --workload W --seed N --seconds S --trace 0|1``
    One workload for a regression driver: the last stdout line is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
    the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

from rmabench import ROOT, SRC

OUT_DIR = os.path.join(ROOT, "rmabench", "out")

#: Repeats per workload in a full set, and under ``--quick``.
REPEATS, QUICK_REPEATS = 8, 2


def _log(msg: str) -> None:
    print(f"[rmabench] {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def run_driver(workload: str, seed: int, seconds: float, trace: bool,
               quick: bool) -> int:
    from rmabench import harness
    from rmabench.metrics import END_TO_END, PER_LAYER

    if not trace:
        res = harness.measure_for(workload, seed, seconds, quick=quick)
        units = {m["name"]: m["unit"] for m in END_TO_END}
        values = res["metrics"]
        correct, attempted, failed = (res["correct"], res["attempted"],
                                      res["failed"])
        problems = res["problems"]
        hx = res["host_x"]
        _log(f"{workload}: {res['repeats']} repeats; host_x min "
             f"{hx['min']:.3f} median {hx['median']:.3f} max {hx['max']:.3f}")
    else:
        plain = harness.spawn_worker(workload, seed, quick=quick)
        traced = harness.trace_workload(
            workload, seed, plain["wall_s"] / plain["host_x"], quick=quick)
        micro = harness.spawn_worker("micro", quick=quick)["micro"]
        units = {m["name"]: m["unit"] for m in PER_LAYER}
        values = dict(traced["metrics"], **plain["counters"], **micro,
                      sim_us=plain["sim_us"])
        problems = plain["failures"] + harness.traced_disagreements(
            traced, plain["sim_us"], plain["counters"])
        attempted = 2 * plain["ops"]
        failed = plain["failed"] + traced["failed"]
        correct = failed == 0 and not problems
    for msg in problems:
        _log(f"{workload}: {msg}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Full mode: every workload, every metric
# ----------------------------------------------------------------------
def take_set(seed: int, quick: bool,
             with_trace: bool = True) -> Dict[str, Any]:
    """One full set of runs: end-to-end, then traced pass, then micro."""
    from rmabench import harness
    from rmabench.workloads import WORKLOADS

    names = list(WORKLOADS)
    repeats = QUICK_REPEATS if quick else REPEATS
    started = time.time()
    results = harness.measure_all(names, seed, repeats, quick=quick, log=_log)
    doc: Dict[str, Any] = {"seed": seed, "quick": quick, "repeats": repeats,
                           "python": sys.version.split()[0],
                           "workloads": results}
    if with_trace:
        for name in names:
            res = results[name]
            traced = harness.trace_workload(
                name, seed, res["metrics"]["wall_s"], quick=quick,
                out_dir=OUT_DIR)
            res["per_layer"] = dict(traced["metrics"], **res["counters"])
            problems = harness.traced_disagreements(
                traced, res["metrics"]["sim_us"], res["counters"])
            if problems:
                res["correct"] = False
                res["problems"] += problems
            _log(f"traced {name}")
        doc["micro"] = harness.spawn_worker("micro", quick=quick)["micro"]
    doc["elapsed_s"] = time.time() - started
    return doc


def print_set(doc: Dict[str, Any]) -> None:
    from rmabench.metrics import COUNTER_UNITS, END_TO_END, PER_LAYER
    from rmabench.micro import MICRO_UNITS

    e2e_units = dict({m["name"]: m["unit"] for m in END_TO_END},
                     sim_us="sim_us", fail_share="ratio")
    print(f"== end-to-end (seed {doc['seed']}, {doc['repeats']} repeats, "
          f"p25 of timings; spread = (p75-p25)/median) ==")
    for name, res in doc["workloads"].items():
        for metric, unit in e2e_units.items():
            line = f"{name:12s} {metric:12s} {res['metrics'][metric]!r:>24} {unit}"
            sp = res["spread"].get(metric)
            if sp:
                line += (f"   min {sp['min']:.4g} median {sp['median']:.4g} "
                         f"p75 {sp['p75']:.4g} spread "
                         f"{(sp['p75'] - sp['p25']) / sp['median']:.1%}")
            print(line)
        print(f"{name:12s} {'host_x':12s} {res['host_x']['median']!r:>24} x"
              f"   (host times above are divided by each repeat's)")
        print(f"{name:12s} {'verified':12s} "
              f"{'ok' if res['correct'] else 'FAILED':>24} "
              f"({res['failed']} of {res['attempted']} ops failed)")
        for msg in res["problems"]:
            print(f"{name:12s}   ! {msg}")
    if "micro" not in doc:
        return
    layer_units = {m["name"]: m["unit"] for m in PER_LAYER}
    print("== per-layer (traced pass ledger + exact counters) ==")
    for name, res in doc["workloads"].items():
        for metric, value in res["per_layer"].items():
            if metric in COUNTER_UNITS or value:
                print(f"{name:12s} {metric:26s} {value!r:>22} "
                      f"{layer_units[metric]}")
    print("== micro (one layer in isolation, best of 3) ==")
    for metric, value in doc["micro"].items():
        print(f"{'micro':12s} {metric:26s} {value!r:>22} "
              f"{MICRO_UNITS[metric]}")


def write_results(doc: Dict[str, Any], name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def all_correct(doc: Dict[str, Any]) -> bool:
    return all(res["correct"] for res in doc["workloads"].values())


# ----------------------------------------------------------------------
# --ab: two sets of the same code must agree
# ----------------------------------------------------------------------
AB_BOUNDS = {"wall_s": 0.10, "ops_per_s": 0.10, "peak_rss_mb": 0.10,
             "setup_s": 0.20}
AB_EXACT = ("sim_us", "fail_share")


def compare_sets(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print per-metric deltas between two sets; return disagreements."""
    bad = []
    for name in a["workloads"]:
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric, bound in AB_BOUNDS.items():
            va, vb = ra["metrics"][metric], rb["metrics"][metric]
            delta = (vb - va) / va
            ok = abs(delta) <= bound
            print(f"{name:12s} {metric:12s} A {va:12.5g} B {vb:12.5g} "
                  f"delta {delta:+7.2%} (bound {bound:.0%}) "
                  f"{'ok' if ok else 'DISAGREE'}")
            if not ok:
                bad.append(f"{name}.{metric}: {delta:+.2%}")
        for metric in AB_EXACT:
            va, vb = ra["metrics"][metric], rb["metrics"][metric]
            ok = va == vb
            print(f"{name:12s} {metric:12s} A {va!r} B {vb!r} "
                  f"{'exact' if ok else 'DISAGREE'}")
            if not ok:
                bad.append(f"{name}.{metric}: {va!r} != {vb!r}")
        if ra["counters"] != rb["counters"]:
            diff = [k for k in ra["counters"]
                    if ra["counters"][k] != rb["counters"][k]]
            print(f"{name:12s} counters     DISAGREE on {diff}")
            bad.append(f"{name}.counters: {diff}")
        else:
            print(f"{name:12s} counters     {len(ra['counters'])} exact")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m rmabench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print one "
                        "JSON result line (regression-driver mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every input generator (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: seconds of timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, 2 repeats: a smoke test, not a "
                        "measurement")
    parser.add_argument("--ab", action="store_true",
                        help="two full sets back to back must agree")
    parser.add_argument("--selfcheck", action="store_true",
                        help="re-run the fig2/halo rank programs at the "
                        "BENCH_PR1.json parameters; simulated times must "
                        "match that file bit for bit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"rmabench: no simulator library at {SRC}/repro — run from a "
              f"full checkout", file=sys.stderr)
        return 2

    if args.selfcheck:
        from rmabench.selfcheck import selfcheck

        return selfcheck()
    if args.workload is not None:
        from rmabench.metrics import RUN_SECONDS
        from rmabench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
        seconds = args.seconds if args.seconds is not None else RUN_SECONDS
        return run_driver(args.workload, args.seed, seconds,
                          bool(args.trace), args.quick)

    if args.ab:
        a = take_set(args.seed, args.quick, with_trace=False)
        b = take_set(args.seed, args.quick, with_trace=False)
        bad = compare_sets(a, b)
        write_results({"a": a, "b": b, "disagreements": bad}, "ab.json")
        if bad or not (all_correct(a) and all_correct(b)):
            print(f"--ab: {len(bad)} disagreement(s)")
            return 1
        print("--ab: the two sets agree")
        return 0
    doc = take_set(args.seed, args.quick)
    print_set(doc)
    path = write_results(doc, "results_quick.json" if args.quick
                         else "results.json")
    print(f"results written to {os.path.relpath(path, ROOT)} "
          f"({doc['elapsed_s']:.0f} s)")
    return 0 if all_correct(doc) else 1


if __name__ == "__main__":
    sys.exit(main())
