#!/usr/bin/env python3
"""Interleaved A/B timing of one rmabench workload in two checkouts.

``python tools/ab_pairs.py BASE CHANGE --workload W [--seed S]
[--pairs N]`` starts one long-lived worker per checkout (a
Python process whose ``sys.path`` starts with that tree's ``src`` and
root, so it imports that tree's ``repro`` and ``rmabench`` and nothing
of the other), then asks them for one repeat at a time: pair ``i``
runs BASE first when ``i`` is even and CHANGE first when it is odd.
Each repeat is ``rmabench.worker.run_once`` — the driver's own
measurement (``wall_s`` is the time spent inside the workload's timed
sections) — in a warm process, so the two sides differ by the code
under test and by little else: fresh-process pairs also pay a cold
interpreter, cold imports and whatever the host did meanwhile, which
can move two identical trees tens of percent apart.

Prints every pair, then per side the min and median ``wall_s``, the
median per-pair ratio CHANGE / BASE, how many pairs CHANGE won, and
whether ``sim_us``, ``ops``, ``failed``, ``detail`` and the counters
were equal on both sides in every pair.  Standard library only; the
workers drop ``PYTHONDONTWRITEBYTECODE``, as the benchmark harness
does, so Python's bytecode cache is the only thing written under
either tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The worker: one JSON request per stdin line, one JSON document per
#: stdout line.  Whatever the workload prints goes to stderr.
WORKER = r"""
import contextlib, json, sys, time
tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree]
from rmabench.worker import run_once
for line in sys.stdin:
    req = json.loads(line)
    with contextlib.redirect_stdout(sys.stderr):
        doc = run_once(req["workload"], req["seed"], time.time(),
                       trace=False)
    doc.pop("ledger", None)
    doc["sim_us"] = repr(doc["sim_us"])
    print(json.dumps(doc), flush=True)
"""

#: What must be equal between the two sides of a pair.
EXACT = ("sim_us", "ops", "failed", "detail", "counters")


class Worker:
    """One checkout's long-lived worker process."""

    def __init__(self, tree: Path) -> None:
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(tree)], cwd=tree, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, workload: str, seed: int) -> dict:
        request = {"workload": workload, "seed": seed}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited ({self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_pairs.py")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    workers = {"base": Worker(args.base.resolve()),
               "change": Worker(args.change.resolve())}
    walls = {"base": [], "change": []}
    ratios, wins, equal = [], 0, True
    try:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            docs = {side: workers[side].run(args.workload, args.seed)
                    for side in order}
            for side in walls:
                walls[side].append(docs[side]["wall_s"])
            ratio = docs["change"]["wall_s"] / docs["base"]["wall_s"]
            ratios.append(ratio)
            wins += ratio < 1.0
            same = all(docs["base"][k] == docs["change"][k] for k in EXACT)
            equal = equal and same
            print(f"pair {i:2d} ({order[0]} first): base "
                  f"{docs['base']['wall_s']:.3f} s  change "
                  f"{docs['change']['wall_s']:.3f} s  ratio {ratio:.3f}"
                  f"{'' if same else '  OUTCOMES DIFFER'}", flush=True)
    finally:
        for worker in workers.values():
            worker.close()
    for side, values in walls.items():
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        print(f"{side:6s}: min {min(values):.3f} s  median "
              f"{statistics.median(values):.3f} s  IQR {q3 - q1:.3f} s")
    print(f"median ratio change/base {statistics.median(ratios):.3f}; "
          f"change won {wins}/{len(ratios)}; sim_us, ops, failed, detail "
          f"and counters {'equal' if equal else 'DIFFER'} in every pair")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
