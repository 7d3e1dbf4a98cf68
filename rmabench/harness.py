"""Taking runs: fresh worker subprocesses, interleaved, summarized.

How a run is taken.  Each repeat of each workload is a fresh
single-threaded subprocess (``PYTHONHASHSEED=0``), so every sample pays
the same cold interpreter, imports and heap; in a full run the
workloads are interleaved round-robin (repeat 1 of all seven, then
repeat 2, …) so slow drift of the host hits every workload alike.  Host
noise here is one-sided — a repeat is only ever *slowed* by its
neighbours — so every timing metric is the **lower quartile** of the
repeats, with min / median / p75 recorded beside it as the spread.
Before that, each repeat's host times are divided by its ``host_x``
(:mod:`rmabench.calibrate`): a run that sits inside one of the host's
slow episodes has no fast repeat for the quartile to find.
Simulated time and every counter must repeat exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from rmabench import ROOT
from rmabench.ledger import ledger_metrics
from rmabench.stats import quartiles, summary

__all__ = ["WorkerFailed", "spawn_worker", "summarize", "measure_for",
           "measure_all", "trace_workload", "traced_disagreements",
           "WORKER_TIMEOUT_S"]

#: One repeat is ~2 s; a worker that needs a minute is hung.
WORKER_TIMEOUT_S = 120


class WorkerFailed(RuntimeError):
    """A worker subprocess exited non-zero or printed no result."""


def spawn_worker(workload: str, seed: int = 0, trace: bool = False,
                 quick: bool = False) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter; return its document."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Set-up is measured with the bytecode cache warm, whatever the
    # caller's environment says: compiling the library's ~100 modules
    # afresh is a third of set-up, and only the first repeat in a fresh
    # checkout should pay it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-m", "rmabench.worker", "--workload", workload,
           "--seed", str(seed), "--spawned", repr(time.time())]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"worker {workload!r} exited {proc.returncode}:\n"
            + proc.stderr[-2000:])
    return json.loads(lines[-1])


def summarize(repeats: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the repeats of one workload into its end-to-end metrics."""
    first = repeats[0]
    walls = [r["wall_s"] / r["host_x"] for r in repeats]
    setups = [r["setup_s"] / r["host_x"] for r in repeats]
    rss = [r["peak_rss_mb"] for r in repeats]
    wall = quartiles(walls)[0]
    attempted = sum(r["ops"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    problems = [msg for r in repeats for msg in r["failures"]]
    # (JSON round-trips floats exactly, so == is bit-for-bit.)
    if len({r["sim_us"] for r in repeats}) != 1:
        problems.append(
            "sim_us differs between repeats: "
            + ", ".join(sorted({repr(r["sim_us"]) for r in repeats})))
    if any(r["counters"] != first["counters"] for r in repeats):
        problems.append("counters differ between repeats")
    if any(r["ops"] != first["ops"] for r in repeats):
        problems.append("op count differs between repeats")
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "repeats": len(repeats),
        "metrics": {
            "wall_s": wall,
            "ops_per_s": first["ops"] / wall,
            "setup_s": quartiles(setups)[0],
            "peak_rss_mb": statistics.median(rss),
            "sim_us": first["sim_us"],
            "fail_share": failed / attempted,
        },
        "spread": {"wall_s": summary(walls), "setup_s": summary(setups),
                   "peak_rss_mb": summary(rss)},
        "host_x": summary([r["host_x"] for r in repeats]),
        "ops": first["ops"],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "counters": first["counters"],
        "detail": first["detail"],
    }


def measure_for(workload: str, seed: int, seconds: float,
                quick: bool = False) -> Dict[str, Any]:
    """Repeat one workload until ``seconds`` of timed work are in (and
    at least twice: one repeat has no spread)."""
    repeats: List[Dict[str, Any]] = []
    while len(repeats) < 2 or sum(r["wall_s"] for r in repeats) < seconds:
        repeats.append(spawn_worker(workload, seed, quick=quick))
    return summarize(repeats)


def measure_all(workloads: Sequence[str], seed: int, repeats: int,
                quick: bool = False, log=None) -> Dict[str, Dict[str, Any]]:
    """``repeats`` rounds over ``workloads``, interleaved round-robin."""
    samples: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for round_no in range(repeats):
        for w in workloads:
            samples[w].append(spawn_worker(w, seed, quick=quick))
        if log is not None:
            log(f"round {round_no + 1}/{repeats} done")
    return {w: summarize(samples[w]) for w in workloads}


def trace_workload(workload: str, seed: int, untraced_wall_s: float,
                   quick: bool = False,
                   out_dir: Optional[str] = None) -> Dict[str, Any]:
    """The traced pass of one workload: the layer ledger, and how much
    the profile hook slowed the timed sections down."""
    doc = spawn_worker(workload, seed, trace=True, quick=quick)
    ledger = doc["ledger"]
    metrics = ledger_metrics(ledger)
    traced_wall_s = doc["wall_s"] / doc["host_x"]
    metrics["trace.overhead_x"] = traced_wall_s / untraced_wall_s
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "quick": quick,
                       "traced_wall_s": traced_wall_s,
                       "untraced_wall_s": untraced_wall_s,
                       "ledger": ledger}, fh, indent=1)
    return {"metrics": metrics, "sim_us": doc["sim_us"],
            "failed": doc["failed"], "failures": doc["failures"],
            "counters": doc["counters"]}


def traced_disagreements(traced: Dict[str, Any], sim_us: float,
                         counters: Dict[str, float]) -> List[str]:
    """Why the traced pass (:func:`trace_workload`) does not reproduce
    the untraced run's ``sim_us`` and ``counters``; empty when it does.
    The profile hook may slow a run down, never change what it does."""
    problems = [f"under the trace: {msg}" for msg in traced["failures"]]
    if traced["failed"]:
        problems.append(f"{traced['failed']} operations failed verification "
                        f"under the trace")
    if traced["sim_us"] != sim_us:
        problems.append(f"sim_us differs under the trace: "
                        f"{traced['sim_us']!r} != {sim_us!r}")
    if traced["counters"] != counters:
        diff = sorted(k for k in counters
                      if traced["counters"].get(k) != counters[k])
        problems.append(f"counters differ under the trace: {diff}")
    return problems
