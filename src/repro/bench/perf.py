"""Wall-clock performance harness (``python -m repro.bench.perf``).

Unlike everything else in :mod:`repro.bench` — which reports *simulated*
microseconds — this harness measures how fast the simulator itself runs
on the host machine.  It times three tiers of the stack:

``kernel``
    Raw event-loop throughput (callbacks/sec and process-resume
    events/sec) on synthetic workloads that only touch
    :mod:`repro.sim`.  This is the number every other layer is bounded
    by.

``halo``
    An 8-rank strawman halo exchange — the kernel plus NIC/fabric/RMA
    engine on a small, latency-bound workload.

``fig2``
    The paper's Figure-2 attribute-cost sweep over message sizes — the
    full stack including fragmentation and the datatype engine on a
    bandwidth-bound workload.

Results are written to ``BENCH.json`` by default (atomically, via a
``.tmp`` rename); an existing output file is never overwritten unless
``--force`` is given, so a committed baseline such as ``BENCH_PR1.json``
cannot be clobbered by a stray run.  Pass ``--baseline FILE`` to embed a
previously recorded run under the ``"baseline"`` key so speedups are
tracked in one artifact; future PRs extend the trajectory by pointing
``--baseline`` at the previous PR's file.

``--compare FILE`` is the regression gate: it *recomputes* every
simulated-time observable recorded in ``FILE`` (the halo µs/iter and
each Figure-2 point) with the recorded parameters and exits non-zero
when any drifts beyond ``--tolerance`` (relative; default exact to
float noise).  Wall-clock numbers are machine-dependent and are never
compared — only simulated time, which must be bit-stable.  CI runs
this against ``BENCH_PR1.json`` so a change that silently shifts the
model's timing fails the build.

The harness feature-detects kernel APIs (``Simulator.schedule_call``)
so the *same file* runs against older revisions — that is how the
pre-optimization baseline embedded in ``BENCH_PR1.json`` was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["run_all", "compare_to_baseline", "main"]


def _best_of(n: int, fn: Callable[[], float]) -> float:
    """Run ``fn`` ``n`` times; return the best (smallest) elapsed value."""
    return min(fn() for _ in range(n))


# ----------------------------------------------------------------------
# Tier 1: kernel microbenches
# ----------------------------------------------------------------------
def bench_kernel_callbacks(n_events: int = 200_000, n_tokens: int = 64) -> float:
    """Callbacks/sec for plain scheduled callbacks.

    ``n_tokens`` self-rescheduling tokens hop through simulated time
    until ``n_events`` callbacks have run — the fabric/NIC usage
    pattern (schedule a delivery, which schedules more work).
    """
    from repro.sim.core import Simulator

    sim = Simulator()
    remaining = [n_events]
    schedule_call = getattr(sim, "schedule_call", None)

    if schedule_call is not None:
        def hop(delay: float) -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                schedule_call(delay, hop, delay)
    else:  # pre-optimization kernels: closure per hop
        def hop(delay: float) -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(delay, lambda: hop(delay))

    for i in range(n_tokens):
        delay = 0.5 + (i % 7) * 0.25
        if schedule_call is not None:
            schedule_call(delay, hop, delay)
        else:
            sim.schedule(delay, lambda d=delay: hop(d))

    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return (n_events - max(0, remaining[0])) / elapsed


def bench_kernel_processes(n_procs: int = 500, n_waits: int = 400) -> float:
    """Process-resume events/sec: coroutines churning through timeouts.

    Exercises Event allocation, triggering, callback processing and
    generator resumption — the path every simulated rank program runs.
    """
    from repro.sim.core import Simulator

    sim = Simulator()

    def worker(i: int):
        for k in range(n_waits):
            yield sim.timeout(0.1 + (i + k) % 5 * 0.01)

    for i in range(n_procs):
        sim.spawn(worker(i))

    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    # Each wait is one Timeout event + one process resume.
    return (n_procs * n_waits) / elapsed


# ----------------------------------------------------------------------
# Tier 2/3: full-stack workloads
# ----------------------------------------------------------------------
def bench_halo(n_ranks: int = 8, halo_bytes: int = 8192,
               iterations: int = 40) -> Dict[str, float]:
    """Wall-clock of the strawman halo exchange (latency-bound stack)."""
    from repro.bench.workloads import halo_exchange_time

    t0 = time.perf_counter()
    sim_us = halo_exchange_time(
        "strawman", n_ranks=n_ranks, halo_bytes=halo_bytes,
        iterations=iterations,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_sec": wall,
        "sim_us_per_iter": sim_us,
        "n_ranks": n_ranks,
        "halo_bytes": halo_bytes,
        "iterations": iterations,
    }


def bench_fig2(sizes=(1024, 16384, 65536),
               modes=("none", "ordering", "remote_complete"),
               puts_per_origin: int = 50) -> Dict[str, Any]:
    """Wall-clock of the Figure-2 attribute-cost sweep (bandwidth-bound
    stack: fragmentation, pack, many in-flight packets)."""
    from repro.bench.workloads import fig2_attribute_cost

    points = {}
    t0 = time.perf_counter()
    for mode in modes:
        for size in sizes:
            t1 = time.perf_counter()
            sim_us = fig2_attribute_cost(
                mode, size, puts_per_origin=puts_per_origin,
            )
            points[f"{mode}/{size}"] = {
                "wall_sec": time.perf_counter() - t1,
                "sim_us": sim_us,
            }
    return {
        "wall_sec_total": time.perf_counter() - t0,
        "puts_per_origin": puts_per_origin,
        "points": points,
    }


def _ir_workload(n_ranks: int = 6, rounds: int = 3,
                 puts_per_round: int = 16, put_bytes: int = 32):
    """The pinned IR-optimization benchmark program: per epoch, every
    rank streams a contiguous run of small same-value scratch puts at
    its right neighbor — each demanding ``remote_completion`` — then
    flushes twice (order, then complete); a final epoch peeks every
    written span so the stores are observable.

    The shape is chosen so each pipeline pass has measurable work: the
    order flush is subsumed by the adjacent complete (coalescing), the
    ``remote_completion`` on a non-blocking put is inert (relaxation —
    and on the InfiniBand-like fabric, which has no hardware delivery
    acks, it is exactly what keeps the run off the op-train), and the
    relaxed run is a gapless same-value interval chain (aggregation
    into one batched put that rides the train)."""
    from repro.check.program import ProgOp, RmaProgram

    ops = []
    for epoch in range(rounds):
        if epoch:
            ops.append(ProgOp(rank=-1, kind="sync"))
        for rank in range(n_ranks):
            tgt = (rank + 1) % n_ranks
            for k in range(puts_per_round):
                ops.append(ProgOp(
                    rank=rank, kind="noise", target=tgt,
                    disp=512 + k * put_bytes, nbytes=put_bytes,
                    value=1 + rank, attrs=("remote_completion",)))
            ops.append(ProgOp(rank=rank, kind="order", target=tgt))
            ops.append(ProgOp(rank=rank, kind="complete", target=tgt))
    ops.append(ProgOp(rank=-1, kind="sync"))
    for rank in range(n_ranks):
        ops.append(ProgOp(
            rank=rank, kind="peek", target=(rank + 1) % n_ranks,
            disp=512, nbytes=puts_per_round * put_bytes,
            attrs=("blocking",)))
    program = RmaProgram(n_ranks=n_ranks, vars=(), ops=tuple(ops),
                         label="ir-opt-bench")
    program.validate()
    return program


def bench_ir_opt(n_ranks: int = 6, rounds: int = 3,
                 puts_per_round: int = 16, repeats: int = 3) -> Dict[str, Any]:
    """Wall-clock + simulated time of the pinned IR workload, original
    vs pipeline-optimized, on the InfiniBand-like fabric (no hardware
    delivery acks — the fabric the relaxation pass targets)."""
    from repro.check.runner import run_program
    from repro.ir.passes import PIPELINE, optimize

    program = _ir_workload(n_ranks=n_ranks, rounds=rounds,
                           puts_per_round=puts_per_round)
    optimized, _, pass_stats = optimize(program, PIPELINE)

    def arm(p) -> Dict[str, Any]:
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_program(p, "infiniband", 0, trace=False)
            wall = time.perf_counter() - t0
            if best is None or wall < best["wall_sec"]:
                best = {
                    "wall_sec": wall,
                    "sim_us": result.sim_time,
                    "ops": len(p.ops),
                    "train_ops": result.stats["train_ops"],
                    "train_bytes": result.stats["train_bytes"],
                }
        return best

    original = arm(program)
    opt = arm(optimized)
    return {
        "fabric": "infiniband",
        "n_ranks": n_ranks,
        "rounds": rounds,
        "puts_per_round": puts_per_round,
        "pass_stats": [s.to_dict() for s in pass_stats],
        "original": original,
        "optimized": opt,
        "wall_speedup": original["wall_sec"] / opt["wall_sec"],
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(quick: bool = False) -> Dict[str, Any]:
    """Run every tier; return the results dict (no I/O)."""
    if quick:
        kernel_cb = _best_of(2, lambda: bench_kernel_callbacks(40_000))
        kernel_proc = _best_of(2, lambda: bench_kernel_processes(100, 100))
        halo = bench_halo(iterations=5)
        fig2 = bench_fig2(sizes=(1024, 16384), modes=("none", "ordering"),
                          puts_per_origin=10)
    else:
        kernel_cb = _best_of(3, lambda: bench_kernel_callbacks())
        kernel_proc = _best_of(3, lambda: bench_kernel_processes())
        halo = bench_halo()
        fig2 = bench_fig2()
    return {
        "kernel_callbacks_per_sec": kernel_cb,
        "kernel_process_events_per_sec": kernel_proc,
        "halo": halo,
        "fig2": fig2,
    }


def compare_to_baseline(baseline: Dict[str, Any],
                        tolerance: float = 1e-9,
                        walls: Optional[Dict[str, tuple]] = None) -> list:
    """Recompute the simulated-time observables recorded in ``baseline``
    and return drift messages (empty list = everything matches).

    Only simulated time is compared — the model's output, which must be
    reproducible to the bit on any machine.  ``tolerance`` is relative:
    a value ``v`` matches its recorded counterpart ``b`` when
    ``|v - b| <= tolerance * max(|b|, 1)``.

    ``walls``, when given a dict, is filled with per-observable
    ``(current_wall_sec, recorded_wall_sec_or_None)`` pairs so callers
    can report wall-clock speedups alongside the exactness gate (the
    recomputation runs the identical workload, so its wall time is a
    like-for-like measurement against the baseline's recorded one).
    """
    from repro.bench.workloads import fig2_attribute_cost, halo_exchange_time

    results = baseline.get("results", baseline)
    failures = []

    def check(name: str, current: float, recorded: float) -> None:
        if abs(current - recorded) > tolerance * max(abs(recorded), 1.0):
            failures.append(
                f"{name}: recomputed {current!r} != recorded {recorded!r}"
            )

    halo = results.get("halo") or {}
    if "sim_us_per_iter" in halo:
        t0 = time.perf_counter()
        sim_us = halo_exchange_time(
            "strawman",
            n_ranks=int(halo.get("n_ranks", 8)),
            halo_bytes=int(halo.get("halo_bytes", 8192)),
            iterations=int(halo.get("iterations", 40)),
        )
        if walls is not None:
            walls["halo"] = (time.perf_counter() - t0, halo.get("wall_sec"))
        check("halo.sim_us_per_iter", sim_us, halo["sim_us_per_iter"])

    fig2 = results.get("fig2") or {}
    puts_per_origin = int(fig2.get("puts_per_origin", 100))
    for key in sorted(fig2.get("points", {})):
        point = fig2["points"][key]
        if "sim_us" not in point:
            continue
        mode, _, size = key.rpartition("/")
        t0 = time.perf_counter()
        sim_us = fig2_attribute_cost(
            mode, int(size), puts_per_origin=puts_per_origin,
        )
        if walls is not None:
            walls[f"fig2.{key}"] = (time.perf_counter() - t0,
                                    point.get("wall_sec"))
        check(f"fig2.{key}.sim_us", sim_us, point["sim_us"])

    return failures


def _speedups(current: Dict[str, Any],
              baseline: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key in ("kernel_callbacks_per_sec", "kernel_process_events_per_sec"):
        if baseline.get(key):
            out[key] = current[key] / baseline[key]
    if baseline.get("halo", {}).get("wall_sec"):
        out["halo_wall"] = baseline["halo"]["wall_sec"] / current["halo"]["wall_sec"]
    if baseline.get("fig2", {}).get("wall_sec_total"):
        out["fig2_wall"] = (baseline["fig2"]["wall_sec_total"]
                            / current["fig2"]["wall_sec_total"])
    base_points = baseline.get("fig2", {}).get("points", {})
    cur_points = current.get("fig2", {}).get("points", {})
    for key in sorted(base_points):
        base_wall = base_points[key].get("wall_sec")
        cur_wall = cur_points.get(key, {}).get("wall_sec")
        if base_wall and cur_wall:
            out[f"fig2.{key}"] = base_wall / cur_wall
    return out


def _metadata() -> Dict[str, Any]:
    """Record the fast-path toggles and numpy version alongside the run,
    so a benchmark artifact is self-describing about which optimizations
    were active when it was produced."""
    from repro.mpi.nexus import CollectiveNexus
    from repro.rma.engine import RmaEngine

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "train_enabled": RmaEngine.train_enabled,
        "nexus_enabled": CollectiveNexus.enabled,
        "shared_default": RmaEngine.shared_default,
        "numpy": numpy_version,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Wall-clock performance harness for the repro simulator.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs (~seconds)")
    parser.add_argument("--out", default="BENCH.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite --out if it already exists")
    parser.add_argument("--baseline", default=None,
                        help="embed a previously recorded JSON as the baseline")
    parser.add_argument("--label", default="current",
                        help="label stored with this run (default: %(default)s)")
    parser.add_argument("--compare", default=None, metavar="FILE",
                        help="regression gate: recompute the simulated-time "
                             "observables recorded in FILE and exit non-zero "
                             "on drift (writes nothing)")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="relative sim-time drift tolerance for "
                             "--compare (default: %(default)s)")
    parser.add_argument("--no-train", action="store_true",
                        help="disable the vectorized op-train fast path "
                             "(barriers stay live: the collective nexus does "
                             "not depend on it); CI runs --compare both ways "
                             "to pin that the fast paths never move "
                             "simulated time")
    parser.add_argument("--ir-opt", action="store_true",
                        help="run only the pinned IR-optimization point: "
                             "the same program executed original vs "
                             "pipeline-optimized on the InfiniBand-like "
                             "fabric (prints the point, writes nothing)")
    parser.add_argument("--shared-windows", action="store_true",
                        help="treat every RMA exposure as a shared-memory "
                             "window; the bench machines place one rank per "
                             "node, so the flavor must be inert there — CI "
                             "runs --compare with it on to pin that")
    args = parser.parse_args(argv)

    if args.no_train:
        from repro.rma.engine import RmaEngine
        RmaEngine.train_enabled = False
    if args.shared_windows:
        from repro.rma.engine import RmaEngine
        RmaEngine.shared_default = True

    if args.ir_opt:
        point = bench_ir_opt()
        orig, opt = point["original"], point["optimized"]
        print(f"[perf] ir-opt point ({point['fabric']}, "
              f"{point['n_ranks']} ranks, {point['rounds']} rounds x "
              f"{point['puts_per_round']} puts):")
        print(f"[perf]   original : {orig['ops']:4d} ops, "
              f"{orig['train_ops']:3d} train ops "
              f"({orig['train_bytes']} B), sim {orig['sim_us']:.2f} µs, "
              f"wall {orig['wall_sec']:.4f}s")
        print(f"[perf]   optimized: {opt['ops']:4d} ops, "
              f"{opt['train_ops']:3d} train ops "
              f"({opt['train_bytes']} B), sim {opt['sim_us']:.2f} µs, "
              f"wall {opt['wall_sec']:.4f}s")
        for s in point["pass_stats"]:
            print(f"[perf]   pass {s['name']}: "
                  f"-{s['ops_eliminated']} ops, "
                  f"{s['flushes_removed']} flushes, "
                  f"{s['attrs_dropped']} attrs, "
                  f"{s['bytes_batched']} B batched")
        print(f"[perf]   wall speedup: {point['wall_speedup']:.2f}x")
        return 0

    if args.compare:
        try:
            with open(args.compare) as fh:
                base_doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.compare!r}: {exc}")
        meta = _metadata()
        print(f"[perf] comparing simulated time against {args.compare} "
              f"(tolerance {args.tolerance:g}; train="
              f"{'on' if meta['train_enabled'] else 'off'} nexus="
              f"{'on' if meta['nexus_enabled'] else 'off'} shm="
              f"{'on' if meta['shared_default'] else 'off'}) ...", flush=True)
        walls: Dict[str, tuple] = {}
        failures = compare_to_baseline(base_doc, tolerance=args.tolerance,
                                       walls=walls)
        for msg in failures:
            print(f"[perf] DRIFT {msg}")
        if failures:
            print(f"[perf] FAIL: {len(failures)} simulated-time observable(s) "
                  "drifted from the recorded baseline")
            return 1
        # Wall-clock is informational only — never part of the gate — but
        # the recomputation just re-ran the recorded workloads, so report
        # the like-for-like speedup against each recorded wall time.
        for key in sorted(walls):
            cur, recorded = walls[key]
            if recorded:
                print(f"[perf] wall {key}: recorded {recorded:.4f}s -> "
                      f"current {cur:.4f}s ({recorded / cur:.2f}x)")
        print("[perf] OK: all recorded simulated-time observables match")
        return 0

    # Refuse to clobber an existing result file (recorded baselines are
    # checked in); checked before the slow suite runs.
    if os.path.exists(args.out) and not args.force:
        parser.error(f"{args.out!r} already exists; pass --force to "
                     "overwrite or choose another --out")

    base_doc: Optional[Dict[str, Any]] = None
    if args.baseline:
        # Load up front so a bad path fails before the (slow) suite runs.
        try:
            with open(args.baseline) as fh:
                base_doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.baseline!r}: {exc}")

    print(f"[perf] running {'quick' if args.quick else 'full'} suite ...",
          flush=True)
    results = run_all(quick=args.quick)

    doc: Dict[str, Any] = {
        "schema": 1,
        "label": args.label,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "metadata": _metadata(),
        "results": results,
    }
    if base_doc is not None:
        base_results = base_doc.get("results", base_doc)
        doc["baseline"] = {
            "label": base_doc.get("label", "baseline"),
            "results": base_results,
        }
        doc["speedup"] = _speedups(results, base_results)

    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)

    print(f"[perf] kernel callbacks/sec:       {results['kernel_callbacks_per_sec']:>12,.0f}")
    print(f"[perf] kernel process events/sec:  {results['kernel_process_events_per_sec']:>12,.0f}")
    print(f"[perf] halo wall:  {results['halo']['wall_sec']:.3f}s "
          f"(sim {results['halo']['sim_us_per_iter']:.1f} µs/iter)")
    print(f"[perf] fig2 wall:  {results['fig2']['wall_sec_total']:.3f}s "
          f"({len(results['fig2']['points'])} points)")
    for key, val in doc.get("speedup", {}).items():
        print(f"[perf] speedup {key}: {val:.2f}x")
    print(f"[perf] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
