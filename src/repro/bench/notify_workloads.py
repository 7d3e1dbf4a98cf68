"""Notified-RMA workloads (DESIGN §15.5).

Three scenarios exercise the notification subsystem end-to-end across
the flat, torus and fat-tree fabric personalities:

- :func:`notified_halo_time` — the ring halo exchange of
  :func:`repro.bench.workloads.halo_exchange_time`, but synchronized by
  *notified puts* instead of a flush + barrier: each rank waits exactly
  for its two neighbours' halos, not for global quiescence.  The
  flush-based variant runs under the same geometry for the A/B.
- :func:`pipeline_run` — a rank chain connected by
  :class:`~repro.notify.queue.NotifyQueue` rings (the UNR
  producer/consumer pipeline): items flow through every stage with
  credit-based flow control and zero remote polling.
- :func:`lock_sweep_run` — all ranks hammer one
  :class:`~repro.notify.lock.McsLock` (or the two-level tree lock);
  lock wait/hold distributions come from the ``notify.lock.*``
  histograms the lock records.

:func:`run_notify_report` sweeps fabric x seed and returns one report
document (rendered by ``repro.obs.report --notify``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.store import fabric_network
from repro.bench.workloads import rank_fill
from repro.datatypes import BYTE
from repro.machine import generic_cluster
from repro.runtime import World

__all__ = [
    "NOTIFY_FABRICS",
    "notified_halo_time",
    "pipeline_run",
    "lock_sweep_run",
    "run_notify_report",
    "format_notify_table",
]

#: Fabric personalities the notify report sweeps (same set as the
#: sharded-store report).
NOTIFY_FABRICS = ("flat", "torus", "fattree")

_MATCH_FROM_LEFT = 1
_MATCH_FROM_RIGHT = 2


def _hist_stats(hist) -> Dict[str, float]:
    if hist is None or not hist.count:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": hist.count,
        "p50": hist.quantile(0.50),
        "p99": hist.quantile(0.99),
        "mean": hist.mean,
        "max": hist.max,
    }


def _merged_hist(world: World, name: str):
    """All same-named histograms in the world registry, merged across
    label sets (exact: fixed log2 buckets)."""
    merged = None
    for h in world.metrics.iter_histograms():
        if h.name != name or not h.count:
            continue
        if merged is None:
            from repro.obs.metrics import Histogram

            merged = Histogram(name)
        merged.merge(h)
    return merged


def notified_halo_time(
    mode: str = "notify",
    fabric: str = "flat",
    n_ranks: int = 16,
    halo_bytes: int = 1024,
    iterations: int = 10,
    seed: int = 0,
    world_out: Optional[list] = None,
) -> Dict[str, Any]:
    """Ring halo exchange; returns µs/iteration plus notify stats.

    ``mode="notify"`` synchronizes each iteration point-to-point: a
    rank proceeds once *its two* halos arrived (two ``wait_notify``
    calls).  ``mode="flush"`` is the strawman baseline — the same puts
    followed by ``complete_collective`` (global flush + barrier).
    """
    if mode not in ("notify", "flush"):
        raise ValueError(f"unknown halo mode {mode!r}")
    machine = generic_cluster(n_nodes=n_ranks)
    network = fabric_network(fabric)
    world = World(machine=machine, network=network, seed=seed)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * halo_bytes)
        left = (ctx.rank - 1) % ctx.size
        right = (ctx.rank + 1) % ctx.size
        src = ctx.mem.space.alloc(halo_bytes, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        t0 = ctx.sim.now
        for _ in range(iterations):
            if mode == "notify":
                yield from ctx.rma.put(
                    src, 0, halo_bytes, BYTE,
                    tmems[right], 0, halo_bytes, BYTE,
                    notify=_MATCH_FROM_LEFT,
                )
                yield from ctx.rma.put(
                    src, 0, halo_bytes, BYTE,
                    tmems[left], halo_bytes, halo_bytes, BYTE,
                    notify=_MATCH_FROM_RIGHT,
                )
                yield from ctx.rma.wait_notify(
                    tmems[ctx.rank], _MATCH_FROM_LEFT
                )
                yield from ctx.rma.wait_notify(
                    tmems[ctx.rank], _MATCH_FROM_RIGHT
                )
                ctx.rma.engine.materialize_inbound()
                ctx.mem.fence()
            else:
                yield from ctx.rma.put(
                    src, 0, halo_bytes, BYTE,
                    tmems[right], 0, halo_bytes, BYTE,
                )
                yield from ctx.rma.put(
                    src, 0, halo_bytes, BYTE,
                    tmems[left], halo_bytes, halo_bytes, BYTE,
                )
                yield from ctx.rma.complete_collective(ctx.comm)
        elapsed = (ctx.sim.now - t0) / iterations
        yield from ctx.comm.barrier()
        return elapsed

    out = world.run(program)
    world.collect_metrics()
    if world_out is not None:
        world_out.append(world)
    return {
        "workload": "halo",
        "mode": mode,
        "fabric": fabric,
        "seed": seed,
        "n_ranks": n_ranks,
        "halo_bytes": halo_bytes,
        "us_per_iter": max(out),
        "notify_latency": _hist_stats(_merged_hist(world,
                                                   "notify.latency_us")),
    }


def pipeline_run(
    fabric: str = "flat",
    n_ranks: int = 8,
    items: int = 32,
    capacity: int = 4,
    slot_bytes: int = 64,
    seed: int = 0,
    world_out: Optional[list] = None,
) -> Dict[str, Any]:
    """Producer/consumer chain over NotifyQueues; rank 0 sources
    ``items`` slots, every interior rank relays, the last rank sinks.
    Verifies end-to-end payload integrity and returns throughput plus
    queue wait distributions."""
    machine = generic_cluster(n_nodes=n_ranks)
    network = fabric_network(fabric)
    world = World(machine=machine, network=network, seed=seed)

    from repro.notify import NotifyQueue

    def program(ctx):
        queues = []
        for stage in range(ctx.size - 1):
            q = yield from NotifyQueue.create(
                ctx, producer=stage, consumer=stage + 1,
                capacity=capacity, slot_bytes=slot_bytes,
                name=f"stage{stage}",
            )
            queues.append(q)
        yield from ctx.comm.barrier()
        t0 = ctx.sim.now
        checksum = 0
        if ctx.rank == 0:
            for i in range(items):
                payload = np.full(slot_bytes, i % 251, dtype=np.uint8)
                yield from queues[0].push(payload)
        elif ctx.rank < ctx.size - 1:
            for _ in range(items):
                data = yield from queues[ctx.rank - 1].pop()
                yield from queues[ctx.rank].push(data)
        else:
            for i in range(items):
                data = yield from queues[ctx.rank - 1].pop()
                if int(data[0]) != i % 251:
                    raise AssertionError(
                        f"pipeline corrupted: item {i} reads {int(data[0])}"
                    )
                checksum += int(data[0])
        elapsed = ctx.sim.now - t0
        yield from ctx.comm.barrier()
        return elapsed, checksum

    out = world.run(program)
    world.collect_metrics()
    if world_out is not None:
        world_out.append(world)
    makespan = max(o[0] for o in out)
    return {
        "workload": "pipeline",
        "fabric": fabric,
        "seed": seed,
        "n_ranks": n_ranks,
        "items": items,
        "capacity": capacity,
        "makespan_us": makespan,
        "us_per_item": makespan / items,
        "sink_checksum": out[-1][1],
        "push_wait": _hist_stats(_merged_hist(world,
                                              "notify.queue.push_wait_us")),
        "pop_wait": _hist_stats(_merged_hist(world,
                                             "notify.queue.pop_wait_us")),
        "notify_latency": _hist_stats(_merged_hist(world,
                                                   "notify.latency_us")),
    }


def lock_sweep_run(
    fabric: str = "flat",
    n_ranks: int = 8,
    acquires: int = 4,
    hold_us: float = 2.0,
    kind: str = "mcs",
    group_size: int = 4,
    seed: int = 0,
    world_out: Optional[list] = None,
) -> Dict[str, Any]:
    """All ranks contend on one distributed lock; checks mutual
    exclusion from the simulated critical-section spans and reports the
    wait/hold distributions the lock recorded."""
    if kind not in ("mcs", "tree"):
        raise ValueError(f"unknown lock kind {kind!r}")
    machine = generic_cluster(n_nodes=n_ranks)
    network = fabric_network(fabric)
    world = World(machine=machine, network=network, seed=seed)

    from repro.notify import McsLock, McsTreeLock

    def program(ctx):
        if kind == "tree":
            lock = yield from McsTreeLock.create(ctx, group_size=group_size)
        else:
            lock = yield from McsLock.create(ctx)
        spans = []
        for _ in range(acquires):
            yield from lock.acquire()
            t0 = ctx.sim.now
            yield hold_us
            spans.append((t0, ctx.sim.now))
            yield from lock.release()
        yield from ctx.comm.barrier()
        return spans

    out = world.run(program)
    world.collect_metrics()
    if world_out is not None:
        world_out.append(world)
    spans = sorted(s for rank_spans in out for s in rank_spans)
    for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
        if a_end > b_start + 1e-9:
            raise AssertionError(
                f"mutual exclusion violated: sections overlap at {b_start}"
            )
    return {
        "workload": "lock",
        "kind": kind,
        "fabric": fabric,
        "seed": seed,
        "n_ranks": n_ranks,
        "acquires": n_ranks * acquires,
        "makespan_us": world.sim.now,
        "lock_wait": _hist_stats(_merged_hist(world, "notify.lock.wait_us")),
        "lock_hold": _hist_stats(_merged_hist(world, "notify.lock.hold_us")),
    }


def run_notify_report(
    fabrics: Tuple[str, ...] = NOTIFY_FABRICS,
    seeds: Tuple[int, ...] = (0,),
    quick: bool = False,
) -> Dict[str, Any]:
    """The full fabric x seed sweep: halo A/B, pipeline, lock."""
    iterations = 3 if quick else 10
    items = 12 if quick else 32
    acquires = 2 if quick else 4
    rows: List[Dict[str, Any]] = []
    for fabric in fabrics:
        for seed in seeds:
            rows.append(notified_halo_time(
                "notify", fabric=fabric, seed=seed, iterations=iterations))
            rows.append(notified_halo_time(
                "flush", fabric=fabric, seed=seed, iterations=iterations))
            rows.append(pipeline_run(fabric=fabric, seed=seed, items=items))
            rows.append(lock_sweep_run(fabric=fabric, seed=seed,
                                       acquires=acquires))
    return {
        "schema": 1,
        "workload": "notify",
        "fabrics": list(fabrics),
        "seeds": list(seeds),
        "rows": rows,
    }


def format_notify_table(doc: Dict[str, Any]) -> str:
    """The notify report as one aligned table (one row per run)."""
    from repro.obs.report import format_rows

    header = ["workload", "fabric", "seed", "metric", "value_us",
              "notify_p50", "notify_p99", "wait_p50", "wait_p99"]
    rows = [header]
    for r in doc["rows"]:
        lat = r.get("notify_latency", {})
        if r["workload"] == "halo":
            rows.append([
                f"halo/{r['mode']}", r["fabric"], str(r["seed"]),
                "us_per_iter", f"{r['us_per_iter']:.2f}",
                f"{lat.get('p50', 0.0):.2f}", f"{lat.get('p99', 0.0):.2f}",
                "-", "-",
            ])
        elif r["workload"] == "pipeline":
            wait = r["pop_wait"]
            rows.append([
                "pipeline", r["fabric"], str(r["seed"]),
                "us_per_item", f"{r['us_per_item']:.2f}",
                f"{lat.get('p50', 0.0):.2f}", f"{lat.get('p99', 0.0):.2f}",
                f"{wait['p50']:.2f}", f"{wait['p99']:.2f}",
            ])
        else:
            wait = r["lock_wait"]
            hold = r["lock_hold"]
            rows.append([
                f"lock/{r['kind']}", r["fabric"], str(r["seed"]),
                "makespan_us", f"{r['makespan_us']:.2f}",
                f"{hold['p50']:.2f}", f"{hold['p99']:.2f}",
                f"{wait['p50']:.2f}", f"{wait['p99']:.2f}",
            ])
    return format_rows(rows, left_align=(0, 1, 3))
