"""Observability report (``python -m repro.obs.report``).

Runs the paper's Figure-2 attribute sweep with tracing on, reconstructs
protocol-phase spans from the traces, and prints the per-attribute-set
cost decomposition the paper shows as Figure 2 — where the simulated
time of each configuration actually goes (injection, wire flight,
remote application, completion acks) rather than one opaque wall total.

For every point the phase sums equal the operations' end-to-end
simulated latencies exactly (interval attribution — see
:mod:`repro.obs.spans`); the report verifies that identity and fails
loudly if instrumentation ever breaks it.

Options write the same data as machine-readable artifacts:
``--json-out`` for the metrics/attribution document and ``--trace-out``
for a Chrome trace-event file of one point (``--trace-point``),
loadable in https://ui.perfetto.dev.

``--resil`` switches to the failure-recovery report: it runs the
``durable_kv`` failover scenario (one seeded rank kill per seed, the
survivors detect, agree, shrink and re-replicate — see
:mod:`repro.check.durability`) and prints a per-seed table of failure
detection latency, MTTR, re-replicated bytes and suspicion counts,
plus aggregate detect/MTTR distributions (p50/p99 from the exact
merged histograms).  Every run is re-checked by the durability oracle,
so the report doubles as a smoke check — a lost acknowledged write
makes it exit non-zero.

``--store`` switches to the serving report: it runs the open-loop
sharded-store scenario (Zipf keyspace, 60/30/10 get/put/add mix,
shared-memory windows for co-located shards — see
:mod:`repro.bench.store`) on each requested fabric and prints the
per-op-class latency percentile table plus the local/remote split.
Each run self-checks that every key-local request moved by load/store
(zero NIC packets for co-located pairs) and that every issued request
completed, so the report fails loudly if either identity breaks.

``--notify`` switches to the notified-RMA report: it runs the three
DESIGN §15 workloads (notified vs flush-synchronized halo exchange,
the NotifyQueue producer/consumer pipeline, and the MCS lock
contention sweep — see :mod:`repro.bench.notify_workloads`) on each
requested fabric and prints one aligned table of per-iteration times
with notify-latency and lock/queue wait percentiles, plus the
notified-vs-flush speedup per fabric.  The lock rows re-check mutual
exclusion and the pipeline rows re-check payload integrity, so the
report fails loudly if the synchronization objects ever misbehave.

``--topo {torus,fattree,crossbar}`` switches to the routed-fabric
report: it runs the hotspot-incast workload on that topology and prints
the per-link traffic table (packets, bytes, busy/queue time,
utilization) plus the tail-latency percentiles.  The table is verified
against the routing totals — the per-link packet counts must sum to
exactly the hops the runtime traversed — so the report fails loudly if
link accounting ever drifts from what was actually routed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional

from repro.bench.store import format_store_table, run_store_report
from repro.obs.export import write_chrome_trace


def run_notify_report(*args, **kwargs):
    """Re-export of :func:`repro.bench.notify_workloads.run_notify_report`
    (imported lazily: the workloads pull in the full runtime)."""
    from repro.bench.notify_workloads import run_notify_report as impl

    return impl(*args, **kwargs)


def format_notify_table(doc):
    """Re-export of
    :func:`repro.bench.notify_workloads.format_notify_table`."""
    from repro.bench.notify_workloads import format_notify_table as impl

    return impl(doc)

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import PHASES, attribute_phases, build_spans, observe_spans

__all__ = ["format_rows", "run_sweep_report", "format_attribution_table",
           "run_topo_report", "format_link_table",
           "run_resil_report", "format_resil_table",
           "run_store_report", "format_store_table",
           "run_notify_report", "format_notify_table",
           "run_ir_report", "format_ir_table", "main"]


def format_rows(rows: List[List[str]], left_align=(0,)) -> str:
    """Align ``rows`` (header first) into the reports' table format.

    One shared implementation for every report table so alignment
    behaves identically across ``--topo``/``--store``/``--resil``/
    ``--notify``: column widths come from the *rendered cell strings
    only* — a label is one opaque cell no matter what characters it
    contains (``path=0:3``, ``link a:b``, ``atomicity+thread/65536``),
    so punctuation that doubles as a separator elsewhere can never
    skew a column.  ``left_align`` lists the column indices to
    left-justify (labels); everything else right-justifies (numbers).
    A dashed rule is inserted under the header row.
    """
    if not rows:
        return ""
    n_cols = len(rows[0])
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(
                f"ragged table: header has {n_cols} columns, "
                f"row {row!r} has {len(row)}"
            )
    left = set(left_align)
    widths = [max(len(row[i]) for row in rows) for i in range(n_cols)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(widths[j]) if j in left else cell.rjust(widths[j])
            for j, cell in enumerate(row)
        ).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def run_sweep_report(
    sizes=(1024, 16384, 65536),
    modes=("none", "ordering", "remote_complete", "atomicity+thread"),
    puts_per_origin: int = 20,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Run the fig2 sweep traced; return the attribution document.

    The returned dict maps ``"<mode>/<size>"`` to a row with the
    workload's measured ``sim_us``, the span count, the per-phase
    decomposition, and the world's merged fault/metrics counters.  The
    traced worlds are kept under ``"_worlds"`` (not serialized) so the
    caller can export one as a Chrome trace.
    """
    from repro.bench.workloads import fig2_attribute_cost

    registry = registry if registry is not None else MetricsRegistry()
    points: Dict[str, Any] = {}
    worlds: Dict[str, Any] = {}
    for mode in modes:
        for size in sizes:
            key = f"{mode}/{size}"
            sink: List[Any] = []
            sim_us = fig2_attribute_cost(
                mode, size, puts_per_origin=puts_per_origin, seed=seed,
                trace=True, world_out=sink,
            )
            world = sink[0]
            spans = build_spans(world.tracer)
            for span in spans:
                if not math.isclose(sum(span.phases.values()), span.total,
                                    rel_tol=1e-9, abs_tol=1e-9):
                    raise AssertionError(
                        f"{key}: span {span.op} phase sum "
                        f"{sum(span.phases.values())!r} != end-to-end "
                        f"{span.total!r}"
                    )
            observe_spans(spans, registry, mode=mode, size=size)
            row = attribute_phases(spans)
            row["sim_us"] = sim_us
            row["counters"] = world.metrics.counter_totals()
            points[key] = row
            worlds[key] = world
    return {
        "schema": 1,
        "workload": "fig2_attribute_cost",
        "puts_per_origin": puts_per_origin,
        "seed": seed,
        "phases": list(PHASES),
        "points": points,
        "metrics": registry.snapshot(),
        "_worlds": worlds,
    }


def format_attribution_table(doc: Dict[str, Any]) -> str:
    """The per-attribute-set phase table as aligned text."""
    phases = [p for p in PHASES
              if any(p in row["phases"] for row in doc["points"].values())]
    header = (["point", "ops"] + phases
              + ["end-to-end", "sim_us"])
    rows = [header]
    for key, row in doc["points"].items():
        rows.append(
            [key, str(row["ops"])]
            + [f"{row['phases'].get(p, 0.0):.1f}" for p in phases]
            + [f"{row['end_to_end']:.1f}", f"{row['sim_us']:.1f}"]
        )
    return format_rows(rows)


def run_topo_report(
    topology: str = "torus",
    fanin: int = 7,
    put_bytes: int = 2048,
    puts_per_origin: int = 30,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run the hotspot incast on a routed topology; return the per-link
    traffic document.

    The per-link packet counts are checked against the topology
    runtime's hop total (every routed hop is exactly one link
    traversal); a mismatch raises — that identity is what makes the
    table trustworthy as an account of what was actually routed.
    """
    from repro.bench.workloads import hotspot_incast
    from repro.topo import (
        crossbar_network,
        fattree_network,
        link_label,
        torus_network,
    )

    # Slow links (0.002 µs/B ≈ 500 MB/s) so the default fan-in visibly
    # congests the hot ingress — this report exists to show contention.
    if topology == "torus":
        network = torus_network((4, 4, 4), link_byte_time=0.002)
    elif topology == "fattree":
        network = fattree_network(link_byte_time=0.002)
    elif topology == "crossbar":
        network = crossbar_network(n_hosts=fanin + 1, link_byte_time=0.002)
    else:
        raise ValueError(f"unknown topology {topology!r} "
                         "(expected torus, fattree or crossbar)")

    sink: List[Any] = []
    latency = hotspot_incast(
        fanin, put_bytes=put_bytes, puts_per_origin=puts_per_origin,
        network=network, seed=seed, world_out=sink,
    )
    world = sink[0]
    topo = world.topo
    now = world.sim.now
    world.collect_metrics()

    links = []
    packet_sum = 0
    for link in sorted(topo.link_stats):
        st = topo.link_stats[link]
        packet_sum += st.packets
        links.append({
            "link": link_label(link),
            "packets": st.packets,
            "bytes": st.bytes,
            "busy_us": st.busy_us,
            "queue_us": st.queue_us,
            "util": topo.utilization(link, now),
        })
    if packet_sum != topo.hops_traversed:
        raise AssertionError(
            f"link accounting broke: per-link packets sum to {packet_sum} "
            f"but the runtime traversed {topo.hops_traversed} hops"
        )
    return {
        "schema": 1,
        "workload": "hotspot_incast",
        "topology": network.name,
        "fanin": fanin,
        "put_bytes": put_bytes,
        "puts_per_origin": puts_per_origin,
        "seed": seed,
        "latency_us": latency,
        "totals": {
            "packets_routed": topo.packets_routed,
            "hops_traversed": topo.hops_traversed,
            "unroutable": topo.unroutable,
            "link_packet_sum": packet_sum,
            "sim_us": now,
        },
        "links": links,
        "metrics": world.metrics.snapshot(),
    }


def format_link_table(doc: Dict[str, Any], top: int = 20) -> str:
    """The busiest-links table as aligned text (sorted by busy time)."""
    ranked = sorted(doc["links"], key=lambda r: -r["busy_us"])[:top]
    header = ["link", "packets", "bytes", "busy_us", "queue_us", "util"]
    rows = [header]
    for r in ranked:
        rows.append([
            r["link"], str(r["packets"]), str(r["bytes"]),
            f"{r['busy_us']:.2f}", f"{r['queue_us']:.2f}", f"{r['util']:.3f}",
        ])
    return format_rows(rows)


def run_resil_report(
    seeds=(0, 7, 77),
    rf: int = 2,
    chaos: float = 0.0,
) -> Dict[str, Any]:
    """Run the failover scenario per seed; return the resilience document.

    Each seed runs one ``durable_kv`` case (kill + detect + recover,
    :func:`repro.check.durability.run_kv`) and contributes one table
    row read straight off the world's metrics registry; the per-run
    detect-latency and MTTR histograms are merged exactly (fixed log2
    buckets) into the aggregate distributions.  Every run is re-checked
    by the durability oracle and the row records the verdict.
    """
    from repro.check.durability import check_kv, generate_case, run_kv
    from repro.obs.metrics import Histogram

    detect_agg = Histogram("resil.detect_latency")
    mttr_agg = Histogram("resil.mttr")
    totals: Dict[str, int] = {
        "rereplicated_bytes": 0, "recoveries": 0, "rollbacks": 0,
        "suspects": 0, "false_suspects": 0, "heartbeats": 0,
    }
    rows: List[Dict[str, Any]] = []
    for seed in seeds:
        case, ops = generate_case(seed, rf=rf, chaos=chaos)
        sink: List[Any] = []
        result = run_kv(case, ops, world_out=sink)
        world = sink[0]
        violations = check_kv(result)
        metrics = world.metrics
        detect = metrics.histogram("resil.detect_latency")
        mttr = metrics.histogram("resil.mttr")
        detect_agg.merge(detect)
        mttr_agg.merge(mttr)
        counters = metrics.counter_totals()
        for key in ("rereplicated_bytes", "recoveries", "rollbacks",
                    "suspects", "false_suspects"):
            totals[key] += counters.get(f"resil.{key}", 0)
        totals["heartbeats"] += world.resil.stats["heartbeats"]
        rows.append({
            "seed": seed,
            "victim": case.victim,
            "kill_at": case.kill_at,
            "restart_at": case.restart_at,
            "detect_us": detect.max or 0.0,
            "mttr_us": mttr.max or 0.0,
            "rereplicated_bytes": counters.get("resil.rereplicated_bytes", 0),
            "suspects": counters.get("resil.suspects", 0),
            "false_suspects": counters.get("resil.false_suspects", 0),
            "heartbeats": world.resil.stats["heartbeats"],
            "writes": sum(len(v) for v in result.key_log.values()),
            "durable": not violations,
            "violations": violations,
        })

    def _dist(h) -> Dict[str, Any]:
        return {
            "count": h.count,
            "mean": h.mean,
            "p50": h.quantile(0.50),
            "p99": h.quantile(0.99),
            "max": h.max or 0.0,
        }

    return {
        "schema": 1,
        "workload": "durable_kv",
        "rf": rf,
        "chaos": chaos,
        "seeds": list(seeds),
        "rows": rows,
        "detect_latency_us": _dist(detect_agg),
        "mttr_us": _dist(mttr_agg),
        "totals": totals,
    }


def format_resil_table(doc: Dict[str, Any]) -> str:
    """The per-seed failover table as aligned text."""
    header = ["seed", "victim", "kill@", "restart@", "detect_us",
              "mttr_us", "rerepl_B", "suspects", "hb", "writes", "durable"]
    rows = [header]
    for r in doc["rows"]:
        restart = f"{r['restart_at']:.0f}" if r["restart_at"] else "-"
        rows.append([
            str(r["seed"]), str(r["victim"]), f"{r['kill_at']:.0f}", restart,
            f"{r['detect_us']:.1f}", f"{r['mttr_us']:.1f}",
            str(r["rereplicated_bytes"]), str(r["suspects"]),
            str(r["heartbeats"]), str(r["writes"]),
            "yes" if r["durable"] else "VIOLATION",
        ])
    return format_rows(rows, left_align=())


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


def _ir_bench(n_ranks: int = 6, rounds: int = 3,
              puts_per_round: int = 16) -> Dict[str, Any]:
    """Simulated time and op-train absorption of the pinned IR program,
    original vs pipeline-optimized, one untimed run each on the
    InfiniBand-like fabric (no hardware delivery acks — the fabric the
    relaxation pass targets)."""
    from repro.check.runner import run_program
    from repro.ir.passes import PIPELINE, optimize

    program = _ir_workload(n_ranks=n_ranks, rounds=rounds,
                           puts_per_round=puts_per_round)
    optimized, _, pass_stats = optimize(program, PIPELINE)

    def arm(p) -> Dict[str, Any]:
        result = run_program(p, "infiniband", 0, trace=False)
        return {
            "sim_us": result.sim_time,
            "ops": len(p.ops),
            "train_ops": result.stats["train_ops"],
            "train_bytes": result.stats["train_bytes"],
        }

    return {
        "fabric": "infiniband",
        "n_ranks": n_ranks,
        "rounds": rounds,
        "puts_per_round": puts_per_round,
        "pass_stats": [s.to_dict() for s in pass_stats],
        "original": arm(program),
        "optimized": arm(optimized),
    }


def run_ir_report(
    seeds=range(25),
    fabrics=("ordered", "unordered", "torus"),
) -> Dict[str, Any]:
    """Run the IR pass pipeline over generated programs, differentially
    verified per (seed, fabric); return the per-pass effect document.

    Every (program, fabric) pair goes through the three-arm harness
    (:func:`repro.ir.verify.verify_program`) — the table is only
    printed for runs the oracle accepted, so the report doubles as a
    smoke check and exits non-zero on any verification failure.  The
    pinned :func:`_ir_bench` point is appended so the op-train
    absorption the pipeline buys is measured, not estimated.
    """
    from repro.check.generator import generate_program
    from repro.ir.passes import PIPELINE
    from repro.ir.verify import verify_program

    agg: Dict[str, Dict[str, int]] = {}
    failures: List[str] = []
    checked = programs_changed = 0
    sim_orig = sim_opt = 0.0
    for seed in seeds:
        program = generate_program(seed)
        changed = False
        for fabric in fabrics:
            rep = verify_program(program, fabric, seed)
            checked += 1
            if not rep.ok:
                failures.append(
                    f"seed {seed} [{fabric}]: "
                    f"{[str(v) for v in rep.violations()]}")
                continue
            changed = changed or rep.changed
            sim_orig += rep.sim_time_original
            sim_opt += rep.sim_time_optimized
            if fabric == fabrics[0]:
                for s in rep.pass_stats:
                    row = agg.setdefault(s.name, {
                        k: 0 for k in s.to_dict() if k != "name"})
                    for k, v in s.to_dict().items():
                        if k != "name":
                            row[k] += v
        if changed:
            programs_changed += 1
    return {
        "schema": 1,
        "workload": "ir_pass_pipeline",
        "seeds": list(seeds),
        "fabrics": list(fabrics),
        "passes": list(PIPELINE),
        "checked": checked,
        "failures": failures,
        "programs": len(list(seeds)),
        "programs_changed": programs_changed,
        "sim_us_original": sim_orig,
        "sim_us_optimized": sim_opt,
        "per_pass": agg,
        "bench": _ir_bench(),
    }


def format_ir_table(doc: Dict[str, Any]) -> str:
    """The per-pass effect table as aligned text."""
    header = ["pass", "ops_in", "ops_out", "eliminated", "flushes",
              "attrs", "stores", "merged", "batches", "bytes"]
    rows = [header]
    for name in doc["passes"]:
        r = doc["per_pass"].get(name)
        if r is None:
            continue
        rows.append([
            name, str(r["ops_in"]), str(r["ops_out"]),
            str(r["ops_eliminated"]), str(r["flushes_removed"]),
            str(r["attrs_dropped"]), str(r["stores_elided"]),
            str(r["puts_merged"]), str(r["batches"]),
            str(r["bytes_batched"] + r["bytes_elided"]),
        ])
    return format_rows(rows)


def _format_metrics(metrics: Dict[str, Any]) -> str:
    lines = []
    if metrics["counters"]:
        lines.append("counters:")
        for c in metrics["counters"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(c["labels"].items()))
            lines.append(f"  {c['name']}{{{labels}}} = {c['value']}")
    if metrics["histograms"]:
        lines.append("histograms (simulated µs):")
        for h in metrics["histograms"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(h["labels"].items()))
            lines.append(
                f"  {h['name']}{{{labels}}}: n={h['count']} "
                f"mean={h['sum'] / h['count']:.2f} "
                f"min={h['min']:.2f} max={h['max']:.2f}"
            )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Phase-attribution and metrics report for the fig2 sweep.",
    )
    parser.add_argument("--sizes", default="1024,16384,65536",
                        help="comma-separated message sizes (default: %(default)s)")
    parser.add_argument("--modes",
                        default="none,ordering,remote_complete,atomicity+thread",
                        help="comma-separated attribute modes (default: %(default)s)")
    parser.add_argument("--puts", type=int, default=20,
                        help="puts per origin (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sweep for CI smoke runs")
    parser.add_argument("--json-out", default=None,
                        help="write the report document as JSON to this path")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome trace-event JSON (Perfetto) here")
    parser.add_argument("--trace-point", default=None,
                        help="which <mode>/<size> point --trace-out exports "
                             "(default: the last point of the sweep)")
    parser.add_argument("--store", action="store_true",
                        help="report per-op-class latency percentiles of "
                             "the open-loop sharded-store serving scenario "
                             "instead of the fig2 sweep")
    parser.add_argument("--store-fabrics", default="flat,torus,fattree",
                        help="comma-separated fabrics for --store "
                             "(default: %(default)s)")
    parser.add_argument("--store-seeds", default="0,7",
                        help="comma-separated seeds for --store "
                             "(default: %(default)s)")
    parser.add_argument("--store-ops", type=int, default=150,
                        help="requests per rank for --store "
                             "(default: %(default)s)")
    parser.add_argument("--topo", default=None,
                        choices=("torus", "fattree", "crossbar"),
                        help="report per-link traffic of a hotspot incast "
                             "on this topology instead of the fig2 sweep")
    parser.add_argument("--fanin", type=int, default=7,
                        help="incast fan-in for --topo (default: %(default)s)")
    parser.add_argument("--notify", action="store_true",
                        help="report the notified-RMA workloads (halo A/B, "
                             "queue pipeline, MCS lock sweep) across fabrics "
                             "instead of the fig2 sweep")
    parser.add_argument("--notify-fabrics", default="flat,torus,fattree",
                        help="comma-separated fabrics for --notify "
                             "(default: %(default)s)")
    parser.add_argument("--notify-seeds", default="0",
                        help="comma-separated seeds for --notify "
                             "(default: %(default)s)")
    parser.add_argument("--resil", action="store_true",
                        help="report failure detection latency, MTTR and "
                             "re-replication traffic of the durable_kv "
                             "failover scenario instead of the fig2 sweep")
    parser.add_argument("--resil-seeds", default="0,7,77",
                        help="comma-separated seeds for --resil "
                             "(default: %(default)s)")
    parser.add_argument("--rf", type=int, default=2,
                        help="replication factor for --resil "
                             "(default: %(default)s)")
    parser.add_argument("--chaos", type=float, default=0.0,
                        help="per-packet drop/dup/delay probability for "
                             "--resil (default: off)")
    parser.add_argument("--ir", action="store_true",
                        help="report the IR optimizing-pass pipeline: "
                             "per-pass ops eliminated / bytes batched over "
                             "a differentially-verified seed sweep, plus "
                             "the pinned op-train absorption benchmark")
    parser.add_argument("--ir-seeds", default="0:25",
                        help="seed range A:B for --ir "
                             "(default: %(default)s)")
    parser.add_argument("--ir-fabrics", default="ordered,unordered,torus",
                        help="comma-separated fabrics for --ir "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    if args.ir:
        if args.quick:
            seeds, fabrics = range(5), ("ordered",)
        else:
            lo, hi = (int(s) for s in args.ir_seeds.split(":", 1))
            seeds = range(lo, hi)
            fabrics = tuple(f for f in args.ir_fabrics.split(",") if f)
        doc = run_ir_report(seeds=seeds, fabrics=fabrics)
        print("== IR optimizing passes (differentially verified per "
              "(seed, fabric)) ==")
        print(format_ir_table(doc))
        print()
        print(f"verified {doc['checked']} configuration(s) over "
              f"{doc['programs']} generated program(s) on "
              f"{','.join(doc['fabrics'])}; "
              f"{len(doc['failures'])} failure(s); "
              f"{doc['programs_changed']} program(s) changed by the "
              f"pipeline")
        bench = doc["bench"]
        orig, opt = bench["original"], bench["optimized"]
        print(f"pinned ir-opt-bench [{bench['fabric']}]: "
              f"{orig['ops']} -> {opt['ops']} engine ops, "
              f"{opt['train_ops']} op-train ops "
              f"({opt['train_bytes']} B batched), "
              f"sim {orig['sim_us']:.2f} -> {opt['sim_us']:.2f} us")
        for failure in doc["failures"]:
            print(f"FAILURE {failure}")
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[obs] wrote report {args.json_out}")
        return 1 if doc["failures"] else 0

    if args.notify:
        if args.quick:
            fabrics, seeds = ("flat",), (0,)
        else:
            fabrics = tuple(f for f in args.notify_fabrics.split(",") if f)
            seeds = tuple(int(s) for s in args.notify_seeds.split(","))
        doc = run_notify_report(fabrics=fabrics, seeds=seeds,
                                quick=args.quick)
        print("== notified RMA workloads (halo A/B, pipeline, lock sweep; "
              "simulated µs) ==")
        print(format_notify_table(doc))
        print()
        for fabric in doc["fabrics"]:
            halo = {r["mode"]: r for r in doc["rows"]
                    if r["workload"] == "halo" and r["fabric"] == fabric
                    and r["seed"] == doc["seeds"][0]}
            if {"notify", "flush"} <= set(halo):
                ratio = (halo["flush"]["us_per_iter"]
                         / halo["notify"]["us_per_iter"])
                print(f"{fabric}: notified halo {ratio:.2f}x vs "
                      f"flush+barrier "
                      f"({halo['notify']['us_per_iter']:.1f} vs "
                      f"{halo['flush']['us_per_iter']:.1f} us/iter)")
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[obs] wrote report {args.json_out}")
        return 0

    if args.resil:
        seeds = (0,) if args.quick else tuple(
            int(s) for s in args.resil_seeds.split(","))
        doc = run_resil_report(seeds=seeds, rf=args.rf, chaos=args.chaos)
        print(f"== rank-failure recovery (durable_kv, rf={doc['rf']}"
              + (f", chaos={doc['chaos']}" if doc["chaos"] else "")
              + ") ==")
        print(format_resil_table(doc))
        print()
        det, mttr = doc["detect_latency_us"], doc["mttr_us"]
        tot = doc["totals"]
        print(f"detect latency (simulated µs, {det['count']} observer "
              f"verdicts): mean={det['mean']:.1f} p50={det['p50']:.1f} "
              f"p99={det['p99']:.1f} max={det['max']:.1f}")
        print(f"mttr (kill -> recovered, {mttr['count']} recoveries): "
              f"mean={mttr['mean']:.1f} p50={mttr['p50']:.1f} "
              f"p99={mttr['p99']:.1f} max={mttr['max']:.1f}")
        print(f"re-replicated {tot['rereplicated_bytes']} bytes over "
              f"{tot['recoveries']} recoveries "
              f"({tot['rollbacks']} checkpoint rollbacks); "
              f"{tot['suspects']} suspicions "
              f"({tot['false_suspects']} false) from "
              f"{tot['heartbeats']} heartbeats")
        bad = [r for r in doc["rows"] if not r["durable"]]
        for r in bad:
            for v in r["violations"]:
                print(f"seed {r['seed']}: {v}")
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[obs] wrote report {args.json_out}")
        return 1 if bad else 0

    if args.store:
        if args.quick:
            fabrics, seeds, ops = ("flat",), (0,), 40
        else:
            fabrics = tuple(f for f in args.store_fabrics.split(",") if f)
            seeds = tuple(int(s) for s in args.store_seeds.split(","))
            ops = args.store_ops
        doc = run_store_report(fabrics=fabrics, seeds=seeds,
                               ops_per_rank=ops)
        first = doc["rows"][0]
        print(f"== sharded store, open-loop Zipf clients "
              f"({first['n_ranks']} ranks on {first['n_nodes']} nodes, "
              f"{first['n_keys']} keys, {doc['placement']} placement) ==")
        print(format_store_table(doc))
        print()
        for r in doc["rows"]:
            print(f"{r['fabric']}/seed {r['seed']}: {r['ops']} requests "
                  f"({r['local_ops']} key-local by load/store, "
                  f"{r['remote_ops']} cross-node), "
                  f"makespan {r['makespan_us']:.1f} us, "
                  f"{r['nic_packets']} NIC packets")
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[obs] wrote report {args.json_out}")
        return 0

    if args.topo:
        fanin = 3 if args.quick else args.fanin
        puts = 10 if args.quick else 30
        doc = run_topo_report(topology=args.topo, fanin=fanin,
                              puts_per_origin=puts, seed=args.seed)
        lat = doc["latency_us"]
        tot = doc["totals"]
        print(f"== hotspot incast on {doc['topology']} "
              f"(fan-in {doc['fanin']}, {doc['put_bytes']} B puts) ==")
        print(f"per-put latency (simulated µs): p50={lat['p50']:.2f} "
              f"p90={lat['p90']:.2f} p99={lat['p99']:.2f} max={lat['max']:.2f}")
        print(f"routed {tot['packets_routed']} packets over "
              f"{tot['hops_traversed']} hops "
              f"(link packet sum {tot['link_packet_sum']}, "
              f"{tot['unroutable']} unroutable)")
        print()
        print("== busiest links ==")
        print(format_link_table(doc))
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[obs] wrote report {args.json_out}")
        return 0

    if args.quick:
        sizes, modes, puts = (1024, 16384), ("none", "remote_complete"), 5
    else:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        modes = tuple(m for m in args.modes.split(",") if m)
        puts = args.puts

    doc = run_sweep_report(sizes=sizes, modes=modes, puts_per_origin=puts,
                           seed=args.seed)
    worlds = doc.pop("_worlds")

    print("== protocol-phase attribution (simulated µs, summed over ops) ==")
    print(format_attribution_table(doc))
    print()
    print("== metrics ==")
    print(_format_metrics(doc["metrics"]))

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[obs] wrote report {args.json_out}")
    if args.trace_out:
        point = args.trace_point or next(reversed(worlds))
        if point not in worlds:
            parser.error(f"--trace-point {point!r} not in sweep "
                         f"({', '.join(worlds)})")
        write_chrome_trace(args.trace_out, records=worlds[point].tracer)
        print(f"[obs] wrote Chrome trace for {point} to {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
