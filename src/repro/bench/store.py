"""Serving benchmark: the sharded store under open-loop client load.

The "million-client" scenario: every rank plays front-end for a slice
of a large client population, issuing an *open-loop* stream of
get/put/accumulate requests against a :class:`repro.ga.ShardedStore`
sharded over all ranks.  Keys are drawn from a seeded Zipf
distribution (a few hot keys absorb most of the traffic, like any real
cache/serving keyspace); request classes follow a fixed read-heavy mix
(60 % get / 30 % put / 10 % atomic add).  Open-loop means issue never
waits for completion — each request's end-to-end latency is harvested
from its completion event into per-class histograms
(``store.latency_us{op=...,loc=...}`` in the world's metrics
registry).

Because the store's segment is allocated as *shared-memory windows*,
requests whose key lives on a co-located rank move by load/store and
never touch the NIC; the run self-checks that identity
(``shm_ops == local op count``).  Cross-node requests ride the normal
RMA path, so the same workload contrasts cleanly across fabrics: the
flat (non-routed) personality, a 3-D torus, and a leaf/spine fat-tree
(``repro.obs.report --store`` prints the comparison table).
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.machine import generic_cluster
from repro.network import NetworkConfig, seastar_portals
from repro.obs.metrics import Histogram
from repro.runtime import World

__all__ = ["STORE_FABRICS", "OP_CLASSES", "sharded_store_run",
           "run_store_report", "format_store_table"]

#: Fabric personalities the serving report sweeps.
STORE_FABRICS = ("flat", "torus", "fattree")

#: Request classes in mix order.
OP_CLASSES = ("get", "put", "add")


def fabric_network(fabric: str) -> NetworkConfig:
    """The network personality for a named fabric."""
    if fabric == "flat":
        return seastar_portals()
    from repro.topo import fattree_network, torus_network

    if fabric == "torus":
        return torus_network((4, 4, 4))
    if fabric == "fattree":
        return fattree_network()
    raise ValueError(
        f"unknown fabric {fabric!r}; choose from {STORE_FABRICS}")


def _zipf_cdf(n_keys: int, s: float) -> List[float]:
    """Cumulative (unnormalized) Zipf weights: key ``k`` has weight
    ``1/(k+1)**s``, so low-numbered keys are the hot ones."""
    cdf: List[float] = []
    total = 0.0
    for k in range(n_keys):
        total += 1.0 / float(k + 1) ** s
        cdf.append(total)
    return cdf


def sharded_store_run(
    fabric: str = "flat",
    n_nodes: int = 8,
    ranks_per_node: int = 2,
    ops_per_rank: int = 150,
    n_keys: int = 512,
    zipf_s: float = 1.2,
    placement="hashed",
    mean_gap_us: float = 0.2,
    seed: int = 0,
    network: Optional[NetworkConfig] = None,
    world_out: Optional[list] = None,
) -> Dict[str, Any]:
    """Run the open-loop serving scenario; returns the result document.

    The document carries per-class latency distributions (p50/p99 from
    the exact log2-bucket histograms), the local/remote split, the
    shared-window op count, and NIC/fabric packet totals.  Two
    identities are self-checked: every issued request completed, and
    every key-local request moved by load/store (``shm_ops`` equals the
    local op count — co-located pairs cost zero NIC packets).
    """
    from repro.ga import ShardedStore
    from repro.pgas import Team

    machine = generic_cluster(n_nodes=n_nodes, ranks_per_node=ranks_per_node)
    network = network if network is not None else fabric_network(fabric)
    world = World(machine=machine, network=network, seed=seed)
    metrics = world.metrics
    cdf = _zipf_cdf(n_keys, zipf_s)

    def program(ctx):
        team = Team.world(ctx)
        store = yield from ShardedStore.create(team, n_keys,
                                               placement=placement)
        yield from ctx.comm.barrier()
        rng = random.Random(
            (seed * 1_000_003 + ctx.rank) * 2654435761 % (2 ** 31))
        counts = {cls: 0 for cls in OP_CLASSES}
        locality = {"local": 0, "remote": 0}
        pending = []
        for i in range(ops_per_rank):
            if mean_gap_us > 0.0:
                # open-loop arrivals: the client population offers load
                # independent of completions
                yield rng.expovariate(1.0 / mean_gap_us)
            key = bisect.bisect_left(cdf, rng.random() * cdf[-1])
            draw = rng.random()
            cls = ("get" if draw < 0.6 else
                   "put" if draw < 0.9 else "add")
            loc = "local" if store.is_local(key) else "remote"
            hist = metrics.histogram("store.latency_us", op=cls, loc=loc)
            t0 = ctx.sim.now
            if cls == "get":
                req = yield from store.get_nb(key)
            elif cls == "put":
                req = yield from store.put_nb(key, ctx.rank * 10_000 + i)
            else:
                req = yield from store.add_nb(key, 1)
            req.event.add_callback(
                lambda _ev, h=hist, t0=t0, sim=ctx.sim:
                h.observe(sim.now - t0))
            pending.append(req)
            counts[cls] += 1
            locality[loc] += 1
        yield from store.destroy()
        if not all(r.complete for r in pending):
            raise AssertionError(
                f"rank {ctx.rank}: requests still pending after the "
                "collective completion")
        return counts, locality

    out = world.run(program)
    if world_out is not None:
        world_out.append(world)

    totals = {cls: 0 for cls in OP_CLASSES}
    locality = {"local": 0, "remote": 0}
    for counts, loc in out:
        for cls in OP_CLASSES:
            totals[cls] += counts[cls]
        for k in locality:
            locality[k] += loc[k]

    classes: Dict[str, Any] = {}
    observed = 0
    for cls in OP_CLASSES:
        agg = Histogram(f"store.{cls}")
        for loc in ("local", "remote"):
            agg.merge(metrics.histogram("store.latency_us", op=cls, loc=loc))
        observed += agg.count
        classes[cls] = {
            "count": agg.count,
            "mean": agg.mean,
            "p50": agg.quantile(0.50),
            "p99": agg.quantile(0.99),
            "max": agg.max or 0.0,
        }
    n_ops = sum(totals.values())
    if observed != n_ops:
        raise AssertionError(
            f"latency accounting broke: issued {n_ops} requests but "
            f"observed {observed} completions")
    shm_ops = sum(world.contexts[r].rma.engine.stats["shm_ops"]
                  for r in range(world.n_ranks))
    if shm_ops != locality["local"]:
        raise AssertionError(
            f"shared-window accounting broke: {locality['local']} "
            f"key-local requests but {shm_ops} load/store ops — "
            "a co-located pair paid NIC packets")
    return {
        "schema": 1,
        "workload": "sharded_store",
        "fabric": fabric,
        "network": network.name,
        "seed": seed,
        "n_ranks": world.n_ranks,
        "n_nodes": n_nodes,
        "ranks_per_node": ranks_per_node,
        "n_keys": n_keys,
        "zipf_s": zipf_s,
        "placement": placement,
        "ops": n_ops,
        "per_class": totals,
        "classes": classes,
        "local_ops": locality["local"],
        "remote_ops": locality["remote"],
        "shm_ops": shm_ops,
        "nic_packets": sum(n.packets_sent for n in world.nics.values()),
        "intra_node_packets": world.fabric.intra_node_packets,
        "makespan_us": world.sim.now,
    }


def run_store_report(
    fabrics: Tuple[str, ...] = STORE_FABRICS,
    seeds: Tuple[int, ...] = (0,),
    ops_per_rank: int = 150,
    n_keys: int = 512,
    placement="hashed",
) -> Dict[str, Any]:
    """Run the serving scenario per fabric x seed; return the report
    document with one row per run plus per-fabric aggregates."""
    rows: List[Dict[str, Any]] = []
    for fabric in fabrics:
        for seed in seeds:
            rows.append(sharded_store_run(
                fabric=fabric, seed=seed, ops_per_rank=ops_per_rank,
                n_keys=n_keys, placement=placement))
    return {
        "schema": 1,
        "workload": "sharded_store",
        "fabrics": list(fabrics),
        "seeds": list(seeds),
        "ops_per_rank": ops_per_rank,
        "n_keys": n_keys,
        "placement": rows[0]["placement"] if rows else str(placement),
        "rows": rows,
    }


def format_store_table(doc: Dict[str, Any]) -> str:
    """Per-run, per-class latency table as aligned text."""
    from repro.obs.report import format_rows

    header = ["fabric", "seed", "op", "count", "p50_us", "p99_us",
              "mean_us", "max_us", "local", "remote", "shm_ops",
              "nic_pkts"]
    rows = [header]
    for r in doc["rows"]:
        for cls in OP_CLASSES:
            c = r["classes"][cls]
            rows.append([
                r["fabric"], str(r["seed"]), cls, str(c["count"]),
                f"{c['p50']:.2f}", f"{c['p99']:.2f}", f"{c['mean']:.2f}",
                f"{c['max']:.2f}", str(r["local_ops"]),
                str(r["remote_ops"]), str(r["shm_ops"]),
                str(r["nic_packets"]),
            ])
    return format_rows(rows, left_align=(0, 2))
