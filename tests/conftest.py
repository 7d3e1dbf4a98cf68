"""Shared test helpers."""

import json
import os
from contextlib import contextmanager

from repro.bench.workloads import fig2_attribute_cost, halo_exchange_time
from repro.mpi.nexus import CollectiveNexus
from repro.rma.engine import RmaEngine

BENCH_PR1 = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_PR1.json")


def bench_pr1_drift():
    """Recompute every simulated time ``BENCH_PR1.json`` records (the
    Figure-2 points and the strawman halo) under the switches as they
    stand, and return the keys whose value differs by any amount —
    empty when the whole document reproduces bit for bit."""
    with open(BENCH_PR1) as fh:
        recorded = json.load(fh)["results"]
    fig2, halo = recorded["fig2"], recorded["halo"]
    drift = []
    for point, row in sorted(fig2["points"].items()):
        mode, size = point.split("/")
        got = fig2_attribute_cost(mode, int(size),
                                  puts_per_origin=fig2["puts_per_origin"])
        if got != row["sim_us"]:
            drift.append(f"fig2.{point}.sim_us")
    got = halo_exchange_time("strawman", n_ranks=halo["n_ranks"],
                             halo_bytes=halo["halo_bytes"],
                             iterations=halo["iterations"])
    if got != halo["sim_us_per_iter"]:
        drift.append("halo.sim_us_per_iter")
    return drift


@contextmanager
def fast_paths(train=None, nexus=None, shared=None):
    """Pin the class-level fast-path switches (``RmaEngine.train_enabled``,
    ``CollectiveNexus.enabled`` — the last covers the barrier walk and
    every message the engine can send without a packet: control messages,
    requests, replies and writes) and ``RmaEngine.shared_default`` (every
    exposure a shared-memory window) for the duration; ``None`` leaves a
    switch alone.  Worlds read the switches while they run, so build
    *and* run inside the block.  Also works as a decorator:
    ``fast_paths(train=False)(workload)()``."""
    wanted = [(RmaEngine, "train_enabled", train),
              (CollectiveNexus, "enabled", nexus),
              (RmaEngine, "shared_default", shared)]
    saved = [(cls, name, getattr(cls, name))
             for cls, name, value in wanted if value is not None]
    try:
        for cls, name, value in wanted:
            if value is not None:
                setattr(cls, name, value)
        yield
    finally:
        for cls, name, value in saved:
            setattr(cls, name, value)
