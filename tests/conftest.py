"""Shared test helpers."""

import json
from collections import Counter
import os
from contextlib import contextmanager

from repro.bench.workloads import fig2_attribute_cost, halo_exchange_time
from repro.network.nic import Nic
from repro.rma.engine import RmaEngine
from repro.sim import Simulator

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
    ``Nic.enabled`` — the NIC's reference switch: off, the barrier walk
    stands down and every multi-fragment message is one post per
    fragment) and ``RmaEngine.shared_default`` (every exposure a
    shared-memory window) for the duration; ``None`` leaves a switch
    alone.  Worlds read the switches while they run, so build
    *and* run inside the block.  Also works as a decorator:
    ``fast_paths(train=False)(workload)()``."""
    wanted = [(RmaEngine, "train_enabled", train),
              (Nic, "enabled", nexus),
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


def record_multiset(tracer):
    """A tracer's records as a multiset, ``seq`` left out: what the fast
    paths must reproduce of the packets they stand in for.  A fast path
    may append a record before or after the instant it carries (DESIGN
    §9), so append order is not compared."""
    return Counter((r.time, r.category, r.kind, r.rank,
                    tuple(sorted(r.detail.items())))
                   for r in tracer)


def gated_posts(monkeypatch):
    """Record the kind of every ``Nic.post`` made where the NIC's gate
    is closed (``Nic.closed_gate``): one per message of the reference
    path, a multi-fragment message counting once per fragment.  An
    ``rma.frag`` is recorded with its remote-completion mode
    (``rma.frag:none``, ``rma.frag:hw`` …)."""
    posted = []
    post = Nic.post

    def spy(self, dst, kind, fn, args, *rest, **kwargs):
        if self.closed_gate() is not None:
            posted.append(kind if kind != "rma.frag"
                          else f"{kind}:{args[1]['ack']}")  # desc
        return post(self, dst, kind, fn, args, *rest, **kwargs)

    monkeypatch.setattr(Nic, "post", spy)
    return posted


#: Every entry point that files a timed callback (all but the urgent one).
TIMED_FILINGS = ("schedule", "schedule_call", "schedule_call_at",
                 "schedule_bulk_succeed_at")


def timed_filings(monkeypatch):
    """Count the timed callbacks filed on any ``Simulator`` from now on.
    A timed callback leaves the kernel only by running, so the count
    filed while a world was built and run, less
    :func:`timed_pending` after, is the number of timed callbacks that
    run ran — one heap pop each in a ``(time, seq)`` tuple heap."""
    filed = [0]
    for name in TIMED_FILINGS:
        def counting(self, *args, _file=getattr(Simulator, name)):
            filed[0] += 1
            return _file(self, *args)
        monkeypatch.setattr(Simulator, name, counting)
    return filed


def timed_pending(sim):
    """Timed callbacks still filed on ``sim``."""
    return sim.pending_count() - len(sim._urgent)
