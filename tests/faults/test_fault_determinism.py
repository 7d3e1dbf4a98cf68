"""Determinism guarantees of the fault-injection machinery.

Two properties are load-bearing:

1. *Reproducibility*: the same seed and the same plan give a
   bit-identical simulation — same final clock, same fault counts, same
   per-rank timings — so a chaos failure can always be replayed.
2. *Fast-path preservation*: an empty (or absent) fault plan changes
   nothing.  The injector and the reliable transport stay unarmed and
   every simulated timestamp matches the fault-free build exactly, with
   messages in their lean form and as packets.
"""

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.network.config import generic_rdma
from repro.runtime import World
from tests.conftest import fast_paths


def workload(ctx):
    """A mixed put/get workload; returns the rank's completion time."""
    alloc, tmems = yield from ctx.rma.expose_collective(2048)
    src = ctx.mem.space.alloc(2048)
    ctx.mem.space.buffer(src)[:] = ctx.rank % 251
    peer = (ctx.rank + 1) % ctx.size
    for i in range(4):
        yield from ctx.rma.put(src, 0, 256, BYTE, tmems[peer],
                               i * 256, 256, BYTE)
    yield from ctx.rma.complete()
    dst = ctx.mem.space.alloc(256)
    yield from ctx.rma.get(dst, 0, 256, BYTE, tmems[peer], 0, 256, BYTE,
                           blocking=True)
    yield from ctx.comm.barrier()
    return ctx.sim.now


def run(plan, seed=0):
    w = World(n_ranks=4, network=generic_rdma(), fault_plan=plan, seed=seed)
    times = w.run(workload)
    return w, times


class TestReproducibility:
    def test_same_seed_same_plan_bit_identical(self):
        plan = FaultPlan().drop(0.05).duplicate(0.02).corrupt(0.02).delay(0.05)
        w1, t1 = run(plan, seed=7)
        w2, t2 = run(plan, seed=7)
        assert t1 == t2
        assert w1.sim.now == w2.sim.now
        s1, s2 = w1.fault_stats(), w2.fault_stats()
        assert s1["injector"] == s2["injector"]
        assert s1["transport"] == s2["transport"]
        assert s1["counters"] == s2["counters"]

    def test_different_seed_diverges(self):
        # Sanity check that the faults genuinely depend on the seed (the
        # previous test cannot distinguish "deterministic" from "inert").
        plan = FaultPlan().drop(0.10).delay(0.10)
        _, t1 = run(plan, seed=1)
        _, t2 = run(plan, seed=2)
        assert t1 != t2


class TestFastPathPreserved:
    @pytest.mark.parametrize("nexus", [True, False],
                             ids=["lean", "packets"])
    def test_empty_plan_is_timestamp_identical_to_no_plan(self, nexus):
        with fast_paths(nexus=nexus):
            _, t_none = run(None)
            _, t_empty = run(FaultPlan.empty())
        assert t_empty == t_none

    def test_empty_plan_arms_nothing(self):
        w, _ = run(FaultPlan.empty())
        assert w.injector is None
        assert all(nic.transport is None for nic in w.nics.values())
        stats = w.fault_stats()
        assert not stats["injector"]
        assert stats["transport"] == {}

    def test_armed_but_inert_plan_is_reproducible(self):
        # A plan with zero-probability losses arms the transport (acks
        # on the wire legitimately shift timestamps vs. no plan at all)
        # but must still be deterministic and lossless.
        plan = FaultPlan().drop(0.0)
        w1, t1 = run(plan)
        w2, t2 = run(plan)
        assert t1 == t2
        assert w1.fault_stats()["injector"]["dropped"] == 0
        assert sum(s["retransmits"]
                   for s in w1.fault_stats()["transport"].values()) == 0
