"""Chaos tests: full RMA workloads under injected faults.

Every test runs a real multi-rank workload on a lossy ``generic_rdma``
fabric and asserts both liveness (the run completes — retransmission and
failure reporting mean no fault may hang the world) and safety (every
byte that was supposed to land, landed intact).

The seed is taken from ``CHAOS_SEED`` so CI can sweep a matrix of seeds
over the very same tests.
"""

import os

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.mpi.constants import ERRORS_RETURN
from repro.network.config import generic_rdma
from repro.network.fabric import Fabric
from repro.network.nic import Nic
from repro.rma.target_mem import RmaError
from repro.runtime import World

SEED = int(os.environ.get("CHAOS_SEED", "7"))


def ring_put_program(ctx):
    """Each rank streams 8 puts into its right neighbour, then verifies
    the data its left neighbour wrote into it."""
    alloc, tmems = yield from ctx.rma.expose_collective(4096)
    buf = ctx.mem.space.buffer(alloc)
    src = ctx.mem.space.alloc(4096)
    sbuf = ctx.mem.space.buffer(src)
    sbuf[:] = (ctx.rank + 1) % 251
    peer = (ctx.rank + 1) % ctx.size
    for i in range(8):
        yield from ctx.rma.put(src, 0, 512, BYTE, tmems[peer],
                               (i * 512) % 4096, 512, BYTE)
    yield from ctx.rma.complete()
    yield from ctx.comm.barrier()
    writer = (ctx.rank - 1) % ctx.size
    assert (buf[:4096] == (writer + 1) % 251).all()
    return True


def run_ring(plan, seed=SEED, n_ranks=4):
    w = World(n_ranks=n_ranks, network=generic_rdma(), fault_plan=plan,
              seed=seed)
    results = w.run(ring_put_program)
    assert results == [True] * n_ranks
    return w


class TestLossyFabric:
    def test_drop_five_percent_all_data_lands(self):
        w = run_ring(FaultPlan().drop(0.05))
        stats = w.fault_stats()
        assert stats["injector"]["dropped"] > 0, "plan never fired"
        retransmits = sum(s["retransmits"]
                          for s in stats["transport"].values())
        # Not every drop forces a retransmit (a loss on the very last
        # exchange dies with the run), but recovery must have happened.
        assert retransmits > 0

    def test_corruption_detected_and_retransmitted(self):
        w = run_ring(FaultPlan().corrupt(0.05))
        stats = w.fault_stats()
        assert stats["injector"]["corrupted"] > 0, "plan never fired"
        csum_drops = sum(s["csum_drops"]
                         for s in stats["transport"].values())
        assert csum_drops > 0, "no corruption was caught by checksums"

    def test_duplicates_are_suppressed(self):
        w = run_ring(FaultPlan().duplicate(0.10))
        stats = w.fault_stats()
        assert stats["injector"]["duplicated"] > 0, "plan never fired"
        dup_rx = sum(s["dup_rx"] for s in stats["transport"].values())
        assert dup_rx > 0, "no duplicate reached a receiver"

    def test_delays_do_not_break_correctness(self):
        w = run_ring(FaultPlan().delay(0.20, mean=25.0))
        assert w.fault_stats()["injector"]["delayed"] > 0

    def test_everything_at_once(self):
        plan = (FaultPlan()
                .drop(0.03).duplicate(0.03).corrupt(0.03).delay(0.05))
        run_ring(plan)

    def test_hw_ack_loss_recovered_by_transport(self):
        # Hardware delivery acks are never retransmitted; the transport's
        # own acks must complete the operations anyway.
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(4096)
            buf = ctx.mem.space.buffer(alloc)
            src = ctx.mem.space.alloc(512)
            ctx.mem.space.buffer(src)[:] = ctx.rank + 1
            peer = (ctx.rank + 1) % ctx.size
            for i in range(8):
                yield from ctx.rma.put(src, 0, 512, BYTE, tmems[peer],
                                       i * 512, 512, BYTE,
                                       remote_completion=True)
            yield from ctx.rma.complete()
            yield from ctx.comm.barrier()
            writer = (ctx.rank - 1) % ctx.size
            assert (buf[:4096] == writer + 1).all()
            return True

        w = World(n_ranks=4, network=generic_rdma(),
                  fault_plan=FaultPlan().drop(0.5, kinds=("hw.ack",)),
                  seed=SEED)
        assert w.run(program) == [True] * 4
        assert w.fault_stats()["injector"]["hw_acks_dropped"] > 0


class TestLandingInstants:
    def test_every_landing_runs_at_an_instant_the_fabric_returned(
            self, monkeypatch):
        """A message lands at the very instant ``Fabric.landings``
        computed for it — delayed, duplicated or neither — bit for bit,
        not at ``now + (instant - now)``.  The seed is fixed: a chaos
        seed need not produce a landing that rounding would move."""
        returned, landed = set(), []
        landings, land = Fabric.landings, Nic.land

        def recording(self, *args):
            instants = landings(self, *args)
            returned.update(instants)
            return instants

        def landing(self, *args):
            landed.append(self.sim.now)
            return land(self, *args)

        monkeypatch.setattr(Fabric, "landings", recording)
        monkeypatch.setattr(Nic, "land", landing)
        w = run_ring(FaultPlan().delay(0.3, mean=7.3).duplicate(0.2),
                     seed=3)
        stats = w.fault_stats()["injector"]
        assert stats["delayed"] > 0 and stats["duplicated"] > 0
        assert len(landed) > 100
        assert [t for t in landed if t not in returned] == []


class TestStall:
    def test_stalled_nic_delays_but_completes(self):
        clean = run_ring(FaultPlan.empty().drop(0.0))
        # .drop(0.0) makes the plan *active* (injector armed, transport
        # on) without ever firing — the faulty-path timing baseline.
        stalled = run_ring(
            FaultPlan().drop(0.0).stall(rank=0, start=5.0, duration=500.0))
        assert stalled.fault_stats()["injector"]["stalls"] == 1
        assert stalled.sim.now > clean.sim.now


class TestKillRank:
    def test_kill_yields_failed_requests_with_structured_errors(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(4096)
            src = ctx.mem.space.alloc(512)
            ctx.mem.space.buffer(src)[:] = 7
            if ctx.rank == 1:
                yield ctx.sim.timeout(100_000.0)
                return "survived"
            if ctx.rank == 0:
                failure = None
                for _ in range(200):
                    req = yield from ctx.rma.put(
                        src, 0, 512, BYTE, tmems[1], 0, 512, BYTE,
                        remote_completion=True)
                    err = yield from req.wait()
                    if req.state == "failed":
                        failure = err
                        break
                assert failure is not None, "puts at a dead rank kept passing"
                assert isinstance(failure, RmaError)
                assert failure.target == 1
                assert failure.op == "put"
                assert failure.retries is not None and failure.retries >= 1
                assert failure.sim_time is not None
                assert failure.sim_time >= 200.0
                errs = yield from ctx.rma.complete()
                assert all(isinstance(e, RmaError) for e in errs)
                # the path is now known-broken: instant failure, no timers
                req = yield from ctx.rma.put(src, 0, 512, BYTE, tmems[1],
                                             0, 512, BYTE)
                err = yield from req.wait()
                assert req.state == "failed" and isinstance(err, RmaError)
            return ctx.rank

        plan = FaultPlan().kill(rank=1, at=200.0).with_transport(retry_budget=3)
        w = World(n_ranks=3, network=generic_rdma(), fault_plan=plan,
                  seed=SEED, rma_errhandler=ERRORS_RETURN)
        results = w.run(program)
        # the killed rank's program reports no result; survivors finish
        assert results == [0, None, 2]
        assert w.fault_stats()["injector"]["kills"] == 1
        assert w.fault_stats()["dead_dropped"] > 0

    def test_errors_raise_handler_propagates(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(64)
            if ctx.rank == 1:
                yield ctx.sim.timeout(100_000.0)
            if ctx.rank == 0:
                for _ in range(200):
                    req = yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1],
                                                 0, 64, BYTE,
                                                 remote_completion=True)
                    yield from req.wait()  # raises once the path dies
            return ctx.rank

        plan = FaultPlan().kill(rank=1, at=200.0).with_transport(retry_budget=2)
        w = World(n_ranks=2, network=generic_rdma(), fault_plan=plan, seed=SEED)
        with pytest.raises(RmaError):
            w.run(program)


class TestDegradation:
    def test_persistent_loss_degrades_hw_acks_to_software(self):
        plan = (FaultPlan()
                .drop(0.35, dst=1)
                .with_transport(degrade_threshold=3, retry_budget=50))
        w = run_ring(plan, n_ranks=4)
        assert w.nics[0].path_degraded(1), (
            "heavy loss toward rank 1 never crossed the degradation "
            "threshold")
        assert not w.nics[0].path_degraded(2)
