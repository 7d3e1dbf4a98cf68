"""Determinism pins for the PR-6 fast paths: the vectorized op-train
and the collective nexus.

Both are pure wall-clock optimizations — every simulated timestamp must
be bit-identical with the fast path on or off, on every fabric, and the
eligibility gates must self-disable them (rather than drift) under
faults.  Each parity test runs the same
workload twice, fast path off then on, and asserts float equality of
the returned simulated times; positive-engagement tests pin that the
fast paths actually fire on the configurations they claim to cover.
"""

import pytest

from repro.bench.workloads import fig2_attribute_cost, halo_exchange_time
from repro.faults import FaultPlan
from repro.network.config import (
    generic_rdma,
    infiniband_like,
    quadrics_like,
    seastar_portals,
)
from repro.topo import fattree_network, torus_network
from tests.conftest import fast_paths, record_multiset
from tests.mpi.test_live_barrier import _routes as _barrier_routes

# The seven fabrics the parity sweep covers: the four flat LogGP
# personalities plus the routed topologies (where the train self-
# disables — the sweep pins that disabling is what happens, not drift).
FABRICS = {
    "generic_rdma": generic_rdma,
    "quadrics_like": quadrics_like,
    "seastar_portals": seastar_portals,
    "infiniband_like": infiniband_like,
    "torus": lambda: torus_network((2, 2, 2)),
    "torus-adaptive": lambda: torus_network((2, 2, 2), adaptive=True),
    "fattree": lambda: fattree_network(),
}


class TestTrainParityAcrossFabrics:
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_halo_bit_identical(self, fabric):
        def run():
            return halo_exchange_time(
                "strawman", n_ranks=8, halo_bytes=4096, iterations=4,
                network=FABRICS[fabric](),
            )
        assert fast_paths(train=True)(run)() == fast_paths(train=False)(run)()

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_fig2_bit_identical(self, fabric):
        def run():
            return fig2_attribute_cost(
                "remote_complete", 16384, puts_per_origin=10,
                network=FABRICS[fabric](),
            )
        assert fast_paths(train=True)(run)() == fast_paths(train=False)(run)()


class TestTrainSelfDisables:
    """The gates: faults and mixed attributes must leave the simulated
    result identical because the train turns itself off (or replays
    exactly) rather than approximating.  Tracing is not a gate: a traced
    train leaves the records its packets would have."""

    def test_under_tracing_times_and_traces_identical(self):
        def run():
            sink = []
            sim_us = fig2_attribute_cost(
                "none", 16384, puts_per_origin=10, trace=True,
                world_out=sink,
            )
            world = sink[0]
            trains = sum(c.rma.stats["train_ops"]
                         for c in world.contexts.values())
            return sim_us, record_multiset(world.tracer), trains
        on = fast_paths(train=True)(run)()
        off = fast_paths(train=False)(run)()
        assert on[:2] == off[:2]
        assert on[2] == 70 and off[2] == 0

    def test_with_nonempty_fault_plan(self):
        def run():
            return fig2_attribute_cost(
                "remote_complete", 16384, puts_per_origin=10,
                fault_plan=FaultPlan().drop(0.05), seed=11,
            )
        assert fast_paths(train=True)(run)() == fast_paths(train=False)(run)()

    def test_mixed_attribute_stream(self):
        # Alternating attribute sets break op-window uniformity; the
        # train must pass those windows to the per-op path untouched.
        from repro.datatypes import BYTE
        from repro.runtime import World

        def run():
            world = World(n_ranks=2, network=seastar_portals(), seed=0)

            def program(ctx):
                alloc, tmems = yield from ctx.rma.expose_collective(1 << 16)
                src = ctx.mem.space.alloc(1 << 12)
                yield from ctx.comm.barrier()
                if ctx.rank == 0:
                    for i in range(12):
                        yield from ctx.rma.put(
                            src, 0, 1 << 12, BYTE,
                            tmems[1], 0, 1 << 12, BYTE,
                            ordering=bool(i % 2),
                            remote_completion=bool(i % 3 == 0),
                        )
                    yield from ctx.rma.complete()
                yield from ctx.comm.barrier()
                return ctx.sim.now

            return world.run(program)
        assert fast_paths(train=True)(run)() == fast_paths(train=False)(run)()


class TestTrainEngages:
    def test_fig2_issues_trains(self):
        sink = []
        fig2_attribute_cost("none", 16384, puts_per_origin=10,
                            world_out=sink)
        world = sink[0]
        trains = sum(ctx.rma.engine.stats["train_ops"]
                     for ctx in world.contexts.values())
        assert trains > 0

    def test_no_trains_when_disabled(self):
        def run():
            sink = []
            fig2_attribute_cost("none", 16384, puts_per_origin=10,
                                world_out=sink)
            return sum(ctx.rma.engine.stats["train_ops"]
                       for ctx in sink[0].contexts.values())
        assert fast_paths(train=False)(run)() == 0


class TestNexusParity:
    def test_halo_bit_identical(self):
        def run():
            return halo_exchange_time("strawman", n_ranks=8,
                                      halo_bytes=8192, iterations=10)
        assert fast_paths(nexus=True)(run)() == fast_paths(nexus=False)(run)()

    def test_halo_non_power_of_two_ranks(self):
        # Dissemination rounds with a non-power-of-2 world hit the
        # wrap-around partner pattern; the analytic replay must match.
        def run():
            return halo_exchange_time("strawman", n_ranks=6,
                                      halo_bytes=2048, iterations=6)
        assert fast_paths(nexus=True)(run)() == fast_paths(nexus=False)(run)()

    def test_fig2_bit_identical(self):
        def run():
            return fig2_attribute_cost("ordering", 16384,
                                       puts_per_origin=10)
        assert fast_paths(nexus=True)(run)() == fast_paths(nexus=False)(run)()

    def test_nexus_commits_on_halo(self):
        # Same shape as the perf harness halo: every barrier — the two
        # explicit ones and the ten behind complete_collective — takes
        # the live route, however skewed the ranks leave the previous one.
        from repro.runtime import World
        from repro.datatypes import BYTE

        world = World(n_ranks=8, network=seastar_portals(), seed=0)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(2 * 8192)
            src = ctx.mem.space.alloc(8192, fill=ctx.rank)
            yield from ctx.comm.barrier()
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            for _ in range(10):
                yield from ctx.rma.put(src, 0, 8192, BYTE,
                                       tmems[right], 0, 8192, BYTE,
                                       blocking=True)
                yield from ctx.rma.put(src, 0, 8192, BYTE,
                                       tmems[left], 8192, 8192, BYTE,
                                       blocking=True)
                yield from ctx.rma.complete_collective(ctx.comm)
            yield from ctx.comm.barrier()

        world.run(program)
        assert _barrier_routes(world) == {("live", None): 12}

    def test_small_payload_halo_bit_identical(self):
        # Small halo payloads put a rank's next put right behind a
        # peer's flush request and its acknowledgement: real traffic
        # shares NICs with barrier rounds still in flight.
        from repro.datatypes import BYTE
        from repro.runtime import World

        def run():
            world = World(n_ranks=8, network=seastar_portals(), seed=0)

            def program(ctx):
                alloc, tmems = yield from ctx.rma.expose_collective(2 * 1024)
                src = ctx.mem.space.alloc(1024, fill=ctx.rank)
                yield from ctx.comm.barrier()
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                for _ in range(6):
                    yield from ctx.rma.put(src, 0, 1024, BYTE,
                                           tmems[right], 0, 1024, BYTE,
                                           blocking=True)
                    yield from ctx.rma.put(src, 0, 1024, BYTE,
                                           tmems[left], 1024, 1024, BYTE,
                                           blocking=True)
                    yield from ctx.rma.complete_collective(ctx.comm)
                yield from ctx.comm.barrier()
                return ctx.sim.now

            return world.run(program)

        assert fast_paths(nexus=True)(run)() == fast_paths(nexus=False)(run)()

    def test_nexus_declines_when_burst_disabled(self):
        # With the train off every halo put is a lean 1-fragment write
        # beside the live barriers and flushes; with the nexus off too,
        # all of them are packets — times match all four ways.
        def run():
            return halo_exchange_time("strawman", n_ranks=4,
                                      halo_bytes=2048, iterations=4)
        with fast_paths(train=False, nexus=True):
            lean = run()
        with fast_paths(train=False, nexus=False):
            assert lean == run()
        assert lean == fast_paths(nexus=False)(run)() == run()
