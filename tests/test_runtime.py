"""Tests for the World runtime harness."""

import pytest

from repro.faults import FaultPlan
from repro.machine import generic_cluster, nec_sx9
from repro.mpi.constants import ERRORS_RAISE, ERRORS_RETURN
from repro.network import quadrics_like, seastar_portals
from repro.runtime import World
from repro.sim import SimulationError


class TestConstruction:
    def test_n_ranks_builds_one_rank_per_node(self):
        w = World(n_ranks=5)
        assert w.n_ranks == 5
        assert len(w.nodes) == 5

    def test_machine_rank_count_wins(self):
        w = World(machine=generic_cluster(3))
        assert w.n_ranks == 3

    def test_n_ranks_resizes_single_rank_machine(self):
        w = World(n_ranks=6, machine=generic_cluster(2))
        assert w.n_ranks == 6

    def test_conflicting_rank_spec_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            World(n_ranks=5, machine=nec_sx9(n_nodes=2, ranks_per_node=2))

    def test_unknown_errhandler_rejected_at_both_entry_points(self):
        """A typo such as "raise" used to be accepted and then compared
        unequal to ERRORS_RAISE everywhere — silently ERRORS_RETURN."""
        with pytest.raises(ValueError, match="rma_errhandler.*errors_raise"
                                             ".*errors_return"):
            World(n_ranks=2, rma_errhandler="raise")
        w = World(n_ranks=2)
        with pytest.raises(ValueError, match="rma_errhandler"):
            w.set_errhandler("errors_ignore")
        assert w.rma_errhandler == ERRORS_RAISE
        w.set_errhandler(ERRORS_RETURN)
        assert w.rma_errhandler == ERRORS_RETURN

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
    def test_bad_n_ranks_names_the_argument(self, bad):
        """0 used to read as "unset" and complain about ``n_nodes``; 2.5
        died as a TypeError inside the placement map."""
        with pytest.raises(ValueError, match="n_ranks must be an integer "
                                             ">= 1, got " + repr(bad)):
            World(n_ranks=bad)

    def test_bad_seed_names_the_argument(self):
        """Used to die in the RNG registry as ``invalid literal for
        int() with base 10: 'x'``, naming no argument."""
        with pytest.raises(ValueError, match="seed must be an integer, "
                                             "got 'x'"):
            World(n_ranks=2, seed="x")
        with pytest.raises(ValueError, match="seed must be an integer"):
            World(n_ranks=2, seed=1.5)

    @pytest.mark.parametrize("bad", [-1, "4096", None])
    def test_bad_eager_threshold_names_the_argument(self, bad):
        """-1 used to be accepted silently (every message rendezvous)."""
        with pytest.raises(ValueError, match="eager_threshold must be a "
                                             "byte count >= 0, got "
                                             + repr(bad)):
            World(n_ranks=2, eager_threshold=bad)
        assert World(n_ranks=2, eager_threshold=0).endpoints[0] \
            .eager_threshold == 0

    @pytest.mark.parametrize("bad", ["portals", seastar_portals])
    def test_bad_network_names_the_argument(self, bad):
        """Used to die as ``'str' / 'function' object has no attribute
        'topology'``."""
        with pytest.raises(TypeError, match="network must be a "
                                            "NetworkConfig, got .*"
                                            + type(bad).__name__):
            World(n_ranks=2, network=bad)
        with pytest.raises(TypeError, match=r"network=seastar_portals\(\)"):
            World(n_ranks=2, network=seastar_portals)

    @pytest.mark.parametrize("bad", ["xt5", 4])
    def test_bad_machine_names_the_argument(self, bad):
        """Used to die as ``… object has no attribute 'n_ranks'``."""
        with pytest.raises(TypeError, match="machine must be a "
                                            "MachineConfig, got "
                                            + repr(bad)):
            World(machine=bad)

    def test_bad_fault_plan_names_the_argument(self):
        """Used to die as ``'str' object has no attribute 'active'``."""
        with pytest.raises(TypeError, match="fault_plan must be a "
                                            "FaultPlan, got 'drop'"):
            World(n_ranks=2, fault_plan="drop")
        assert World(n_ranks=2, fault_plan=FaultPlan()).injector is None

    def test_bad_intra_node_network_names_the_argument(self):
        """Used to be accepted and fail at the first same-node packet."""
        with pytest.raises(TypeError, match="intra_node_network must be a "
                                            "NetworkConfig, got 'shm'"):
            World(machine=nec_sx9(n_nodes=2, ranks_per_node=2),
                  intra_node_network="shm")

    def test_bad_resilience_names_the_argument(self):
        """Any truthy value used to build the detector with defaults."""
        with pytest.raises(TypeError, match="resilience must be None, a "
                                            "bool or a ResilienceConfig, "
                                            "got 'on'"):
            World(n_ranks=2, resilience="on")
        assert World(n_ranks=2, resilience=False).resil is None
        assert World(n_ranks=2, resilience=True).resil is not None

    def test_a_broken_frontend_import_surfaces_at_construction(
            self, monkeypatch):
        """An ImportError inside a frontend used to be swallowed, leave
        ``ctx.gasnet = None`` and resurface in the rank program as
        ``'NoneType' object has no attribute 'put'``."""
        import sys

        monkeypatch.setitem(sys.modules, "repro.baselines.gasnet", None)
        with pytest.raises(ImportError, match="repro.baselines.gasnet"):
            World(n_ranks=2)

    def test_multirank_nodes(self):
        w = World(machine=nec_sx9(n_nodes=2, ranks_per_node=2))
        assert w.n_ranks == 4
        assert w.nodes[0].ranks == [0, 1]

    def test_all_interfaces_attached(self):
        w = World(n_ranks=2)
        ctx = w.contexts[0]
        assert ctx.rma is not None
        assert ctx.mpi2 is not None
        assert ctx.armci is not None
        assert ctx.gasnet is not None
        assert ctx.shmem is not None

    def test_repr_mentions_machine_and_network(self):
        w = World(n_ranks=2, network=quadrics_like())
        assert "quadrics" in repr(w)


class TestRun:
    def test_returns_values_in_rank_order(self):
        def program(ctx):
            yield ctx.sim.timeout((ctx.size - ctx.rank) * 5.0)
            return ctx.rank * 10

        assert World(n_ranks=4).run(program) == [0, 10, 20, 30]

    def test_extra_args_passed_through(self):
        def program(ctx, a, b):
            return (ctx.rank, a + b)
            yield  # pragma: no cover

        out = World(n_ranks=2).run(program, 1, 2)
        assert out == [(0, 3), (1, 3)]

    def test_subset_of_ranks(self):
        def program(ctx):
            yield ctx.sim.timeout(1)
            return ctx.rank

        out = World(n_ranks=4).run(program, ranks=[1, 3])
        assert out == [1, 3]

    @pytest.mark.parametrize("bad", [5, -1])
    def test_unknown_rank_in_subset_rejected_before_anything_runs(self, bad):
        started = []

        def program(ctx):
            started.append(ctx.rank)
            yield ctx.sim.timeout(1)

        w = World(n_ranks=2)
        with pytest.raises(ValueError, match=r"ranks must name .*\[0, 2\)"
                                             r".*got " + str(bad)):
            w.run(program, ranks=[0, bad])
        assert started == [] and w.sim.now == 0.0

    def test_rank_exception_propagates(self):
        def program(ctx):
            yield ctx.sim.timeout(1)
            if ctx.rank == 2:
                raise RuntimeError("rank 2 exploded")

        with pytest.raises(RuntimeError, match="rank 2 exploded"):
            World(n_ranks=3).run(program)

    def test_deadlock_reports_blocked_ranks(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.recv(source=1)

        with pytest.raises(SimulationError, match=r"ranks \[0\]"):
            World(n_ranks=2).run(program)

    def test_time_limit(self):
        def program(ctx):
            yield ctx.sim.timeout(1000.0)

        with pytest.raises(SimulationError, match="time limit"):
            World(n_ranks=1).run(program, limit=10.0)

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), "10"])
    def test_bad_limit_rejected_before_anything_runs(self, bad):
        """limit=-1 used to spawn the ranks and then report them as
        never completed "(time limit reached)" at t = 0."""
        started = []

        def program(ctx):
            started.append(ctx.rank)
            yield ctx.sim.timeout(1)

        w = World(n_ranks=2)
        spawned = w.sim._processes_spawned
        with pytest.raises(ValueError, match="limit must be None or a "
                                             "simulated time >= 0, got"):
            w.run(program, limit=bad)
        assert started == [] and w.sim._processes_spawned == spawned
        assert w.run(program, limit=5.0) == [None, None]

    def test_consecutive_runs_share_state(self):
        """The same World can run phases back to back; memory persists."""
        w = World(n_ranks=2)

        def phase1(ctx):
            ctx.scratch = ctx.mem.space.alloc(8, fill=3)
            return None
            yield  # pragma: no cover

        def phase2(ctx):
            return ctx.mem.load(ctx.scratch, 0, 8).tolist()
            yield  # pragma: no cover

        w.run(phase1)
        assert w.run(phase2) == [[3] * 8, [3] * 8]

    def test_simulated_time_advances_monotonically(self):
        w = World(n_ranks=2)

        def program(ctx):
            yield ctx.sim.timeout(10)

        w.run(program)
        t1 = w.now
        w.run(program)
        assert w.now > t1

    def test_determinism_across_worlds(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(16)
                yield from ctx.rma.put(
                    src, 0, 16, __import__("repro.datatypes",
                                           fromlist=["BYTE"]).BYTE,
                    tmems[0], 0, 16,
                    __import__("repro.datatypes", fromlist=["BYTE"]).BYTE,
                    blocking=True, remote_completion=True,
                )
            yield from ctx.comm.barrier()
            return ctx.sim.now

        a = World(n_ranks=3, network=quadrics_like(), seed=9).run(program)
        b = World(n_ranks=3, network=quadrics_like(), seed=9).run(program)
        assert a == b


class TestCompute:
    def test_compute_advances_clock(self):
        def program(ctx):
            t0 = ctx.sim.now
            yield from ctx.compute(123.5)
            return ctx.sim.now - t0

        assert World(n_ranks=1).run(program) == [123.5]
