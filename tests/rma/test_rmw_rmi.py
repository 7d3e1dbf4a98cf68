"""Tests for RMW operations (§V) and the RMI xfer extension (§IV)."""

import pytest

from repro.machine import cray_xt5_catamount, generic_cluster
from repro.mpi.constants import ERRORS_RAISE, ERRORS_RETURN
from repro.network import infiniband_like, quadrics_like, seastar_portals
from repro.rma import RmaError
from repro.runtime import World
from repro.topo import torus_network


RMW_NETWORKS = {
    "hw-atomics": quadrics_like,       # small_atomics=True
    "sw-serializer": seastar_portals,  # small_atomics=False -> serializer
}


class TestFetchAndAdd:
    @pytest.mark.parametrize("netname", sorted(RMW_NETWORKS))
    def test_concurrent_increments_all_land(self, netname):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            olds = []
            if ctx.rank != 0:
                for _ in range(10):
                    old = yield from ctx.rma.fetch_and_add(
                        tmems[0], 0, "int64", 1
                    )
                    olds.append(int(old))
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return int(ctx.mem.space.view(alloc, "int64")[0])
            return olds

        out = World(n_ranks=5, network=RMW_NETWORKS[netname]()).run(program)
        assert out[0] == 40
        # every fetched old value is unique across all ranks (atomicity)
        seen = [v for r in range(1, 5) for v in out[r]]
        assert sorted(seen) == list(range(40))

    def test_fetch_and_add_float(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 1:
                old = yield from ctx.rma.fetch_and_add(
                    tmems[0], 0, "float64", 2.5
                )
                assert old == 0.0
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return float(ctx.mem.space.view(alloc, "float64")[0])

        assert World(n_ranks=2).run(program)[0] == 2.5


class TestCompareAndSwap:
    @pytest.mark.parametrize("netname", sorted(RMW_NETWORKS))
    def test_exactly_one_winner(self, netname):
        """All ranks CAS 0 -> their rank; exactly one succeeds."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            old = None
            if ctx.rank != 0:
                old = yield from ctx.rma.compare_and_swap(
                    tmems[0], 0, "int64", compare=0, value=ctx.rank
                )
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return int(ctx.mem.space.view(alloc, "int64")[0])
            return int(old)

        out = World(n_ranks=4, network=RMW_NETWORKS[netname]()).run(program)
        winner = out[0]
        assert winner in (1, 2, 3)
        winners = [r for r in (1, 2, 3) if out[r] == 0]
        assert len(winners) == 1
        assert winners[0] == winner

    def test_failed_cas_leaves_value(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "int64")[0] = 42
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                old = yield from ctx.rma.compare_and_swap(
                    tmems[0], 0, "int64", compare=0, value=99
                )
                assert int(old) == 42  # reports current value
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return int(ctx.mem.space.view(alloc, "int64")[0])

        assert World(n_ranks=2).run(program)[0] == 42

    def test_cas_requires_compare(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 1:
                yield from ctx.rma.engine.issue_rmw(
                    tmems[0], 0, "int64", "cas", 1
                )

        with pytest.raises(RmaError, match="compare"):
            World(n_ranks=2).run(program)


class TestSwap:
    def test_swap_returns_old(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "int32")[0] = 5
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                old = yield from ctx.rma.swap(tmems[0], 0, "int32", 9)
                assert int(old) == 5
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return int(ctx.mem.space.view(alloc, "int32")[0])

        assert World(n_ranks=2).run(program)[0] == 9


class TestRmwOnLockSerializer:
    def test_rmw_through_coarse_lock(self):
        """On Catamount + Portals (no hw atomics, no threads) RMW must
        route through the process-level lock and still be atomic."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank != 0:
                for _ in range(5):
                    yield from ctx.rma.fetch_and_add(tmems[0], 0, "int64", 1)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return int(ctx.mem.space.view(alloc, "int64")[0])

        w = World(machine=cray_xt5_catamount(4), network=seastar_portals(),
                  serializer="lock")
        assert w.run(program)[0] == 15

    def test_bad_rmw_op_rejected(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 1:
                yield from ctx.rma.engine.issue_rmw(
                    tmems[0], 0, "int64", "xor", 1
                )

        with pytest.raises(RmaError, match="unknown RMW"):
            World(n_ranks=2).run(program)


class TestRmi:
    def test_invoke_registered_method(self):
        def program(ctx):
            if ctx.rank == 0:
                state = {"hits": 0}

                def bump(amount):
                    state["hits"] += amount
                    return state["hits"]

                ctx.rma.register_rmi("bump", bump)
            yield from ctx.comm.barrier()
            result = None
            if ctx.rank == 1:
                r1 = yield from ctx.rma.invoke(0, "bump", 5)
                r2 = yield from ctx.rma.invoke(0, "bump", 2)
                result = (r1, r2)
            yield from ctx.comm.barrier()
            return result

        out = World(n_ranks=2).run(program)
        assert out[1] == (5, 7)

    def test_invoke_via_xfer_optype(self):
        """The paper motivates the optype field by future expansion such
        as remote method invocation; xfer('rmi') demonstrates it."""

        def program(ctx):
            if ctx.rank == 0:
                ctx.rma.register_rmi("double", lambda x: 2 * x)
            yield from ctx.comm.barrier()
            result = None
            if ctx.rank == 1:
                result = yield from ctx.rma.xfer(
                    "rmi", target_rank=0, rmi_name="double", rmi_args=(21,)
                )
            yield from ctx.comm.barrier()
            return result

        assert World(n_ranks=2).run(program)[1] == 42

    def test_unregistered_rmi_errors(self):
        def program(ctx):
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                yield from ctx.rma.invoke(0, "missing")
            yield from ctx.comm.barrier()

        with pytest.raises(RmaError, match="no RMI handler"):
            World(n_ranks=2).run(program)

    @pytest.mark.parametrize("torus", [False, True], ids=["flat", "torus"])
    @pytest.mark.parametrize("handler", [ERRORS_RAISE, ERRORS_RETURN])
    def test_unregistered_name_fails_the_request_not_the_target(
            self, handler, torus):
        """The target used to raise from its serializer worker and end
        the whole run, where neither the origin nor ``ERRORS_RETURN``
        could catch it.  It answers with the error instead: the origin's
        request raises it or returns it, and the target keeps serving."""
        world = (World(machine=generic_cluster(n_nodes=8),
                       network=torus_network((2, 2, 2)),
                       rma_errhandler=handler) if torus
                 else World(n_ranks=2, rma_errhandler=handler))
        for ctx in world.contexts.values():
            ctx.rma.register_rmi("double", lambda x: 2 * x)

        def program(ctx):
            yield from ctx.comm.barrier()
            out = None
            if ctx.rank == 0:
                try:
                    got = yield from ctx.rma.invoke(1, "nope", 3)
                except RmaError as err:
                    got = ("raised", err)
                served = yield from ctx.rma.invoke(1, "double", 21)
                out = got, served
            yield from ctx.comm.barrier()
            return out

        got, served = world.run(program)[0]
        if handler == ERRORS_RAISE:
            assert got[0] == "raised"
            got = got[1]
        assert isinstance(got, RmaError)
        assert str(got) == "rank 1: no RMI handler named 'nope'"
        assert (got.kind, got.op, got.src, got.target) \
            == ("usage", "rmi", 0, 1)
        assert served == 42

    def test_duplicate_rmi_registration_rejected(self):
        def program(ctx):
            ctx.rma.register_rmi("f", lambda: 1)
            ctx.rma.register_rmi("f", lambda: 2)
            return None
            yield  # pragma: no cover

        with pytest.raises(RmaError, match="already registered"):
            World(n_ranks=1).run(program)

    def test_rmi_unavailable_without_am_or_threads(self):
        """Catamount + Portals: neither AMs nor threads — the engine
        refuses RMI (the paper notes defining it is 'not trivial' on
        such architectures)."""

        def program(ctx):
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                yield from ctx.rma.invoke(0, "anything")

        w = World(machine=cray_xt5_catamount(2), network=seastar_portals(),
                  serializer="lock")
        with pytest.raises(RmaError, match="RMI requires"):
            w.run(program)
