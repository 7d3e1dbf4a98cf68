"""Edge-case tests for the RMA engine."""

import numpy as np
import pytest

from repro.datatypes import BYTE, FLOAT32, FLOAT64, INT32, INT64
from repro.datatypes.derived import struct_type
from repro.network import NetworkConfig, generic_rdma, seastar_portals
from repro.rma import RmaAttrs, RmaError
from repro.runtime import World


class TestSelfRma:
    def test_put_get_to_own_rank(self):
        """Loopback RMA (a rank targeting its own exposed memory) goes
        through the same protocol path and works."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(8, fill=ctx.rank + 1)
            yield from ctx.rma.put(src, 0, 8, BYTE, tmems[ctx.rank], 0, 8,
                                   BYTE, blocking=True,
                                   remote_completion=True)
            dst = ctx.mem.space.alloc(8)
            yield from ctx.rma.get(dst, 0, 8, BYTE, tmems[ctx.rank], 0, 8,
                                   BYTE, blocking=True)
            return ctx.mem.load(dst, 0, 8).tolist()

        out = World(n_ranks=2).run(program)
        assert out == [[1] * 8, [2] * 8]

    def test_self_rmw(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            old = yield from ctx.rma.fetch_and_add(tmems[ctx.rank], 0,
                                                   "int64", 7)
            return (int(old), int(ctx.mem.space.view(alloc, "int64")[0]))

        assert World(n_ranks=1).run(program) == [(0, 7)]


class TestMtuBoundaries:
    @pytest.mark.parametrize("size_rel", [-1, 0, 1])
    def test_payload_around_mtu(self, size_rel):
        mtu = 256
        size = mtu + size_rel

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(2048)
            result = None
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(size)
                ctx.mem.store(src, 0, (np.arange(size) % 251).astype(np.uint8))
                yield from ctx.rma.put(src, 0, size, BYTE, tmems[0], 0, size,
                                       BYTE, blocking=True,
                                       remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                got = ctx.mem.load(alloc, 0, size)
                result = bool((got == (np.arange(size) % 251)).all())
            return result

        net = generic_rdma().with_(mtu=mtu)
        assert World(n_ranks=2, network=net).run(program)[0] is True

    def test_tiny_mtu_many_fragments(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(1024)
            result = None
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(1000)
                ctx.mem.store(src, 0, (np.arange(1000) % 251).astype(np.uint8))
                yield from ctx.rma.put(src, 0, 1000, BYTE, tmems[0], 0, 1000,
                                       BYTE, blocking=True,
                                       remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                got = ctx.mem.load(alloc, 0, 1000)
                result = bool((got == (np.arange(1000) % 251)).all())
            return result

        net = generic_rdma().with_(mtu=8)
        assert World(n_ranks=2, network=net).run(program)[0] is True

    def test_mtu_validation(self):
        with pytest.raises(ValueError, match="mtu"):
            NetworkConfig(mtu=4)


class TestStrictModeDebugging:
    def test_strict_default_prevents_torn_overlap(self):
        """The paper's debug story: turning on the most stringent rules
        turns racy overlapping puts into serialized ones."""

        def writers(strict):
            def program(ctx):
                alloc, tmems = yield from ctx.rma.expose_collective(20_000)
                if strict:
                    ctx.rma.set_default_attrs(RmaAttrs.strict(), ctx.comm)
                result = None
                if ctx.rank != 0:
                    src = ctx.mem.space.alloc(20_000, fill=ctx.rank)
                    yield from ctx.rma.put(src, 0, 20_000, BYTE, tmems[0], 0,
                                           20_000, BYTE,
                                           **({} if strict else
                                              {"blocking": True,
                                               "remote_completion": True}))
                yield from ctx.rma.complete_collective(ctx.comm)
                if ctx.rank == 0:
                    result = len(np.unique(ctx.mem.load(alloc, 0, 20_000)))
                return result
            return program

        from repro.network import quadrics_like

        torn_seed = None
        for seed in range(20):
            w = World(n_ranks=3, network=quadrics_like(), seed=seed)
            if w.run(writers(strict=False))[0] > 1:
                torn_seed = seed
                break
        assert torn_seed is not None, "baseline never tore; test is vacuous"
        w = World(n_ranks=3, network=quadrics_like(), seed=torn_seed)
        assert w.run(writers(strict=True))[0] == 1


class TestMultipleExposures:
    def test_several_exposures_of_distinct_allocs(self):
        def program(ctx):
            a1 = ctx.mem.space.alloc(32)
            a2 = ctx.mem.space.alloc(32)
            t1 = ctx.rma.expose(a1)
            t2 = ctx.rma.expose(a2)
            both = yield from ctx.comm.allgather((t1, t2))
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(8, fill=9)
                yield from ctx.rma.put(src, 0, 8, BYTE, both[0][1], 0, 8,
                                       BYTE, blocking=True,
                                       remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return (ctx.mem.load(a1, 0, 8).tolist(),
                        ctx.mem.load(a2, 0, 8).tolist())

        out = World(n_ranks=2).run(program)
        assert out[0] == ([0] * 8, [9] * 8)

    def test_same_alloc_exposed_twice_distinct_ids(self):
        def program(ctx):
            a = ctx.mem.space.alloc(16)
            t1 = ctx.rma.expose(a)
            t2 = ctx.rma.expose(a)
            assert t1.mem_id != t2.mem_id
            ctx.rma.withdraw(t1)
            # t2 still live after withdrawing t1
            tm = yield from ctx.comm.bcast(t2 if ctx.rank == 0 else None)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(4, fill=3)
                yield from ctx.rma.put(src, 0, 4, BYTE, tm, 0, 4, BYTE,
                                       blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.load(a, 0, 4).tolist()

        assert World(n_ranks=2).run(program)[0] == [3] * 4


class TestRmwTypes:
    @pytest.mark.parametrize("np_elem,operand,expect", [
        ("int32", 3, 3),
        ("int64", -2, -2),
        ("float64", 1.5, 1.5),
        ("uint16", 9, 9),
    ])
    def test_fetch_add_across_types(self, np_elem, operand, expect):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            if ctx.rank == 1:
                yield from ctx.rma.fetch_and_add(tmems[0], 0, np_elem,
                                                 operand)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.space.view(alloc, np_elem)[0].item()

        assert World(n_ranks=2).run(program)[0] == expect

    def test_float_cas(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "float64")[0] = 2.5
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                old = yield from ctx.rma.compare_and_swap(
                    tmems[0], 0, "float64", compare=2.5, value=7.25
                )
                assert float(old) == 2.5
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return float(ctx.mem.space.view(alloc, "float64")[0])

        assert World(n_ranks=2).run(program)[0] == 7.25


class TestCompletionCorners:
    def test_complete_twice_is_idempotent(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(8)
                yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                       blocking=True)
                yield from ctx.rma.complete(ctx.comm, 0)
                t0 = ctx.sim.now
                yield from ctx.rma.complete(ctx.comm, 0)  # nothing pending
                return ctx.sim.now - t0
            yield from ctx.comm.barrier()

        def wrapped(ctx):
            r = yield from program(ctx)
            if ctx.rank == 1:
                yield from ctx.comm.barrier()
            return r

        assert World(n_ranks=2).run(wrapped)[1] < 1.0

    def test_interleaved_order_and_complete(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            result = None
            if ctx.rank == 1:
                a = ctx.mem.space.alloc(8, fill=1)
                b = ctx.mem.space.alloc(8, fill=2)
                c = ctx.mem.space.alloc(8, fill=3)
                yield from ctx.rma.put(a, 0, 8, BYTE, tmems[0], 0, 8, BYTE)
                yield from ctx.rma.order(ctx.comm, 0)
                yield from ctx.rma.put(b, 0, 8, BYTE, tmems[0], 0, 8, BYTE)
                yield from ctx.rma.complete(ctx.comm, 0)
                yield from ctx.rma.put(c, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                       ordering=True)
                yield from ctx.rma.complete(ctx.comm, 0)
                yield from ctx.comm.send("done", dest=0)
                yield from ctx.comm.barrier()
            elif ctx.rank == 0:
                yield from ctx.comm.recv(source=1)
                result = ctx.mem.load(alloc, 0, 8).tolist()
                yield from ctx.comm.barrier()
            return result

        from repro.network import quadrics_like

        for seed in range(6):
            out = World(n_ranks=2, network=quadrics_like(), seed=seed).run(
                program
            )
            assert out[0] == [3] * 8, f"seed {seed}"


class TestNegativeCounts:
    """A negative element count used to reach ``np.empty`` in the packer
    ("negative dimensions are not allowed"); it is a usage error of the
    op, reported like an out-of-window access, before any time passes."""

    @pytest.mark.parametrize("entry", ["put", "get", "accumulate",
                                       "get_accumulate"])
    @pytest.mark.parametrize("which", ["origin_count", "target_count"])
    def test_rejected_by_name_before_time_passes(self, entry, which):
        o_count, t_count = (-1, 8) if which == "origin_count" else (8, -2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64)
            before = ctx.sim.now
            with pytest.raises(RmaError) as err:
                yield from getattr(ctx.rma, entry)(
                    buf, 0, o_count, BYTE, tmems[1 - ctx.rank], 0, t_count,
                    BYTE)
            assert ctx.sim.now == before
            yield from ctx.comm.barrier()
            return str(err.value)

        for message in World(n_ranks=2).run(program):
            assert f"{which} must be >= 0" in message
            assert f"got {min(o_count, t_count)}" in message


class TestNonIntegerArguments:
    """A fractional displacement, offset or count used to be issued and
    counted, and then died as a raw slicing/``np.empty`` ``TypeError``
    wherever the bytes were touched — for a train element inside
    *another* rank's call, naming neither the op nor its origin.  It is
    a usage error of the op: reported by name at the call, before any
    time passes and before anything is counted."""

    TRANSFERS = ["put", "get", "accumulate", "get_accumulate"]
    #: (argument, bad value) -> (origin_offset, origin_count, target_disp,
    #: target_count) of the call
    BAD = {
        ("target_disp", 0.5): (0, 8, 0.5, 8),
        ("origin_offset", 0.5): (0.5, 8, 0, 8),
        ("origin_count", 1.5): (0, 1.5, 0, 8),
        ("origin_count", 2.0): (0, 2.0, 0, 2),
        ("target_count", 1.5): (0, 8, 0, 1.5),
        ("target_count", 2.0): (0, 2, 0, 2.0),
        ("target_disp", "8"): (0, 8, "8", 8),
        ("origin_count", None): (0, None, 0, 8),
    }

    @staticmethod
    def _untouched(ctx, call):
        """Run ``call`` (which must raise) on rank 0 and return the
        error text, asserting that nothing moved."""
        eng = ctx.rma.engine
        before = (ctx.sim.now, dict(eng.stats), ctx.nic.packets_sent)
        with pytest.raises(RmaError) as err:
            yield from call()
        assert (ctx.sim.now, dict(eng.stats), ctx.nic.packets_sent) == before
        return str(err.value)

    @pytest.mark.parametrize("entry", TRANSFERS)
    @pytest.mark.parametrize("which,bad", list(BAD), ids=repr)
    def test_transfer_rejected_by_name_before_anything_moves(
            self, entry, which, bad):
        o_off, o_count, t_disp, t_count = self.BAD[which, bad]
        dtype = BYTE if entry == "put" else FLOAT64   # accumulates need a type

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64)
            message = None
            if ctx.rank == 0:
                message = yield from self._untouched(
                    ctx, lambda: getattr(ctx.rma, entry)(
                        buf, o_off, o_count, dtype, tmems[1], t_disp,
                        t_count, dtype))
            yield from ctx.comm.barrier()
            return message

        kind = {"accumulate": "acc", "get_accumulate": "getacc"}.get(
            entry, entry)
        message = World(n_ranks=2).run(program)[0]
        assert message == (f"{which} must be an integer, got {bad!r} "
                           f"({kind} from rank 0 to target_mem on rank 1)")

    @pytest.mark.parametrize("entry,args", [
        ("fetch_and_add", ("int64", 1)),
        ("swap", ("int64", 1)),
        ("compare_and_swap", ("int64", 0, 1)),
    ])
    def test_rmw_displacement_rejected_by_name(self, entry, args):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            message = None
            if ctx.rank == 0:
                message = yield from self._untouched(
                    ctx, lambda: getattr(ctx.rma, entry)(tmems[1], 0.5, *args))
            yield from ctx.comm.barrier()
            return message

        assert World(n_ranks=2).run(program)[0] == (
            "target_disp must be an integer, got 0.5 (rmw from rank 0 to "
            "target_mem on rank 1)")

    def test_numpy_integers_pass_as_before(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64, fill=7)
            if ctx.rank == 0:
                yield from ctx.rma.put(
                    buf, np.int64(8), np.int32(16), BYTE, tmems[1],
                    np.uint8(24), np.int64(16), BYTE)
                old = yield from ctx.rma.fetch_and_add(
                    tmems[1], np.int64(0), "int64", 5)
                assert old == 0
            yield from ctx.rma.complete_collective(ctx.comm)
            return bytes(ctx.mem.space.buffer(alloc))

        window = World(n_ranks=2).run(program)[1]
        assert window[24:40] == bytes([7]) * 16
        assert window[:8] == (5).to_bytes(8, "little")


class TestRmwArguments:
    """An rmw's element type, operand and compare value were never
    checked although ``rmw_apply`` took them as "validated at issue":
    a list operand wrote two words where one was approved (or died in
    the target's serializer past the window's end), a string, ``None``
    or out-of-range operand raised a raw numpy error inside the
    *target's* NIC, ``1.5`` silently added 1, ``"U8"`` silently
    returned ``''``.  Each is a usage error of the call: reported by
    name before any time passes and before anything is counted."""

    OP = {"swap": "swap", "fetch_and_add": "fetch_add",
          "compare_and_swap": "cas"}
    #: (entry, disp, np_elem, value arguments, argument named, bad value)
    VALUES = [
        ("swap", 0, "int64", ([7, 9],), "operand", [7, 9]),
        ("swap", 56, "int64", ([7, 9],), "operand", [7, 9]),
        ("fetch_and_add", 0, "int64", ("abc",), "operand", "abc"),
        ("fetch_and_add", 0, "int64", (None,), "operand", None),
        ("fetch_and_add", 0, "int64", (1.5,), "operand", 1.5),
        ("fetch_and_add", 0, "int8", (1000,), "operand", 1000),
        ("compare_and_swap", 0, "int64", ("x", 1), "compare", "x"),
        ("compare_and_swap", 0, "int64", (0, 2.5), "operand", 2.5),
    ]

    @staticmethod
    def _rejected(entry, disp, np_elem, values):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            message = None
            if ctx.rank == 0:
                message = yield from TestNonIntegerArguments._untouched(
                    ctx, lambda: getattr(ctx.rma, entry)(
                        tmems[1], disp, np_elem, *values))
            yield from ctx.comm.barrier()
            return message

        world = World(n_ranks=2, network=seastar_portals())
        return world.run(program)[0]

    @pytest.mark.parametrize("entry,disp,np_elem,values,name,bad", VALUES,
                             ids=repr)
    def test_bad_value_rejected_by_name(self, entry, disp, np_elem, values,
                                        name, bad):
        assert self._rejected(entry, disp, np_elem, values) == (
            f"{self.OP[entry]} {name} must be a scalar exactly "
            f"representable as {np_elem}, got {bad!r} (rmw from rank 0 to "
            f"target_mem on rank 1)")

    @pytest.mark.parametrize("np_elem", ["int33", "V8", "O", "U8"])
    def test_non_numeric_element_type_rejected_by_name(self, np_elem):
        assert self._rejected("fetch_and_add", 0, np_elem, (1,)) == (
            f"fetch_add element type must be a numeric NumPy type (bool, "
            f"integer, unsigned, float or complex), got {np_elem!r} (rmw "
            f"from rank 0 to target_mem on rank 1)")

    def test_exact_values_pass(self):
        """An exact float for an integer word, a NaN compare for a float
        word, numpy scalars and a bool word still go through."""
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            out = None
            if ctx.rank == 0:
                out = [(yield from ctx.rma.fetch_and_add(
                           tmems[1], 0, "int64", 2.0)),
                       (yield from ctx.rma.fetch_and_add(
                           tmems[1], 0, np.int32, np.uint8(3))),
                       (yield from ctx.rma.compare_and_swap(
                           tmems[1], 8, "float64", float("nan"), 1.5)),
                       (yield from ctx.rma.swap(tmems[1], 16, "bool", True))]
            yield from ctx.rma.complete_collective(ctx.comm)
            return out, bytes(ctx.mem.space.buffer(alloc))

        (out, _), (_, window) = World(
            n_ranks=2, network=seastar_portals()).run(program)
        assert out == [0, 2, 0.0, False]
        assert window[:4] == (5).to_bytes(4, "little")
        assert window[16] == 1


class TestAccumulateElementTypes:
    """MPI requires both sides of an accumulate to share one predefined
    element type.  A mismatch used to add the origin's raw bit patterns
    to the target's words (1.5 as float64 into an int64 word left
    4609434218613702656, the bits of 1.5), atomic or not.  It is a usage
    error of the call: reported by name before any time passes and
    before anything is counted."""

    MIXED = struct_type([1, 1], [0, 8], [INT64, FLOAT64])
    #: (origin type, origin count, target type, target count)
    CASES = [(FLOAT64, 1, INT64, 1), (BYTE, 8, INT64, 1),
             (FLOAT64, 1, INT32, 2), (INT32, 2, FLOAT32, 2),
             (MIXED, 1, INT64, 2)]

    @pytest.mark.parametrize("entry", ["accumulate", "get_accumulate"])
    @pytest.mark.parametrize("case", CASES,
                             ids=lambda c: f"{c[0].elem_np}-{c[2].elem_np}")
    def test_mismatch_rejected_by_name_before_anything_moves(self, entry,
                                                             case):
        o_type, o_count, t_type, t_count = case

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64)
            message = None
            if ctx.rank == 0:
                message = yield from TestNonIntegerArguments._untouched(
                    ctx, lambda: getattr(ctx.rma, entry)(
                        buf, 0, o_count, o_type, tmems[1], 0, t_count,
                        t_type, atomicity=True)
                    if entry == "accumulate" else ctx.rma.get_accumulate(
                        buf, 0, o_count, o_type, tmems[1], 0, t_count,
                        t_type))
            yield from ctx.comm.barrier()
            return message

        kind = "acc" if entry == "accumulate" else "getacc"
        assert World(n_ranks=2).run(program)[0] == (
            f"accumulate origin element type {o_type.elem_np} does not "
            f"match target element type {t_type.elem_np} ({kind} from rank "
            f"0 to target_mem on rank 1)")

    def test_matching_types_still_add(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            src = ctx.mem.space.alloc(8)
            ctx.mem.space.view(src, "float64")[0] = 1.5
            if ctx.rank == 0:
                yield from ctx.rma.accumulate(src, 0, 1, FLOAT64, tmems[1], 0,
                                              1, FLOAT64, blocking=True,
                                              remote_completion=True)
            yield from ctx.rma.complete_collective(ctx.comm)
            return float(ctx.mem.space.view(alloc, "float64")[0])

        assert World(n_ranks=2).run(program) == [0.0, 1.5]


class TestTargetRankArguments:
    """A ``target_rank`` that is no rank of the communicator used to die
    as a raw ``TypeError`` (``tuple indices must be integers``, ``'<'
    not supported``) or a bare ``ValueError: local rank 5 out of
    range`` naming no call — after ``order`` had charged its call
    overhead.  It is a usage error of the call, reported by name before
    any simulated time passes; numpy integers are ranks, and
    ``ALL_RANKS`` keeps its meaning."""

    CALLS = ["put", "get", "complete", "order", "invoke"]
    #: ``target_rank=None`` is put's and get's default (no check asked
    #: for), so None is bad only for the other three.
    BAD = [(call, bad) for call in CALLS for bad in (1.0, "1", None, -2, 2)
           if not (bad is None and call in ("put", "get"))]

    @staticmethod
    def _call(ctx, call, target_rank, tmems, buf):
        if call in ("put", "get"):
            return getattr(ctx.rma, call)(buf, 0, 8, BYTE, tmems[1], 0, 8,
                                          BYTE, target_rank=target_rank)
        if call == "invoke":
            return ctx.rma.invoke(target_rank, "echo", 7)
        return getattr(ctx.rma, call)(ctx.comm, target_rank)

    def _run(self, call, target_rank):
        world = World(n_ranks=2)
        for ctx in world.contexts.values():
            ctx.rma.register_rmi("echo", lambda x: x)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64)
            out = None
            if ctx.rank == 0:
                out = yield from TestNonIntegerArguments._untouched(
                    ctx, lambda: self._call(ctx, call, target_rank, tmems,
                                            buf))
            yield from ctx.comm.barrier()
            return out

        return world.run(program)[0]

    @pytest.mark.parametrize("call,bad", BAD, ids=repr)
    def test_rejected_by_name_before_anything_moves(self, call, bad):
        message = self._run(call, bad)
        assert message.startswith("target_rank is not a rank")
        assert f"({call} from rank 0)" in message
        assert repr(bad) in message and "group of 2" in message

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integers_and_all_ranks_still_work(self, call):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            buf = ctx.mem.space.alloc(64)
            got = None
            if ctx.rank == 0:
                got = yield from self._call(ctx, call, np.int64(1), tmems,
                                            buf)
                if call in ("complete", "order"):
                    yield from self._call(ctx, call, np.int64(-1), tmems,
                                          buf)
            yield from ctx.comm.barrier()
            return got

        world = World(n_ranks=2)
        for ctx in world.contexts.values():
            ctx.rma.register_rmi("echo", lambda x: x)
        got = world.run(program)[0]
        if call in ("put", "get"):
            assert got.kind == call and got.state == "complete"
        else:
            assert got == {"invoke": 7, "complete": [], "order": None}[call]
