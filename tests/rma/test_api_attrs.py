"""Tests for attribute resolution and the xfer frontend (§IV req. 5)."""

import pytest

from repro.datatypes import BYTE
from repro.rma import RmaAttrs, RmaError
from repro.runtime import World


class TestRmaAttrs:
    def test_default_is_none(self):
        a = RmaAttrs()
        assert not (a.ordering or a.remote_completion or a.atomicity
                    or a.blocking)
        assert str(a) == "none"

    def test_strict_enables_everything(self):
        a = RmaAttrs.strict()
        assert a.ordering and a.remote_completion and a.atomicity and a.blocking
        assert str(a) == "ordering+remote_completion+atomicity+blocking"

    def test_with_override(self):
        a = RmaAttrs().with_(ordering=True)
        assert a.ordering and not a.atomicity

    def test_merged_prefers_override(self):
        default = RmaAttrs.strict()
        assert default.merged(None) is default
        override = RmaAttrs()
        assert default.merged(override) is override

    def test_frozen(self):
        with pytest.raises(Exception):
            RmaAttrs().ordering = True  # type: ignore[misc]


class TestAttrResolution:
    def test_per_comm_default_applies(self):
        """Setting strict() as the comm default makes plain puts blocking
        + remotely complete — the paper's debug mode."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            result = None
            if ctx.rank == 1:
                ctx.rma.set_default_attrs(RmaAttrs.strict(), ctx.comm)
                src = ctx.mem.space.alloc(8, fill=4)
                req = yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8,
                                             BYTE)
                # strict default => blocking: already complete on return
                result = req.complete
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.load(alloc, 0, 8).tolist()
            return result

        out = World(n_ranks=2).run(program)
        assert out[1] is True
        assert out[0] == [4] * 8

    def test_kwargs_override_default(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            result = None
            if ctx.rank == 1:
                ctx.rma.set_default_attrs(RmaAttrs.strict(), ctx.comm)
                src = ctx.mem.space.alloc(8)
                # explicitly turn blocking off, keep the rest
                req = yield from ctx.rma.put(
                    src, 0, 8, BYTE, tmems[0], 0, 8, BYTE, blocking=False
                )
                result = req.complete
                yield from req.wait()
            yield from ctx.comm.barrier()
            return result

        out = World(n_ranks=2).run(program)
        assert out[1] is False  # not blocking anymore

    def test_attrs_object_and_kwargs_conflict(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(8)
            yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                   attrs=RmaAttrs(), ordering=True)

        with pytest.raises(RmaError, match="not both"):
            World(n_ranks=1).run(program)

    def test_unknown_attribute_kwarg(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(8)
            yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                   consistency=True)

        with pytest.raises(RmaError, match="unknown RMA attributes"):
            World(n_ranks=1).run(program)

    def test_resolved_keywords_are_memoized_by_value_and_type(self):
        """The memo returns what ``with_`` returns — equal for equal
        keywords, distinct where ``True == 1`` would alias two keys —
        and neither a bad keyword nor an unhashable value is cached
        into silence."""
        rma = World(n_ranks=1).contexts[0].rma
        first = rma._resolve_attrs(None, None, {"notify": 1})
        assert first == RmaAttrs(notify=1)
        assert rma._resolve_attrs(None, None, {"notify": 1}) is first
        assert rma._resolve_attrs(None, None, {"notify": True}).notify is True
        assert rma._resolve_attrs(None, None, {"blocking": 1}).blocking == 1
        assert rma._resolve_attrs(None, None, {"blocking": True}) == \
            RmaAttrs(blocking=True)
        rma.set_default_attrs(RmaAttrs.strict())
        assert rma._resolve_attrs(None, None, {"notify": 1}) == \
            RmaAttrs.strict().with_(notify=1)
        for _ in range(2):
            with pytest.raises(RmaError, match="unknown RMA attributes"):
                rma._resolve_attrs(None, None, {"consistency": True})
            assert rma._resolve_attrs(None, None, {"notify": [1]}) == \
                RmaAttrs.strict().with_(notify=[1])

    def test_default_scoped_per_communicator(self):
        def program(ctx):
            comm2 = yield from ctx.comm.dup()
            ctx.rma.set_default_attrs(RmaAttrs.strict(), comm2)
            return (
                ctx.rma.default_attrs(ctx.comm).blocking,
                ctx.rma.default_attrs(comm2).blocking,
            )

        out = World(n_ranks=2).run(program)
        assert out[0] == (False, True)


class TestXfer:
    def test_xfer_put_and_get(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            result = None
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(8, fill=3)
                yield from ctx.rma.xfer(
                    "put", src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                    blocking=True, remote_completion=True,
                )
                dst = ctx.mem.space.alloc(8)
                yield from ctx.rma.xfer(
                    "get", dst, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                    blocking=True,
                )
                result = ctx.mem.load(dst, 0, 8).tolist()
            yield from ctx.comm.barrier()
            return result

        assert World(n_ranks=2).run(program)[1] == [3] * 8

    def test_xfer_accumulate(self):
        from repro.datatypes import INT32

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            result = None
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "int32")[0] = 10
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(4)
                ctx.mem.space.view(src, "int32")[0] = 7
                yield from ctx.rma.xfer(
                    "accumulate", src, 0, 1, INT32, tmems[0], 0, 1, INT32,
                    accumulate_optype="sum", blocking=True,
                    remote_completion=True,
                )
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                result = int(ctx.mem.space.view(alloc, "int32")[0])
            return result

        assert World(n_ranks=2).run(program)[0] == 17

    def test_xfer_unknown_optype(self):
        def program(ctx):
            yield from ctx.rma.xfer("teleport")

        with pytest.raises(RmaError, match="unknown rma_optype"):
            World(n_ranks=1).run(program)

    def test_xfer_rmi_requires_name_and_rank(self):
        def program(ctx):
            yield from ctx.rma.xfer("rmi")

        with pytest.raises(RmaError, match="requires rmi_name"):
            World(n_ranks=1).run(program)


class TestStats:
    def test_engine_statistics(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(128)
            result = None
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(16)
                yield from ctx.rma.put(src, 0, 16, BYTE, tmems[0], 0, 16,
                                       BYTE, blocking=True)
                yield from ctx.rma.get(src, 0, 16, BYTE, tmems[0], 0, 16,
                                       BYTE, blocking=True)
                yield from ctx.rma.complete(ctx.comm, 0)
                result = dict(ctx.rma.stats)
            yield from ctx.comm.barrier()
            return result

        out = World(n_ranks=2).run(program)
        st = out[1]
        assert st["puts"] == 1
        assert st["gets"] == 1
        assert st["completes"] == 1
        assert st["bytes_put"] == 16
        assert st["bytes_got"] == 16
