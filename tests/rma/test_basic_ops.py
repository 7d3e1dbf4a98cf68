"""Tests for basic strawman RMA data movement."""

import numpy as np
import pytest

from repro.datatypes import BYTE, FLOAT64, INT32, contiguous, vector
from repro.machine import hybrid_accelerator
from repro.rma import RmaAttrs, RmaError
from repro.runtime import World


def run(program, n=2, **kw):
    return World(n_ranks=n, **kw).run(program)


#: When ranks 0 and 63 leave a 64-rank ``expose_collective(64)`` (µs).
EXPOSE_64_TIMES = (51.31969999999997, 84.37969999999997)


class TestExpose:
    def test_expose_returns_descriptor(self):
        def program(ctx):
            a = ctx.mem.space.alloc(256)
            tm = ctx.rma.expose(a)
            assert tm.rank == ctx.rank
            assert tm.size == 256
            assert tm.coherent
            return tm.mem_id
            yield  # pragma: no cover

        ids = run(program)
        assert all(i >= 1 for i in ids)

    def test_expose_is_noncollective_descriptor_ships_in_message(self):
        """The paper's §V model: owner exposes locally, passes the
        descriptor to whoever needs it."""

        def program(ctx):
            if ctx.rank == 0:
                a = ctx.mem.space.alloc(64)
                tm = ctx.rma.expose(a)  # purely local, no other rank involved
                yield from ctx.comm.send(tm, dest=1)
                yield from ctx.comm.barrier()
                return ctx.mem.load(a, 0, 4).tolist()
            tm = yield from ctx.comm.recv(source=0)
            src = ctx.mem.space.alloc(4)
            ctx.mem.store(src, 0, np.array([9, 8, 7, 6], dtype=np.uint8))
            yield from ctx.rma.put(src, 0, 4, BYTE, tm, 0, 4, BYTE,
                                   blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()

        assert run(program)[0] == [9, 8, 7, 6]

    def test_collective_exposure_sizes_the_descriptor_list_once(
            self, monkeypatch):
        """A message's simulated size is its pickle size.  The allgather
        behind ``expose_collective`` forwards the P-descriptor list down
        a binomial tree; every hop used to pickle it again (P² − 1
        descriptor pickles).  A forwarded message is the size it
        arrived with: P − 1 single descriptors gathered, one list of P
        sized at the root — and every rank still ends up with the
        same descriptors at the same simulated time."""
        from repro.rma.target_mem import TargetMem

        P = 64
        calls = []
        getstate = TargetMem.__getstate__
        monkeypatch.setattr(
            TargetMem, "__getstate__",
            lambda self: calls.append(self.rank) or getstate(self))

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            return [t.rank for t in tmems], ctx.sim.now

        out = run(program, n=P)
        assert P <= len(calls) <= 2 * P
        assert all(ranks == list(range(P)) for ranks, _ in out)
        # recorded from the parent commit (rank 0; last rank)
        assert (out[0][1], out[-1][1]) == EXPOSE_64_TIMES

    def test_withdraw_blocks_future_access(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:
                ctx.rma.withdraw(tmems[0])
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(4)
                yield from ctx.rma.put(src, 0, 4, BYTE, tmems[0], 0, 4, BYTE,
                                       blocking=True)
                yield from ctx.rma.complete(ctx.comm, 0)

        with pytest.raises(RmaError, match="withdrawn"):
            run(program)

    def test_cannot_expose_foreign_memory(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 1:
                foreign = tmems[0]
                bad_alloc = type(alloc)(rank=0, alloc_id=1, size=8)
                ctx.rma.expose(bad_alloc)

        with pytest.raises(RmaError, match="owned by"):
            run(program)


class TestPut:
    def test_blocking_put_then_get_roundtrip(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(4096)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(1000)
                ctx.mem.store(src, 0, (np.arange(1000) % 251).astype(np.uint8))
                yield from ctx.rma.put(src, 0, 1000, BYTE, tmems[0], 12, 1000,
                                       BYTE, blocking=True)
                yield from ctx.rma.complete(ctx.comm, 0)
                dst = ctx.mem.space.alloc(1000)
                yield from ctx.rma.get(dst, 0, 1000, BYTE, tmems[0], 12, 1000,
                                       BYTE, blocking=True)
                return ctx.mem.load(dst, 0, 1000).tolist()

        out = run(program)
        assert out[1] == [i % 251 for i in range(1000)]

    def test_nonblocking_put_request_wait(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(8, fill=5)
                req = yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8,
                                             BYTE, remote_completion=True)
                assert not req.complete  # nonblocking: still in flight
                yield from req.wait()
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.load(alloc, 0, 8).tolist()

        assert run(program)[0] == [5] * 8

    def test_put_larger_than_mtu_fragments_and_lands_intact(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(100_000)
            if ctx.rank == 1:
                n = 50_000  # >> default 4096 MTU
                src = ctx.mem.space.alloc(n)
                data = (np.arange(n) % 255).astype(np.uint8)
                ctx.mem.store(src, 0, data)
                yield from ctx.rma.put(src, 0, n, BYTE, tmems[0], 0, n, BYTE,
                                       blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                got = ctx.mem.load(alloc, 0, 50_000)
                return bool((got == (np.arange(50_000) % 255)).all())

        assert run(program)[0] is True

    def test_strided_put_vector_datatypes(self):
        """Noncontiguous on both sides (requirement 7)."""

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            t = vector(4, 1, 2, INT32)  # 4 int32 every other slot
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(64)
                v = ctx.mem.space.view(src, "int32")
                v[:] = np.arange(16)
                # origin contiguous -> target strided
                yield from ctx.rma.put(src, 0, 4, INT32, tmems[0], 0, 1, t,
                                       blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                v = ctx.mem.space.view(alloc, "int32", count=8)
                return v.tolist()

        out = run(program)
        assert out[0] == [0, 0, 1, 0, 2, 0, 3, 0]

    def test_put_out_of_bounds_rejected(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(32)
                yield from ctx.rma.put(src, 0, 32, BYTE, tmems[0], 0, 32, BYTE)

        with pytest.raises(RmaError, match="outside target_mem"):
            run(program)

    def test_mismatched_layout_sizes_rejected(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(64)
                yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 4, BYTE)

        with pytest.raises(RmaError, match="does not match"):
            run(program)

    def test_zero_size_put_completes_instantly(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(16)
                req = yield from ctx.rma.put(src, 0, 0, BYTE, tmems[0], 0, 0,
                                             BYTE)
                return req.complete
            yield from ctx.comm.barrier()

        # note: rank 0 waits on barrier; rank 1 returns before it — run
        # both to completion via a barrier on both sides
        def program2(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            result = None
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(16)
                req = yield from ctx.rma.put(src, 0, 0, BYTE, tmems[0], 0, 0,
                                             BYTE)
                result = req.complete
            yield from ctx.comm.barrier()
            return result

        assert run(program2)[1] is True

    def test_target_rank_mismatch_detected(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(8)
                yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                       target_rank=1)

        with pytest.raises(RmaError, match="does not own"):
            run(program)


class TestGet:
    def test_get_reads_remote_memory(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(128)
            if ctx.rank == 0:
                ctx.mem.store(alloc, 0, np.full(128, 77, dtype=np.uint8))
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                dst = ctx.mem.space.alloc(128)
                yield from ctx.rma.get(dst, 0, 128, BYTE, tmems[0], 0, 128,
                                       BYTE, blocking=True)
                return ctx.mem.load(dst, 0, 128).tolist()

        assert run(program)[1] == [77] * 128

    def test_large_get_fragments(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(40_000)
            if ctx.rank == 0:
                ctx.mem.store(
                    alloc, 0, (np.arange(40_000) % 253).astype(np.uint8)
                )
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                dst = ctx.mem.space.alloc(40_000)
                yield from ctx.rma.get(dst, 0, 40_000, BYTE, tmems[0], 0,
                                       40_000, BYTE, blocking=True)
                got = ctx.mem.load(dst, 0, 40_000)
                return bool((got == (np.arange(40_000) % 253)).all())

        assert run(program)[1] is True

    def test_get_into_strided_origin(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:
                v = ctx.mem.space.view(alloc, "int32")
                v[:4] = [10, 20, 30, 40]
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                dst = ctx.mem.space.alloc(64)
                t = vector(4, 1, 2, INT32)
                yield from ctx.rma.get(dst, 0, 1, t, tmems[0], 0, 4, INT32,
                                       blocking=True)
                return ctx.mem.space.view(dst, "int32", count=8).tolist()

        assert run(program)[1] == [10, 0, 20, 0, 30, 0, 40, 0]

    def test_get_origin_bounds_checked(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                dst = ctx.mem.space.alloc(4)
                yield from ctx.rma.get(dst, 0, 64, BYTE, tmems[0], 0, 64, BYTE)

        with pytest.raises(Exception):
            run(program)


class TestAccumulate:
    @pytest.mark.parametrize(
        "op,seed_vals,incoming,expected",
        [
            ("sum", [10, 20], [1, 2], [11, 22]),
            ("prod", [3, 4], [2, 2], [6, 8]),
            ("min", [5, 1], [3, 3], [3, 1]),
            ("max", [5, 1], [3, 3], [5, 3]),
            ("replace", [9, 9], [4, 2], [4, 2]),
        ],
    )
    def test_ops(self, op, seed_vals, incoming, expected):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "int32")[: len(seed_vals)] = seed_vals
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(64)
                ctx.mem.space.view(src, "int32")[: len(incoming)] = incoming
                yield from ctx.rma.accumulate(
                    src, 0, len(incoming), INT32, tmems[0], 0, len(incoming),
                    INT32, op=op, blocking=True, remote_completion=True,
                )
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.space.view(alloc, "int32")[
                    : len(expected)
                ].tolist()

        assert run(program)[0] == expected

    def test_daxpy(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:
                ctx.mem.space.view(alloc, "float64")[:2] = [1.0, 2.0]
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(64)
                ctx.mem.space.view(src, "float64")[:2] = [10.0, 10.0]
                yield from ctx.rma.accumulate(
                    src, 0, 2, FLOAT64, tmems[0], 0, 2, FLOAT64,
                    op="daxpy", scale=0.5, blocking=True,
                    remote_completion=True,
                )
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.space.view(alloc, "float64")[:2].tolist()

        assert run(program)[0] == [6.0, 7.0]

    def test_unknown_op_rejected(self):
        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(16)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(4)
                yield from ctx.rma.accumulate(src, 0, 1, INT32, tmems[0], 0, 1,
                                              INT32, op="xor")

        with pytest.raises(RmaError, match="unknown accumulate"):
            run(program)

    def test_mixed_struct_accumulate_rejected(self):
        from repro.datatypes import struct_type

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(64)
                mixed = struct_type([1, 1], [0, 8], [INT32, FLOAT64])
                yield from ctx.rma.accumulate(src, 0, 1, mixed, tmems[0], 0, 1,
                                              mixed)

        with pytest.raises(RmaError, match="uniform element"):
            run(program)


class TestHeterogeneous:
    """§III-B3: mixed endianness and pointer width."""

    def test_put_converts_endianness(self):
        # node 0/1 big-endian 64-bit hosts; node 2/3 little-endian 32-bit
        machine = hybrid_accelerator(n_host_nodes=2, n_accel_nodes=2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            assert tmems[0].endianness == "big"
            assert tmems[2].endianness == "little"
            assert tmems[2].pointer_bits == 32
            if ctx.rank == 2:  # little-endian accel writes to big-endian host
                src = ctx.mem.space.alloc(16)
                ctx.mem.space.view(src, "int32")[:2] = [0x01020304, 7]
                yield from ctx.rma.put(src, 0, 2, INT32, tmems[0], 0, 2,
                                       INT32, blocking=True,
                                       remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.space.view(alloc, "int32")[:2].tolist()

        out = World(machine=machine).run(program)
        assert out[0] == [0x01020304, 7]

    def test_get_converts_endianness(self):
        machine = hybrid_accelerator(n_host_nodes=2, n_accel_nodes=2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:  # big-endian host owns the data
                ctx.mem.space.view(alloc, "int64")[0] = 0x0A0B0C0D
            yield from ctx.comm.barrier()
            if ctx.rank == 3:  # little-endian accel reads it
                dst = ctx.mem.space.alloc(8)
                from repro.datatypes import INT64

                yield from ctx.rma.get(dst, 0, 1, INT64, tmems[0], 0, 1,
                                       INT64, blocking=True)
                return int(ctx.mem.space.view(dst, "int64")[0])

        out = World(machine=machine).run(program)
        assert out[3] == 0x0A0B0C0D

    def test_byte_put_needs_no_conversion(self):
        machine = hybrid_accelerator(n_host_nodes=1, n_accel_nodes=1)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(8)
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(4)
                ctx.mem.store(src, 0, np.array([1, 2, 3, 4], dtype=np.uint8))
                yield from ctx.rma.put(src, 0, 4, BYTE, tmems[0], 0, 4, BYTE,
                                       blocking=True, remote_completion=True)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                return ctx.mem.load(alloc, 0, 4).tolist()

        assert World(machine=machine).run(program)[0] == [1, 2, 3, 4]
