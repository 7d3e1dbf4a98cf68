"""Determinism regression tests for the performance fast paths.

The optimized kernel/data-plane paths (urgent deque, lean messages,
memoized layouts, zero-copy pack) must not change a single simulated
timestamp.  These tests pin that:

- same seed, same run → byte-identical trace streams and final times;
- a write's payload as a lean message vs as packets → identical
  simulated results;
- the ``segments_for`` fast path → identical layouts to the naive
  per-instance expansion;
- zero-copy pack → identical bytes, genuinely aliasing the source;
- ``BENCH_PR1.json``'s simulated times → recomputed exactly, in every
  fast-path arm.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import (
    fig2_attribute_cost,
    halo_exchange_time,
    latency_once,
)
from repro.datatypes import BYTE, DOUBLE, INT32
from repro.datatypes.base import Segment, coalesce
from repro.datatypes.derived import contiguous, vector
from repro.datatypes.pack import pack, unpack_swapped
from repro.network.config import infiniband_like, shared_memory_like
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.runtime import World
from tests.conftest import BENCH_PR1, fast_paths, gated_posts, record_multiset


def _trace_tuples(world):
    return [
        (r.time, r.category, r.kind, r.rank, tuple(sorted(r.detail.items())),
         r.seq)
        for r in world.tracer
    ]


class TestSameSeedIdentical:
    def _traced_run(self, seed):
        world = World(n_ranks=4, seed=seed, trace=True)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            src = ctx.mem.space.alloc(8, fill=ctx.rank + 1)
            yield from ctx.comm.barrier()
            right = (ctx.rank + 1) % ctx.size
            yield from ctx.rma.put(
                src, 0, 8, BYTE, tmems[right], 0, 8, BYTE,
                blocking=True, remote_completion=True,
            )
            yield from ctx.comm.barrier()
            return ctx.sim.now

        out = world.run(program)
        return out, world.sim.now, _trace_tuples(world)

    def test_traces_and_times_bit_identical(self):
        a = self._traced_run(seed=7)
        b = self._traced_run(seed=7)
        assert a == b

    def test_different_seed_same_deterministic_times(self):
        # Seeds only feed jitter streams; an ordered fabric draws none,
        # so times match — but the runs must each be self-consistent.
        a = self._traced_run(seed=1)
        b = self._traced_run(seed=2)
        assert a[1] == b[1]


class TestBurstTimestampParity:
    """The successor of the NIC burst: a payload of several fragments on
    a flat ordered path is one ``Nic.post_frags`` message — two heap
    entries, as the burst had — and it times everything as the packets
    it replaces do (``fast_paths(nexus=False)`` sends those)."""

    WORKLOADS = [
        lambda: fig2_attribute_cost("none", 65536, puts_per_origin=10),
        lambda: fig2_attribute_cost("ordering", 16384, puts_per_origin=10),
        lambda: fig2_attribute_cost("remote_complete", 65536,
                                    puts_per_origin=10),
        lambda: fig2_attribute_cost("atomicity+thread", 16384,
                                    puts_per_origin=10),
        lambda: halo_exchange_time("fence", n_ranks=4, halo_bytes=8192,
                                   iterations=5),
        lambda: halo_exchange_time("pscw", n_ranks=4, halo_bytes=8192,
                                   iterations=5),
        lambda: halo_exchange_time("strawman", n_ranks=4, halo_bytes=8192,
                                   iterations=5),
        lambda: latency_once("strawman", size=262144),
        lambda: latency_once("mpi2_fence", size=65536),
    ]

    @pytest.mark.parametrize("idx", range(len(WORKLOADS)))
    def test_burst_on_off_identical(self, idx):
        wl = self.WORKLOADS[idx]
        with fast_paths(train=False, nexus=False):
            reference = wl()
        # (with the train off every write takes the lean form)
        with fast_paths(train=False):
            assert wl() == reference
        assert wl() == reference

    def test_burst_path_actually_engages(self, monkeypatch):
        hits = []
        original = Nic.post_frags

        def counting(self, dst, kind, fn, args, parts, sizes, *rest, **kw):
            hits.append(len(sizes))
            return original(self, dst, kind, fn, args, parts, sizes, *rest,
                            **kw)

        monkeypatch.setattr(Nic, "post_frags", counting)
        built = []
        init = Packet.__init__

        def building(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.kind)

        monkeypatch.setattr(Packet, "__init__", building)
        # The op-train supersedes the lean message for these puts; pin
        # it off to observe the lean form.
        with fast_paths(train=False):
            fig2_attribute_cost("remote_complete", 65536, puts_per_origin=10)
        assert hits == [16] * 70
        assert "rma.frag" not in built

    def test_no_per_packet_fallback_when_tracing(self, monkeypatch):
        """Tracing changes no form: with the train off, a traced 64 KiB
        remote-complete put is still one ``Nic.post_frags`` message, and
        it leaves the records of the 16 posts it stands in for, bit for
        bit: both book each fragment at its reservation's end ``t``."""
        calls = []
        post_frags = Nic.post_frags

        def counting(self, dst, kind, fn, args, parts, sizes, *rest, **kw):
            calls.append(len(sizes))
            return post_frags(self, dst, kind, fn, args, parts, sizes, *rest,
                              **kw)

        monkeypatch.setattr(Nic, "post_frags", counting)
        sent = gated_posts(monkeypatch)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(65536)
            src = ctx.mem.space.alloc(65536)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                yield from ctx.rma.put(
                    src, 0, 65536, BYTE, tmems[1], 0, 65536, BYTE,
                    blocking=True, remote_completion=True,
                )
            yield from ctx.comm.barrier()

        def run():
            world = World(n_ranks=2, trace=True)
            world.run(program)
            return world

        with fast_paths(train=False):
            lean = run()
        assert calls == [16]
        assert "rma.frag:hw" not in sent
        with fast_paths(train=False, nexus=False):
            packets = run()
        assert sent.count("rma.frag:hw") == 16
        assert lean.sim.now == packets.sim.now

        def timeline(world):
            return sorted((repr(rest), time) for (time, *rest), n
                          in record_multiset(world.tracer).items()
                          for _ in range(n))

        assert timeline(lean) == timeline(packets)


with open(BENCH_PR1) as _fh:
    RECORDED = json.load(_fh)["results"]


class TestObservabilityOffPinnedToBaseline:
    """The simulated-time pin: every Figure-2 point and the strawman
    halo recorded in ``BENCH_PR1.json`` (before the observability layer
    and every fast path existed) recompute bit for bit — the
    pay-for-what-you-use guarantee.

    Pinned with every fast path on, with writes in their lean form (the
    op-train off), as packets (all off), with every exposure a
    shared-memory window (inert on the one-rank-per-node bench
    machines), and with an (inert) empty fault plan, so none of the
    instrumented layers may shift a single simulated event when tracing
    is disabled.
    """

    ARMS = {"all-on": {}, "train-off": {"train": False},
            "all-off": {"train": False, "nexus": False},
            "shared-windows": {"shared": True}}

    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("point", sorted(RECORDED["fig2"]["points"]))
    def test_fig2_sim_us_bit_identical(self, point, arm):
        mode, size = point.split("/")
        with fast_paths(**self.ARMS[arm]):
            got = fig2_attribute_cost(
                mode, int(size),
                puts_per_origin=RECORDED["fig2"]["puts_per_origin"])
        assert got == RECORDED["fig2"]["points"][point]["sim_us"]

    def test_fig2_sim_us_with_empty_fault_plan(self):
        from repro.faults import FaultPlan

        assert fig2_attribute_cost(
            "none", 16384, puts_per_origin=RECORDED["fig2"]["puts_per_origin"],
            fault_plan=FaultPlan(),
        ) == RECORDED["fig2"]["points"]["none/16384"]["sim_us"]

    @pytest.mark.parametrize("arm", ARMS)
    def test_halo_sim_us_bit_identical(self, arm):
        halo = RECORDED["halo"]
        with fast_paths(**self.ARMS[arm]):
            got = halo_exchange_time(
                "strawman", n_ranks=halo["n_ranks"],
                halo_bytes=halo["halo_bytes"], iterations=halo["iterations"])
        assert got == halo["sim_us_per_iter"]


class TestSegmentsForFastPath:
    def _reference(self, dtype, count):
        segs = []
        for i in range(count):
            base = i * dtype.extent
            for seg in dtype.segments:
                segs.append(Segment(base + seg.disp, seg.nbytes,
                                    seg.elem_size))
        return coalesce(segs)

    @pytest.mark.parametrize("dtype", [
        BYTE, DOUBLE, contiguous(16, INT32),
        vector(4, 3, 5, DOUBLE),
        vector(2, 2, 2, INT32),  # blocklength == stride: fully dense
    ])
    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    def test_matches_reference(self, dtype, count):
        assert dtype.segments_for(count) == self._reference(dtype, count)

    def test_contiguous_collapses_to_one_segment(self):
        assert len(BYTE.segments_for(65536)) == 1
        assert len(contiguous(1024, BYTE).segments_for(64)) == 1

    def test_memoized_result_stable(self):
        dt = vector(4, 3, 5, DOUBLE)
        first = dt.segments_for(32)
        assert dt.segments_for(32) is first  # cached
        assert first == self._reference(dt, 32)


class TestZeroCopyPack:
    def test_view_shares_memory_and_matches_copy(self):
        buf = np.arange(256, dtype=np.uint8)
        copied = pack(buf, 32, BYTE, 64)
        view = pack(buf, 32, BYTE, 64, copy=False)
        assert np.array_equal(view, copied)
        assert np.shares_memory(view, buf)
        assert not np.shares_memory(copied, buf)
        assert not view.flags.writeable

    def test_view_reflects_later_writes(self):
        buf = np.zeros(64, dtype=np.uint8)
        view = pack(buf, 0, BYTE, 64, copy=False)
        buf[0] = 99
        assert view[0] == 99  # the documented aliasing contract

    def test_noncontiguous_always_fresh(self):
        dt = vector(2, 4, 8, BYTE)
        buf = np.arange(64, dtype=np.uint8)
        out = pack(buf, 0, dt, 2, copy=False)
        assert not np.shares_memory(out, buf)

    def test_unpack_swapped_scratch_matches_fresh(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=32, dtype=np.uint8)
        out_a = np.zeros(32, dtype=np.uint8)
        out_b = np.zeros(32, dtype=np.uint8)
        unpack_swapped(data, out_a, 0, DOUBLE, 4)
        scratch = np.empty(128, dtype=np.uint8)
        unpack_swapped(data, out_b, 0, DOUBLE, 4, scratch=scratch)
        assert np.array_equal(out_a, out_b)


class TestPerPathAckGating:
    """Hardware acks are a per-(src, dst)-path capability.

    On a hierarchical machine whose interconnect lacks remote-completion
    events while the intra-node personality has them (or vice versa),
    a remotely-complete put must terminate on both path kinds — the
    mode choice, the ack-event creation, and the delivery-side ack must
    all consult the same per-path config.
    """

    def _machine(self):
        from repro.machine.config import generic_cluster

        return generic_cluster(n_nodes=2, ranks_per_node=2)

    @pytest.mark.parametrize("inter, intra", [
        (infiniband_like(), shared_memory_like()),  # acks intra-node only
        (shared_memory_like(), infiniband_like()),  # acks inter-node only
    ])
    def test_remote_complete_put_terminates_on_both_paths(self, inter, intra):
        world = World(machine=self._machine(), network=inter,
                      intra_node_network=intra)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(16, fill=ctx.rank + 1)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                # Same node as rank 1, different node than rank 2.
                for dst in (1, 2):
                    yield from ctx.rma.put(
                        src, 0, 16, BYTE, tmems[dst], 0, 16, BYTE,
                        blocking=True, remote_completion=True,
                    )
            yield from ctx.comm.barrier()
            return "done"

        # A mis-gated ack mode would strand rank 0 waiting forever; the
        # run completing with every rank past the final barrier is the
        # regression check (World.run raises on deadlock/limit).
        out = world.run(program, limit=1e9)
        assert out == ["done"] * 4
