"""Tests for Tracer and RngRegistry."""

from repro.sim import RngRegistry, Tracer


class TestTracer:
    def test_disabled_by_default_records_nothing(self):
        tr = Tracer()
        tr.record(1.0, "rma", "put_issue", rank=0)
        assert len(tr) == 0

    def test_records_when_enabled(self):
        tr = Tracer(enabled=True)
        tr.record(1.0, "rma", "put_issue", rank=0, size=8)
        tr.record(2.0, "net", "deliver", rank=1)
        assert len(tr) == 2
        recs = tr.records
        assert recs[0].kind == "put_issue"
        assert recs[0].detail["size"] == 8
        assert recs[0].seq == 0
        assert recs[1].seq == 1

    def test_filter(self):
        tr = Tracer(enabled=True)
        tr.record(1.0, "rma", "put", rank=0)
        tr.record(2.0, "rma", "get", rank=1)
        tr.record(3.0, "net", "put", rank=0)
        assert len(tr.filter(category="rma")) == 2
        assert len(tr.filter(kind="put")) == 2
        assert len(tr.filter(rank=0)) == 2
        assert len(tr.filter(category="rma", kind="put", rank=0)) == 1

    def test_clear_keeps_seq_monotonic(self):
        tr = Tracer(enabled=True)
        tr.record(1.0, "a", "x")
        tr.clear()
        tr.record(2.0, "a", "y")
        assert tr.records[0].seq == 1

    def test_iteration(self):
        tr = Tracer(enabled=True)
        tr.record(1.0, "a", "x")
        assert [r.kind for r in tr] == ["x"]

    def test_bump_and_counters_view(self):
        tr = Tracer()
        tr.bump("xport.retransmit")
        tr.bump("xport.retransmit", 2, rank=3)
        # the totals aggregate over labels, keyed by bare name
        assert tr.metrics.counter_totals() == {"xport.retransmit": 3}
        # the underlying registry keeps the labeled split
        assert tr.metrics.counter("xport.retransmit", rank=3).value == 2

    def test_clear_resets_counters_too(self):
        # Regression: clear() used to drop records but leak counters, so
        # a tracer reused across bench repetitions double-counted.
        tr = Tracer(enabled=True)
        tr.record(1.0, "a", "x")
        tr.bump("fault.drop")
        tr.metrics.histogram("h").observe(1.0)
        tr.clear()
        assert len(tr) == 0
        assert tr.metrics.counter_totals() == {}
        assert len(tr.metrics) == 0

    def test_disabled_tracer_record_is_never_called_by_call_sites(self,
                                                                  monkeypatch):
        # Convention check: every record() call site in the stack must be
        # gated on tracer.enabled (record is not free even when it drops
        # the record).  A poisoned record on an untraced faulty workload
        # proves no site slipped through.
        from repro.datatypes import BYTE
        from repro.faults import FaultPlan
        from repro.network.config import generic_rdma
        from repro.runtime import World

        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("Tracer.record called while disabled")

        monkeypatch.setattr(Tracer, "record", boom)
        world = World(n_ranks=2, network=generic_rdma(),
                      fault_plan=FaultPlan().drop(0.05), seed=7)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(1024)
            src = ctx.mem.space.alloc(1024, fill=ctx.rank + 1)
            peer = (ctx.rank + 1) % ctx.size
            yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[peer], 0,
                                   1024, BYTE, remote_completion=True,
                                   blocking=True)
            yield from ctx.rma.complete()
            yield from ctx.comm.barrier()
            return True

        assert world.run(program) == [True, True]


class TestRngRegistry:
    def test_same_seed_same_stream_is_reproducible(self):
        a = RngRegistry(42)
        b = RngRegistry(42)
        va = [a.uniform("net.jitter", 0, 1) for _ in range(10)]
        vb = [b.uniform("net.jitter", 0, 1) for _ in range(10)]
        assert va == vb

    def test_different_names_are_independent(self):
        reg = RngRegistry(0)
        # Drawing from one stream must not perturb another.
        ref = RngRegistry(0)
        ref_vals = [ref.uniform("b", 0, 1) for _ in range(5)]
        reg.uniform("a", 0, 1)  # interleaved draw from another stream
        vals = [reg.uniform("b", 0, 1) for _ in range(5)]
        assert vals == ref_vals

    def test_different_seeds_differ(self):
        assert RngRegistry(1).uniform("x", 0, 1) != RngRegistry(2).uniform(
            "x", 0, 1
        )

    def test_exponential_positive(self):
        reg = RngRegistry(7)
        assert all(reg.exponential("e", 2.0) > 0 for _ in range(20))

    def test_stream_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")
