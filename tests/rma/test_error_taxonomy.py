"""The structured RMA error taxonomy.

Every delivery failure classifies itself with ``kind`` (one of
:data:`repro.rma.target_mem.ERROR_KINDS`), carries its context in
``__str__``, and pickles faithfully — reproducer artifacts and
multi-process harnesses both depend on the round trip.
"""

import pickle

import pytest

from repro.datatypes import BYTE, INT64
from repro.faults import FaultPlan
from repro.mpi.constants import ERRORS_RETURN
from repro.network.config import generic_rdma, seastar_portals
from repro.network.transport import TransportFailure
from repro.resil.errors import RankFailed, WindowRevoked
from repro.rma import RmaAttrs
from repro.rma.target_mem import ERROR_KINDS, RmaError
from repro.runtime import World
from tests.conftest import fast_paths


class TestTaxonomy:
    def test_kinds_cover_the_failure_classes(self):
        for kind in ("usage", "retry_exhausted", "rank_failed",
                     "window_revoked", "link_partition"):
            assert kind in ERROR_KINDS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            RmaError("boom", kind="cosmic_ray")

    def test_default_is_plain_usage(self):
        err = RmaError("bad count")
        assert err.kind == "usage"
        assert str(err) == "bad count"  # no bracketed context

    def test_str_carries_structured_context(self):
        err = RmaError(
            "put failed", kind="retry_exhausted", op="put", src=0,
            target=3, path=(0, 3), retries=16, sim_time=1234.5,
        )
        text = str(err)
        assert "kind=retry_exhausted" in text
        assert "op=put" in text
        assert "path=0->3" in text
        assert "retries=16" in text
        assert "t=1234.5" in text

    def test_str_falls_back_to_target_without_path(self):
        err = RmaError("get failed", kind="rank_failed", op="get", target=2)
        assert "target=2" in str(err)
        assert "path=" not in str(err)

    def test_pickle_round_trip_preserves_every_field(self):
        err = RmaError(
            "acc failed", kind="link_partition", op="acc", src=1,
            target=2, path=(1, 2), retries=7, sim_time=99.25,
        )
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RmaError
        assert str(back) == str(err)
        for attr in ("kind", "op", "src", "target", "path", "retries",
                     "sim_time"):
            assert getattr(back, attr) == getattr(err, attr)

    def test_window_revoked_is_a_classified_rma_error(self):
        err = WindowRevoked("fence on revoked window w0",
                            win_id=("win", 0), failed_rank=3, src=1)
        assert isinstance(err, RmaError)
        assert err.kind == "window_revoked"
        assert err.win_id == ("win", 0)
        assert err.failed_rank == 3

    def test_window_revoked_pickles_with_subclass_fields(self):
        err = WindowRevoked("op on revoked window", win_id=("win", 7),
                            failed_rank=2)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is WindowRevoked
        assert back.kind == "window_revoked"
        assert back.win_id == ("win", 7)
        assert back.failed_rank == 2

    def test_rank_failed_notice_formats(self):
        notice = RankFailed(rank=3, observer=0, detected_at=1500.0,
                            via="transport")
        assert "rank 3" in str(notice)
        assert "via transport" in str(notice)


class TestLiveClassification:
    """The kinds a real failing run actually raises."""

    def test_killed_target_classifies_as_rank_failed(self):
        caught = []

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(512)
            src = ctx.mem.space.alloc(512)
            if ctx.rank == 1:
                yield ctx.sim.timeout(50_000.0)
                return "survived"
            for _ in range(100):
                req = yield from ctx.rma.put(
                    src, 0, 512, BYTE, tmems[1], 0, 512, BYTE,
                    remote_completion=True)
                err = yield from req.wait()
                if req.state == "failed":
                    caught.append(err)
                    return "failed"
            return "never failed"

        plan = FaultPlan().kill(rank=1, at=200.0).with_transport(
            retry_budget=3)
        w = World(n_ranks=2, network=generic_rdma(), fault_plan=plan,
                  seed=7, rma_errhandler=ERRORS_RETURN)
        results = w.run(program)
        assert results[0] == "failed"
        err = caught[0]
        assert isinstance(err, RmaError)
        assert err.kind == "rank_failed"
        assert err.path == (0, 1)
        # the artifact path: the live error must survive pickling
        back = pickle.loads(pickle.dumps(err))
        assert back.kind == "rank_failed" and back.path == (0, 1)


_A, _B = RmaAttrs(), RmaAttrs(ordering=True)
#: Rank 0's writes to rank 1: (call, attributes, remote completion).
#: The first five are issued before the path fails, the rest after.
MIX = [("put", _A, False), ("put", _A, False), ("put", _B, False),
       ("put", _A, True), ("acc", _A, False), ("put", _B, False),
       ("acc", _B, True), ("acc", _A, False), ("put", _A, False),
       ("put", _B, True), ("acc", _B, False)]


def _attribution(how):
    """Issue ``MIX``, break the path to rank 1 (``how``), complete
    everything and return the errors the completion reports."""
    world = World(n_ranks=3, network=seastar_portals(),
                  rma_errhandler=ERRORS_RETURN)

    def failure(eng):
        return TransportFailure(src=0, dst=1, attempts=4, sim_time=eng.sim.now,
                                reason="retry-budget-exhausted",
                                packet_kind="rma.frag", seq=7)

    def write(ctx, src, tmem, k):
        call, attrs, remote = MIX[k]
        attrs = attrs.with_(remote_completion=True) if remote else attrs
        if call == "put":
            yield from ctx.rma.put(src, 0, 64, BYTE, tmem, 64 * k, 64, BYTE,
                                   attrs=attrs)
        else:
            yield from ctx.rma.accumulate(src, 0, 8, INT64, tmem, 64 * k, 8,
                                          INT64, attrs=attrs)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(64 * 64)
        src = ctx.mem.space.alloc(64, fill=3)
        yield from ctx.comm.barrier()
        if ctx.rank != 0:
            yield from ctx.compute(300.0)
            return None
        eng = ctx.rma.engine
        for k in range(5):
            yield from write(ctx, src, tmems[1], k)
        if how == "kill":
            yield from ctx.compute(20.0)
            world.fabric.kill_rank(1)
        elif how == "transport-before":
            eng._on_path_failure(1, failure(eng))
        for k in range(5, len(MIX)):
            yield from write(ctx, src, tmems[1], k)
        yield from ctx.rma.put(src, 0, 64, BYTE, tmems[2], 0, 64, BYTE)
        if how == "transport-during":
            ctx.sim.schedule_call(eng.timings.call_overhead + 0.05,
                                  lambda: eng._on_path_failure(1, failure(eng)))
        errors = yield from ctx.rma.complete(ctx.comm)
        again = yield from ctx.rma.complete(ctx.comm)
        return errors, again

    errors, again = world.run(program)[0]
    assert again == []
    return errors


#: What the commit before flushed writes stopped keeping records returns
#: for ``_attribution``: per error, the ``MIX`` index it reports (None:
#: the flush) and its time.  ``kill``: the four flushed writes before the
#: kill (the acked one had its ack), at completion, then the six writes
#: that failed fast, at issue; ``transport-before``: every write, the
#: flushed ones interleaved with the acked as issued;
#: ``transport-during``: the flush in flight.
RECORDED = {
    "kill": [(0, 80.862), (1, 80.862), (2, 80.862), (4, 80.862),
             (5, 76.462), (6, 76.462), (7, 76.462), (8, 76.462),
             (9, 76.462), (10, 76.462)],
    "transport-before": [(k, 56.462) for k in range(len(MIX))],
    "transport-during": [(None, 86.112)],
}


@pytest.mark.parametrize("train", [True, False], ids=["train", "packet"])
@pytest.mark.parametrize("how", sorted(RECORDED))
def test_every_held_write_is_attributed_as_issued(how, train):
    """Put and accumulate, flushed and remote-complete, two attribute
    sets, to a target that dies or whose path the transport gives up
    on: the completion reports one error per write — a flushed write
    from its run, an acknowledged one from its record — in issue order,
    each naming its op, kind and attributes."""
    with fast_paths(train=train):
        errors = _attribution(how)
    kind = "rank_failed" if how == "kill" else "retry_exhausted"
    retries = None if how == "kill" else 4
    expected = []
    for k, t in RECORDED[how]:
        if k is None:
            op, attrs = "complete", None
        else:
            op, attrs, remote = MIX[k]
            attrs = attrs.with_(remote_completion=True) if remote else attrs
        expected.append((op, attrs, kind, retries, t, 0, 1, (0, 1)))
    assert [(e.op, e.attrs, e.kind, e.retries, round(e.sim_time, 3), e.src,
             e.target, e.path) for e in errors] == expected
