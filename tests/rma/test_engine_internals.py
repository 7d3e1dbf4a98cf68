"""White-box tests pinning the engine's protocol decisions."""

import gc

import pytest

from repro.machine import cray_xt5_cnl, nec_sx9
from repro.network import infiniband_like, quadrics_like, seastar_portals
from repro.datatypes import BYTE, INT64
from repro.rma import RmaAttrs
from repro.rma.engine import RmaEngine
from repro.rma.engine.target import _InboundOp
from repro.rma.target_mem import TargetMem
from repro.rma.train import OpRecord
from repro.runtime import World
from repro.sim.events import Event


def engine_on(network, machine=None):
    w = World(machine=machine or cray_xt5_cnl(2), network=network)
    return w.contexts[0].rma.engine


def tmem(coherent=True):
    return TargetMem(rank=1, mem_id=1, size=1024, pointer_bits=64,
                     endianness="little", coherent=coherent)


class TestRemoteModeSelection:
    """The hw/sw/flush decision matrix of _pick_remote_mode."""

    def test_default_is_flush(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(RmaAttrs(), tmem(), 0, False, False)
        assert mode == "flush"

    def test_rc_on_eq_network_uses_hw(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(), 0, False, False)
        assert mode == "hw"

    def test_rc_without_eq_uses_sw(self):
        eng = engine_on(infiniband_like())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(), 0, False, False)
        assert mode == "sw"

    def test_noncoherent_target_forces_sw(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(coherent=False), 0,
            False, False)
        assert mode == "sw"

    def test_atomic_always_sw(self):
        eng = engine_on(seastar_portals())
        for via_queue, via_lock in ((True, False), (False, True)):
            mode = eng._pick_remote_mode(
                RmaAttrs(atomicity=True), tmem(), 0, via_queue, via_lock)
            assert mode == "sw"

    def test_gated_op_on_unordered_fabric_uses_sw(self):
        eng = engine_on(quadrics_like())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False)
        assert mode == "sw"

    def test_gated_op_on_ordered_fabric_keeps_hw(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False)
        assert mode == "hw"

    def test_barrier_covering_atomic_op_invalidates_hw(self):
        """An earlier atomic op applies late even on an ordered fabric,
        so a barrier spanning it cannot rely on delivery acks."""
        eng = engine_on(seastar_portals())
        eng._last_atomic_seq[1] = 2
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False)
        assert mode == "sw"
        # ...but a barrier below the atomic seq is fine
        eng._last_atomic_seq[1] = 9
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False)
        assert mode == "hw"


class TestWatermarkBookkeeping:
    """The applied_upto/extra-set logic used by flushes and gating."""

    def make(self):
        return World(n_ranks=2).contexts[0].rma.engine

    def test_in_order_application(self):
        eng = self.make()
        for seq in (1, 2, 3):
            eng._mark_applied(1, seq)
        assert eng._applied_upto == {1: 3}
        assert eng._applied_extra == {}

    def test_out_of_order_absorbed_via_engine(self):
        """Drive the real _op_applied with synthetic inbound ops."""
        eng = self.make()

        def fake_op(seq):
            return _InboundOp({
                "seq": seq, "barrier": 0, "src": 1, "kind": "put",
                "nfrags": 1, "ack": "none",
            })

        eng._op_applied(fake_op(2))
        assert eng._applied_upto.get(1, 0) == 0
        assert eng._applied_extra[1] == {2}
        eng._op_applied(fake_op(1))
        assert eng._applied_upto[1] == 2
        assert 1 not in eng._applied_extra      # gone once empty
        eng._op_applied(fake_op(3))
        assert eng._applied_upto[1] == 3

    def test_barrier_ok(self):
        eng = self.make()
        eng._applied_upto[1] = 5
        assert eng._barrier_ok(1, 0)
        assert eng._barrier_ok(1, 5)
        assert not eng._barrier_ok(1, 6)
        assert eng._barrier_ok(0, 0) and not eng._barrier_ok(0, 1)


class TestRegistrationCost:
    def test_scales_with_pages(self):
        eng = engine_on(seastar_portals())
        small = eng.registration_cost(100)
        big = eng.registration_cost(40 * 4096)
        assert big > small
        assert small >= eng.timings.mem_register_base

    def test_zero_bytes_still_costs_base(self):
        eng = engine_on(seastar_portals())
        assert eng.registration_cost(0) > 0


class TestOrderBookkeeping:
    def test_order_one_sets_barrier_to_last_seq(self):
        w = World(n_ranks=2)
        eng = w.contexts[0].rma.engine
        eng._next_seq(1)
        eng._next_seq(1)
        eng.order_one(1)
        assert eng._order_barrier[1] == 2
        eng._next_seq(1)
        eng.order_all()
        assert eng._order_barrier[1] == 3


#: Tracked objects the all-to-all below may add per rank by the time its
#: last rank enters ``complete_all``: that rank's own writes in flight
#: and outstanding (record, events, train and heap entry, held run; 11.5
#: per peer measured at P = 16 to 128).  A tracked object per pair
#: would add ``P - 1`` per rank.
PER_RANK = 16


def _flat_alltoall(n):
    """One personalized all-to-all of 64-byte puts on ``n`` flat ranks,
    then ``complete_collective``; the last rank starts its puts once
    every other rank's completion is over."""
    world = World(n_ranks=n, network=seastar_portals())

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(n * 64)
        src = ctx.mem.space.alloc(64, fill=1 + ctx.rank % 250)
        yield from ctx.comm.barrier()
        if ctx.rank == n - 1:
            yield from ctx.compute(10.0 * n)
        for peer in range(ctx.size):
            if peer != ctx.rank:
                yield from ctx.rma.put(src, 0, 64, BYTE, tmems[peer],
                                       ctx.rank * 64, 64, BYTE)
        yield from ctx.rma.complete_collective(ctx.comm)

    world.run(program)
    return world


class TestPerPairState:
    """Per-pair state is integers in per-rank tables keyed by peer, the
    containers exist only while they hold something, and a completion
    lets go of what it retired: what an all-to-all leaves behind per
    (origin, target) pair is two watermarks and the fabric's clamp, none
    of which the cyclic collector walks."""

    def test_census_after_a_pure_train_alltoall(self):
        from tests.rma.test_train_fanin import _alltoall, _train_ops

        world, _ = _alltoall()
        engines = [c.rma.engine for c in world.contexts.values()]
        assert _train_ops(world) == sum(e.stats["puts"] for e in engines) > 0
        for eng in engines:
            assert len(eng._last_seq) == len(eng._applied_upto) == 23
            assert set(eng._last_seq.values()) == {2}
            assert set(eng._applied_upto.values()) == {2}
            assert not gc.is_tracked(eng._last_seq)
            assert not gc.is_tracked(eng._applied_upto)
            for table in (eng._order_barrier, eng._last_atomic_seq,
                          eng._last_deferred_seq, eng._held,
                          eng._completing, eng._broken, eng._applied_extra,
                          eng._inbound, eng._gated, eng._flush_requests,
                          eng._draining, eng.routes[1]._trains):
                assert not table
        fabric = world.fabric
        assert fabric._pending_trains == {}
        assert sorted(fabric._last_delivery) == list(range(24))
        assert not any(gc.is_tracked(clamp)
                       for clamp in fabric._last_delivery.values())
        assert fabric._path_cfg == {}

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_alltoall_keeps_no_object_per_pair(self, n, monkeypatch):
        """Tracked objects, counted (after a collection) at the first put,
        when the last rank enters ``complete_all`` and after the run.  By
        then every other rank has remote-completed its writes (no flush
        is in flight) and waits in the barrier: the growth is a constant
        per rank — a tracked object per pair would add ``n (n - 1)`` —
        and after the run nothing per pair is left."""
        seen = {"calls": 0}
        issue_put, complete_all = RmaEngine.issue_put, RmaEngine.complete_all

        def first_put(eng, *args):
            if "before" not in seen:
                gc.collect()
                seen["before"] = len(gc.get_objects())
            return issue_put(eng, *args)

        def last_complete(eng):
            seen["calls"] += 1
            if seen["calls"] == n:
                gc.collect()
                seen["last"] = len(gc.get_objects())
                seen["flushes"] = sum(len(c.rma.engine._flush_waiters)
                                      for c in eng.world.contexts.values())
            return complete_all(eng)

        monkeypatch.setattr(RmaEngine, "issue_put", first_put)
        monkeypatch.setattr(RmaEngine, "complete_all", last_complete)
        world = _flat_alltoall(n)
        gc.collect()
        after = len(gc.get_objects())
        assert sum(c.rma.stats["train_ops"]
                   for c in world.contexts.values()) == n * (n - 1)
        assert seen["flushes"] == 0
        assert seen["last"] - seen["before"] <= PER_RANK * n
        assert after - seen["before"] <= n

    def test_what_the_origin_holds_per_outstanding_write(self):
        """Flushed writes to one target leave one run per stretch of equal
        kind and attributes — a count and the watermark a flush must
        cover — and an acknowledged write its record, which lets go of
        its payload once applied.  The completion takes all of it."""
        seen = {}
        ordered = RmaAttrs(ordering=True)
        acked = RmaAttrs(remote_completion=True)
        writes = (["put"] * 5 + ["acked"] + ["acc"] * 2 + ["ordered"] * 2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(1 << 18)
            src = ctx.mem.space.alloc(1 << 14, fill=7)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                eng = ctx.rma.engine
                for k, what in enumerate(writes):
                    if what == "acc":
                        yield from ctx.rma.accumulate(
                            src, 0, 8, INT64, tmems[1], k << 14, 8, INT64)
                    else:
                        yield from ctx.rma.put(
                            src, 0, 1 << 14, BYTE, tmems[1], k << 14,
                            1 << 14, BYTE,
                            attrs=acked if what == "acked" else
                            ordered if what == "ordered" else None)
                yield from ctx.compute(100.0)
                eng.materialize_inbound()
                eng.world.fabric.materialize_trains(1)
                seen["held"] = [
                    ("record", r.kind, r.wire, r.frags) if type(r) is OpRecord
                    else ("run", r.kind, r.attrs.ordering, r.count, r.upto)
                    for r in eng._held[1]]
                seen["train_ops"] = eng.stats["train_ops"]
                yield from ctx.rma.complete(ctx.comm, 1)
                seen["after"] = dict(eng._held), dict(eng._completing)
            yield from ctx.comm.barrier()

        World(n_ranks=2, network=seastar_portals()).run(program)
        assert seen["train_ops"] == len(writes)
        assert seen["held"] == [("run", "put", False, 5, 5),
                                ("record", "put", None, None),
                                ("run", "acc", False, 2, 8),
                                ("run", "put", True, 2, 10)]
        assert seen["after"] == ({}, {})

    def test_path_failure_while_complete_all_waits(self):
        """Both halves of ``_completing``'s lifetime.  While a
        ``complete_all`` waits, the acknowledged records it took are
        still reachable from the engine, so a path failure resolves every
        one of them — and the flush that stands for the flushed write —
        to its ``RmaError`` instead of leaving the completion parked;
        once the wait returns, the engine holds none of them."""
        from repro.network.transport import TransportFailure
        from repro.rma.target_mem import RmaError

        world = World(n_ranks=3, network=seastar_portals())
        seen = {}

        def break_path(eng):
            seen["held"] = list(eng._completing[1])
            seen["untouched"] = list(eng._completing[2])
            seen["flushes"] = sorted(waiter.target(flush_id) for
                                     flush_id, waiter
                                     in eng._flush_waiters.items())
            seen["waiters"] = {id(w) for w in eng._flush_waiters.values()}
            eng._on_path_failure(1, TransportFailure(
                src=0, dst=1, attempts=3, sim_time=eng.sim.now,
                reason="retry-budget-exhausted", packet_kind="rma.frag",
                seq=1))

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            src = ctx.mem.space.alloc(64, fill=5)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                eng = ctx.rma.engine
                for dst in (2, 1):
                    for k, remote in enumerate((False, True, True)):
                        yield from ctx.rma.put(
                            src, 0, 64, BYTE, tmems[dst], 64 * k, 64, BYTE,
                            blocking=False, remote_completion=remote)
                # inside complete_all's wait: after its call overhead,
                # before the last hardware ack and the flush answers
                ctx.sim.schedule_call(eng.timings.call_overhead + 0.05,
                                      break_path, eng)
                errors = yield from eng.complete_all()
                seen["errors"] = errors
                seen["after"] = (dict(eng._completing), dict(eng._held))
            yield from ctx.compute(50.0)

        world.run(program)
        # the flushed write is no record, only the flush in flight
        held = seen["held"]
        assert [type(r) for r in held] == [OpRecord, OpRecord]
        assert [(r.kind, r.attrs.remote_completion) for r in held] \
            == [("put", True)] * 2
        assert len(seen["untouched"]) == 2
        assert seen["flushes"] == [1, 2]
        assert len(seen["waiters"]) == 1       # both answer one waiter
        errors = seen["errors"]
        # the two per-op acks still in flight and the flush; rank 2's
        # records complete normally
        assert len(errors) == 3
        assert all(isinstance(e, RmaError) and e.target == 1
                   and e.kind == "retry_exhausted" for e in errors)
        assert sorted(e.op for e in errors) == ["complete", "put", "put"]
        assert seen["after"] == ({}, {})

    def test_breaking_two_targets_mid_wait_keeps_the_error_order(self):
        """Two paths fail while a ``complete_all`` waits, the higher
        target first.  The errors come back by ascending target, each
        target's acknowledged writes in issue order before its flush —
        the order a wait on one event per flush reported."""
        from repro.network.transport import TransportFailure

        world = World(n_ranks=4, network=seastar_portals())
        seen = {}

        def break_path(eng, dst):
            eng._on_path_failure(dst, TransportFailure(
                src=0, dst=dst, attempts=3, sim_time=eng.sim.now,
                reason="retry-budget-exhausted", packet_kind="rma.frag",
                seq=dst))

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            src = ctx.mem.space.alloc(64, fill=5)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                eng = ctx.rma.engine
                for k, remote in enumerate((False, True, True)):
                    for dst in (2, 3, 1):
                        yield from ctx.rma.put(
                            src, 0, 64, BYTE, tmems[dst], 64 * k, 64, BYTE,
                            blocking=False, remote_completion=remote)
                # the last round's hardware acks and every flush are in
                # flight
                at = eng.timings.call_overhead + 0.05
                ctx.sim.schedule_call(at, break_path, eng, 3)
                ctx.sim.schedule_call(at + 0.01, break_path, eng, 1)
                seen["errors"] = yield from eng.complete_all()
                seen["after"] = (dict(eng._completing), dict(eng._held),
                                 dict(eng._flush_waiters))
            yield from ctx.compute(50.0)

        world.run(program)
        assert [(e.op, e.target, e.kind) for e in seen["errors"]] == [
            ("put", 1, "retry_exhausted"), ("complete", 1, "retry_exhausted"),
            ("put", 3, "retry_exhausted"), ("complete", 3, "retry_exhausted")]
        assert seen["after"] == ({}, {}, {})

    def test_a_duplicated_flush_ack_counts_once(self, monkeypatch):
        """The first target's flush ack is delivered twice, as a chaos
        ``duplicate`` would: the call's waiter counts it once and
        triggers only when the other target has answered too — once."""
        from repro.rma.engine import core

        acks, answers = [], []
        flush_ack, answered = RmaEngine._flush_ack, core._Completion.answered

        def twice(eng, src, flush_id):
            waiter = eng._flush_waiters.get(flush_id)
            for _ in range(1 if acks else 2):
                flush_ack(eng, src, flush_id)
                acks.append((src, waiter.left, waiter.ev.triggered))

        def counted(waiter, *error):
            answers.append(waiter)
            answered(waiter, *error)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            src = ctx.mem.space.alloc(64, fill=5)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                for dst in (1, 2):
                    yield from ctx.rma.put(src, 0, 64, BYTE, tmems[dst], 0,
                                           64, BYTE, blocking=False)
                return (yield from ctx.rma.engine.complete_all())
            yield from ctx.compute(50.0)

        monkeypatch.setattr(RmaEngine, "_flush_ack", twice)
        monkeypatch.setattr(core._Completion, "answered", counted)
        results = World(n_ranks=3, network=seastar_portals()).run(program)
        assert results[0] == []
        (first, *_), (second, *_) = acks[0], acks[2]
        assert {first, second} == {1, 2}
        assert acks == [(first, 1, False), (first, 1, False),
                        (second, 0, True)]
        assert len(answers) == 2 and answers[0] is answers[1]

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_waiting_complete_all_holds_nothing_per_target(self, n):
        """While one rank's ``complete_all`` waits on flushes to its
        ``n - 1`` targets, the events it holds — the children of what its
        process waits on and those behind its flush map — are one, and
        the map's ``n - 1`` entries are untracked flush ids to one
        waiter: nothing the collector walks grows with the target
        count."""
        world = World(n_ranks=n, network=seastar_portals())
        seen = {}

        def probe(eng):
            waited = world._rank_procs[0]._waiting_on
            flushes = eng._flush_waiters
            seen["in_flight"] = len(flushes)
            events = {id(ev) for ev in getattr(waited, "events", [waited])}
            events |= {id(x) for waiter in flushes.values()
                       for x in gc.get_referents(waiter)
                       if isinstance(x, Event)}
            seen["events"] = len(events)
            seen["tracked"] = len({id(o) for item in flushes.items()
                                   for o in item if gc.is_tracked(o)})

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            src = ctx.mem.space.alloc(64, fill=5)
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                eng = ctx.rma.engine
                for dst in range(1, ctx.size):
                    yield from ctx.rma.put(src, 0, 64, BYTE, tmems[dst], 0,
                                           64, BYTE, blocking=False)
                ctx.sim.schedule_call(eng.timings.call_overhead + 0.05,
                                      probe, eng)
                assert (yield from eng.complete_all()) == []
            yield from ctx.comm.barrier()

        world.run(program)
        assert seen == {"in_flight": n - 1, "events": 1, "tracked": 1}
