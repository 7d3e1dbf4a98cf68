"""White-box tests pinning the engine's protocol decisions."""

import pytest

from repro.machine import cray_xt5_cnl, nec_sx9
from repro.network import infiniband_like, quadrics_like, seastar_portals
from repro.datatypes import BYTE
from repro.rma import RmaAttrs
from repro.rma.engine.core import _OriginPeer
from repro.rma.engine.target import _InboundOp, _TargetPeer
from repro.rma.target_mem import TargetMem
from repro.runtime import World


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
        mode = eng._pick_remote_mode(RmaAttrs(), tmem(), 0, False, False,
                                     _OriginPeer())
        assert mode == "flush"

    def test_rc_on_eq_network_uses_hw(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(), 0, False, False,
            _OriginPeer())
        assert mode == "hw"

    def test_rc_without_eq_uses_sw(self):
        eng = engine_on(infiniband_like())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(), 0, False, False,
            _OriginPeer())
        assert mode == "sw"

    def test_noncoherent_target_forces_sw(self):
        eng = engine_on(seastar_portals())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True), tmem(coherent=False), 0,
            False, False, _OriginPeer())
        assert mode == "sw"

    def test_atomic_always_sw(self):
        eng = engine_on(seastar_portals())
        for via_queue, via_lock in ((True, False), (False, True)):
            mode = eng._pick_remote_mode(
                RmaAttrs(atomicity=True), tmem(), 0, via_queue, via_lock,
                _OriginPeer())
            assert mode == "sw"

    def test_gated_op_on_unordered_fabric_uses_sw(self):
        eng = engine_on(quadrics_like())
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False,
            peer=_OriginPeer())
        assert mode == "sw"

    def test_gated_op_on_ordered_fabric_keeps_hw(self):
        eng = engine_on(seastar_portals())
        peer = _OriginPeer()
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False,
            peer=peer)
        assert mode == "hw"

    def test_barrier_covering_atomic_op_invalidates_hw(self):
        """An earlier atomic op applies late even on an ordered fabric,
        so a barrier spanning it cannot rely on delivery acks."""
        eng = engine_on(seastar_portals())
        peer = _OriginPeer()
        peer.last_atomic_seq = 2
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False,
            peer=peer)
        assert mode == "sw"
        # ...but a barrier below the atomic seq is fine
        peer.last_atomic_seq = 9
        mode = eng._pick_remote_mode(
            RmaAttrs(remote_completion=True, ordering=True), tmem(),
            barrier=3, atomic_via_serializer=False, lock_serialized=False,
            peer=peer)
        assert mode == "hw"


class TestWatermarkBookkeeping:
    """The applied_upto/extra-set logic used by flushes and gating."""

    def make(self):
        return _TargetPeer()

    def test_in_order_application(self):
        peer = self.make()
        peer.applied_upto = 0
        for seq in (1, 2, 3):
            if seq == peer.applied_upto + 1:
                peer.applied_upto = seq
        assert peer.applied_upto == 3

    def test_out_of_order_absorbed_via_engine(self):
        """Drive the real _op_applied with synthetic inbound ops."""
        w = World(n_ranks=2)
        eng = w.contexts[0].rma.engine
        peer = eng._target_peer(1)

        def fake_op(seq):
            return _InboundOp({
                "seq": seq, "barrier": 0, "src": 1, "kind": "put",
                "nfrags": 1, "ack": "none",
            })

        eng._op_applied(peer, fake_op(2))
        assert peer.applied_upto == 0
        assert peer.applied_extra == {2}
        eng._op_applied(peer, fake_op(1))
        assert peer.applied_upto == 2
        assert peer.applied_extra == set()
        eng._op_applied(peer, fake_op(3))
        assert peer.applied_upto == 3

    def test_barrier_ok(self):
        peer = self.make()
        peer.applied_upto = 5
        assert peer.barrier_ok(0)
        assert peer.barrier_ok(5)
        assert not peer.barrier_ok(6)


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
        peer = eng._origin_peer(1)
        peer.alloc_seq()
        peer.alloc_seq()
        eng.order_one(1)
        assert peer.order_barrier == 2
        peer.alloc_seq()
        eng.order_all()
        assert peer.order_barrier == 3


class TestPerPairState:
    """Per-pair state is allocated on first use and a completion lets go
    of the records it retired: what an all-to-all leaves behind per
    (origin, target) pair is two watermark objects, nothing more."""

    def test_census_after_a_pure_train_alltoall(self):
        from tests.rma.test_train_fanin import _alltoall, _train_ops

        world, _ = _alltoall()
        engines = [c.rma.engine for c in world.contexts.values()]
        assert _train_ops(world) == sum(e.stats["puts"] for e in engines) > 0
        for eng in engines:
            assert len(eng._target_peers) == len(eng._origin_peers) == 23
            for peer in eng._target_peers.values():
                owned = [getattr(peer, slot) for slot in _TargetPeer.__slots__]
                assert not any(isinstance(v, (set, dict, list)) for v in owned)
                assert peer.applied_upto == 2
            for peer in eng._origin_peers.values():
                assert peer.completing == () and peer.outstanding == []
        assert world.fabric._path_cfg == {}

    def test_path_failure_while_complete_all_waits(self):
        """Both halves of ``completing``'s lifetime.  While a
        ``complete_all`` waits, the records it took are still reachable
        from the peer, so a path failure resolves every one of them to
        its ``RmaError`` (and the stranded flush with them) instead of
        leaving the completion parked; once the wait returns, the peer
        holds none of them."""
        from repro.network.transport import TransportFailure
        from repro.rma.target_mem import RmaError

        world = World(n_ranks=3, network=seastar_portals())
        seen = {}

        def break_path(eng):
            seen["held"] = list(eng._origin_peers[1].completing)
            seen["untouched"] = list(eng._origin_peers[2].completing)
            eng._on_path_failure(1, TransportFailure(
                src=0, dst=1, attempts=3, sim_time=eng.sim.now,
                reason="retry-budget-exhausted", packet_kind="rma.frag",
                packet_id=1))

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
                seen["after"] = [eng._origin_peers[d].completing
                                 for d in (1, 2)]
            yield from ctx.compute(50.0)

        world.run(program)
        assert [r.remote_mode for r in seen["held"]] == ["flush", "hw", "hw"]
        assert len(seen["untouched"]) == 3
        errors = seen["errors"]
        # the two per-op acks still in flight and the flush; rank 2's
        # records complete normally
        assert len(errors) == 3
        assert all(isinstance(e, RmaError) and e.target == 1
                   and e.kind == "retry_exhausted" for e in errors)
        assert sorted(e.op for e in errors) == ["complete", "put", "put"]
        assert seen["after"] == [(), ()]
