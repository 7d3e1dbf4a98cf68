"""White-box tests pinning the engine's protocol decisions."""

import pytest

from repro.machine import cray_xt5_cnl, nec_sx9
from repro.network import infiniband_like, quadrics_like, seastar_portals
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
