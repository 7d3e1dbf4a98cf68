"""Restart semantics of the reliable transport (flow epochs).

A rank restart resets both ends of every flow it shares: sequence
numbering restarts at 1 under a bumped *flow epoch*.  In-flight traffic
stamped with the old epoch is provably stale — a stale sequenced packet
is dropped **without an ack** (acking would confirm a fresh-epoch
sequence number that happens to collide), and a stale selective ack is
ignored (it must not complete a fresh-epoch packet).  These tests pin
the unit-level state machine and then run a kill+restart integration
under delay chaos to see the fences fire on real traffic.
"""

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.mpi.constants import ERRORS_RETURN
from repro.network.config import generic_rdma
from repro.network.packet import HEADER_SIZE
from repro.network.transport import _TxEntry
from repro.rma.target_mem import RmaError
from repro.runtime import World


def make_world(n_ranks=2, plan=None, seed=7):
    plan = plan if plan is not None else FaultPlan().drop(0.0)
    return World(n_ranks=n_ranks, network=generic_rdma(), fault_plan=plan,
                 seed=seed, rma_errhandler=ERRORS_RETURN)


def sequenced(dst, seq, epoch):
    """A sequenced message to ``dst`` as the transport would emit it."""
    return _TxEntry(dst, "p2p.msg", print, (), HEADER_SIZE, None, None,
                    None, seq, epoch)


def prepare(transport, dst):
    """Sequence + checksum one header-only message to ``dst``."""
    return transport.prepare(dst, "p2p.msg", print, (), HEADER_SIZE)


class TestEpochStamping:
    def test_fresh_flows_start_at_epoch_zero(self):
        w = make_world()
        t = w.nics[0].transport
        assert t.flow_epoch(1) == 0
        entry = prepare(t, 1)
        assert entry.seq == 1
        assert entry.epoch == 0

    def test_reset_flow_bumps_epoch_and_restarts_numbering(self):
        w = make_world()
        t = w.nics[0].transport
        for _ in range(3):
            prepare(t, 1)
        t.reset_flow(1)
        assert t.flow_epoch(1) == 1
        entry = prepare(t, 1)
        assert entry.seq == 1, "numbering must restart after reset"
        assert entry.epoch == 1

    def test_reset_flow_clears_outstanding_and_broken(self):
        w = make_world()
        t = w.nics[0].transport
        prepare(t, 1)
        assert t._outstanding
        t._broken.add(1)
        t.reset_flow(1)
        assert not t._outstanding
        assert not t.is_broken(1)

    def test_reset_all_bumps_every_peer(self):
        w = make_world(n_ranks=4)
        t = w.nics[2].transport
        prepare(t, 0)
        t.reset_all()
        # every peer fences, even those the flow never talked to yet
        for peer in (0, 1, 3):
            assert t.flow_epoch(peer) == 1


class TestStaleTraffic:
    def test_stale_packet_dropped_without_ack(self):
        w = make_world()
        rx = w.nics[1].transport
        rx.reset_flow(0)  # receiver is at epoch 1 now
        acks_before = rx.stats["acks_tx"]
        accepted = rx.rx_accept(0, sequenced(1, seq=5, epoch=0))
        assert accepted is False
        assert rx.stats["stale_drops"] == 1
        assert rx.stats["acks_tx"] == acks_before, \
            "a stale packet must not be acked"
        # and it must not have polluted the fresh dedup window
        assert rx._rx_upto.get(0, 0) == 0

    def test_current_epoch_packet_accepted_and_acked(self):
        w = make_world()
        rx = w.nics[1].transport
        acks_before = rx.stats["acks_tx"]
        assert rx.rx_accept(0, sequenced(1, seq=1, epoch=0)) is True
        assert rx.stats["acks_tx"] == acks_before + 1
        assert rx.stats["stale_drops"] == 0

    def test_receiver_adopts_newer_sender_epoch(self):
        w = make_world()
        rx = w.nics[1].transport
        assert rx.rx_accept(0, sequenced(1, seq=1, epoch=0)) is True
        # sender restarted unilaterally: epoch 2, numbering from 1 again
        assert rx.rx_accept(0, sequenced(1, seq=1, epoch=2)) is True, \
            "seq 1 of the new epoch must not be mis-deduped"
        assert rx.flow_epoch(0) == 2
        assert rx.stats["dup_rx"] == 0

    def test_stale_ack_ignored(self):
        w = make_world()
        tx = w.nics[0].transport
        prepare(tx, 1)
        assert (1, 1) in tx._outstanding
        tx.reset_flow(1)  # restart: old numbering is dead
        prepare(tx, 1)  # epoch 1, seq 1
        # a delayed pre-restart ack for "seq 1" arrives now
        tx._on_ack(1, 1, 0)
        assert tx.stats["stale_acks"] == 1
        assert (1, 1) in tx._outstanding, \
            "a stale ack must not complete a fresh-epoch packet"
        # the matching-epoch ack does complete it
        tx._on_ack(1, 1, 1)
        assert (1, 1) not in tx._outstanding


class TestRetransmitAcrossReset:
    def test_a_queued_retransmit_does_not_arm_the_fresh_message(self):
        """A retransmit still queued on the NIC when ``reset_flow``
        restarts the pair leaves after the reset.  The fresh message
        that reuses its sequence number is a different entry: the old
        one's injection must neither arm its timer nor count an attempt
        against it."""
        w = make_world()
        nic = w.nics[0]
        tx = nic.transport
        old = prepare(tx, 1)
        t = nic.reserve(100.0)  # the serializer is busy for 100 us
        w.sim.schedule_call_at(t, nic.launch, 1, old.kind, old.fn, old.args,
                               old.wire, None, old.op, old.ack, old)
        tx.reset_flow(1)
        w.nics[1].transport.reset_flow(0)
        nic.post(1, "p2p.msg", lambda: None, ())
        fresh = tx._outstanding[(1, 1)]
        assert fresh is not old and fresh.epoch == 1
        w.sim.run(until=nic._reserved_until)  # its first injection
        assert nic.packets_sent == 2
        assert (fresh.attempts, fresh.timer_gen) == (1, 1)


class TestKillRestartIntegration:
    @pytest.mark.parametrize("seed", [0, 7, 77])
    def test_flows_resume_after_restart_under_delay_chaos(self, seed):
        """Rank 1 dies at 400 µs and restarts at 1400 µs while rank 0
        keeps hammering it with puts under heavy delay chaos.  The run
        must terminate (no hang), puts must fail while the target is
        down, and the reset flow must carry puts again afterwards."""
        outcome = {}

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(256)
            if ctx.rank == 1:
                yield ctx.sim.timeout(30_000.0)
                return "target"
            src = ctx.mem.space.alloc(256)
            ctx.mem.space.buffer(src)[:] = 42
            failed = succeeded_after = 0
            while ctx.sim.now < 6000.0:
                req = yield from ctx.rma.put(
                    src, 0, 256, BYTE, tmems[1], 0, 256, BYTE,
                    remote_completion=True)
                err = yield from req.wait()
                if req.state == "failed":
                    failed += 1
                    assert isinstance(err, RmaError)
                    # dead target -> rank_failed; the delay chaos can
                    # also exhaust the tiny retry budget against the
                    # live (restarted) rank -> retry_exhausted
                    assert err.kind in ("rank_failed", "retry_exhausted")
                    ctx.rma.engine.acknowledge_path_failure(1)
                    ctx.rma.engine.reset_path(1)
                elif ctx.sim.now > 1400.0:
                    succeeded_after += 1
                yield ctx.sim.timeout(100.0)
            outcome["failed"] = failed
            outcome["after"] = succeeded_after
            return "origin"

        plan = (FaultPlan()
                .kill(rank=1, at=400.0, restart_at=1400.0)
                .delay(0.30, mean=60.0)
                .with_transport(retry_budget=3))
        w = World(n_ranks=2, network=generic_rdma(), fault_plan=plan,
                  seed=seed, rma_errhandler=ERRORS_RETURN)
        results = w.run(program)
        assert results[0] == "origin"
        assert outcome["failed"] > 0, "no put failed while the target was dead"
        assert outcome["after"] > 0, \
            "the restarted flow never carried a put again"
        # the restart fences must actually exist on both ends
        assert w.nics[0].transport.flow_epoch(1) >= 1
        assert w.nics[1].transport.flow_epoch(0) >= 1

    def test_restart_resets_are_coordinated(self):
        """World._restart_rank bumps the epoch on the restarted rank and
        every peer in lockstep, so both directions agree."""
        w = make_world(n_ranks=3)
        prepare(w.nics[0].transport, 2)
        w._kill_rank(2, kill_program=False)
        w._restart_rank(2)
        for peer in (0, 1):
            assert w.nics[peer].transport.flow_epoch(2) == 1
            assert w.nics[2].transport.flow_epoch(peer) == 1
        assert not w.nics[0].transport._outstanding
