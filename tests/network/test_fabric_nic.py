"""Tests for fabric flight/ordering behaviour and NIC injection."""

import pytest

from repro.network import (
    Fabric,
    HEADER_SIZE,
    NetworkConfig,
    Nic,
    Packet,
    quadrics_like,
    seastar_portals,
)
from repro.sim import RngRegistry, Simulator


def setup_pair(config, n=2, seed=0):
    sim = Simulator()
    fabric = Fabric(sim, config, rng=RngRegistry(seed))
    nics = [Nic(sim, r, fabric) for r in range(n)]
    return sim, fabric, nics


class TestConfig:
    def test_serialization_time_floor_is_gap(self):
        cfg = NetworkConfig(gap=0.5, byte_time=0.001)
        assert cfg.serialization_time(1) == 0.5
        assert cfg.serialization_time(10_000) == 10.0

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(latency=-1)

    def test_with_override(self):
        cfg = seastar_portals().with_(ordered=False)
        assert not cfg.ordered
        assert cfg.name == "seastar-portals"

    def test_preset_personalities(self):
        assert seastar_portals().ordered
        assert seastar_portals().remote_completion_events
        assert not seastar_portals().active_messages
        assert not quadrics_like().ordered
        assert quadrics_like().active_messages


class TestDelivery:
    def test_packet_arrives_after_serialization_plus_latency(self):
        cfg = NetworkConfig(latency=5.0, gap=1.0, byte_time=0.0, jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        arrivals = []
        nics[1].register_handler("test", lambda p: arrivals.append(sim.now))
        nics[0].send(Packet(src=0, dst=1, kind="test"))
        sim.run()
        assert arrivals == [6.0]  # gap 1.0 + latency 5.0

    def test_data_bytes_charged_at_injection(self):
        cfg = NetworkConfig(latency=1.0, gap=0.0, byte_time=0.01, jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        arrivals = []
        nics[1].register_handler("test", lambda p: arrivals.append(sim.now))
        nics[0].send(Packet(src=0, dst=1, kind="test", data_bytes=100))
        sim.run()
        assert arrivals == [pytest.approx((HEADER_SIZE + 100) * 0.01 + 1.0)]

    def test_ev_injected_triggers_at_local_completion(self):
        cfg = NetworkConfig(latency=50.0, gap=2.0, byte_time=0.0)
        sim, fabric, nics = setup_pair(cfg)
        nics[1].register_handler("test", lambda p: None)
        pkt = nics[0].send(Packet(src=0, dst=1, kind="test"))
        sim.run()
        assert pkt.ev_injected.value == 2.0  # long before arrival at 52

    def test_injection_queue_serializes(self):
        cfg = NetworkConfig(latency=1.0, gap=3.0, byte_time=0.0, jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        arrivals = []
        nics[1].register_handler("test", lambda p: arrivals.append(sim.now))
        for _ in range(3):
            nics[0].send(Packet(src=0, dst=1, kind="test"))
        sim.run()
        assert arrivals == [4.0, 7.0, 10.0]

    def test_src_mismatch_rejected(self):
        sim, fabric, nics = setup_pair(NetworkConfig())
        with pytest.raises(ValueError):
            nics[0].send(Packet(src=1, dst=0, kind="x"))

    def test_unknown_destination_rejected(self):
        sim, fabric, nics = setup_pair(NetworkConfig(gap=0, jitter=0))
        nics[0].send(Packet(src=0, dst=9, kind="x"))
        with pytest.raises(ValueError, match="destination"):
            sim.run()

    def test_missing_handler_raises(self):
        sim, fabric, nics = setup_pair(NetworkConfig(jitter=0))
        nics[0].send(Packet(src=0, dst=1, kind="mystery"))
        with pytest.raises(RuntimeError, match="no handler"):
            sim.run()

    def test_duplicate_handler_rejected(self):
        sim, fabric, nics = setup_pair(NetworkConfig())
        nics[0].register_handler("k", lambda p: None)
        with pytest.raises(ValueError):
            nics[0].register_handler("k", lambda p: None)

    def test_double_attach_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig())
        Nic(sim, 0, fabric)
        with pytest.raises(ValueError):
            Nic(sim, 0, fabric)


class TestAttachValidation:
    def test_rank_out_of_range_for_sized_fabric(self):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig(), n_ranks=4)
        Nic(sim, 3, fabric)  # last valid rank
        with pytest.raises(ValueError, match="out of range"):
            Nic(sim, 4, fabric)

    def test_unsized_fabric_accepts_any_rank(self):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig())
        Nic(sim, 1000, fabric)

    @pytest.mark.parametrize("bad", [-1, 1.5, "0", None])
    def test_non_rank_rejected(self, bad):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig())
        with pytest.raises(ValueError, match="non-negative int"):
            fabric.attach(bad)

    def test_duplicate_attach_message_names_rank(self):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig(), n_ranks=2)
        Nic(sim, 1, fabric)
        with pytest.raises(ValueError, match="rank 1 already attached"):
            fabric.attach(1)


class TestUnknownPacketKind:
    def test_error_carries_simulation_context(self):
        from repro.network import UnknownPacketKind

        sim, fabric, nics = setup_pair(NetworkConfig(jitter=0))
        pkt = Packet(src=0, dst=1, kind="mystery")
        nics[0].send(pkt)
        with pytest.raises(UnknownPacketKind) as exc_info:
            sim.run()
        err = exc_info.value
        assert isinstance(err, RuntimeError)  # old catch sites still work
        assert err.rank == 1
        assert err.kind == "mystery"
        assert err.src == 0 and err.dst == 1
        assert err.packet_id == pkt.packet_id
        assert err.sim_time == sim.now
        assert "no handler for packet kind 'mystery'" in str(err)


class TestOrdering:
    def test_ordered_fabric_preserves_fifo(self):
        cfg = NetworkConfig(ordered=True, gap=0.1, byte_time=0.001, jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        seen = []
        nics[1].register_handler("m", lambda p: seen.append(p.payload["i"]))
        # Big packet first, tiny packets after: on an ordered network the
        # tiny ones must not overtake.
        nics[0].send(Packet(src=0, dst=1, kind="m", payload={"i": 0}, data_bytes=10_000))
        for i in range(1, 5):
            nics[0].send(Packet(src=0, dst=1, kind="m", payload={"i": i}))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_unordered_fabric_reorders_some_packets(self):
        cfg = NetworkConfig(
            ordered=False, gap=0.05, byte_time=0.0, latency=1.0, jitter=5.0
        )
        sim, fabric, nics = setup_pair(cfg, seed=3)
        seen = []
        nics[1].register_handler("m", lambda p: seen.append(p.payload["i"]))
        for i in range(50):
            nics[0].send(Packet(src=0, dst=1, kind="m", payload={"i": i}))
        sim.run()
        assert sorted(seen) == list(range(50))
        assert seen != list(range(50)), "expected at least one reorder"
        assert fabric.reorder_count > 0

    def test_unordered_is_deterministic_given_seed(self):
        def run(seed):
            cfg = NetworkConfig(ordered=False, gap=0.05, latency=1.0, jitter=5.0)
            sim, fabric, nics = setup_pair(cfg, seed=seed)
            seen = []
            nics[1].register_handler("m", lambda p: seen.append(p.payload["i"]))
            for i in range(20):
                nics[0].send(Packet(src=0, dst=1, kind="m", payload={"i": i}))
            sim.run()
            return seen

        assert run(7) == run(7)


class TestHardwareAcks:
    def test_ack_triggers_remote_complete(self):
        cfg = NetworkConfig(
            latency=5.0, gap=1.0, byte_time=0.0, jitter=0.0,
            remote_completion_events=True,
        )
        sim, fabric, nics = setup_pair(cfg)
        ack = sim.event()
        nics[0].post(1, "m", lambda: None, (), ack=ack)
        sim.run()
        # injected at 1, delivered at 6, ack back at ~11
        assert ack.value == pytest.approx(11.0, abs=0.1)
        assert fabric.acks_generated == 1

    def test_no_ack_event_when_fabric_lacks_completion_events(self):
        """A poster asks for a hardware ack only where the path has
        remote-completion events; a raw packet never asks."""
        cfg = NetworkConfig(remote_completion_events=False, jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        nics[1].register_handler("m", lambda p: None)
        nics[0].send(Packet(src=0, dst=1, kind="m"))
        nics[0].post(1, "m", lambda: None, ())
        sim.run()
        assert fabric.packets_delivered == 2
        assert fabric.acks_generated == 0


class TestStats:
    def test_counters(self):
        cfg = NetworkConfig(jitter=0.0)
        sim, fabric, nics = setup_pair(cfg)
        nics[1].register_handler("m", lambda p: None)
        nics[0].send(Packet(src=0, dst=1, kind="m", data_bytes=10))
        sim.run()
        assert nics[0].packets_sent == 1
        assert nics[0].bytes_sent == HEADER_SIZE + 10
        assert nics[1].packets_received == 1
        assert fabric.packets_delivered == 1
        assert fabric.bytes_delivered == HEADER_SIZE + 10
