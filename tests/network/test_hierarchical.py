"""Tests for hierarchical fabrics (intra-node shared-memory paths)."""

import numpy as np
import pytest

from repro.datatypes import BYTE
from repro.machine import nec_sx9
from repro.network import seastar_portals, shared_memory_like
from repro.runtime import World
from tests.conftest import fast_paths


def one_put_latency(world, origin, target):
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(64)
        elapsed = None
        if ctx.rank == origin:
            src = ctx.mem.space.alloc(8)
            t0 = ctx.sim.now
            yield from ctx.rma.put(src, 0, 8, BYTE, tmems[target], 0, 8,
                                   BYTE, blocking=True,
                                   remote_completion=True)
            elapsed = ctx.sim.now - t0
        yield from ctx.comm.barrier()
        return elapsed

    return world.run(program)[origin]


class TestIntraNodePath:
    def test_same_node_put_is_faster(self):
        """2 ranks/node: rank 0->1 shares memory while rank 0->2
        crosses the switch.  Software overheads are common to both, so
        the gap is the wire round trip."""
        from repro.machine import MachineConfig

        machine = MachineConfig(n_nodes=2, ranks_per_node=2)
        t_intra = one_put_latency(
            World(machine=machine, network=seastar_portals()), 0, 1)
        t_inter = one_put_latency(
            World(machine=machine, network=seastar_portals()), 0, 2)
        assert t_intra < 0.75 * t_inter, (t_intra, t_inter)
        # the difference is about one round trip of latency delta
        delta = t_inter - t_intra
        rtt_delta = 2 * (seastar_portals().latency
                         - shared_memory_like().latency)
        assert delta == pytest.approx(rtt_delta, rel=0.3)

    def test_intra_packets_counted(self):
        machine = nec_sx9(n_nodes=2, ranks_per_node=2)
        w = World(machine=machine)
        one_put_latency(w, 0, 1)
        assert w.fabric.intra_node_packets > 0

    def test_single_rank_nodes_have_no_intra_path(self):
        w = World(n_ranks=4)
        assert w.intra_node_network is None
        one_put_latency(w, 0, 1)
        assert w.fabric.intra_node_packets == 0

    def test_explicit_intra_config_respected(self):
        machine = nec_sx9(n_nodes=2, ranks_per_node=2)
        custom = shared_memory_like().with_(latency=0.01)
        w = World(machine=machine, intra_node_network=custom)
        assert w.fabric.intra_config.latency == 0.01

    def test_intra_count_invariant_across_modes(self):
        """One same-node transfer is counted once whether it rides the
        per-packet path, a lean message, or an analytic op-train."""
        from repro.machine import MachineConfig

        def traffic(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(512)
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(256)
                for _ in range(4):
                    yield from ctx.rma.put(src, 0, 256, BYTE, tmems[1],
                                           0, 256, BYTE)
                yield from ctx.rma.complete(1)
            yield from ctx.comm.barrier()

        def count(train, nexus):
            with fast_paths(train=train, nexus=nexus):
                w = World(machine=MachineConfig(n_nodes=2, ranks_per_node=2))
                w.run(traffic)
            return w.fabric.intra_node_packets

        with_train = count(train=True, nexus=True)
        lean = count(train=False, nexus=True)
        per_packet = count(train=False, nexus=False)
        assert with_train == lean == per_packet
        assert per_packet > 0

    def test_injector_dropped_intra_packet_not_counted(self):
        """The faulty path must not count a same-node packet the
        injector drops (it was counted before the drop decision)."""
        from types import SimpleNamespace

        from repro.machine import MachineConfig
        from repro.network.packet import HEADER_SIZE

        w = World(machine=MachineConfig(n_nodes=1, ranks_per_node=2))
        fate = SimpleNamespace(drop=True, corrupt=False, extra_delay=0.0,
                               duplicate=False)
        w.fabric._injector = SimpleNamespace(
            fate=lambda src, dst, kind, now: fate)
        w.fabric._faulty = True

        def launch():
            w.nics[0].launch(1, "test", lambda: None, (), HEADER_SIZE + 8)

        launch()
        assert w.fabric.intra_node_packets == 0
        fate.drop = False
        launch()
        assert w.fabric.intra_node_packets == 1

    def test_correctness_unchanged_across_the_boundary(self):
        """Data lands intact whether or not it crossed a node."""
        machine = nec_sx9(n_nodes=2, ranks_per_node=2)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(64)
            if ctx.rank == 0:
                src = ctx.mem.space.alloc(16)
                ctx.mem.store(src, 0, np.arange(16, dtype=np.uint8))
                for dst in (1, 2, 3):
                    yield from ctx.rma.put(src, 0, 16, BYTE, tmems[dst], 0,
                                           16, BYTE, blocking=True,
                                           remote_completion=True)
            yield from ctx.comm.barrier()
            ctx.mem.fence()  # non-coherent nodes: fence before reading
            return ctx.mem.load(alloc, 0, 16).tolist()

        out = World(machine=machine).run(program)
        for r in (1, 2, 3):
            assert out[r] == list(range(16))
