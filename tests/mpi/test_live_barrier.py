"""The live barrier (:mod:`repro.mpi.nexus`) against the per-packet one.

Every test runs one program twice — ``Nic.enabled`` on, then off —
and demands identical simulated times *and* identical endpoint, NIC,
fabric and per-link state, under the conditions the old
park-and-replay design had to rescue: entry skew, real traffic
interleaved with the rounds, concurrent instances, and a rank dying in
mid-barrier — on flat fabrics and on the routed, hierarchical and
unordered ones whose gates used to send the barrier down the per-packet
path.
"""

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.machine import generic_cluster
from repro.network.config import (
    infiniband_like,
    quadrics_like,
    seastar_portals,
)
from repro.runtime import World
from repro.sim.core import SimulationError
from repro.topo import crossbar_network, fattree_network, torus_network
from tests.conftest import fast_paths, record_multiset


def _routes(world):
    """``{(path, reason): instances}`` of the barrier route telemetry."""
    return {
        (c["labels"]["path"], c["labels"].get("reason")): c["value"]
        for c in world.metrics.snapshot()["counters"]
        if c["name"] == "collective.route"
        and c["labels"]["kind"] == "barrier"
    }


def _state(world):
    """Everything a barrier message touches: per rank, fabric-wide and
    (on a routed fabric) per link."""
    fabric = world.fabric
    ranks = []
    for r in range(world.n_ranks):
        ep, nic = world.endpoints[r], world.nics[r]
        ranks.append((ep.sends, ep.eager_sends, ep.recvs,
                      ep.unexpected_matches, nic.packets_sent,
                      nic.bytes_sent, nic.packets_received,
                      nic._reserved_until))
    topo = world.topo
    links = None if topo is None else (
        {link: (st.packets, st.bytes, st.busy_us, st.queue_us)
         for link, st in topo.link_stats.items()},
        topo.packets_routed, topo.hops_traversed, topo.unroutable)
    return (ranks, fabric.packets_delivered, fabric.bytes_delivered,
            fabric.dead_dropped,
            {src: dict(clamp) for src, clamp in fabric._last_delivery.items()},
            fabric.reorder_count, fabric.intra_node_packets,
            fabric.unroutable_dropped, fabric.acks_generated, links)


def _both(build, program, *, fails=False, setup=None):
    """Run ``program`` with the nexus on and off; returns the two
    ``(results, state, routes)`` triples after checking they agree."""
    out = {}
    for enabled in (True, False):
        with fast_paths(nexus=enabled):
            world = build()
            if setup is not None:
                setup(world)
            if fails:
                with pytest.raises(SimulationError):
                    world.run(program)
                results = None
            else:
                results = world.run(program)
        out[enabled] = (results, _state(world), _routes(world))
    assert out[True][0] == out[False][0]
    assert out[True][1] == out[False][1]
    return out[True], out[False]


def _flat(n):
    return lambda: World(n_ranks=n, network=seastar_portals(), seed=0)


def test_skewed_entries_identical_and_all_live():
    latency = seastar_portals().latency

    def program(ctx):
        exits = []
        for i in range(6):
            # several latencies of rank-dependent compute before each entry
            yield ctx.sim.timeout(((ctx.rank * 7 + i * 13) % 11) * latency)
            yield from ctx.comm.barrier()
            exits.append(ctx.sim.now)
        return exits

    live, packet = _both(_flat(64), program)
    assert live[2] == {("live", None): 6}
    assert packet[2] == {("packet", "disabled"): 6}


def test_straggler_traffic_into_a_rank_inside_the_barrier():
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(4096)
        src = ctx.mem.space.alloc(1024, fill=7)
        dst = ctx.mem.space.alloc(1024)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            # peers are a few rounds into the barrier by now
            yield ctx.sim.timeout(9.0)
            yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[1], 0, 1024,
                                   BYTE, remote_completion=True,
                                   blocking=True)
            yield from ctx.rma.get(dst, 0, 1024, BYTE, tmems[1], 0, 1024,
                                   BYTE, blocking=True)
        yield from ctx.comm.barrier()
        got = bytes(ctx.mem.space.read(dst, 0, 1024)) if ctx.rank == 0 else None
        return ctx.sim.now, got

    live, _ = _both(_flat(8), program)
    assert live[0][0][1] == bytes([7]) * 1024
    assert live[2] == {("live", None): 2}


def test_subcommunicator_barrier_races_world_barrier():
    def program(ctx):
        sub = yield from ctx.comm.split(ctx.rank % 2)
        times = []
        if ctx.rank % 2:
            yield from ctx.comm.barrier()
            times.append(ctx.sim.now)
            yield from sub.barrier()
        else:
            yield from sub.barrier()
            times.append(ctx.sim.now)
            yield from ctx.comm.barrier()
        times.append(ctx.sim.now)
        return times

    live, _ = _both(_flat(8), program)
    # one world instance and one per colour, all live, side by side
    assert live[2] == {("live", None): 3}


def test_barrier_message_queues_behind_an_op_train_on_its_pair():
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(1 << 16)
        src = ctx.mem.space.alloc(1 << 16, fill=1 + ctx.rank)
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.comm.barrier()
        # an un-completed train to the round-0 partner: the barrier
        # message is FIFO-clamped behind its last fragment, and landing
        # it is what makes the train's bytes visible to the reader below
        yield from ctx.rma.put(src, 0, 1 << 16, BYTE, tmems[right], 0,
                               1 << 16, BYTE)
        yield from ctx.comm.barrier()
        seen = bytes(ctx.mem.space.read(alloc, 0, 1 << 16))
        yield from ctx.rma.complete_collective(ctx.comm)
        return ctx.sim.now, seen

    live, _ = _both(_flat(4), program)
    assert live[0][1][1] == bytes([1]) * (1 << 16)
    assert live[2] == {("live", None): 3}


def _kill_sweep(build):
    """Kill a rank at 30 offsets across both rounds of a 4-rank barrier
    (charging, serializing, in flight, receiving); returns the distinct
    ``dead_dropped`` counts seen."""
    victim = 2

    def program(ctx):
        half = yield from ctx.comm.split(ctx.rank // 4)
        if ctx.rank >= 4:
            yield ctx.sim.timeout(200.0)
        # ranks 0..3 are in this barrier when the victim dies; 4..7
        # start theirs on a fabric that has seen a failure
        yield from half.barrier()
        return ctx.sim.now

    def probe(ctx):
        half = yield from ctx.comm.split(ctx.rank // 4)
        t_split = ctx.sim.now
        yield from half.barrier()
        return t_split, ctx.sim.now

    world = build()
    spans = world.run(probe)[:4]
    start = min(t for t, _ in spans)
    # the victim's last message lands one receive overhead before the
    # first rank leaves: a kill up to then hangs a survivor
    step = (min(t for _, t in spans) - world.network.overhead_recv
            - start) / 30
    dropped = set()
    for i in range(30):
        def setup(world, at=start + (i + 0.5) * step):
            world.sim.schedule_call(at, world._kill_rank, victim)

        live, packet = _both(build, program, fails=True, setup=setup)
        dropped.add(live[1][3])
        assert live[2] == {("live", None): 1, ("packet", "faulty"): 1}
        assert packet[2] == {("packet", "disabled"): 2}
    return dropped


def test_kill_rank_mid_barrier_then_packet_path():
    dropped = _kill_sweep(_flat(8))
    assert len(dropped) > 1     # at transmit, at delivery, both, …


def test_kill_rank_mid_barrier_on_a_torus():
    dropped = _kill_sweep(
        lambda: World(n_ranks=8, network=torus_network((2, 2, 2)), seed=0))
    assert len(dropped) > 1


def test_flat_256_rank_halo_has_no_packet_routed_barrier():
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * 512)
        src = ctx.mem.space.alloc(512, fill=1 + ctx.rank % 251)
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.comm.barrier()
        for _ in range(2):
            yield from ctx.rma.put(src, 0, 512, BYTE, tmems[right], 0, 512,
                                   BYTE, blocking=True)
            yield from ctx.rma.complete_collective(ctx.comm)
        yield from ctx.comm.barrier()

    world = _flat(256)()
    world.run(program)
    assert _routes(world) == {("live", None): 4}


def test_torus_64_rank_halo_has_no_packet_routed_barrier():
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(6 * 512)
        src = ctx.mem.space.alloc(512, fill=1 + ctx.rank)
        peers = []
        for stride in (16, 4, 1):       # +-1 along x, y, z with wraparound
            digit = ctx.rank // stride % 4
            for sign in (1, -1):
                peers.append(ctx.rank + ((digit + sign) % 4 - digit) * stride)
        yield from ctx.comm.barrier()
        for _ in range(2):
            for slot, peer in enumerate(peers):
                yield from ctx.rma.put(src, 0, 512, BYTE, tmems[peer],
                                       slot * 512, 512, BYTE)
            yield from ctx.rma.complete_collective(ctx.comm)
        yield from ctx.comm.barrier()

    machine = generic_cluster(n_nodes=64).with_placement("random", 3)
    world = World(machine=machine, network=torus_network((4, 4, 4)), seed=0)
    world.run(program)
    assert _routes(world) == {("live", None): 4}


def _gauntlet(ctx):
    """Skewed entries, a sub-communicator barrier racing COMM_WORLD's,
    and an un-completed put (an op-train where the train runs, packets
    in flight elsewhere) on the barrier's own round-0 pair."""
    n = 1 << 13
    alloc, tmems = yield from ctx.rma.expose_collective(n)
    src = ctx.mem.space.alloc(n, fill=1 + ctx.rank)
    sub = yield from ctx.comm.split(ctx.rank % 2)
    right = (ctx.rank + 1) % ctx.size
    times = []
    for i in range(3):
        yield ctx.sim.timeout(((ctx.rank * 7 + i * 13) % 11) * 1.3)
        yield from ctx.rma.put(src, 0, n, BYTE, tmems[right], 0, n, BYTE)
        first, second = ((ctx.comm, sub) if ctx.rank % 2
                         else (sub, ctx.comm))
        yield from first.barrier()
        times.append(ctx.sim.now)
        yield from second.barrier()
        times.append(ctx.sim.now)
    seen = bytes(ctx.mem.space.read(alloc, 0, n))
    yield from ctx.rma.complete_collective(ctx.comm)
    return times, seen, ctx.sim.now


def _hier(network, **kw):
    return lambda: World(machine=generic_cluster(n_nodes=4, ranks_per_node=2),
                         network=network, seed=0, **kw)


#: Worlds whose barriers ran per packet until the walk learned
#: ``Fabric.arrival``: routed, unordered, hierarchical.
QUIET_WORLDS = {
    "torus": lambda: World(n_ranks=8, network=torus_network((2, 2, 2)),
                           seed=0),
    "fattree-random": lambda: World(
        machine=generic_cluster(n_nodes=8).with_placement("random", 5),
        network=fattree_network(hosts_per_leaf=2, n_leaf=4), seed=0),
    "crossbar": lambda: World(n_ranks=8, network=crossbar_network(8),
                              seed=0),
    "unordered": lambda: World(n_ranks=8, network=quadrics_like(), seed=0),
    "hierarchical": _hier(seastar_portals(),
                          intra_node_network=infiniband_like()),
    "hierarchical-torus": _hier(torus_network((2, 2, 1))),
}


@pytest.mark.parametrize("name", sorted(QUIET_WORLDS))
def test_live_equals_packet_where_the_gates_used_to_close(name):
    live, packet = _both(QUIET_WORLDS[name], _gauntlet)
    # 2 of split's allgather-free instances per colour + COMM_WORLD's,
    # three times over, then complete_collective's
    assert live[2] == {("live", None): 10}
    assert packet[2] == {("packet", "disabled"): 10}
    right_fill = [bytes([1 + (r - 1) % 8]) * (1 << 13) for r in range(8)]
    assert [seen for _, seen, _ in live[0]] == right_fill


def _armed():
    """Transport on every NIC, no injector: `transport` without `faulty`."""
    world = _flat(4)()
    for nic in world.nics.values():
        nic.enable_reliability(FaultPlan().transport)
    return world


@pytest.mark.parametrize("build, reason", [
    # these three named gates once; their worlds now walk live (parity:
    # test_live_equals_packet_where_the_gates_used_to_close, and below
    # for the traced world)
    (lambda: World(n_ranks=8, network=torus_network((2, 2, 2)), seed=0),
     "topology"),
    (lambda: World(n_ranks=4, network=quadrics_like(), seed=0), "unordered"),
    (lambda: World(n_ranks=4, network=seastar_portals(), seed=0, trace=True),
     "traced"),
    (lambda: World(n_ranks=4, network=seastar_portals(), seed=0,
                   fault_plan=FaultPlan().drop(1e-9)), "faulty"),
    (_armed, "transport"),
    (_flat(4), "disabled"),
])
def test_closed_gate_is_named(build, reason):
    def program(ctx):
        yield from ctx.comm.barrier()

    with fast_paths(nexus=reason != "disabled"):
        world = build()
        world.run(program)
    if reason in ("topology", "unordered", "traced"):
        assert _routes(world) == {("live", None): 1}
    else:
        assert _routes(world) == {("packet", reason): 1}
    if reason == "traced":
        # tracing changes no path and no number: the walk leaves the
        # records of the packets it stands in for
        with fast_paths(nexus=False):
            packet = build()
            packet.run(program)
        assert world.sim.now == packet.sim.now
        assert record_multiset(world.tracer) == record_multiset(
            packet.tracer)
        # inject + deliver of 4 ranks x 2 rounds
        assert len(world.tracer) == 2 * 4 * 2


def test_burst_off_gate_is_named():
    """There is no such gate: the form a write takes is not the
    barrier's.  Each rank enters the barrier right behind a 16 KiB
    atomic put whose four fragments are one lean message on the NIC the
    walk uses (``Nic.post_frags``); the walk chains off that
    reservation, stays live, and times everything as the all-packet
    run."""
    def run():
        world = _flat(4)()
        tmems = [world.contexts[r].rma.expose(
            world.memories[r].space.alloc(16384)) for r in range(4)]

        def program(ctx):
            src = ctx.mem.space.alloc(16384, fill=ctx.rank + 1)
            yield from ctx.rma.put(src, 0, 16384, BYTE,
                                   tmems[(ctx.rank + 1) % ctx.size], 0,
                                   16384, BYTE, atomicity=True,
                                   blocking=False)
            yield from ctx.comm.barrier()
            return ctx.sim.now

        return world, world.run(program)

    seen = {}
    for nexus in (True, False):
        with fast_paths(nexus=nexus):
            world, exits = run()
            seen[nexus] = (exits, _state(world))
        assert _routes(world) == ({("live", None): 1} if nexus
                                  else {("packet", "disabled"): 1})
    assert seen[False] == seen[True]
