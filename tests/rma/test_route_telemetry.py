"""``rma.route{path=, reason=}``: every op is counted on the route that
took it, labelled with the gate that closed the route before it.  One
scenario per gate of the table trips exactly that gate in a tiny world
(``notify`` and ``topology`` named gates until PR 19; their worlds now
ride the train); the seed-0 benchmark shape is pinned on small analogues
(a flat halo and a torus halo both ride trains)."""

import pytest

from repro.datatypes import BYTE
from repro.faults import FaultPlan
from repro.machine import generic_cluster, nec_sx9
from repro.network.config import (
    infiniband_like,
    quadrics_like,
    seastar_portals,
)
from repro.runtime import World
from repro.topo import torus_network
from tests.conftest import fast_paths


def routes(world, path=None):
    """``{(path, reason): ops}`` of the route telemetry."""
    return {
        (c["labels"]["path"], c["labels"].get("reason")): c["value"]
        for c in world.metrics.snapshot()["counters"]
        if c["name"] == "rma.route"
        and path in (None, c["labels"]["path"])
    }


def _flat(**kw):
    return World(n_ranks=2, network=seastar_portals(), **kw)


def _transport_only():
    """Transport on every NIC, no injector: ``transport`` without
    ``faulty``."""
    world = _flat()
    for nic in world.nics.values():
        nic.enable_reliability(FaultPlan().transport)
    return world


def one_put(before=None, peer=None, window=256, **attrs):
    """Rank 0 issues ``before`` (optional), then the one put under test;
    rank 1 meanwhile runs ``peer`` (optional) against rank 0's window."""
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(window)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            src = ctx.mem.space.alloc(64, fill=7)
            if before is not None:
                yield from before(ctx, tmems[1])
            yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1], 0, 64, BYTE,
                                   **attrs)
        elif ctx.rank == 1 and peer is not None:
            yield from peer(ctx, tmems[0])
        yield from ctx.rma.complete_collective(ctx.comm)
    return program


def _torus():
    return World(n_ranks=8, network=torus_network((2, 2, 2)))


def _queued_rmw(ctx, tmem):
    # portals has no hardware atomics: the fetch-add is a serializer job
    yield from ctx.rma.fetch_and_add(tmem, 128, "int64", 1)


def _atomic_get(ctx, tmem):
    dst = ctx.mem.space.alloc(8)
    yield from ctx.rma.get(dst, 0, 8, BYTE, tmem, 128, 8, BYTE,
                           atomicity=True, blocking=True)


def _big_get(ctx, tmem):
    """A 64 KiB get: its reply occupies the target's NIC for ~33 us."""
    dst = ctx.mem.space.alloc(1 << 16)
    yield from ctx.rma.get(dst, 0, 1 << 16, BYTE, tmem, 0, 1 << 16, BYTE,
                           blocking=True)


def _let_the_reply_queue(ctx, tmem):
    yield ctx.sim.timeout(15.0)


def _mutated(world):
    for ctx in world.contexts.values():
        ctx.rma.engine.conformance_mutations = frozenset(
            {"drop_order_barrier"})
    return world


#: Gates deleted in PR 19 (a train element may tell who waits, and may
#: learn its arrival at the injection instant): the worlds that tripped
#: them now ride the train.
#: ``late-ack`` went since: a late-booked remote-complete element
#: sends its own hardware ack from a callback at its arrival.
#: ``traced`` went when the train learnt to leave the records its
#: packets would have.
OPENED = ("notify", "topology", "late-ack", "traced")

#: gate -> (world builder, program, ops the scenario sends by packet for
#: another reason: {reason: count})
GATES = {
    "notify": (_flat, one_put(notify=5), {}),
    "topology": (_torus, one_put(), {}),
    "atomic": (_flat, one_put(atomicity=True), {}),
    "deferred-window": (_flat, one_put(before=_queued_rmw), {"reply": 1}),
    "deferred-window/get": (_flat, one_put(before=_atomic_get),
                            {"reply": 1}),
    # an active plan arms the injector and the transport: faulty first
    "faulty": (lambda: _flat(fault_plan=FaultPlan().drop(1e-9)),
               one_put(), {}),
    "transport": (_transport_only, one_put(), {}),
    "traced": (lambda: _flat(trace=True), one_put(), {}),
    "unordered": (lambda: World(n_ranks=2, network=quadrics_like()),
                  one_put(), {}),
    "noncoherent": (lambda: World(machine=nec_sx9(2, 1),
                                  network=seastar_portals()),
                    one_put(), {}),
    "sw-ack": (lambda: World(n_ranks=2, network=infiniband_like()),
               one_put(remote_completion=True), {}),
    "mutation": (lambda: _mutated(_flat()), one_put(), {}),
    "reply": (_flat, one_put(before=_atomic_get, notify=5),
              {"deferred-window": 1}),
    # the arrival is learnt at injection — the path is routed, or a get
    # reply is still queued on the origin's NIC — and so is the ack
    "late-ack": (_torus, one_put(remote_completion=True), {}),
    "late-ack/queued": (_flat,
                        one_put(before=_let_the_reply_queue, peer=_big_get,
                                window=1 << 16, remote_completion=True),
                        {"reply": 1}),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_closed_train_gate_is_named(gate):
    build, program, others = GATES[gate]
    world = build()
    world.run(program)
    expected = {("packet", r): n for r, n in others.items()}
    reason = gate.split("/")[0]
    if reason in OPENED:
        expected["train", "window-not-shared"] = 1
        assert routes(world) == expected
        # a remote-complete element is acked by the target's NIC
        assert world.fabric.acks_generated == (reason == "late-ack")
        if reason == "traced":
            # tracing changes no path and no number
            quiet = _flat()
            quiet.run(program)
            assert routes(quiet) == expected
            assert world.sim.now == quiet.sim.now
            assert _window_bytes(world) == _window_bytes(quiet)
        return
    expected["packet", reason] = expected.get(("packet", reason), 0) + 1
    assert routes(world, "packet") == expected
    assert routes(world, "train") == {}


def _window_bytes(world):
    return {rank: [bytes(world.memories[rank].space.buffer(a))
                   for a in ctx.rma.engine._exposures.values()]
            for rank, ctx in world.contexts.items()}


def test_disabled_switches_are_named():
    """``disabled`` names the route's own switch and nothing else: the
    live control plane's switch, which picks the form of a write that
    takes the packet route, does not close the train."""
    with fast_paths(train=False):
        world = _flat()
        world.run(one_put())
    assert routes(world) == {("packet", "disabled"): 1}

    seen = {}
    for nexus in (True, False):
        with fast_paths(nexus=nexus):
            world = _flat()
            world.run(one_put())
        assert routes(world) == {("train", "window-not-shared"): 1}
        seen[nexus] = (world.sim.now, _window_bytes(world))
    assert seen[False] == seen[True]


def test_open_gates_ride_the_train_and_say_why_not_shared():
    world = _flat()
    world.run(one_put())
    assert routes(world) == {("train", "window-not-shared"): 1}


def _colocated(coherent=True):
    machine = (generic_cluster(n_nodes=1, ranks_per_node=2) if coherent
               else nec_sx9(1, 2))
    return World(machine=machine, network=seastar_portals())


def _shared_put(behind_remote=False):
    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(256,
                                                            shared=True)
        plain_alloc, plain = yield from ctx.rma.expose_collective(256)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            src = ctx.mem.space.alloc(64, fill=7)
            if behind_remote:
                # a sequenced remote op (plain window) for the ordered
                # shared-window put to stand behind
                yield from ctx.rma.put(src, 0, 64, BYTE, plain[1], 0, 64,
                                       BYTE)
            yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1], 0, 64, BYTE,
                                   ordering=behind_remote)
        yield from ctx.rma.complete_collective(ctx.comm)
    return program


def test_shared_route_and_its_gates_are_named():
    world = _colocated()
    world.run(_shared_put())
    assert routes(world) == {("shared", None): 1}

    world = World(n_ranks=2, network=seastar_portals())
    world.run(_shared_put())
    assert routes(world) == {("train", "off-node"): 1}

    # a non-coherent owner's exposure degrades to a plain window
    world = _colocated(coherent=False)
    world.run(_shared_put())
    assert routes(world) == {("packet", "noncoherent"): 1}

    world = _colocated()
    world.run(_shared_put(behind_remote=True))
    assert routes(world) == {("train", "window-not-shared"): 1,
                             ("train", "ordered-behind-remote"): 1}


def test_gates_no_tiny_program_reaches_are_named():
    """Asked of the table directly: a gate hidden behind a later route's
    own decline, and one that needs a fault.  A busy NIC closes nothing:
    the train chains off the reservation the queued packets wrote, and
    books its arrival when they have been injected."""
    from repro.network.packet import Packet
    from repro.rma import RmaAttrs
    from repro.rma.engine.core import _Op

    def put_to_rank1(world):
        tmem = world.contexts[1].rma.expose(
            world.memories[1].space.alloc(64))
        return _Op("put", 1, RmaAttrs(), 64, tmem)

    world = _colocated(coherent=False)
    shared, train, _packet = world.contexts[0].rma.engine.routes
    shared.eng.shared_default = True
    assert shared.declines(put_to_rank1(world)) == "node-noncoherent"

    world = World(n_ranks=3, network=seastar_portals())
    shared, train, _packet = world.contexts[0].rma.engine.routes
    op = put_to_rank1(world)
    assert train.declines(op) is None
    nic = world.nics[0]
    for _ in range(3):
        nic.send(Packet(src=0, dst=1, kind="test", payload={},
                        data_bytes=64))
    assert nic._reserved_until > world.sim.now
    assert train.declines(op) is None
    path = world.fabric.config_for(0, 1)
    assert train.books_late(path, world.sim.now)
    world.sim.run(until=nic._unbooked_until)
    # inclusive: the instant itself is a tie
    assert train.books_late(path, world.sim.now)
    world.sim.run(until=nic._unbooked_until + 0.125)
    assert not train.books_late(path, world.sim.now)
    world.fabric.kill_rank(2)
    assert train.declines(op) == "faulty"


def test_seed0_shape_on_small_analogues():
    """rmabench seed 0: every halo256 put and every torus_halo put
    rides a train."""
    def halo(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2048)
        src = ctx.mem.space.alloc(1024, fill=ctx.rank + 1)
        yield from ctx.comm.barrier()
        for _ in range(3):
            for nbr, disp in (((ctx.rank + 1) % ctx.size, 0),
                              ((ctx.rank - 1) % ctx.size, 1024)):
                yield from ctx.rma.put(src, 0, 1024, BYTE, tmems[nbr], disp,
                                       1024, BYTE, blocking=True)
            yield from ctx.rma.complete_collective(ctx.comm)

    for network in (seastar_portals(), torus_network((2, 2, 2))):
        world = World(n_ranks=8, network=network)
        world.run(halo)
        assert routes(world) == {("train", "window-not-shared"): 8 * 2 * 3}


def control_routes(world):
    """``{(kind, path, reason): messages}`` of ``control.route``: every
    message that may travel without a packet, counted where its form is
    decided (``RmaEngine.signal``, ``PacketRoute.issue`` for a write's
    payload)."""
    return {
        (c["labels"]["kind"], c["labels"]["path"], c["labels"].get("reason")):
        c["value"]
        for c in world.metrics.snapshot()["counters"]
        if c["name"] == "control.route"
    }


def _alltoall(ctx):
    """Plain puts (flushed), one software-acked atomic put per peer."""
    alloc, tmems = yield from ctx.rma.expose_collective(ctx.size * 128)
    src = ctx.mem.space.alloc(128, fill=ctx.rank + 1)
    yield from ctx.comm.barrier()
    for step in range(1, ctx.size):
        peer = (ctx.rank + step) % ctx.size
        yield from ctx.rma.put(src, 0, 64, BYTE, tmems[peer],
                               ctx.rank * 128, 64, BYTE)
        yield from ctx.rma.put(src, 0, 64, BYTE, tmems[peer],
                               ctx.rank * 128 + 64, 64, BYTE,
                               atomicity=True)
    yield from ctx.rma.complete_collective(ctx.comm)


def test_control_messages_are_counted_once_on_the_form_they_took():
    n = 6 * 5   # ordered pairs: a flush round trip, an atomic write and
    #             its ack each

    world = World(n_ranks=6, network=seastar_portals())
    world.run(_alltoall)
    assert control_routes(world) == {("flush", "live", None): 2 * n,
                                     ("write", "live", None): n,
                                     ("ack", "live", None): n}

    quiet = world
    world = World(n_ranks=6, network=seastar_portals(), trace=True)
    world.run(_alltoall)
    # tracing changes no form and no number: the plain puts ride the
    # train, the rest is live
    assert control_routes(world) == control_routes(quiet)
    assert world.sim.now == quiet.sim.now
    assert (world.fabric.packets_delivered
            == quiet.fabric.packets_delivered)

    # an armed plan installs the injector (faulty) and the transport
    world = World(n_ranks=6, network=seastar_portals(),
                  fault_plan=FaultPlan().drop(1e-9))
    world.run(_alltoall)
    routes = control_routes(world)
    assert {key[:2] for key in routes} == {("flush", "packet"),
                                           ("write", "packet"),
                                           ("ack", "packet")}
    assert {key[2] for key in routes} <= {"faulty", "transport"}
    assert sum(routes.values()) == 5 * n

    with fast_paths(nexus=False):
        world = World(n_ranks=6, network=seastar_portals())
        world.run(_alltoall)
    assert control_routes(world) == {("flush", "packet", "disabled"): 2 * n,
                                     ("write", "packet", "disabled"): n,
                                     ("ack", "packet", "disabled"): n}


def test_lock_hand_offs_are_counted():
    from repro.machine import cray_xt5_catamount

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(256)
        yield from ctx.comm.barrier()
        if ctx.rank:
            src = ctx.mem.space.alloc(64, fill=ctx.rank)
            yield from ctx.rma.put(src, 0, 64, BYTE, tmems[0], 0, 64, BYTE,
                                   atomicity=True, blocking=True)
        yield from ctx.rma.complete_collective(ctx.comm)

    world = World(machine=cray_xt5_catamount(3), network=seastar_portals(),
                  serializer="lock")
    world.run(program)
    # per origin: lock_req, lock_grant, unlock; the write and its
    # software ack
    assert control_routes(world) == {("lock", "live", None): 6,
                                     ("write", "live", None): 2,
                                     ("ack", "live", None): 2}


def _requests(ctx):
    """Per rank, to the next one: a get, a fetch-and-add and a remote
    method invocation — three requests, three replies."""
    alloc, tmems = yield from ctx.rma.expose_collective(64)
    got = ctx.mem.space.alloc(64)
    yield from ctx.comm.barrier()
    peer = (ctx.rank + 1) % ctx.size
    yield from ctx.rma.get(got, 0, 64, BYTE, tmems[peer], 0, 64, BYTE,
                           blocking=True)
    yield from ctx.rma.fetch_and_add(tmems[peer], 0, "int64", 1)
    yield from ctx.rma.invoke(peer, "echo", ctx.rank)
    yield from ctx.comm.barrier()


def test_requests_and_replies_are_counted_once_on_the_form_they_took():
    n = 6 * 3

    def run(**kw):
        world = World(n_ranks=6, network=seastar_portals(), **kw)
        for ctx in world.contexts.values():
            ctx.rma.register_rmi("echo", lambda value: value)
        world.run(_requests)
        return {key: count for key, count in control_routes(world).items()
                if key[0] in ("request", "reply")}

    assert run() == {("request", "live", None): n,
                     ("reply", "live", None): n}
    # tracing changes no form
    assert run(trace=True) == run()
    # an armed plan installs the injector (faulty) and the transport
    routes = run(fault_plan=FaultPlan().drop(1e-9))
    assert {key[:2] for key in routes} == {("request", "packet"),
                                           ("reply", "packet")}
    assert {key[2] for key in routes} <= {"faulty", "transport"}
    assert sum(routes.values()) == 2 * n
    with fast_paths(nexus=False):
        assert run() == {("request", "packet", "disabled"): n,
                         ("reply", "packet", "disabled"): n}
