"""Tracing changes no path: the fast paths leave the packets' records.

A traced world keeps every fast path — the op-train, the live barrier
and every lean engine message — and each leaves the records the packets
it stands in for would have left (``net/inject``, ``net/deliver``,
``net/ack``, the issue and ``consistency`` records, a labelled
``rma/applied``).  So a traced run with the fast paths on and a traced
all-packet run (``fast_paths(train=False, nexus=False)``) agree on every
simulated time, counter and record; only the append order may differ
(DESIGN §9), so records are compared as multisets, ``seq`` left out.
"""

import math

import numpy as np
import pytest

from repro.bench.workloads import fig2_attribute_cost, rank_fill
from repro.datatypes import BYTE
from repro.network.config import generic_rdma, seastar_portals
from repro.network.packet import Packet
from repro.obs.spans import attribute_phases, build_spans
from repro.resil import ResilienceConfig
from repro.runtime import World
from tests.conftest import (fast_paths, gated_posts, record_multiset,
                            timed_filings, timed_pending)
from tests.obs.test_export import _tiny_world


def _fig2(point):
    mode, size = point.split("/")

    def run():
        sink = []
        fig2_attribute_cost(mode, int(size), puts_per_origin=10,
                            trace=True, world_out=sink)
        return sink[0]
    return run


def _halo(notified):
    """8-rank ring halo: completed collectively, or synchronized by the
    notification board alone."""
    def run():
        world = World(n_ranks=8, network=seastar_portals(), trace=True)

        def program(ctx):
            alloc, tmems = yield from ctx.rma.expose_collective(2 * 4096)
            src = ctx.mem.space.alloc(4096, fill=rank_fill(ctx.rank))
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            yield from ctx.comm.barrier()
            for _ in range(4):
                yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[right], 0,
                                       4096, BYTE,
                                       **({"notify": 1} if notified else {}))
                yield from ctx.rma.put(src, 0, 4096, BYTE, tmems[left],
                                       4096, 4096, BYTE,
                                       **({"notify": 2} if notified else {}))
                if notified:
                    for match in (1, 2):
                        yield from ctx.rma.wait_notify(tmems[ctx.rank],
                                                       match)
                else:
                    yield from ctx.rma.complete_collective(ctx.comm)
            yield from ctx.rma.complete_collective(ctx.comm)
            return ctx.sim.now

        world.run(program)
        return world
    return run


WORKLOADS = {
    **{f"fig2-{point}": _fig2(point) for point in (
        "none/1024", "none/65536", "ordering/16384",
        "remote_complete/1024", "remote_complete/65536",
        "atomicity+thread/16384")},
    "halo": _halo(False),
    "notified-halo": _halo(True),
    "golden": _tiny_world,
}


def _counters(world):
    fabric = world.fabric
    return ({rank: (nic.packets_sent, nic.bytes_sent, nic._reserved_until)
             for rank, nic in world.nics.items()},
            fabric.packets_delivered, fabric.bytes_delivered,
            fabric.acks_generated)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fast_paths_leave_the_packets_records(name):
    with fast_paths(train=True, nexus=True):
        fast = WORKLOADS[name]()
    with fast_paths(train=False, nexus=False):
        packets = WORKLOADS[name]()
    assert fast.sim.now == packets.sim.now
    assert _counters(fast) == _counters(packets)
    assert record_multiset(fast.tracer) == record_multiset(packets.tracer)
    if name != "fig2-atomicity+thread/16384":
        # the oracle's configuration now sees the train
        assert sum(c.rma.stats["train_ops"]
                   for c in fast.contexts.values()) > 0
    spans = build_spans(fast.tracer)
    assert spans
    for span in spans:
        assert math.isclose(sum(span.phases.values()), span.total,
                            rel_tol=1e-12, abs_tol=1e-12)
    row = attribute_phases(spans)
    assert math.isclose(sum(row["phases"].values()), row["end_to_end"],
                        rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# The senders above the engine: one ``Nic.post`` each, lean or packet
# ----------------------------------------------------------------------
def _p2p(nbytes):
    """A ring exchange of ``nbytes`` arrays: eager below the endpoint's
    threshold, rendezvous (RTS, CTS, payload) above it."""
    def run():
        world = World(n_ranks=4, network=seastar_portals(), trace=True)

        def program(ctx):
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            out = np.full(nbytes, ctx.rank + 1, dtype=np.uint8)
            for tag in range(3):
                req = yield from ctx.comm.isend(out, dest=right, tag=tag)
                got = yield from ctx.comm.recv(source=left, tag=tag)
                yield from req.wait()
                assert got[0] == left + 1
            return ctx.sim.now

        world.run(program)
        return world
    return run


def _mpi2_locks():
    """Ranks 1-3 take turns under rank 0's exclusive window lock, while
    rank 2 also holds rank 1's lock shared: lock requests, queued and
    immediate grants, unlocks."""
    def run():
        world = World(n_ranks=4, network=seastar_portals(), trace=True)

        def program(ctx):
            alloc = ctx.mem.space.alloc(64)
            win = yield from ctx.mpi2.win_create(alloc)
            if ctx.rank:
                src = ctx.mem.space.alloc(8, fill=ctx.rank)
                for _ in range(2):
                    yield from win.lock(0, shared=False)
                    yield from win.put(src, 0, 8, BYTE, 0, 8 * ctx.rank)
                    yield from win.unlock(0)
                if ctx.rank == 2:
                    yield from win.lock(1, shared=True)
                    yield from win.unlock(1)
            yield from win.free()
            return ctx.sim.now

        world.run(program)
        return world
    return run


def _revoke():
    """Rank 1 revokes a window by hand: its notice fans out and every
    receiver forwards it once."""
    def run():
        world = World(n_ranks=4, network=seastar_portals(), trace=True)

        def program(ctx):
            win = yield from ctx.mpi2.win_create(ctx.mem.space.alloc(16))
            if ctx.rank == 1:
                win.revoke()
            yield ctx.sim.timeout(50.0)
            return win.revoked

        assert world.run(program) == [True] * 4
        return world
    return run


def _gasnet():
    """Short, medium and long active messages, the short one with a
    reply."""
    def run():
        world = World(n_ranks=3, network=generic_rdma(), trace=True)

        def program(ctx):
            ctx.gasnet.register_handler(1, lambda src, x: x + src)
            ctx.gasnet.register_handler(2, lambda src, data: len(data))
            yield from ctx.gasnet.attach(1024)
            right = (ctx.rank + 1) % ctx.size
            reply = yield from ctx.gasnet.am_short(right, 1, 10,
                                                   want_reply=True)
            payload = np.arange(64, dtype=np.uint8)
            yield from ctx.gasnet.am_medium(right, 2, payload)
            yield from ctx.gasnet.am_long(right, 2, payload, 128)
            yield from ctx.comm.barrier()
            yield ctx.sim.timeout(20.0)
            return reply

        assert world.run(program) == [10, 11, 12]
        return world
    return run


def _heartbeats():
    """The failure detector's heartbeats among four live ranks."""
    def run():
        world = World(n_ranks=4, network=seastar_portals(), trace=True,
                      resilience=ResilienceConfig(heartbeat_interval=20.0,
                                                  suspicion_timeout=200.0))

        def program(ctx):
            yield ctx.sim.timeout(300.0)
            return ctx.sim.now

        world.run(program)
        assert world.resil.stats["heartbeats"] > 0
        assert world.resil.stats["suspects"] == 0
        return world
    return run


SENDERS = {
    "p2p-eager": _p2p(1024),
    "p2p-rendezvous": _p2p(40000),
    "mpi2-locks": _mpi2_locks(),
    "revoke": _revoke(),
    "gasnet": _gasnet(),
    "heartbeats": _heartbeats(),
}


@pytest.mark.parametrize("name", sorted(SENDERS))
def test_moved_senders_equal_their_packets(name, monkeypatch):
    """p2p, MPI-2 locks, the revoke notice, GASNet and heartbeats send
    with ``Nic.post``: on a quiet world they travel lean, with the
    reference switch off every message is posted as the reference path
    posts it, neither builds a packet — and both runs agree on
    simulated time, counters, timed callbacks run and records."""
    filed = timed_filings(monkeypatch)
    ran = []
    built = []
    init = Packet.__init__

    def building(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[-1] += 1

    monkeypatch.setattr(Packet, "__init__", building)
    gated = gated_posts(monkeypatch)
    seen, posted = {}, []
    for nexus in (True, False):
        before = filed[0]
        built.append(0)
        with fast_paths(nexus=nexus):
            seen[nexus] = SENDERS[name]()
        ran.append(filed[0] - before - timed_pending(seen[nexus].sim))
        posted.append(len(gated))
    lean, packets = seen[True], seen[False]
    assert built == [0, 0]
    assert posted[0] == 0 < posted[1]
    assert ran[0] == ran[1] > 0
    assert lean.sim.now == packets.sim.now
    assert _counters(lean) == _counters(packets)
    assert record_multiset(lean.tracer) == record_multiset(packets.tracer)
