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

import pytest

from repro.bench.workloads import fig2_attribute_cost, rank_fill
from repro.datatypes import BYTE
from repro.network.config import seastar_portals
from repro.obs.spans import attribute_phases, build_spans
from repro.runtime import World
from tests.conftest import fast_paths, record_multiset
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
