"""Fault runs pinned to recorded values.

``test_fault_determinism`` compares two runs of the same tree; this
module compares a run with literals recorded on an earlier tree, so a
change to how messages are built, sent or delivered that moves anything
a fault plan touches — the injector's draws, the transport's sequence
numbers, checksums and retransmissions, the final clock — fails here.

Two programs run under the mixed plan ``drop(0.05).duplicate(0.02)
.corrupt(0.02).delay(0.05)``: ``test_fault_determinism.workload`` (puts,
a flush, a get, a barrier) at seeds 0, 7 and 77, and
:func:`chaos_world` — p2p rendezvous, an MPI-2 lock/unlock epoch, a
GASNet active message with reply, multi-MTU puts, an accumulate and a
multi-MTU get — at seeds 3 and 11.  Each check compares ``repr`` of the
clock and of every rank's return value, the injector's and every
transport's stats and the world's counter totals.
"""

import numpy as np
import pytest

from repro.datatypes import BYTE, INT32
from repro.faults import FaultPlan
from repro.network.config import generic_rdma
from repro.runtime import World
from tests.faults.test_fault_determinism import workload


def mixed_plan():
    return FaultPlan().drop(0.05).duplicate(0.02).corrupt(0.02).delay(0.05)


def chaos_world(ctx):
    """Every sender above the NIC once: a p2p rendezvous around a ring,
    an MPI-2 exclusive lock/put/unlock epoch on rank 0, a GASNet short AM
    with reply, fence and free (barriers), then a multi-MTU put, an
    accumulate and a multi-MTU get.  Returns what arrived and when."""
    ctx.gasnet.register_handler(1, lambda src, x: x * 3 + src)
    alloc = ctx.mem.space.alloc(64)
    win = yield from ctx.mpi2.win_create(alloc)
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    big = np.full(20000, ctx.rank + 1, dtype=np.uint8)
    req = yield from ctx.comm.isend(big, dest=nxt, tag=3)
    got = yield from ctx.comm.recv(source=prv, tag=3)
    yield from req.wait()
    src = ctx.mem.space.alloc(8, fill=ctx.rank + 1)
    yield from win.lock(0, shared=False)
    yield from win.put(src, 0, 8, BYTE, 0, 8 * ctx.rank)
    yield from win.unlock(0)
    reply = yield from ctx.gasnet.am_short(nxt, 1, ctx.rank, want_reply=True)
    yield from win.fence()
    yield from win.free()
    # multi-MTU writes and a multi-MTU get reply
    mem, tmems = yield from ctx.rma.expose_collective(3 * 4096)
    blob = ctx.mem.space.alloc(3 * 4096, fill=ctx.rank + 7)
    yield from ctx.rma.put(blob, 0, 10000, BYTE, tmems[nxt], 0, 10000, BYTE)
    yield from ctx.rma.accumulate(blob, 0, 2000, INT32, tmems[nxt], 0,
                                  2000, INT32, op="sum")
    yield from ctx.rma.complete()
    back = ctx.mem.space.alloc(3 * 4096)
    yield from ctx.rma.get(back, 0, 9000, BYTE, tmems[prv], 100, 9000,
                           BYTE, blocking=True)
    yield from ctx.comm.barrier()
    return (int(got[0]), reply, int(ctx.mem.space.buffer(back)[:9000].sum()),
            ctx.sim.now)


PINNED = {('chaos_world', 3): {'counters': {'collective.route': 4,
                                            'control.route': 36,
                                            'fault.corrupt': 6,
                                            'fault.delay': 11,
                                            'fault.drop': 18,
                                            'fault.duplicate': 5,
                                            'rma.route': 16,
                                            'xport.csum_drop': 5,
                                            'xport.retransmit': 34},
                               'injector': {'corrupted': 6,
                                            'delayed': 11,
                                            'dropped': 18,
                                            'duplicated': 5,
                                            'examined': 315,
                                            'hw_acks_dropped': 0,
                                            'kills': 0,
                                            'link_downs': 0,
                                            'link_restores': 0,
                                            'restarts': 0,
                                            'stalls': 0},
                               'now': '539.3334382211218',
                               'ranks': [('4', '0', '152100', '535.3334382211218'),
                                         ('1', '4', '129960', '539.3334382211218'),
                                         ('2', '8', '90328', '537.4905692060986'),
                                         ('3', '12', '135200', '535.3334382211218')],
                               'transport': {0: {'acks_rx': 47,
                                                 'acks_tx': 54,
                                                 'csum_drops': 4,
                                                 'dup_rx': 6,
                                                 'failures': 0,
                                                 'retransmits': 12,
                                                 'sent': 40,
                                                 'stale_acks': 0,
                                                 'stale_drops': 0},
                                             1: {'acks_rx': 36,
                                                 'acks_tx': 35,
                                                 'csum_drops': 1,
                                                 'dup_rx': 7,
                                                 'failures': 0,
                                                 'retransmits': 7,
                                                 'sent': 30,
                                                 'stale_acks': 0,
                                                 'stale_drops': 0},
                                             2: {'acks_rx': 31,
                                                 'acks_tx': 31,
                                                 'csum_drops': 0,
                                                 'dup_rx': 3,
                                                 'failures': 0,
                                                 'retransmits': 7,
                                                 'sent': 32,
                                                 'stale_acks': 0,
                                                 'stale_drops': 0},
                                             3: {'acks_rx': 30,
                                                 'acks_tx': 31,
                                                 'csum_drops': 0,
                                                 'dup_rx': 3,
                                                 'failures': 0,
                                                 'retransmits': 8,
                                                 'sent': 30,
                                                 'stale_acks': 0,
                                                 'stale_drops': 0}}},
          ('chaos_world', 11): {'counters': {'collective.route': 4,
                                             'control.route': 36,
                                             'fault.corrupt': 8,
                                             'fault.delay': 13,
                                             'fault.drop': 10,
                                             'fault.duplicate': 7,
                                             'rma.route': 16,
                                             'xport.csum_drop': 2,
                                             'xport.retransmit': 20},
                                'injector': {'corrupted': 8,
                                             'delayed': 13,
                                             'dropped': 10,
                                             'duplicated': 7,
                                             'examined': 304,
                                             'hw_acks_dropped': 0,
                                             'kills': 0,
                                             'link_downs': 0,
                                             'link_restores': 0,
                                             'restarts': 0,
                                             'stalls': 0},
                                'now': '352.4253843895392',
                                'ranks': [('4', '0', '116136', '348.4253843895392'),
                                          ('1', '4', '128040', '348.4253843895392'),
                                          ('2', '8', '118300', '352.4253843895392'),
                                          ('3', '12', '135200', '344.4253843895392')],
                                'transport': {0: {'acks_rx': 45,
                                                  'acks_tx': 59,
                                                  'csum_drops': 1,
                                                  'dup_rx': 11,
                                                  'failures': 0,
                                                  'retransmits': 6,
                                                  'sent': 40,
                                                  'stale_acks': 0,
                                                  'stale_drops': 0},
                                              1: {'acks_rx': 32,
                                                  'acks_tx': 31,
                                                  'csum_drops': 0,
                                                  'dup_rx': 3,
                                                  'failures': 0,
                                                  'retransmits': 1,
                                                  'sent': 30,
                                                  'stale_acks': 0,
                                                  'stale_drops': 0},
                                              2: {'acks_rx': 33,
                                                  'acks_tx': 28,
                                                  'csum_drops': 0,
                                                  'dup_rx': 0,
                                                  'failures': 0,
                                                  'retransmits': 7,
                                                  'sent': 32,
                                                  'stale_acks': 0,
                                                  'stale_drops': 0},
                                              3: {'acks_rx': 35,
                                                  'acks_tx': 34,
                                                  'csum_drops': 1,
                                                  'dup_rx': 6,
                                                  'failures': 0,
                                                  'retransmits': 6,
                                                  'sent': 30,
                                                  'stale_acks': 0,
                                                  'stale_drops': 0}}},
          ('workload', 0): {'counters': {'collective.route': 1,
                                         'control.route': 32,
                                         'fault.delay': 5,
                                         'fault.drop': 5,
                                         'fault.duplicate': 2,
                                         'rma.route': 20,
                                         'xport.retransmit': 7},
                            'injector': {'corrupted': 0,
                                         'delayed': 5,
                                         'dropped': 5,
                                         'duplicated': 2,
                                         'examined': 105,
                                         'hw_acks_dropped': 0,
                                         'kills': 0,
                                         'link_downs': 0,
                                         'link_restores': 0,
                                         'restarts': 0,
                                         'stalls': 0},
                            'now': '63.74500000000002',
                            'ranks': ['59.74500000000002', '63.74500000000002',
                                      '55.82300000000002', '59.82300000000002'],
                            'transport': {0: {'acks_rx': 12,
                                              'acks_tx': 13,
                                              'csum_drops': 0,
                                              'dup_rx': 0,
                                              'failures': 0,
                                              'retransmits': 1,
                                              'sent': 12,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          1: {'acks_rx': 11,
                                              'acks_tx': 11,
                                              'csum_drops': 0,
                                              'dup_rx': 0,
                                              'failures': 0,
                                              'retransmits': 0,
                                              'sent': 11,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          2: {'acks_rx': 15,
                                              'acks_tx': 12,
                                              'csum_drops': 0,
                                              'dup_rx': 1,
                                              'failures': 0,
                                              'retransmits': 6,
                                              'sent': 12,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          3: {'acks_rx': 11,
                                              'acks_tx': 16,
                                              'csum_drops': 0,
                                              'dup_rx': 5,
                                              'failures': 0,
                                              'retransmits': 0,
                                              'sent': 11,
                                              'stale_acks': 0,
                                              'stale_drops': 0}}},
          ('workload', 7): {'counters': {'collective.route': 1,
                                         'control.route': 32,
                                         'fault.corrupt': 2,
                                         'fault.delay': 8,
                                         'fault.drop': 6,
                                         'rma.route': 20,
                                         'xport.csum_drop': 2,
                                         'xport.retransmit': 11},
                            'injector': {'corrupted': 2,
                                         'delayed': 8,
                                         'dropped': 6,
                                         'duplicated': 0,
                                         'examined': 108,
                                         'hw_acks_dropped': 0,
                                         'kills': 0,
                                         'link_downs': 0,
                                         'link_restores': 0,
                                         'restarts': 0,
                                         'stalls': 0},
                            'now': '100.61538291604008',
                            'ranks': ['100.61538291604008', '92.61538291604008',
                                      '96.61538291604008', '96.61538291604008'],
                            'transport': {0: {'acks_rx': 12,
                                              'acks_tx': 14,
                                              'csum_drops': 1,
                                              'dup_rx': 1,
                                              'failures': 0,
                                              'retransmits': 0,
                                              'sent': 12,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          1: {'acks_rx': 12,
                                              'acks_tx': 13,
                                              'csum_drops': 0,
                                              'dup_rx': 2,
                                              'failures': 0,
                                              'retransmits': 2,
                                              'sent': 11,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          2: {'acks_rx': 13,
                                              'acks_tx': 12,
                                              'csum_drops': 0,
                                              'dup_rx': 1,
                                              'failures': 0,
                                              'retransmits': 6,
                                              'sent': 12,
                                              'stale_acks': 0,
                                              'stale_drops': 0},
                                          3: {'acks_rx': 11,
                                              'acks_tx': 12,
                                              'csum_drops': 1,
                                              'dup_rx': 1,
                                              'failures': 0,
                                              'retransmits': 3,
                                              'sent': 11,
                                              'stale_acks': 0,
                                              'stale_drops': 0}}},
          ('workload', 77): {'counters': {'collective.route': 1,
                                          'control.route': 32,
                                          'fault.delay': 5,
                                          'fault.drop': 5,
                                          'fault.duplicate': 1,
                                          'rma.route': 20,
                                          'xport.retransmit': 7},
                             'injector': {'corrupted': 0,
                                          'delayed': 5,
                                          'dropped': 5,
                                          'duplicated': 1,
                                          'examined': 105,
                                          'hw_acks_dropped': 0,
                                          'kills': 0,
                                          'link_downs': 0,
                                          'link_restores': 0,
                                          'restarts': 0,
                                          'stalls': 0},
                             'now': '71.68982145580115',
                             'ranks': ['63.68982145580114', '67.68982145580115',
                                       '67.68982145580114', '71.68982145580115'],
                             'transport': {0: {'acks_rx': 13,
                                               'acks_tx': 15,
                                               'csum_drops': 0,
                                               'dup_rx': 2,
                                               'failures': 0,
                                               'retransmits': 2,
                                               'sent': 12,
                                               'stale_acks': 0,
                                               'stale_drops': 0},
                                           1: {'acks_rx': 10,
                                               'acks_tx': 13,
                                               'csum_drops': 0,
                                               'dup_rx': 2,
                                               'failures': 0,
                                               'retransmits': 1,
                                               'sent': 11,
                                               'stale_acks': 0,
                                               'stale_drops': 0},
                                           2: {'acks_rx': 12,
                                               'acks_tx': 12,
                                               'csum_drops': 0,
                                               'dup_rx': 1,
                                               'failures': 0,
                                               'retransmits': 1,
                                               'sent': 12,
                                               'stale_acks': 0,
                                               'stale_drops': 0},
                                           3: {'acks_rx': 12,
                                               'acks_tx': 12,
                                               'csum_drops': 0,
                                               'dup_rx': 1,
                                               'failures': 0,
                                               'retransmits': 3,
                                               'sent': 11,
                                               'stale_acks': 0,
                                               'stale_drops': 0}}}}


PROGRAMS = {"workload": workload, "chaos_world": chaos_world}


def _summary(world, results):
    stats = world.fault_stats()
    return {
        "now": repr(world.sim.now),
        "ranks": [tuple(map(repr, r)) if isinstance(r, tuple) else repr(r)
                  for r in results],
        "injector": stats["injector"],
        "transport": stats["transport"],
        "counters": stats["counters"],
    }


@pytest.mark.parametrize("name, seed", sorted(PINNED),
                         ids=[f"{n}-{s}" for n, s in sorted(PINNED)])
def test_fault_run_matches_recorded_values(name, seed):
    world = World(n_ranks=4, network=generic_rdma(),
                  fault_plan=mixed_plan(), seed=seed)
    results = world.run(PROGRAMS[name])
    assert _summary(world, results) == PINNED[name, seed]
