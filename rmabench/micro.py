"""Micro metrics: one layer's public functions, timed in isolation.

Untraced, best of three, a fraction of a second each.  They are the
per-layer numbers an optimisation of that layer should move first; the
README's interaction table says which end-to-end metric should follow.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

__all__ = ["MICRO_UNITS", "run_micro"]

#: Metric name -> unit.
MICRO_UNITS = {
    "sim.callbacks_per_s": "1/s",
    "sim.process_events_per_s": "1/s",
    "machine.cache_copy_mb_per_s": "MB/s",
    "datatypes.pack_mb_per_s": "MB/s",
    "network.packet_us": "us",
    "mpi.barrier_us": "us",
    "rma.put_issue_us": "us",
    "rma.put_rtt_us": "us",
    "topo.route_us": "us",
    "ir.optimize_ops_per_s": "1/s",
    "check.oracle_ops_per_s": "1/s",
    "obs.span_build_per_s": "1/s",
}


def _best(fn: Callable[[], Tuple[float, float]], rate: bool) -> float:
    """Best of three ``(work, seconds)`` samples: the highest rate, or
    the fewest host µs per unit of work."""
    samples = [fn() for _ in range(3)]
    if rate:
        return max(work / secs for work, secs in samples)
    return min(secs / work for work, secs in samples) * 1e6


def _sim_callbacks(n_events: int):
    from repro.sim.core import Simulator

    sim = Simulator()
    remaining = [n_events]

    def hop(delay):
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule_call(delay, hop, delay)

    for i in range(64):
        delay = 0.5 + (i % 7) * 0.25
        sim.schedule_call(delay, hop, delay)
    t0 = time.perf_counter()
    sim.run()
    return n_events, time.perf_counter() - t0


def _sim_processes(n_procs: int, n_waits: int):
    from repro.sim.core import Simulator

    sim = Simulator()

    def worker(i):
        for k in range(n_waits):
            yield sim.timeout(0.1 + (i + k) % 5 * 0.01)

    for i in range(n_procs):
        sim.spawn(worker(i))
    t0 = time.perf_counter()
    sim.run()
    return n_procs * n_waits, time.perf_counter() - t0


def _cache_copy(rounds: int):
    import numpy as np

    from repro.machine import generic_cluster
    from repro.machine.node import build_nodes

    mem = build_nodes(generic_cluster(n_nodes=1))[0].memory(0)
    nbytes = 64 * 1024
    alloc = mem.space.alloc(nbytes)
    data = np.full(nbytes, 7, dtype=np.uint8)
    t0 = time.perf_counter()
    for _ in range(rounds):
        mem.store(alloc, 0, data)
        mem.load(alloc, 0, nbytes)
        mem.nic_write(alloc, 0, data)
    return 3 * rounds * nbytes / 1e6, time.perf_counter() - t0


def _datatype_pack(rounds: int):
    import numpy as np

    from repro.datatypes import DOUBLE, pack, unpack, vector

    # 256 blocks of 4 doubles, stride 8: half the extent is payload.
    layout = vector(256, 4, 8, DOUBLE)
    buf = np.arange(layout.extent, dtype=np.uint8)
    t0 = time.perf_counter()
    for _ in range(rounds):
        wire = pack(buf, 0, layout, 1)
        unpack(wire, buf, 0, layout, 1)
    return 2 * rounds * layout.size / 1e6, time.perf_counter() - t0


def _nic_packets(n_packets: int):
    from repro.network import seastar_portals
    from repro.network.packet import Packet
    from repro.runtime import World

    world = World(n_ranks=2, network=seastar_portals())
    left = [n_packets]

    def bounce(packet):
        left[0] -= 1
        if left[0] > 0:
            world.nics[packet.dst].send(
                Packet(src=packet.dst, dst=packet.src, kind="rmabench.ping",
                       data_bytes=64))

    for nic in world.nics.values():
        nic.register_handler("rmabench.ping", bounce)
    world.nics[0].send(Packet(src=0, dst=1, kind="rmabench.ping",
                              data_bytes=64))
    t0 = time.perf_counter()
    world.sim.run()
    return n_packets, time.perf_counter() - t0


def _barriers(n_ranks: int, rounds: int):
    from repro.runtime import World

    def program(ctx):
        for _ in range(rounds):
            yield from ctx.comm.barrier()

    world = World(n_ranks=n_ranks)
    t0 = time.perf_counter()
    world.run(program)
    return rounds, time.perf_counter() - t0


def _puts(n_puts: int, **attrs):
    """Rank 1 streams ``n_puts`` 8-byte puts at rank 0, then completes."""
    from repro.datatypes import BYTE
    from repro.network import seastar_portals
    from repro.runtime import World

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(64)
        if ctx.rank == 1:
            src = ctx.mem.space.alloc(8, fill=1)
            for _ in range(n_puts):
                yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE,
                                       **attrs)
            yield from ctx.rma.complete(ctx.comm, 0)
        yield from ctx.comm.barrier()

    world = World(n_ranks=2, network=seastar_portals())
    t0 = time.perf_counter()
    world.run(program)
    return n_puts, time.perf_counter() - t0


def _routes(rounds: int):
    from repro.topo import Torus3D

    topo = Torus3D((4, 4, 4))
    hosts = topo.hosts
    pairs = [(hosts[i], hosts[(i * 37 + 11) % len(hosts)])
             for i in range(len(hosts))]
    t0 = time.perf_counter()
    for _ in range(rounds):
        for src, dst in pairs:
            topo.route(src, dst)
    return rounds * len(pairs), time.perf_counter() - t0


def _ir_optimize(programs):
    from repro.ir import PIPELINE, optimize

    t0 = time.perf_counter()
    for program in programs:
        optimize(program, PIPELINE)
    return (sum(len(p.ops) for p in programs), time.perf_counter() - t0)


def _oracle(results):
    from repro.check import check_program

    t0 = time.perf_counter()
    for result in results:
        check_program(result)
    return (sum(len(r.program.ops) for r in results),
            time.perf_counter() - t0)


def _span_build(tracer):
    from repro.obs.spans import build_spans

    t0 = time.perf_counter()
    spans = build_spans(tracer)
    return len(spans), time.perf_counter() - t0


def _traced_world(n_puts: int):
    """A traced 4-rank put stream whose tracer feeds ``build_spans``."""
    from repro.datatypes import BYTE
    from repro.runtime import World

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(256)
        src = ctx.mem.space.alloc(64, fill=1)
        for _ in range(n_puts):
            yield from ctx.rma.put(src, 0, 64, BYTE,
                                   tmems[(ctx.rank + 1) % ctx.size], 0, 64,
                                   BYTE)
        yield from ctx.rma.complete_collective(ctx.comm)

    world = World(n_ranks=4, trace=True)
    world.run(program)
    return world.tracer


def run_micro(quick: bool = False) -> Dict[str, float]:
    """Every micro metric, by name (units in :data:`MICRO_UNITS`)."""
    from repro.check import generate_program, run_program

    k = 10 if quick else 1
    programs = [generate_program(seed) for seed in range(40 // k)]
    results = [run_program(p, "ordered", seed)
               for seed, p in enumerate(programs[:12 // k + 1])]
    tracer = _traced_world(400 // k)
    return {
        "sim.callbacks_per_s": _best(
            lambda: _sim_callbacks(100_000 // k), rate=True),
        "sim.process_events_per_s": _best(
            lambda: _sim_processes(250, 200 // k), rate=True),
        "machine.cache_copy_mb_per_s": _best(
            lambda: _cache_copy(1500 // k), rate=True),
        "datatypes.pack_mb_per_s": _best(
            lambda: _datatype_pack(150 // k), rate=True),
        "network.packet_us": _best(
            lambda: _nic_packets(20_000 // k), rate=False),
        "mpi.barrier_us": _best(lambda: _barriers(64, 40 // k), rate=False),
        "rma.put_issue_us": _best(lambda: _puts(4000 // k), rate=False),
        "rma.put_rtt_us": _best(
            lambda: _puts(1500 // k, blocking=True, remote_completion=True),
            rate=False),
        "topo.route_us": _best(lambda: _routes(300 // k), rate=False),
        "ir.optimize_ops_per_s": _best(
            lambda: _ir_optimize(programs), rate=True),
        "check.oracle_ops_per_s": _best(
            lambda: _oracle(results), rate=True),
        "obs.span_build_per_s": _best(
            lambda: _span_build(tracer), rate=True),
    }
