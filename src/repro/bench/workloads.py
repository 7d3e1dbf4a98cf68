"""Paper workloads.

The central one is :func:`fig2_attribute_cost` — the exact experiment of
the paper's Figure 2:

    "seven MPI processes (one on each of the XT5 nodes) concurrently do
    100 puts to overlapping memory regions on process 0, followed by a
    single RMA Complete call.  The experiment does these puts first with
    no attributes, then with ordering set, followed by remote completion
    set, and finally with atomicity attribute.  The Blocking attribute
    is always set."

Times are *simulated* microseconds (the harness converts to the paper's
milliseconds for display).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.datatypes import BYTE
from repro.machine import (
    MachineConfig,
    cray_xt5_catamount,
    cray_xt5_cnl,
    generic_cluster,
)
from repro.network import NetworkConfig, seastar_portals
from repro.rma import ALL_RANKS, RmaAttrs
from repro.runtime import World

__all__ = [
    "FIG2_ATTR_MODES",
    "fig2_attribute_cost",
    "latency_once",
    "halo_exchange_time",
    "mpi2_sync_mode_time",
    "hotspot_incast",
    "all_to_all_time",
    "torus_halo_time",
    "rank_fill",
]

#: The four measured configurations of Figure 2, in plot order.
FIG2_ATTR_MODES = (
    "none",
    "ordering",
    "remote_complete",
    "atomicity+lock",
    "atomicity+thread",
)


def rank_fill(rank: int) -> int:
    """Payload byte identifying ``rank``: 1..251, so it fits ``uint8`` at
    any world size and is never the zero a missing put would leave."""
    return 1 + rank % 251


def _fig2_attrs(mode: str) -> RmaAttrs:
    base = RmaAttrs(blocking=True)  # "The Blocking attribute is always set"
    if mode == "none":
        return base
    if mode == "ordering":
        return base.with_(ordering=True)
    if mode == "remote_complete":
        return base.with_(remote_completion=True)
    if mode == "ordering+remote_complete":
        return base.with_(ordering=True, remote_completion=True)
    if mode in ("atomicity+lock", "atomicity+thread"):
        return base.with_(atomicity=True)
    raise ValueError(f"unknown Figure-2 mode {mode!r}")


def fig2_attribute_cost(
    mode: str,
    size: int,
    n_origins: int = 7,
    puts_per_origin: int = 100,
    network: Optional[NetworkConfig] = None,
    machine: Optional[MachineConfig] = None,
    seed: int = 0,
    trace: bool = False,
    fault_plan=None,
    world_out: Optional[list] = None,
) -> float:
    """Run the Figure-2 workload; returns the elapsed simulated µs.

    ``mode`` selects the attribute set *and* the serializer: the paper
    measures atomicity twice, once with the communication-thread
    serializer and once with the coarse-grain process-level lock.
    The time reported is the slowest origin's "100 puts + 1 complete"
    span, matching a per-iteration timing on the real machine.

    ``trace`` enables the world's tracer so the observability layer can
    rebuild per-operation spans (:mod:`repro.obs.spans`) afterwards;
    ``world_out``, when given, receives the (finished) :class:`World`
    so callers can reach ``world.tracer`` / ``world.metrics``.
    """
    n_ranks = n_origins + 1
    attrs = _fig2_attrs(mode)
    if mode == "atomicity+lock":
        serializer = "lock"
        machine = machine or cray_xt5_catamount(n_ranks)
    elif mode == "atomicity+thread":
        serializer = "thread"
        machine = machine or cray_xt5_cnl(n_ranks)
    else:
        serializer = "auto"
        machine = machine or cray_xt5_cnl(n_ranks)
    network = network or seastar_portals()

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(
            max(size + 64, 4096)
        )
        yield from ctx.comm.barrier()
        elapsed = 0.0
        if ctx.rank != 0:
            src = ctx.mem.space.alloc(size, fill=rank_fill(ctx.rank))
            t0 = ctx.sim.now
            for _ in range(puts_per_origin):
                # all origins hit the same (overlapping) region on rank 0
                yield from ctx.rma.put(
                    src, 0, size, BYTE, tmems[0], 0, size, BYTE, attrs=attrs,
                )
            yield from ctx.rma.complete(ctx.comm, 0)
            elapsed = ctx.sim.now - t0
        yield from ctx.comm.barrier()
        return elapsed

    world = World(machine=machine, network=network, seed=seed,
                  serializer=serializer, trace=trace, fault_plan=fault_plan)
    out = world.run(program)
    if world_out is not None:
        world_out.append(world)
    return max(out)


def latency_once(
    api: str,
    size: int = 8,
    network: Optional[NetworkConfig] = None,
    seed: int = 0,
) -> float:
    """Small-transfer latency of one remotely-complete update through
    different interfaces (ablation A4).

    ``api``: ``"strawman"`` (single blocking call), ``"mpi2_lock"``
    (lock/put/unlock), ``"mpi2_fence"`` (fence/put/fence),
    ``"send_recv"`` (two-sided).
    Returns simulated µs for one update, averaged over 10 repetitions.
    """
    reps = 10
    network = network or seastar_portals()

    def program(ctx):
        import numpy as np

        alloc, tmems = yield from ctx.rma.expose_collective(max(64, size))
        win = yield from ctx.mpi2.win_create(alloc)
        yield from ctx.comm.barrier()
        elapsed = 0.0
        if api == "strawman":
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(size)
                t0 = ctx.sim.now
                for _ in range(reps):
                    yield from ctx.rma.put(
                        src, 0, size, BYTE, tmems[0], 0, size, BYTE,
                        blocking=True, remote_completion=True,
                    )
                elapsed = (ctx.sim.now - t0) / reps
        elif api == "mpi2_lock":
            if ctx.rank == 1:
                src = ctx.mem.space.alloc(size)
                t0 = ctx.sim.now
                for _ in range(reps):
                    yield from win.lock(0, shared=True)
                    yield from win.put(src, 0, size, BYTE, 0, 0)
                    yield from win.unlock(0)
                elapsed = (ctx.sim.now - t0) / reps
        elif api == "mpi2_fence":
            src = ctx.mem.space.alloc(size)
            yield from win.fence()
            t0 = ctx.sim.now
            for _ in range(reps):
                if ctx.rank == 1:
                    yield from win.put(src, 0, size, BYTE, 0, 0)
                yield from win.fence()
            elapsed = (ctx.sim.now - t0) / reps
        elif api == "send_recv":
            import numpy as np

            data = np.zeros(size, dtype=np.uint8)
            t0 = ctx.sim.now
            for _ in range(reps):
                if ctx.rank == 1:
                    yield from ctx.comm.send(data, dest=0)
                    yield from ctx.comm.recv(source=0)  # ack
                elif ctx.rank == 0:
                    yield from ctx.comm.recv(source=1)
                    yield from ctx.comm.send(None, dest=1)
            elapsed = (ctx.sim.now - t0) / reps
        else:
            raise ValueError(f"unknown api {api!r}")
        yield from ctx.comm.barrier()
        return elapsed

    out = World(n_ranks=2, network=network, seed=seed).run(program)
    return max(out)


def halo_exchange_time(
    sync_mode: str,
    n_ranks: int = 8,
    halo_bytes: int = 1024,
    iterations: int = 10,
    network: Optional[NetworkConfig] = None,
    seed: int = 0,
    machine: Optional[MachineConfig] = None,
) -> float:
    """1-D ring halo exchange under each MPI-2 sync mode, or the
    strawman API (ablation A5).  Returns µs per iteration.

    ``machine`` (optional) overrides the default one-rank-per-node
    cluster — e.g. to pin a placement strategy for topology runs.
    """
    network = network or seastar_portals()

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(2 * halo_bytes)
        win = yield from ctx.mpi2.win_create(alloc)
        left = (ctx.rank - 1) % ctx.size
        right = (ctx.rank + 1) % ctx.size
        src = ctx.mem.space.alloc(halo_bytes, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        t0 = ctx.sim.now
        for _ in range(iterations):
            if sync_mode == "fence":
                yield from win.fence()
                yield from win.put(src, 0, halo_bytes, BYTE, right, 0)
                yield from win.put(src, 0, halo_bytes, BYTE, left, halo_bytes)
                yield from win.fence()
            elif sync_mode == "pscw":
                yield from win.post([left, right])
                yield from win.start([left, right])
                yield from win.put(src, 0, halo_bytes, BYTE, right, 0)
                yield from win.put(src, 0, halo_bytes, BYTE, left, halo_bytes)
                yield from win.complete()
                yield from win.wait()
            elif sync_mode == "lock":
                yield from win.lock(right, shared=True)
                yield from win.put(src, 0, halo_bytes, BYTE, right, 0)
                yield from win.unlock(right)
                yield from win.lock(left, shared=True)
                yield from win.put(src, 0, halo_bytes, BYTE, left, halo_bytes)
                yield from win.unlock(left)
                yield from ctx.comm.barrier()
            elif sync_mode == "strawman":
                yield from ctx.rma.put(src, 0, halo_bytes, BYTE,
                                       tmems[right], 0, halo_bytes, BYTE,
                                       blocking=True)
                yield from ctx.rma.put(src, 0, halo_bytes, BYTE,
                                       tmems[left], halo_bytes, halo_bytes,
                                       BYTE, blocking=True)
                yield from ctx.rma.complete_collective(ctx.comm)
            else:
                raise ValueError(f"unknown sync mode {sync_mode!r}")
        elapsed = (ctx.sim.now - t0) / iterations
        yield from ctx.comm.barrier()
        return elapsed

    if machine is None:
        out = World(n_ranks=n_ranks, network=network, seed=seed).run(program)
    else:
        out = World(machine=machine, network=network, seed=seed).run(program)
    return max(out)


def mpi2_sync_mode_time(sync_mode: str, **kwargs) -> float:
    """Alias of :func:`halo_exchange_time` named for the Fig. 1 bench."""
    return halo_exchange_time(sync_mode, **kwargs)


# ----------------------------------------------------------------------
# Topology workloads (PR 4)
# ----------------------------------------------------------------------

def _percentile(sorted_vals, pct: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_vals:
        return 0.0
    idx = max(0, int(len(sorted_vals) * pct / 100.0 + 0.5) - 1)
    return sorted_vals[min(idx, len(sorted_vals) - 1)]


def hotspot_incast(
    n_origins: int,
    put_bytes: int = 2048,
    puts_per_origin: int = 30,
    network: Optional[NetworkConfig] = None,
    machine: Optional[MachineConfig] = None,
    seed: int = 0,
    world_out: Optional[list] = None,
) -> Dict[str, float]:
    """Open-loop incast: ``n_origins`` ranks stream non-blocking puts at
    rank 0's memory, then complete.

    Because issue is open-loop (origins do not wait per put), the
    offered load at rank 0's ingress grows with the fan-in while the
    ingress capacity does not — once the fan-in saturates the hot
    link(s), per-put latency grows with the backlog and the tail (p99)
    explodes superlinearly.  On the flat fabric (no topology) there is
    no shared link, so latencies stay flat — the contrast *is* the
    point of the topology model.

    Returns a dict with per-put end-to-end latency percentiles
    (reconstructed from traced spans): ``p50``, ``p90``, ``p99``,
    ``max``, ``mean``, plus ``n_puts`` and ``makespan_us``.
    """
    from repro.obs.spans import build_spans

    n_ranks = n_origins + 1
    network = network or seastar_portals()
    machine = machine or generic_cluster(n_nodes=n_ranks)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(
            max(4096, put_bytes + 64))
        yield from ctx.comm.barrier()
        if ctx.rank != 0:
            src = ctx.mem.space.alloc(put_bytes, fill=rank_fill(ctx.rank))
            for _ in range(puts_per_origin):
                yield from ctx.rma.put(
                    src, 0, put_bytes, BYTE, tmems[0], 0, put_bytes, BYTE,
                )
            yield from ctx.rma.complete(ctx.comm, 0)
        yield from ctx.comm.barrier()
        return ctx.sim.now

    world = World(machine=machine, network=network, seed=seed, trace=True)
    t0_out = world.run(program)
    if world_out is not None:
        world_out.append(world)
    lats = sorted(
        s.total for s in build_spans(world.tracer) if s.kind == "put"
    )
    n = len(lats)
    return {
        "n_puts": float(n),
        "p50": _percentile(lats, 50.0),
        "p90": _percentile(lats, 90.0),
        "p99": _percentile(lats, 99.0),
        "max": lats[-1] if lats else 0.0,
        "mean": (sum(lats) / n) if n else 0.0,
        "makespan_us": max(t0_out),
    }


def all_to_all_time(
    n_ranks: int = 8,
    nbytes: int = 1024,
    iterations: int = 5,
    network: Optional[NetworkConfig] = None,
    machine: Optional[MachineConfig] = None,
    seed: int = 0,
) -> float:
    """Personalized all-to-all over strawman puts; µs per iteration.

    The densest traffic pattern: every rank puts to every other rank
    each iteration.  On a routed topology this loads *every* link and
    is the standard bisection-bandwidth stressor.
    """
    network = network or seastar_portals()
    machine = machine or generic_cluster(n_nodes=n_ranks)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(
            max(4096, nbytes * ctx.size))
        src = ctx.mem.space.alloc(nbytes, fill=rank_fill(ctx.rank))
        yield from ctx.comm.barrier()
        t0 = ctx.sim.now
        for _ in range(iterations):
            for peer in range(ctx.size):
                if peer == ctx.rank:
                    continue
                yield from ctx.rma.put(
                    src, 0, nbytes, BYTE,
                    tmems[peer], ctx.rank * nbytes, nbytes, BYTE,
                )
            yield from ctx.rma.complete_collective(ctx.comm)
        elapsed = (ctx.sim.now - t0) / iterations
        yield from ctx.comm.barrier()
        return elapsed

    out = World(machine=machine, network=network, seed=seed).run(program)
    return max(out)


def torus_halo_time(
    dims: Tuple[int, int, int] = (4, 4, 4),
    halo_bytes: int = 2048,
    iterations: int = 5,
    placement: str = "block",
    placement_seed: int = 0,
    network: Optional[NetworkConfig] = None,
    seed: int = 0,
    world_out: Optional[list] = None,
) -> float:
    """3-D halo exchange on a torus; µs per iteration.

    Each rank exchanges halos with its six grid neighbours (±x, ±y, ±z,
    periodic).  Under ``"block"`` placement the rank grid coincides with
    the torus coordinates, so every neighbour is one hop away; under
    ``"random"`` placement neighbours scatter across the machine and
    every exchange pays multi-hop routes through shared (contended)
    links — the communication-locality effect
    ``examples/torus_placement.py`` demonstrates.
    """
    from repro.topo.presets import torus_network

    network = network or torus_network(dims)
    n_ranks = dims[0] * dims[1] * dims[2]
    machine = generic_cluster(n_nodes=n_ranks).with_placement(
        placement, placement_seed)

    def coord_of(rank: int) -> Tuple[int, int, int]:
        # Row-major, z fastest — matches Torus3D.hosts enumeration.
        z = rank % dims[2]
        y = (rank // dims[2]) % dims[1]
        x = rank // (dims[1] * dims[2])
        return x, y, z

    def rank_of(coord: Tuple[int, int, int]) -> int:
        return (coord[0] * dims[1] + coord[1]) * dims[2] + coord[2]

    def neighbours(rank: int):
        x, y, z = coord_of(rank)
        for dim, (cx, cy, cz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            for sign in (1, -1):
                yield rank_of((
                    (x + sign * cx) % dims[0],
                    (y + sign * cy) % dims[1],
                    (z + sign * cz) % dims[2],
                ))

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(6 * halo_bytes)
        src = ctx.mem.space.alloc(halo_bytes, fill=rank_fill(ctx.rank))
        peers = list(neighbours(ctx.rank))
        yield from ctx.comm.barrier()
        t0 = ctx.sim.now
        for _ in range(iterations):
            for slot, peer in enumerate(peers):
                yield from ctx.rma.put(
                    src, 0, halo_bytes, BYTE,
                    tmems[peer], slot * halo_bytes, halo_bytes, BYTE,
                )
            yield from ctx.rma.complete_collective(ctx.comm)
        elapsed = (ctx.sim.now - t0) / iterations
        yield from ctx.comm.barrier()
        return elapsed

    world = World(machine=machine, network=network, seed=seed)
    out = world.run(program)
    if world_out is not None:
        world_out.append(world)
    return max(out)
