"""Execute a generated program on the full simulated stack.

The runner builds a traced :class:`~repro.runtime.World` for a named
fabric, runs the program's canonical op list restricted to each rank,
and collects everything the oracle needs: the consistency history, the
final bytes of every variable slot, per-op return values of the
fetching ops, and the fabric facts (path ordering, chaos) that decide
which sequencing guarantees may be assumed.

Local loads/stores are traced here with the same ``(rank, mem_id,
disp)`` location keys the RMA engine uses for small puts/gets, so one
:class:`~repro.consistency.history.History` covers both remote and
local accesses in per-rank program order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.check.program import SLOT_BYTES, RmaProgram
from repro.consistency import History, history_from_tracer
from repro.datatypes import BYTE, INT64
from repro.faults import FaultPlan
from repro.machine import generic_cluster
from repro.network.config import (
    NetworkConfig,
    generic_rdma,
    infiniband_like,
    quadrics_like,
    seastar_portals,
)
from repro.rma.attributes import ALL_RANKS, RmaAttrs
from repro.runtime import World
from repro.topo import fattree_network, torus_network

__all__ = ["FABRICS", "RunResult", "build_world", "run_program",
           "chaos_plan"]

#: Fabric registry: name -> zero-arg NetworkConfig factory.  Routed
#: presets are sized for up to 8 ranks (the generator's maximum).
FABRICS: Dict[str, Callable[[], NetworkConfig]] = {
    "ordered": generic_rdma,
    "unordered": quadrics_like,
    "portals": seastar_portals,
    "infiniband": infiniband_like,
    "torus": lambda: torus_network((2, 2, 2)),
    "torus-adaptive": lambda: torus_network((2, 2, 2), adaptive=True),
    "fattree": lambda: fattree_network(),
}


def chaos_plan(p: float) -> FaultPlan:
    """The conformance chaos plan: lossy but survivable — drops,
    duplicates and delays, never kills or partitions."""
    return (FaultPlan()
            .drop(p)
            .duplicate(p / 2.0)
            .delay(p, mean=25.0))


@dataclass
class RunResult:
    """Everything one execution exposes to the oracle."""

    program: RmaProgram
    fabric: str
    seed: int
    chaos: float
    history: History
    #: vid -> final slot bytes (owner's memory after the closing sync).
    finals: Dict[int, bytes]
    #: global op index -> integer return (fetch_add/getacc/cas/swap/get).
    returns: Dict[int, int]
    #: vid -> the (rank, mem_id, disp) location key of its slot.
    locations: Dict[int, Tuple[int, int, int]]
    #: Whether the flat fabric preset guarantees point-to-point order.
    path_ordered: bool
    endianness: str = "little"
    sim_time: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)
    #: (target rank, match) -> board delivery count (notified puts).
    notify_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def final_int(self, vid: int) -> int:
        return int.from_bytes(self.finals[vid], self.endianness, signed=True)


def build_world(fabric: str, n_ranks: int, seed: int,
                chaos: float = 0.0, trace: bool = True,
                colocate: bool = False) -> World:
    """A world on the named fabric with ``n_ranks`` ranks.

    ``trace=False`` builds it untraced — the consistency oracle loses
    its history, and the run is cheaper.  The fast paths (op-train,
    live barrier, lean messages) run either way: traced, they leave the
    records their packets would have, so the oracle judges them.

    ``colocate=True`` packs the ranks two per node instead of one, so
    partner ranks ``(0,1), (2,3), ...`` share a cache-coherent node and
    the shared-memory window fast path becomes reachable.  Machines are
    regular (``n_nodes * ranks_per_node`` ranks always), so an odd rank
    count gets one padding rank that runs an empty program; it takes
    part in collectives only."""
    try:
        net = FABRICS[fabric]()
    except KeyError:
        raise ValueError(
            f"unknown fabric {fabric!r}; choose from {sorted(FABRICS)}"
        ) from None
    plan = chaos_plan(chaos) if chaos > 0.0 else None
    if colocate:
        machine = generic_cluster(n_nodes=(n_ranks + 1) // 2,
                                  ranks_per_node=2)
    else:
        machine = generic_cluster(n_nodes=n_ranks)
    return World(
        machine=machine,
        network=net,
        seed=seed,
        trace=trace,
        fault_plan=plan,
    )


def _i64_bytes(value: int, endianness: str) -> np.ndarray:
    order = "<" if endianness == "little" else ">"
    return np.frombuffer(
        np.array([value], dtype=np.dtype(np.int64).newbyteorder(order))
        .tobytes(),
        dtype=np.uint8,
    ).copy()


def run_program(
    program: RmaProgram,
    fabric: str,
    seed: int,
    chaos: float = 0.0,
    mutations: Tuple[str, ...] = (),
    limit: Optional[float] = 10_000_000.0,
    trace: bool = True,
    colocate: bool = False,
    shared: bool = False,
) -> RunResult:
    """Run ``program`` and collect a :class:`RunResult`.

    ``mutations`` names test-only engine misbehaviours (see
    ``RmaEngine.conformance_mutations``) used to prove the oracle can
    catch real semantic bugs.  ``trace=False`` runs untraced (empty
    history); the differential train-on/off runs compare final state,
    returns and simulated time against a train-disabled run of the same
    program that way.

    ``shared=True`` turns on the shared-memory window flavor for every
    exposure (per-engine ``shared_default``) on a co-located machine
    (``colocate`` is implied): partner ranks then reach each other's
    regions by load/store.  ``colocate=True`` alone builds the paired
    machine with the flavor off — the control arm of a differential
    shared-on/off run, holding placement and topology fixed.
    """
    program.validate()
    world = build_world(fabric, program.n_ranks, seed, chaos, trace=trace,
                        colocate=colocate or shared)
    if shared:
        for ctx in world.contexts.values():
            # Instance attribute: descriptors stay wire-identical, only
            # this world's engines treat every window as shared.
            ctx.rma.engine.shared_default = True
    if mutations:
        for ctx in world.contexts.values():
            ctx.rma.engine.conformance_mutations = frozenset(mutations)

    tracer = world.tracer
    endianness = world.memories[0].space.endianness
    returns: Dict[int, int] = {}
    allocs: Dict[int, object] = {}
    mem_ids: Dict[int, int] = {}
    by_vid = {v.vid: v for v in program.vars}

    def rank_program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(
            program.region_size)
        allocs[ctx.rank] = alloc
        mem_ids[ctx.rank] = tmems[ctx.rank].mem_id
        space = ctx.mem.space
        yield from ctx.comm.barrier()

        def attrs_of(op):
            a = RmaAttrs(**{name: True for name in op.attrs})
            if op.notify and op.kind == "put":
                a = a.with_(notify=op.notify)
            return a

        for idx, op in program.ops_for(ctx.rank):
            kind = op.kind
            if kind == "sync":
                yield from ctx.rma.complete_collective(ctx.comm)
                continue
            if kind == "compute":
                yield op.duration
                continue
            if kind == "order":
                target = ALL_RANKS if op.target < 0 else op.target
                yield from ctx.rma.order(ctx.comm, target)
                continue
            if kind == "complete":
                target = ALL_RANKS if op.target < 0 else op.target
                yield from ctx.rma.complete(ctx.comm, target)
                continue

            v = by_vid.get(op.var)
            if kind == "store":
                data = np.full(SLOT_BYTES, op.value, dtype=np.uint8)
                ctx.mem.store(alloc, v.disp, data)
                tracer.record(
                    ctx.sim.now, "consistency", "write", rank=ctx.rank,
                    location=(ctx.rank, mem_ids[ctx.rank], v.disp),
                    value=(op.value,) * SLOT_BYTES,
                )
                continue
            if kind == "load":
                ctx.rma.engine.materialize_inbound()
                ctx.mem.fence()
                data = ctx.mem.load(alloc, v.disp, SLOT_BYTES)
                tracer.record(
                    ctx.sim.now, "consistency", "read", rank=ctx.rank,
                    location=(ctx.rank, mem_ids[ctx.rank], v.disp),
                    value=tuple(int(b) for b in data),
                )
                continue
            if kind == "wait_notify":
                # Block until the matching notified put's board delivery
                # on this rank's own exposure (the runner only generates
                # waits at the variable's owner).
                yield from ctx.rma.wait_notify(
                    tmems[ctx.rank], op.notify)
                continue
            if kind == "put":
                src = space.alloc(SLOT_BYTES, fill=op.value)
                a = attrs_of(op)
                if op.via_xfer:
                    yield from ctx.rma.xfer(
                        "put", src, 0, SLOT_BYTES, BYTE, tmems[v.owner],
                        v.disp, SLOT_BYTES, BYTE, attrs=a)
                else:
                    yield from ctx.rma.put(
                        src, 0, SLOT_BYTES, BYTE, tmems[v.owner], v.disp,
                        SLOT_BYTES, BYTE, attrs=a)
                continue
            if kind == "get":
                dst = space.alloc(SLOT_BYTES)
                a = attrs_of(op).with_(blocking=True)
                if op.via_xfer:
                    yield from ctx.rma.xfer(
                        "get", dst, 0, SLOT_BYTES, BYTE, tmems[v.owner],
                        v.disp, SLOT_BYTES, BYTE, attrs=a)
                else:
                    yield from ctx.rma.get(
                        dst, 0, SLOT_BYTES, BYTE, tmems[v.owner], v.disp,
                        SLOT_BYTES, BYTE, attrs=a)
                returns[idx] = int.from_bytes(
                    bytes(space.buffer(dst)[:SLOT_BYTES]), endianness,
                    signed=True)
                continue
            if kind == "acc":
                src = space.alloc(SLOT_BYTES)
                space.buffer(src)[:] = _i64_bytes(op.value, endianness)
                a = attrs_of(op)
                if op.via_xfer:
                    yield from ctx.rma.xfer(
                        "accumulate", src, 0, 1, INT64, tmems[v.owner],
                        v.disp, 1, INT64, attrs=a, accumulate_optype="sum")
                else:
                    yield from ctx.rma.accumulate(
                        src, 0, 1, INT64, tmems[v.owner], v.disp, 1,
                        INT64, op="sum", attrs=a)
                continue
            if kind == "getacc":
                buf = space.alloc(SLOT_BYTES)
                space.buffer(buf)[:] = _i64_bytes(op.value, endianness)
                yield from ctx.rma.get_accumulate(
                    buf, 0, 1, INT64, tmems[v.owner], v.disp, 1, INT64,
                    op="sum", blocking=True)
                returns[idx] = int.from_bytes(
                    bytes(space.buffer(buf)[:SLOT_BYTES]), endianness,
                    signed=True)
                continue
            if kind == "fetch_add":
                old = yield from ctx.rma.fetch_and_add(
                    tmems[v.owner], v.disp, "int64", op.value,
                    blocking=True)
                returns[idx] = int(old)
                continue
            if kind == "cas":
                old = yield from ctx.rma.compare_and_swap(
                    tmems[v.owner], v.disp, "int64", op.compare, op.value,
                    blocking=True)
                returns[idx] = int(old)
                continue
            if kind == "swap":
                old = yield from ctx.rma.swap(
                    tmems[v.owner], v.disp, "int64", op.value,
                    blocking=True)
                returns[idx] = int(old)
                continue
            if kind == "noise":
                src = space.alloc(op.nbytes, fill=op.value)
                yield from ctx.rma.put(
                    src, 0, op.nbytes, BYTE, tmems[op.target], op.disp,
                    op.nbytes, BYTE, attrs=attrs_of(op))
                continue
            if kind == "peek":
                dst = space.alloc(op.nbytes)
                a = attrs_of(op).with_(blocking=True)
                yield from ctx.rma.get(
                    dst, 0, op.nbytes, BYTE, tmems[op.target], op.disp,
                    op.nbytes, BYTE, attrs=a)
                returns[idx] = zlib.crc32(
                    bytes(space.buffer(dst)[:op.nbytes]))
                continue
            raise AssertionError(f"unhandled op kind {kind!r}")

        # Closing sync: every op applied everywhere before the final
        # state is read.  Not part of ``program.ops`` so the shrinker
        # can never remove it.
        yield from ctx.rma.complete_collective(ctx.comm)
        return None

    world.run(rank_program, limit=limit)

    finals: Dict[int, bytes] = {}
    locations: Dict[int, Tuple[int, int, int]] = {}
    for v in program.vars:
        buf = world.memories[v.owner].space.buffer(allocs[v.owner])
        finals[v.vid] = bytes(buf[v.disp:v.disp + SLOT_BYTES])
        locations[v.vid] = (v.owner, mem_ids[v.owner], v.disp)

    history = history_from_tracer(tracer)
    data_locs = {locations[v.vid] for v in program.vars
                 if v.vtype == "data"}
    history = history.restrict(data_locs)

    # Board deliveries, rekeyed from (mem_id, match) to (rank, match):
    # the exactly-once observable for notified puts.
    notify_counts: Dict[Tuple[int, int], int] = {}
    for rank, ctx in world.contexts.items():
        for (mem_id, match), n in ctx.rma.engine.board.delivered().items():
            if mem_id == mem_ids.get(rank):
                notify_counts[(rank, match)] = \
                    notify_counts.get((rank, match), 0) + n

    return RunResult(
        program=program,
        fabric=fabric,
        seed=seed,
        chaos=chaos,
        history=history,
        finals=finals,
        returns=returns,
        locations=locations,
        path_ordered=bool(world.network.ordered),
        endianness=endianness,
        sim_time=world.sim.now,
        stats={
            "ops": len(program.ops),
            "history_ops": len(history),
            "train_ops": sum(ctx.rma.engine.stats["train_ops"]
                             for ctx in world.contexts.values()),
            "train_bytes": sum(ctx.rma.engine.stats["train_bytes"]
                               for ctx in world.contexts.values()),
            "shm_ops": sum(ctx.rma.engine.stats["shm_ops"]
                           for ctx in world.contexts.values()),
            "notifies": sum(ctx.rma.engine.stats["notifies"]
                            for ctx in world.contexts.values()),
        },
        notify_counts=notify_counts,
    )
