"""The strawman RMA protocol engine.

One :class:`RmaEngine` per rank.  It owns every wire protocol behind the
strawman API and enforces each attribute with the cheapest mechanism the
fabric/machine combination offers (paper §III-B: "when they are offered
as features by the underlying network, [attributes] are trivial to
implement", otherwise software protocols add a penalty):

ordering
    Every operation between an (origin, target) pair carries a sequence
    number and a *barrier*: the highest sequence number that must be
    applied at the target before this operation may apply.  The
    ordering attribute sets ``barrier = seq - 1``; ``rma_order`` sets a
    standing barrier for subsequent operations.  On an ordered fabric
    the gate never actually delays anything (the attribute is free); on
    an unordered fabric late fragments are buffered at the target.

remote completion
    Three strategies, picked per operation:

    - ``hw``  — per-fragment hardware delivery acks (Portals event
      queue); valid only when delivery *is* application (non-atomic op,
      coherent target, no gating).
    - ``sw``  — the target engine acks when the operation has been
      *applied* (needed for atomic ops, non-coherent targets, and gated
      ops on unordered fabrics).
    - ``flush`` — nothing per-op; ``rma_complete`` sends a watermark
      flush and the target answers once everything up to the watermark
      has applied.  This is the default for attribute-free operations.

atomicity
    Routed through the machine's serializer (thread / coarse lock /
    progress — :mod:`repro.rma.serializer`).  With the coarse lock the
    origin acquires the target's process-level lock around the whole
    operation and application happens directly (exclusivity by lock);
    with the thread/progress serializers fragments are staged at the
    target and applied as one FIFO job.

Transfers fragment at the fabric MTU; fragments of concurrent
*non-atomic* operations to overlapping memory interleave — exactly the
"permitted but undefined" behaviour the paper asks for (§IV req. 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datatypes.base import Datatype
from repro.machine.address_space import Allocation
from repro.machine.config import MachineConfig, MachineTimings
from repro.machine.node import RankMemory
from repro.mpi.request import Request
from repro.network.nic import Nic
from repro.network.packet import ACK_SIZE, HEADER_SIZE, Packet
from repro.rma.attributes import RmaAttrs
from repro.rma.layout import (
    Fragment,
    apply_accumulate,
    apply_put_fragment,
    fragment_layout,
    read_layout,
)
from repro.rma.serializer import Serializer, make_serializer
from repro.rma.target_mem import RmaError, TargetMem
from repro.rma.train import OpTrain, TrainElement
from repro.sim.events import AllOf, DeferredEvent, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import World
    from repro.sim.core import Simulator

__all__ = ["RmaEngine", "OpRecord", "build_rma"]

#: Accumulate operations supported by the engine.
ACC_OPS = ("sum", "prod", "min", "max", "replace", "daxpy")
#: Read-modify-write operations (paper §V: conditional and unconditional).
RMW_OPS = ("cas", "fetch_add", "swap")

#: Conformance mutations under which the op-train path may stay active:
#: its own planted bug, plus ``shm_skip_fence`` — that one only alters
#: the shared-window path (and in fact *needs* live trains: the bug it
#: plants is skipping the train flush before a shared access); per-packet
#: and closed-form behaviour are untouched.  Any other mutation alters
#: per-packet behaviour the closed form does not model, so the path
#: stands down.
_TRAIN_MUTATIONS = frozenset({"train_mistime", "shm_skip_fence"})


@dataclass(slots=True)
class OpRecord:
    """Origin-side record of one outstanding write-style operation."""

    op_key: Tuple[int, int]
    dst: int
    seq: int
    kind: str
    remote_mode: str  # "hw" | "sw" | "flush"
    ev_local: Event
    ev_remote: Optional[Event]
    nbytes: int
    #: Attributes the op was issued with (carried into RmaError on a
    #: delivery failure); None for internal/zero-byte records.
    attrs: Optional[RmaAttrs] = None


def _collect_errors(events: List[Event]) -> List[RmaError]:
    """RmaError values carried by completion events (failure-aware
    completion succeeds events *with* the error object as value)."""
    errs: List[RmaError] = []
    for ev in events:
        value = ev.value
        if isinstance(value, RmaError):
            errs.append(value)
        elif isinstance(value, list):
            errs.extend(v for v in value if isinstance(v, RmaError))
    return errs


class _OriginPeer:
    """Origin-side per-target state."""

    __slots__ = ("last_seq", "order_barrier", "outstanding",
                 "last_atomic_seq", "last_deferred_seq", "broken",
                 "completing")

    def __init__(self) -> None:
        self.last_seq = 0
        self.order_barrier = 0
        self.outstanding: List[OpRecord] = []
        #: Sequence number of the most recent atomic op issued to this
        #: target (atomic application is deferred, which matters for
        #: deciding whether delivery == application downstream).
        self.last_atomic_seq = 0
        #: Most recent op whose *application* happens after delivery
        #: without being atomic (serializer-routed rmw, RMI handlers,
        #: atomic-queue gets).  The op-train fast path reasons
        #: "delivery order == application order" and must stand down
        #: while any such op is in the sequence window.
        self.last_deferred_seq = 0
        #: Set on a transport path failure; every later op to this
        #: target fails fast at issue.
        self.broken = False
        #: Records handed to an in-flight complete() (moved out of
        #: ``outstanding``); a path failure must fail these too or the
        #: waiting complete() would hang.
        self.completing: List[OpRecord] = []

    def alloc_seq(self) -> int:
        self.last_seq += 1
        return self.last_seq


class _InboundOp:
    """Target-side record of one in-flight inbound operation."""

    __slots__ = (
        "desc",
        "seq",
        "barrier",
        "src",
        "frags",
        "nfrags",
        "arrived",
        "applied_frags",
        "gate_open",
        "staged",
    )

    def __init__(self, desc: Dict[str, Any]) -> None:
        self.desc = desc
        self.seq: int = desc["seq"]
        self.barrier: int = desc["barrier"]
        self.src: int = desc["src"]
        self.nfrags: int = desc.get("nfrags", 1)
        self.frags: List[Fragment] = []
        self.arrived = 0
        self.applied_frags = 0
        self.gate_open = False
        self.staged = False  # atomic op already handed to the serializer


class _TargetPeer:
    """Target-side per-origin state."""

    __slots__ = ("applied_upto", "applied_extra", "inbound", "gated",
                 "flush_waiters", "draining")

    def __init__(self) -> None:
        self.applied_upto = 0
        self.applied_extra: set = set()
        self.inbound: Dict[int, _InboundOp] = {}
        self.gated: List[_InboundOp] = []
        #: (watermark, flush_id, origin_rank) triples awaiting the watermark.
        self.flush_waiters: List[Tuple[int, int, int]] = []
        #: Reentrancy guard for gate draining (applying a gated op can
        #: recursively mark further ops applied).
        self.draining = False

    def barrier_ok(self, barrier: int) -> bool:
        return self.applied_upto >= barrier


class _PendingGet:
    """Origin-side reassembly state for a get reply."""

    __slots__ = ("buffer", "received", "ev_done", "alloc", "offset", "dtype",
                 "count", "swap", "location")

    def __init__(self, total: int, alloc, offset, dtype, count, swap,
                 location=None) -> None:
        self.buffer = np.empty(total, dtype=np.uint8)
        self.received = 0
        self.ev_done: Optional[Event] = None
        self.alloc = alloc
        self.offset = offset
        self.dtype = dtype
        self.count = count
        self.swap = swap
        self.location = location


class _NotifyWaiter:
    """One blocked ``wait_notify`` call on the notification board."""

    __slots__ = ("key", "need", "ev", "watch")

    def __init__(self, key: Tuple[int, int], need: int, ev: Event,
                 watch: frozenset) -> None:
        self.key = key
        self.need = need
        self.ev = ev
        self.watch = watch


class RmaEngine:
    """Per-rank RMA protocol engine (see module docstring)."""

    #: Master switch for the vectorized op-train fast path (see
    #: :meth:`_try_issue_train` and :mod:`repro.rma.train`).  The
    #: determinism regression tests flip this off to prove the analytic
    #: and event-loop paths produce identical simulated timestamps.
    train_enabled: bool = True

    #: Master switch for the shared-memory window fast path (see
    #: :meth:`_shared_target`): co-located ranks access a shared window
    #: by direct load/store through the node's cache model — no NIC, no
    #: transport, no serializer.
    shared_enabled: bool = True

    #: Treat *every* exposure as a shared window (subject to the same
    #: eligibility rules).  The ``--shared-windows`` perf toggle and the
    #: conformance runner's shared mode set this; it must leave every
    #: off-node timestamp bit-identical, since eligibility requires
    #: co-location.
    shared_default: bool = False

    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        nic: Nic,
        mem: RankMemory,
        machine: MachineConfig,
        serializer_kind: str = "auto",
        tracer=None,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.nic = nic
        self.mem = mem
        self.machine = machine
        self.timings: MachineTimings = machine.timings
        self.network = nic.config
        self.tracer = tracer

        self._exposures: Dict[int, Allocation] = {}
        self._next_mem_id = 1
        self._origin_peers: Dict[int, _OriginPeer] = {}
        self._target_peers: Dict[int, _TargetPeer] = {}
        # Waiter maps carry the destination rank so a path failure can
        # sweep exactly the waiters stranded on the broken path.
        self._sw_ack_waiters: Dict[Tuple[int, int], Tuple[int, Event]] = {}
        self._pending_gets: Dict[Tuple[int, int], _PendingGet] = {}
        self._pending_replies: Dict[Tuple[int, int], Tuple[int, str, Event]] = {}
        self._flush_waiters: Dict[int, Tuple[int, Event]] = {}
        self._next_flush_id = 1
        # Per-engine op-key counter: keys are (rank, n), so a per-engine
        # count keeps them unique within a world while staying identical
        # across same-seed runs (a process-global counter would leak
        # between worlds and break trace bit-identity).
        self._op_counter = itertools.count(1)
        #: Test-only semantic mutations for the conformance fuzzer
        #: (``repro.check``): an empty set (the default, always, outside
        #: fuzzer self-tests) keeps behaviour — and traces — untouched.
        #: ``"drop_order_barrier"`` makes every put/get ignore its
        #: ordering sequence barrier, the planted bug the oracle and
        #: shrinker must catch.  ``"train_mistime"`` shifts every
        #: timestamp of the first op-train per target by +1e-3 µs — the
        #: planted batch-path bug proving the train-on/off differential
        #: oracle detects closed-form timing errors.
        self.conformance_mutations: frozenset = frozenset()
        # Op-train fast path state: the open train per destination (a
        # train closes once materialized) and the set of destinations
        # already mis-timed by the "train_mistime" mutation.
        self._active_trains: Dict[int, OpTrain] = {}
        self._train_mistimed: set = set()
        # Op-train memos: fig2/halo issue thousands of identically-shaped
        # ops, so both the fragment-size split (keyed by (dtype, count))
        # and the per-fragment serialization charges (keyed by the sizes
        # tuple) are computed once.
        self._train_sizes_cache: Dict[tuple, tuple] = {}
        self._train_ser_cache: Dict[tuple, Any] = {}
        # Notification board (DESIGN §15): per-(mem_id, match) delivered
        # and consumed counters, FIFO waiters, and the delivered-op-key
        # set that makes delivery idempotent — the reliable transport's
        # receiver-side dedup already guarantees the engine never sees a
        # retransmitted op twice, so this set is defense in depth (and
        # what keeps the planted ``notify_before_apply`` mutation from
        # double-delivering at apply time).
        self._notify_counts: Dict[Tuple[int, int], int] = {}
        self._notify_consumed: Dict[Tuple[int, int], int] = {}
        self._notify_seen: set = set()
        self._notify_waiters: List[_NotifyWaiter] = []
        #: Simulated notify latencies (target-side apply/delivery time
        #: minus origin issue time), harvested by workloads into obs
        #: histograms.  Only ever appended for notify-carrying ops, so
        #: notify-free runs pay nothing.
        self.notify_latencies: List[float] = []
        # Failure-aware completion state.
        self._path_failures: Dict[int, Any] = {}
        self.failures: List[Any] = []
        self._failed_ops: set = set()
        self._rmi_handlers: Dict[str, Callable[..., Any]] = {}
        # Reusable staging buffer for *transient* byte work (e.g. the
        # swap pass of a heterogeneous get completion).  Never handed to
        # anything that outlives the call that borrowed it — in-flight
        # fragment data must not alias it.
        self._pack_scratch = np.empty(0, dtype=np.uint8)

        nic.register_handler("rma.frag", self._on_frag)
        nic.register_handler("rma.get_req", self._on_get_req)
        nic.register_handler("rma.get_reply", self._on_get_reply)
        nic.register_handler("rma.ack", self._on_ack)
        nic.register_handler("rma.flush_req", self._on_flush_req)
        nic.register_handler("rma.flush_ack", self._on_flush_ack)
        nic.register_handler("rma.rmw_req", self._on_rmw_req)
        nic.register_handler("rma.reply", self._on_reply)
        nic.register_handler("rma.rmi_req", self._on_rmi_req)
        nic.register_handler("rma.lock_req", self._on_lock_req)
        nic.register_handler("rma.lock_grant", self._on_lock_grant)
        nic.register_handler("rma.unlock", self._on_unlock)

        self.serializer: Serializer = make_serializer(serializer_kind, self)

        transport = nic.transport
        if transport is not None:
            transport.add_path_failure_callback(self._on_path_failure)

        # statistics
        self.stats: Dict[str, int] = {
            "puts": 0,
            "gets": 0,
            "accumulates": 0,
            "rmws": 0,
            "rmis": 0,
            "completes": 0,
            "orders": 0,
            "bytes_put": 0,
            "bytes_got": 0,
            "gated_frags": 0,
            "train_ops": 0,
            "train_bytes": 0,
            "shm_ops": 0,
            "shm_bytes": 0,
            "notifies": 0,
            "notify_waits": 0,
        }

    # ------------------------------------------------------------------
    # Memory exposure
    # ------------------------------------------------------------------
    def expose(self, alloc: Allocation, shared: bool = False) -> TargetMem:
        """Register local memory for remote access (non-collective).

        ``shared=True`` requests the shared-memory window flavor:
        co-located origins then bypass the NIC (:meth:`_shared_target`).
        A non-coherent owner cannot offer load/store sharing — peers'
        stores would sit invisible behind stale cache lines without the
        owner's involvement — so the request degrades to a plain
        exposure there.
        """
        if alloc.rank != self.rank:
            raise RmaError(
                f"rank {self.rank} cannot expose memory owned by rank "
                f"{alloc.rank}"
            )
        self.mem.space.buffer(alloc)  # validates liveness
        mem_id = self._next_mem_id
        self._next_mem_id += 1
        self._exposures[mem_id] = alloc
        return TargetMem(
            rank=self.rank,
            mem_id=mem_id,
            size=alloc.size,
            pointer_bits=self.mem.space.pointer_bits,
            endianness=self.mem.space.endianness,
            coherent=self.mem.coherent,
            shared=bool(shared) and self.mem.coherent,
        )

    def registration_cost(self, nbytes: int) -> float:
        """NIC registration cost for exposing ``nbytes`` (charged by the
        generator-based exposure paths; plain :meth:`expose` is the
        zero-time registration-cache hit)."""
        pages = -(-max(nbytes, 1) // 4096)
        return (self.timings.mem_register_base
                + pages * self.timings.mem_register_per_page)

    def withdraw(self, tmem: TargetMem) -> None:
        """Deregister; later remote access through it is an error."""
        if tmem.rank != self.rank or tmem.mem_id not in self._exposures:
            raise RmaError(f"cannot withdraw unknown target_mem {tmem}")
        del self._exposures[tmem.mem_id]

    def _scratch(self, nbytes: int) -> np.ndarray:
        """The per-engine transient staging buffer, grown to ``nbytes``."""
        if self._pack_scratch.size < nbytes:
            self._pack_scratch = np.empty(nbytes, dtype=np.uint8)
        return self._pack_scratch

    def _resolve(self, mem_id: int) -> Allocation:
        alloc = self._exposures.get(mem_id)
        if alloc is None:
            raise RmaError(
                f"rank {self.rank}: RMA access to unknown/withdrawn "
                f"target_mem id {mem_id}"
            )
        return alloc

    def register_rmi(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a remote-method-invocation handler (§IV extension)."""
        if name in self._rmi_handlers:
            raise RmaError(f"RMI handler {name!r} already registered")
        self._rmi_handlers[name] = fn

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    def _origin_peer(self, dst: int) -> _OriginPeer:
        peer = self._origin_peers.get(dst)
        if peer is None:
            peer = self._origin_peers[dst] = _OriginPeer()
        return peer

    def _target_peer(self, src: int) -> _TargetPeer:
        peer = self._target_peers.get(src)
        if peer is None:
            peer = self._target_peers[src] = _TargetPeer()
        return peer

    # ------------------------------------------------------------------
    # Failure-aware completion (reliable-transport path failures)
    # ------------------------------------------------------------------
    def _path_broken(self, dst: int) -> bool:
        """Whether ops to ``dst`` are doomed (fail fast at issue)."""
        peer = self._origin_peers.get(dst)
        if peer is not None and peer.broken:
            return True
        transport = self.nic.transport
        if transport is not None and transport.is_broken(dst):
            return True
        return self.nic.fabric.is_dead(dst)

    def _failure_kind(self, dst: int, failure) -> str:
        """Structured taxonomy kind for a delivery failure to ``dst``."""
        if failure is not None:
            kind = getattr(failure, "kind", None)
            if kind is not None:
                return kind
        return ("rank_failed" if self.nic.fabric.is_dead(dst)
                else "retry_exhausted")

    def _op_error(self, rec: OpRecord, failure=None) -> RmaError:
        failure = failure if failure is not None \
            else self._path_failures.get(rec.dst)
        if failure is not None:
            return RmaError(
                f"rma {rec.kind} to rank {rec.dst} failed: {failure}",
                kind=self._failure_kind(rec.dst, failure),
                op=rec.kind, src=self.rank, target=rec.dst,
                path=(self.rank, rec.dst), attrs=rec.attrs,
                retries=failure.attempts, sim_time=failure.sim_time,
            )
        return RmaError(
            f"rma {rec.kind} to rank {rec.dst} failed: path broken",
            kind=self._failure_kind(rec.dst, None),
            op=rec.kind, src=self.rank, target=rec.dst,
            path=(self.rank, rec.dst), attrs=rec.attrs,
            sim_time=self.sim.now,
        )

    def _path_error(self, dst: int, op: str,
                    attrs: Optional[RmaAttrs] = None,
                    failure=None) -> RmaError:
        failure = failure if failure is not None \
            else self._path_failures.get(dst)
        if failure is not None:
            return RmaError(
                f"rma {op} to rank {dst} failed: {failure}",
                kind=self._failure_kind(dst, failure),
                op=op, src=self.rank, target=dst, path=(self.rank, dst),
                attrs=attrs,
                retries=failure.attempts, sim_time=failure.sim_time,
            )
        return RmaError(
            f"rma {op} to rank {dst} failed: path broken or target dead",
            kind=self._failure_kind(dst, None),
            op=op, src=self.rank, target=dst, path=(self.rank, dst),
            attrs=attrs, sim_time=self.sim.now,
        )

    def _on_path_failure(self, dst: int, failure) -> None:
        """Reliable transport gave up on the path to ``dst``: convert
        every stranded waiter into a structured RmaError *value* (events
        succeed with the error object so AllOf aggregation in pending
        complete()/waitall() calls keeps working — no bare event-loop
        exceptions, no hangs)."""
        self._path_failures[dst] = failure
        self.failures.append(failure)
        peer = self._origin_peers.get(dst)
        if peer is not None:
            peer.broken = True
            for rec in peer.outstanding + peer.completing:
                ev = rec.ev_remote
                if ev is not None and not ev.triggered:
                    ev.succeed(self._op_error(rec, failure))
        for op_key in [k for k, (d, _ev) in self._sw_ack_waiters.items()
                       if d == dst]:
            _d, ev = self._sw_ack_waiters.pop(op_key)
            if not ev.triggered:
                ev.succeed(self._path_error(dst, "ack", failure=failure))
        for op_key in [k for k, (d, _kind, _ev) in self._pending_replies.items()
                       if d == dst]:
            _d, kind, ev = self._pending_replies.pop(op_key)
            if not ev.triggered:
                ev.succeed(self._path_error(dst, kind, failure=failure))
        for flush_id in [k for k, (d, _ev) in self._flush_waiters.items()
                         if d == dst]:
            _d, ev = self._flush_waiters.pop(flush_id)
            if not ev.triggered:
                ev.succeed(self._path_error(dst, "complete", failure=failure))
        for op_key in [k for k, p in self._pending_gets.items()
                       if p.location is not None and p.location[0] == dst]:
            pend = self._pending_gets.pop(op_key)
            self._failed_ops.add(op_key)
            ev = pend.ev_done
            if ev is not None and not ev.triggered:
                ev.succeed(self._path_error(dst, "get", failure=failure))
        self.fail_notify_waiters(dst, failure=failure)
        if self.tracer is not None:
            self.tracer.bump("rma.path_failure")
            if self.tracer.enabled:
                self.tracer.record(self.sim.now, "rma", "path_failure",
                                   rank=self.rank, dst=dst,
                                   reason=failure.reason)

    def reset_path(self, other: int) -> None:
        """Forget all per-path state shared with ``other`` (restart)."""
        self._origin_peers.pop(other, None)
        self._target_peers.pop(other, None)
        self._path_failures.pop(other, None)

    def reset_all_paths(self) -> None:
        """Forget every per-path state (this rank restarted)."""
        self._origin_peers.clear()
        self._target_peers.clear()
        self._path_failures.clear()
        # The restarted rank's notification board starts empty; any
        # waiter still parked belongs to the killed program.
        self._notify_counts.clear()
        self._notify_consumed.clear()
        self._notify_seen.clear()
        self._notify_waiters.clear()

    def acknowledge_path_failure(self, dst: int) -> None:
        """Consume a broken path's errored records (ULFM acknowledgment).

        A failed blocking op surfaces its error twice by design: once
        out of its own wait, and again at the next completion call —
        the MPI-style "sync reports everything since the last sync"
        contract.  A recovery layer that has already handled the
        failure calls this to drop the errored records so the *next*
        completion describes only post-recovery traffic.  The path
        itself stays broken: new ops to ``dst`` keep failing fast.
        """
        peer = self._origin_peers.get(dst)
        if peer is not None and peer.broken:
            peer.outstanding = []
            peer.completing = []

    # ------------------------------------------------------------------
    # Issue path helpers
    # ------------------------------------------------------------------
    def send_control(self, dst: int, kind: str, payload: Dict[str, Any],
                     data_bytes: int = 0, want_ack: bool = False) -> Packet:
        """Inject a small protocol packet."""
        pkt = Packet(src=self.rank, dst=dst, kind=kind, payload=payload,
                     data_bytes=data_bytes, want_ack=want_ack)
        self.nic.send(pkt)
        return pkt

    def _pick_remote_mode(self, attrs: RmaAttrs, tmem: TargetMem,
                          barrier: int, atomic_via_serializer: bool,
                          lock_serialized: bool,
                          peer: "_OriginPeer") -> str:
        if lock_serialized or atomic_via_serializer:
            # Atomic semantics are only established at application time,
            # so atomic ops always track an application ack: the lock
            # serializer needs it to release the lock, and a blocking
            # atomic call returns only once the exclusive update is in.
            return "sw"
        if attrs.remote_completion:
            # A hardware delivery ack (Portals EQ) equals remote
            # completion only when delivery == application: coherent
            # target, and either no gating barrier, or an ordered fabric
            # where every op covered by the barrier applies at its own
            # (earlier) delivery — i.e. none of them was atomic.  Both
            # capabilities are properties of the (src, dst) *path*: on
            # hierarchical machines the intra-node personality may differ
            # from the interconnect's.
            path = self.nic.fabric.config_for(self.rank, tmem.rank)
            barrier_instant = barrier == 0 or (
                path.ordered
                and not (0 < peer.last_atomic_seq <= barrier)
            )
            hw_ok = (
                tmem.coherent
                and barrier_instant
                and path.remote_completion_events
                # Persistent loss toward the target: hardware delivery
                # acks keep getting dropped, so degrade to software
                # acks (which the reliable transport retransmits).
                and not self.nic.path_degraded(tmem.rank)
            )
            return "hw" if hw_ok else "sw"
        return "flush"

    def _atomic_routing(self, attrs: RmaAttrs) -> Tuple[bool, bool]:
        """(via_serializer_queue, via_origin_lock) for this op."""
        if not attrs.atomicity:
            return False, False
        if self.serializer.kind == "lock":
            return False, True
        return True, False

    def issue_put(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_dtype: Datatype,
        tmem: TargetMem,
        target_disp: int,
        target_count: int,
        target_dtype: Datatype,
        attrs: RmaAttrs,
    ):
        """Issue a put; returns an :class:`OpRecord` (``yield from``)."""
        rec = yield from self._issue_write(
            "put", origin_alloc, origin_offset, origin_count, origin_dtype,
            tmem, target_disp, target_count, target_dtype, attrs, {},
        )
        self.stats["puts"] += 1
        self.stats["bytes_put"] += rec.nbytes
        return rec

    def issue_accumulate(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_dtype: Datatype,
        tmem: TargetMem,
        target_disp: int,
        target_count: int,
        target_dtype: Datatype,
        attrs: RmaAttrs,
        op: str = "sum",
        scale: float = 1.0,
    ):
        """Issue an accumulate (remote update); returns an OpRecord."""
        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}; choose from {ACC_OPS}")
        if target_dtype.elem_np is None:
            raise RmaError(
                "accumulate requires a datatype with a uniform element type"
            )
        extra = {"acc_op": op, "acc_scale": scale,
                 "np_elem": target_dtype.elem_np}
        rec = yield from self._issue_write(
            "acc", origin_alloc, origin_offset, origin_count, origin_dtype,
            tmem, target_disp, target_count, target_dtype, attrs, extra,
        )
        self.stats["accumulates"] += 1
        return rec

    def _validate_pair(
        self,
        origin_count: int,
        origin_dtype: Datatype,
        tmem: TargetMem,
        target_disp: int,
        target_count: int,
        target_dtype: Datatype,
    ) -> int:
        o_bytes = origin_count * origin_dtype.size
        t_bytes = target_count * target_dtype.size
        if o_bytes != t_bytes:
            raise RmaError(
                f"origin layout ({o_bytes} B) does not match target layout "
                f"({t_bytes} B)"
            )
        lo, hi = target_dtype.byte_range(target_count)
        tmem.check_access(target_disp, lo, hi)
        return o_bytes

    def _try_issue_train(self, kind, dst, tmem, target_disp, target_dtype,
                         target_count, wire, nbytes, attrs, extra):
        """Closed-form issue of one non-atomic write riding an op-train.

        When every condition below holds, the op's entire lifetime —
        injection, serialization, arrival, application, hardware ack —
        is a pure function of current NIC/fabric state, so it is
        computed here as (vectorized) float arithmetic identical to
        what the event-loop path would perform, recorded on the
        destination's :class:`~repro.rma.train.OpTrain`, and costs zero
        kernel events until observed.  Returns the :class:`OpRecord`,
        or ``None`` to fall back to the packet path.

        Eligibility (each is load-bearing; see DESIGN §12):
        flat ordered fault-free path, idle untraced NIC, no reliable
        transport, coherent target, no atomic or deferred-application
        op in the peer's sequence window, and a remote-completion mode
        that is closed-form ("hw" delivery acks or "flush").
        """
        nic = self.nic
        fabric = nic.fabric
        if (
            not self.train_enabled
            or not nic.burst_enabled
            or nic.transport is not None
            or nic._pending
            or fabric.topology is not None
            or fabric._faulty
            or fabric.tracer.enabled
            or not tmem.coherent
            or not self.conformance_mutations <= _TRAIN_MUTATIONS
            # A notified op needs the target engine to run per-op (the
            # notification is delivered at apply time); the closed form
            # never runs target-side code, so the train stands down.
            or attrs.notify is not None
        ):
            return None
        sim = self.sim
        if sim.context.get("world") is None:
            # Lazy materialization needs the world's engine directory.
            return None
        path = fabric.config_for(self.rank, dst)
        if not path.ordered:
            return None
        peer = self._origin_peer(dst)
        if peer.broken or peer.last_atomic_seq or peer.last_deferred_seq:
            return None
        if attrs.remote_completion:
            # With a clean window (no atomic seq) on an ordered path to
            # a coherent target, _pick_remote_mode would choose exactly
            # this; "sw" acks need the target engine to run per-op.
            if not path.remote_completion_events:
                return None
            mode = "hw"
        else:
            mode = "flush"

        cfg = self.network
        mtu = cfg.mtu
        if nbytes > mtu:
            # Rendezvous transfers ride as zero-copy views pinned until
            # delivery; the train applies them after the caller may have
            # reused the buffer, so snapshot the payload at issue.
            wire = wire.copy()
        seq = peer.alloc_seq()
        op_key = (self.rank, next(self._op_counter))
        swap = self.mem.space.endianness != tmem.endianness
        if kind == "put" and not swap and target_dtype.is_contiguous:
            # Lazy element: one dense run — fragment sizes are pure
            # arithmetic and application is a single NIC deposit of the
            # whole wire, so no Fragment objects are ever built.
            frags = None
            skey = (target_dtype, target_count)
            sizes = self._train_sizes_cache.get(skey)
            if sizes is None:
                elem = target_dtype.segments[0].elem_size
                full = mtu - (mtu % elem) if elem > 1 else mtu
                nfull, rem = divmod(nbytes, full)
                sizes = (full,) * nfull + ((rem,) if rem else ())
                self._train_sizes_cache[skey] = sizes
            acc_args = None
            sig = ("contig", tmem.mem_id, target_disp, nbytes)
        else:
            frags = fragment_layout(target_dtype, target_count, wire, mtu)
            sizes = tuple(len(f.data) for f in frags)
            if kind == "put":
                acc_args = None
                sig = ("frags", tmem.mem_id, target_disp,
                       tuple(f.subsegs for f in frags))
            else:
                acc_args = (extra["np_elem"], extra["acc_op"],
                            extra["acc_scale"])
                sig = None
        nfrags = len(sizes)
        ser = self._train_ser_cache.get(sizes)
        if ser is None:
            gap, bt = cfg.gap, cfg.byte_time
            ser = self._train_ser_cache[sizes] = [
                max(gap, (HEADER_SIZE + s) * bt) for s in sizes
            ]
        now = sim.now
        start = now if now > nic._reserved_until else nic._reserved_until
        key = (self.rank, dst)
        prev = fabric._last_delivery.get(key, -1.0)
        latency = path.latency
        inject_value = None
        arrivals = None
        if nfrags == 1:
            # Scalar algebra: exactly Nic.send's idle path + transmit.
            inject_end = start + ser[0]
            arrival = inject_end + latency
            if arrival <= prev:
                arrival = prev + 1e-9
        elif nfrags <= 32:
            # Short trains: a plain running-sum loop beats numpy's fixed
            # per-call overhead, and is trivially bit-exact (it IS the
            # send_burst / transmit_burst float sequence).
            t = start
            a = prev
            inject_value = []
            arrivals = []
            for s in ser:
                t += s
                inject_value.append(t)
                r = t + latency
                if r <= a:
                    r = a + 1e-9
                a = r
                arrivals.append(r)
            inject_end = t
            arrival = a
        else:
            # Long ops: vectorized algebra.  Bit-exactness: the burst
            # path computes a running sum ``t = start; t += ser_i`` —
            # seeding the cumsum with start makes every partial sum
            # round in the same order.
            arr = np.empty(nfrags + 1, dtype=np.float64)
            arr[0] = start
            arr[1:] = ser
            injects = np.cumsum(arr)[1:]
            inject_end = float(injects[-1])
            raw = injects + latency
            if cfg.gap > 0.0 and raw[0] > prev:
                # gap > 0 makes injections (hence raw arrivals) strictly
                # increasing, and the first clears the FIFO clamp — so
                # no element needs the +1e-9 nudge.
                arrivals = raw.tolist()
            else:
                arrivals = raw.tolist()
                p = prev
                for i, r in enumerate(arrivals):
                    if r <= p:
                        r = p + 1e-9
                        arrivals[i] = r
                    p = r
            arrival = arrivals[-1]
            inject_value = injects.tolist()
        if self.conformance_mutations \
                and "train_mistime" in self.conformance_mutations \
                and dst not in self._train_mistimed:
            # Planted batch-path bug: shift every timestamp of the first
            # train op per destination.  Reservation and FIFO bookkeeping
            # shift too, so nothing hangs — the run simply diverges.
            self._train_mistimed.add(dst)
            shift = 1e-3
            inject_end += shift
            arrival += shift
            if arrivals is not None:
                arrivals = [a + shift for a in arrivals]
            if inject_value is not None:
                inject_value = [v + shift for v in inject_value]
        apply_time = arrival
        nic._reserved_until = inject_end
        fabric._last_delivery[key] = arrival
        nic.packets_sent += nfrags
        nic.bytes_sent += nbytes + HEADER_SIZE * nfrags
        ev_local = DeferredEvent(
            sim, inject_end,
            inject_end if inject_value is None else inject_value,
        )
        if mode == "hw":
            rev = fabric.config_for(dst, self.rank)
            ack_flight = rev.latency + ACK_SIZE * rev.byte_time
            if nfrags == 1:
                ack_due = ack_value = arrival + ack_flight
            else:
                ack_value = [a + ack_flight for a in arrivals]
                ack_due = ack_value[-1]
            fabric.acks_generated += nfrags
            ev_remote: Optional[Event] = DeferredEvent(sim, ack_due, ack_value)
        else:
            ev_remote = None

        train = self._active_trains.get(dst)
        if train is None or train.done:
            train = OpTrain(sim, self.rank, dst)
            self._active_trains[dst] = train
            fabric.register_train(dst, train)
        train.append(TrainElement(
            seq, op_key, kind, tmem.mem_id, target_disp, swap, frags, wire,
            nfrags, apply_time, acc_args, sig, nbytes + HEADER_SIZE * nfrags,
        ))
        rec = OpRecord(op_key, dst, seq, kind, mode, ev_local, ev_remote,
                       nbytes, attrs)
        peer.outstanding.append(rec)
        self.stats["train_ops"] += 1
        self.stats["train_bytes"] += nbytes
        return rec

    # ------------------------------------------------------------------
    # Shared-memory windows (intra-node load/store fast path)
    # ------------------------------------------------------------------
    def _shared_target(self, tmem: TargetMem, dst: int,
                       attrs: Optional[RmaAttrs]) -> Optional["RmaEngine"]:
        """The co-located target engine when this op may bypass the NIC,
        or ``None`` to take the normal remote path.

        Ranks on one node of a cache-coherent machine access a shared
        window by direct load/store: the op applies through the target's
        cache model with no packets, no transport and no serializer.
        Each condition is load-bearing:

        - the window was exposed shared (or :attr:`shared_default`
          force-enables the flavor for every exposure);
        - both nodes keep CPU caches coherent with remote writes — a
          non-coherent personality (NEC SX style) cannot observe a
          peer core's stores without the fence protocol the remote
          path already models, so the flavor self-disables;
        - the ranks are co-located per the machine's placement;
        - the op does not demand ordering behind previously *sequenced*
          remote traffic: a shared op applies instantly and owns no
          sequence number, so when the ordering attribute (or a
          standing ``rma_order`` barrier) covers earlier remote ops,
          fall back to the remote path whose barrier machinery provides
          the guarantee.
        """
        if not self.shared_enabled:
            return None
        if not (tmem.shared or self.shared_default):
            return None
        if not (tmem.coherent and self.mem.coherent):
            return None
        world = self.sim.context.get("world")
        if world is None:
            return None
        machine = self.machine
        if machine.node_of_rank(self.rank) != machine.node_of_rank(dst):
            return None
        if "shm_skip_fence" not in self.conformance_mutations:
            peer = self._origin_peers.get(dst)
            if peer is not None and peer.last_seq > 0:
                ordered = attrs.ordering if attrs is not None else False
                if ordered or peer.order_barrier:
                    return None
        return world.contexts[dst].rma.engine

    def _shared_fence(self, tgt: "RmaEngine") -> None:
        """Apply analytically-arrived op-train traffic at the co-located
        target before touching its memory directly.  A train element
        whose closed-form arrival has passed *is* already in the
        target's memory on the per-packet timeline; loading/storing
        around it would read the past.  The ``shm_skip_fence``
        conformance mutation plants exactly that bug."""
        if "shm_skip_fence" not in self.conformance_mutations:
            tgt.materialize_inbound()

    def _shared_write(self, kind, origin_alloc, origin_offset, origin_count,
                      origin_dtype, tmem, target_disp, target_count,
                      target_dtype, attrs, extra, nbytes, tgt):
        """Apply a put/accumulate to a co-located shared window.

        Pure CPU work: one packing/copy charge (plus the accumulate
        ALU charge), then the bytes land through the target's cache
        model via the same fragment-application helpers the remote
        path uses.  Returns an already-completed :class:`OpRecord`
        that is *not* appended to ``peer.outstanding`` — the op never
        owns a sequence number, so completion calls have nothing to
        wait for and flush watermarks are untouched.
        """
        from repro.datatypes.pack import pack

        issued = self.sim.now
        cost = (self.timings.call_overhead
                + nbytes * self.timings.mem_copy_per_byte)
        if not origin_dtype.is_contiguous:
            cost += nbytes * self.timings.mem_copy_per_byte
        if kind == "acc":
            cost += nbytes * self.timings.accumulate_per_byte
        yield self.sim.timeout(cost)
        ev = Event(self.sim).succeed()
        rec = OpRecord((self.rank, 0), tmem.rank, 0, kind, "hw", ev, ev,
                       nbytes, attrs)
        if nbytes == 0:
            return rec
        wire = pack(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count, copy=False,
        )
        self._shared_fence(tgt)
        alloc = tgt._resolve(tmem.mem_id)
        swap = self.mem.space.endianness != tmem.endianness
        if kind == "put" and not swap and target_dtype.is_contiguous:
            tgt.mem.nic_write(alloc, target_disp, wire)
        else:
            for frag in fragment_layout(target_dtype, target_count, wire,
                                        nbytes):
                if kind == "put":
                    apply_put_fragment(tgt.mem, alloc, target_disp, frag,
                                       swap)
                else:
                    apply_accumulate(
                        tgt.mem, alloc, target_disp, frag, swap,
                        extra["np_elem"], extra["acc_op"],
                        extra["acc_scale"], tgt.mem.space.np_byteorder,
                    )
        self.stats["shm_ops"] += 1
        self.stats["shm_bytes"] += nbytes
        if attrs is not None and attrs.notify is not None:
            # Direct store: application just happened, so delivering the
            # notification now is trivially "after apply".  Shared ops
            # own no op_key (they cannot be retransmitted), so no dedup
            # entry is needed.
            tgt._deliver_notify(self.rank, tmem.mem_id, attrs.notify,
                                issued=issued)
        if self.tracer is not None and self.tracer.enabled:
            if nbytes <= 16:
                self.tracer.record(
                    self.sim.now, "consistency", "write", rank=self.rank,
                    location=(tmem.rank, tmem.mem_id, target_disp),
                    value=tuple(wire.tolist()),
                )
            self.tracer.record(self.sim.now, "rma", f"{kind}_shm",
                               rank=self.rank, dst=tmem.rank, bytes=nbytes)
        return rec

    def _shared_get(self, origin_alloc, origin_offset, origin_count,
                    origin_dtype, tmem, target_disp, target_count,
                    target_dtype, nbytes, tgt):
        """Read a co-located shared window by direct load."""
        from repro.datatypes.pack import unpack, unpack_swapped

        yield self.sim.timeout(
            self.timings.call_overhead
            + nbytes * self.timings.mem_copy_per_byte
        )
        ev = Event(self.sim).succeed()
        if nbytes == 0:
            return ev
        self._shared_fence(tgt)
        alloc = tgt._resolve(tmem.mem_id)
        data = read_layout(tgt.mem, alloc, target_disp, target_dtype,
                           target_count)
        buf = self.mem.space.buffer(origin_alloc)
        if self.mem.space.endianness != tmem.endianness:
            unpack_swapped(data, buf, origin_offset, origin_dtype,
                           origin_count, scratch=self._scratch(data.size))
        else:
            unpack(data, buf, origin_offset, origin_dtype, origin_count)
        self.stats["shm_ops"] += 1
        self.stats["shm_bytes"] += nbytes
        if self.tracer is not None and self.tracer.enabled:
            if nbytes <= 16:
                self.tracer.record(
                    self.sim.now, "consistency", "read", rank=self.rank,
                    location=(tmem.rank, tmem.mem_id, target_disp),
                    value=tuple(data.tolist()),
                )
            self.tracer.record(self.sim.now, "rma", "get_shm",
                               rank=self.rank, dst=tmem.rank, bytes=nbytes)
        return ev

    def _shared_getacc(self, origin_alloc, origin_offset, origin_count,
                       origin_dtype, tmem, target_disp, target_count,
                       target_dtype, op, scale, nbytes, tgt):
        """Fetch-and-op on a co-located shared window.  Application at
        a single simulated instant is trivially atomic — no serializer
        round trip, exactly the shared-memory-window win the MPI-3
        discussions promised for on-node neighbors."""
        from repro.datatypes.pack import pack, unpack, unpack_swapped

        yield self.sim.timeout(
            self.timings.call_overhead
            + nbytes * (self.timings.mem_copy_per_byte
                        + self.timings.accumulate_per_byte)
        )
        ev = Event(self.sim).succeed()
        if nbytes == 0:
            return ev
        wire = pack(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count, copy=False,
        )
        self._shared_fence(tgt)
        alloc = tgt._resolve(tmem.mem_id)
        old = read_layout(tgt.mem, alloc, target_disp, target_dtype,
                          target_count)
        swap = self.mem.space.endianness != tmem.endianness
        for frag in fragment_layout(target_dtype, target_count, wire, nbytes):
            apply_accumulate(tgt.mem, alloc, target_disp, frag, swap,
                             target_dtype.elem_np, op, scale,
                             tgt.mem.space.np_byteorder)
        buf = self.mem.space.buffer(origin_alloc)
        if swap:
            unpack_swapped(old, buf, origin_offset, origin_dtype,
                           origin_count, scratch=self._scratch(old.size))
        else:
            unpack(old, buf, origin_offset, origin_dtype, origin_count)
        self.stats["shm_ops"] += 1
        self.stats["shm_bytes"] += nbytes
        if self.tracer is not None and self.tracer.enabled:
            if nbytes <= 16:
                self.tracer.record(
                    self.sim.now, "consistency", "read", rank=self.rank,
                    location=(tmem.rank, tmem.mem_id, target_disp),
                    value=tuple(old.tolist()),
                )
            self.tracer.record(self.sim.now, "rma", "getacc_shm",
                               rank=self.rank, dst=tmem.rank, bytes=nbytes)
        return ev

    def _shared_rmw(self, tmem, target_disp, np_elem, op, operand, compare,
                    tgt):
        """CAS / fetch-add / swap on a co-located shared window: a CPU
        atomic instruction on shared memory, one lock-op charge."""
        yield self.sim.timeout(
            self.timings.call_overhead + self.timings.lock_op
        )
        self._shared_fence(tgt)
        alloc = tgt._resolve(tmem.mem_id)
        np_dt = np.dtype(np_elem).newbyteorder(tgt.mem.space.np_byteorder)
        disp = target_disp
        raw = tgt.mem.nic_read(alloc, disp, np_dt.itemsize)
        old = raw.view(np_dt)[0]
        if op == "fetch_add":
            new = old + np_dt.type(operand)
        elif op == "swap":
            new = np_dt.type(operand)
        else:  # cas — op validated at issue
            new = (np_dt.type(operand)
                   if old == np_dt.type(compare) else old)
        tgt.mem.nic_write(alloc, disp,
                          np.array([new], dtype=np_dt).view(np.uint8))
        self.stats["shm_ops"] += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "rmw_shm",
                               rank=self.rank, dst=tmem.rank,
                               bytes=np_dt.itemsize)
        return Event(self.sim).succeed(old.item())

    def _issue_write(
        self, kind, origin_alloc, origin_offset, origin_count, origin_dtype,
        tmem, target_disp, target_count, target_dtype, attrs, extra,
    ):
        from repro.datatypes.pack import pack

        dst = tmem.rank
        nbytes = self._validate_pair(
            origin_count, origin_dtype, tmem, target_disp, target_count,
            target_dtype,
        )
        if attrs.notify is not None:
            self._check_notify_attr(attrs, kind, nbytes)
        if self._path_broken(dst):
            # Fail fast — before any lock acquisition (a dead target
            # would never grant it) and before burning wire time.  The
            # errored record is still retained on the peer: a put may be
            # fire-and-forget, and the sync-reports-everything contract
            # means the next completion call must surface this failure
            # (otherwise survivors would enter a doomed closing barrier
            # believing the epoch was clean).
            ev = Event(self.sim).succeed(self._path_error(dst, kind, attrs))
            rec = OpRecord((self.rank, 0), dst, 0, kind, "hw", ev, ev, 0,
                           attrs)
            peer = self._origin_peer(dst)
            peer.broken = True
            peer.outstanding.append(rec)
            return rec
        tgt = self._shared_target(tmem, dst, attrs)
        if tgt is not None:
            return (yield from self._shared_write(
                kind, origin_alloc, origin_offset, origin_count,
                origin_dtype, tmem, target_disp, target_count, target_dtype,
                attrs, extra, nbytes, tgt,
            ))
        pack_cost = (
            0.0
            if origin_dtype.is_contiguous
            else nbytes * self.timings.mem_copy_per_byte
        )
        yield self.sim.timeout(
            self.timings.call_overhead + self.network.overhead_send + pack_cost
        )
        # Eager/rendezvous split: single-fragment transfers are copied at
        # issue (buffer free at local completion); larger contiguous ones
        # ride as a zero-copy view, pinned until remote delivery — the
        # same contract real RDMA rendezvous protocols impose.
        wire = pack(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count, copy=nbytes <= self.network.mtu,
        )
        if nbytes == 0:
            ev = Event(self.sim).succeed()
            return OpRecord((self.rank, 0), dst, 0, kind, "hw", ev, ev, 0)

        via_queue, via_lock = self._atomic_routing(attrs)
        if not via_queue and not via_lock:
            train_rec = self._try_issue_train(
                kind, dst, tmem, target_disp, target_dtype, target_count,
                wire, nbytes, attrs, extra,
            )
            if train_rec is not None:
                return train_rec
        if via_lock:
            yield from self.serializer.origin_acquire(dst)

        peer = self._origin_peer(dst)
        seq = peer.alloc_seq()
        barrier = seq - 1 if attrs.ordering else peer.order_barrier
        if self.conformance_mutations and \
                "drop_order_barrier" in self.conformance_mutations:
            barrier = 0
        mode = self._pick_remote_mode(attrs, tmem, barrier, via_queue,
                                      via_lock, peer)
        if via_queue or via_lock:
            peer.last_atomic_seq = seq
        op_key = (self.rank, next(self._op_counter))

        frags = fragment_layout(target_dtype, target_count, wire, self.network.mtu)
        desc = {
            "op_key": op_key,
            "src": self.rank,
            "seq": seq,
            "barrier": barrier,
            "kind": kind,
            "mem_id": tmem.mem_id,
            "base_disp": target_disp,
            "nfrags": len(frags),
            "atomic_queue": via_queue,
            "ack": mode,
            "swap": self.mem.space.endianness != tmem.endianness,
            "coherent": tmem.coherent,
            "total_bytes": nbytes,
        }
        desc.update(extra)
        if attrs.notify is not None:
            # Only notify-carrying ops grow these keys: notify-free
            # descriptors (and thus traces) stay byte-identical to a
            # build without the subsystem.
            desc["notify"] = attrs.notify
            desc["notify_ts"] = self.sim.now

        want_ack = mode == "hw"
        packets = [
            Packet(
                src=self.rank, dst=dst, kind="rma.frag",
                payload={"desc": desc, "frag": frag},
                data_bytes=len(frag.data),
                want_ack=want_ack,
            )
            for frag in frags
        ]
        self.nic.send_burst(packets)
        inject_evs = [pkt.ev_injected for pkt in packets]
        hw_evs = [pkt.ev_remote_complete for pkt in packets] if want_ack else []

        ev_local = inject_evs[0] if len(inject_evs) == 1 else AllOf(self.sim, inject_evs)
        if mode == "hw":
            ev_remote: Optional[Event] = (
                hw_evs[0] if len(hw_evs) == 1 else AllOf(self.sim, hw_evs)
            )
        elif mode == "sw":
            ev_remote = self.sim.event()
            self._sw_ack_waiters[op_key] = (dst, ev_remote)
        else:
            ev_remote = None

        rec = OpRecord(op_key, dst, seq, kind, mode, ev_local, ev_remote,
                       nbytes, attrs)
        peer.outstanding.append(rec)

        if self.tracer is not None and self.tracer.enabled and nbytes <= 16:
            # consistency-litmus support: small writes are recorded with
            # their value so checkers can rebuild reads-from relations
            self.tracer.record(
                self.sim.now, "consistency", "write", rank=self.rank,
                location=(dst, tmem.mem_id, target_disp),
                value=tuple(wire.tolist()),
            )
        if via_lock:
            self.sim.spawn(self._release_lock_after(dst, rec),
                           name=f"lockrel-{self.rank}")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", f"{kind}_issue",
                               rank=self.rank, dst=dst, seq=seq,
                               bytes=nbytes, attrs=str(attrs), op=op_key)
        return rec

    def _release_lock_after(self, dst: int, rec: OpRecord):
        assert rec.ev_remote is not None
        if not rec.ev_remote.triggered:
            yield rec.ev_remote
        yield from self.serializer.origin_release(dst)

    # ------------------------------------------------------------------
    # Get
    # ------------------------------------------------------------------
    def issue_get(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_dtype: Datatype,
        tmem: TargetMem,
        target_disp: int,
        target_count: int,
        target_dtype: Datatype,
        attrs: RmaAttrs,
    ):
        """Issue a get; returns the completion :class:`Event` whose value
        is ``None`` once data sits in the origin buffer."""
        dst = tmem.rank
        nbytes = self._validate_pair(
            origin_count, origin_dtype, tmem, target_disp, target_count,
            target_dtype,
        )
        # validate origin range before any waiting
        from repro.datatypes.pack import check_bounds

        check_bounds(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count,
        )
        if attrs.notify is not None:
            self._check_notify_attr(attrs, "get", nbytes)
        if self._path_broken(dst):
            return Event(self.sim).succeed(
                self._path_error(dst, "get", attrs)
            )
        tgt = self._shared_target(tmem, dst, attrs)
        if tgt is not None:
            issued = self.sim.now
            ev_done = yield from self._shared_get(
                origin_alloc, origin_offset, origin_count, origin_dtype,
                tmem, target_disp, target_count, target_dtype, nbytes, tgt,
            )
            if attrs.notify is not None:
                # For a get the "payload" is the read itself: it was
                # just served from the target's memory, so the target's
                # board learns of it now.
                tgt._deliver_notify(self.rank, tmem.mem_id, attrs.notify,
                                    issued=issued)
            self.stats["gets"] += 1
            self.stats["bytes_got"] += nbytes
            return ev_done
        yield self.sim.timeout(
            self.timings.call_overhead + self.network.overhead_send
        )
        ev_done = self.sim.event()
        if nbytes == 0:
            ev_done.succeed()
            return ev_done

        via_queue, via_lock = self._atomic_routing(attrs)
        if via_lock:
            yield from self.serializer.origin_acquire(dst)
        peer = self._origin_peer(dst)
        seq = peer.alloc_seq()
        barrier = seq - 1 if attrs.ordering else peer.order_barrier
        if self.conformance_mutations and \
                "drop_order_barrier" in self.conformance_mutations:
            barrier = 0
        if via_queue:
            # Atomic-queue gets are served by a serializer job after
            # delivery: application is deferred, the train must wait.
            peer.last_deferred_seq = seq
        op_key = (self.rank, next(self._op_counter))
        pend = _PendingGet(
            nbytes, origin_alloc, origin_offset, origin_dtype, origin_count,
            swap=self.mem.space.endianness != tmem.endianness,
            location=(dst, tmem.mem_id, target_disp),
        )
        pend.ev_done = ev_done
        self._pending_gets[op_key] = pend
        get_desc = {
            "op_key": op_key, "src": self.rank, "seq": seq,
            "barrier": barrier, "kind": "get", "mem_id": tmem.mem_id,
            "base_disp": target_disp, "count": target_count,
            "dtype": target_dtype, "atomic_queue": via_queue,
            "total_bytes": nbytes,
        }
        if attrs.notify is not None:
            get_desc["notify"] = attrs.notify
            get_desc["notify_ts"] = self.sim.now
        self.send_control(dst, "rma.get_req", get_desc)
        if via_lock:
            self.sim.spawn(self._release_lock_after_event(dst, ev_done),
                           name=f"lockrel-{self.rank}")
        self.stats["gets"] += 1
        self.stats["bytes_got"] += nbytes
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "get_issue",
                               rank=self.rank, dst=dst, seq=seq, bytes=nbytes,
                               op=op_key)
        return ev_done

    def _release_lock_after_event(self, dst: int, ev: Event):
        if not ev.triggered:
            yield ev
        yield from self.serializer.origin_release(dst)

    # ------------------------------------------------------------------
    # Get-accumulate: atomic fetch-and-op on a whole section — the
    # natural generalization of §V's RMW discussion (and what MPI-3
    # eventually standardized as MPI_Get_accumulate).
    # ------------------------------------------------------------------
    def issue_get_accumulate(
        self,
        origin_alloc: Allocation,
        origin_offset: int,
        origin_count: int,
        origin_dtype: Datatype,
        tmem: TargetMem,
        target_disp: int,
        target_count: int,
        target_dtype: Datatype,
        op: str = "sum",
        scale: float = 1.0,
    ):
        """Atomically fetch the target section and apply ``op`` to it;
        the *old* contents land in the origin buffer.  Returns the
        completion event (``yield from``).

        Always atomic: routed through the serializer (or the process
        lock).  ``op="replace"`` gives a section-sized swap;
        ``origin_count == 0`` with ``op="sum"``/scale 0 degenerates to
        an atomic get.
        """
        from repro.datatypes.pack import check_bounds, pack

        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}; choose from {ACC_OPS}")
        if target_dtype.elem_np is None:
            raise RmaError(
                "get_accumulate requires a datatype with a uniform element type"
            )
        nbytes = self._validate_pair(
            origin_count, origin_dtype, tmem, target_disp, target_count,
            target_dtype,
        )
        check_bounds(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count,
        )
        dst = tmem.rank
        if self._path_broken(dst):
            return Event(self.sim).succeed(
                self._path_error(dst, "getacc")
            )
        tgt = self._shared_target(tmem, dst, None)
        if tgt is not None:
            ev_done = yield from self._shared_getacc(
                origin_alloc, origin_offset, origin_count, origin_dtype,
                tmem, target_disp, target_count, target_dtype, op, scale,
                nbytes, tgt,
            )
            self.stats["accumulates"] += 1
            self.stats["gets"] += 1
            return ev_done
        yield self.sim.timeout(
            self.timings.call_overhead + self.network.overhead_send
        )
        ev_done = self.sim.event()
        if nbytes == 0:
            ev_done.succeed()
            return ev_done
        wire = pack(
            self.mem.space.buffer(origin_alloc), origin_offset, origin_dtype,
            origin_count, copy=nbytes <= self.network.mtu,
        )
        via_lock = self.serializer.kind == "lock"
        if via_lock:
            yield from self.serializer.origin_acquire(dst)
        peer = self._origin_peer(dst)
        seq = peer.alloc_seq()
        peer.last_atomic_seq = seq
        op_key = (self.rank, next(self._op_counter))
        pend = _PendingGet(
            nbytes, origin_alloc, origin_offset, origin_dtype, origin_count,
            swap=self.mem.space.endianness != tmem.endianness,
            location=(dst, tmem.mem_id, target_disp),
        )
        pend.ev_done = ev_done
        self._pending_gets[op_key] = pend
        frags = fragment_layout(target_dtype, target_count, wire,
                                self.network.mtu)
        desc = {
            "op_key": op_key, "src": self.rank, "seq": seq,
            "barrier": peer.order_barrier, "kind": "getacc",
            "mem_id": tmem.mem_id, "base_disp": target_disp,
            "nfrags": len(frags), "atomic_queue": not via_lock,
            "ack": "none", "swap": pend.swap, "coherent": tmem.coherent,
            "total_bytes": nbytes, "acc_op": op, "acc_scale": scale,
            "np_elem": target_dtype.elem_np,
            "reply_dtype": target_dtype, "reply_count": target_count,
        }
        self.nic.send_burst([
            Packet(
                src=self.rank, dst=dst, kind="rma.frag",
                payload={"desc": desc, "frag": frag},
                data_bytes=len(frag.data),
            )
            for frag in frags
        ])
        if via_lock:
            self.sim.spawn(self._release_lock_after_event(dst, ev_done),
                           name=f"lockrel-{self.rank}")
        self.stats["accumulates"] += 1
        self.stats["gets"] += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "getacc_issue",
                               rank=self.rank, dst=dst, seq=seq, bytes=nbytes,
                               op=op_key)
        return ev_done

    def _serve_getacc(self, peer: _TargetPeer, op: _InboundOp) -> None:
        """Read the old section, apply the update, reply with the old."""
        self.materialize_inbound()
        desc = op.desc
        alloc = self._resolve(desc["mem_id"])
        old = read_layout(self.mem, alloc, desc["base_disp"],
                          desc["reply_dtype"], desc["reply_count"])
        for frag in op.frags:
            apply_accumulate(
                self.mem, alloc, desc["base_disp"], frag, desc["swap"],
                desc["np_elem"], desc["acc_op"], desc["acc_scale"],
                self.mem.space.np_byteorder,
            )
        if not self.mem.coherent:
            self.mem.cache.invalidate_range(
                alloc, desc["base_disp"], desc["total_bytes"]
            )
        self._op_applied(peer, op)
        self._send_get_reply(desc["src"], desc["op_key"], old)

    # ------------------------------------------------------------------
    # RMW (paper §V: conditional and unconditional read-modify-write)
    # ------------------------------------------------------------------
    def issue_rmw(
        self,
        tmem: TargetMem,
        target_disp: int,
        np_elem: str,
        op: str,
        operand,
        compare=None,
        attrs: Optional[RmaAttrs] = None,
    ):
        """Issue a CAS / fetch-and-add / swap; returns the completion
        event whose value is the *old* target value."""
        if op not in RMW_OPS:
            raise RmaError(f"unknown RMW op {op!r}; choose from {RMW_OPS}")
        if op == "cas" and compare is None:
            raise RmaError("cas requires a compare value")
        if attrs is not None and attrs.notify is not None:
            raise RmaError(
                "rmw cannot carry a notification (DESIGN §15: notify is "
                "defined for put/get/accumulate; an RMW already returns "
                "its old value to the origin)",
                op="rmw", src=self.rank, target=tmem.rank, attrs=attrs,
            )
        elem_size = np.dtype(np_elem).itemsize
        tmem.check_access(target_disp, 0, elem_size)
        dst = tmem.rank
        if self._path_broken(dst):
            return Event(self.sim).succeed(
                self._path_error(dst, "rmw", attrs)
            )
        tgt = self._shared_target(tmem, dst, attrs)
        if tgt is not None:
            ev = yield from self._shared_rmw(
                tmem, target_disp, np_elem, op, operand, compare, tgt,
            )
            self.stats["rmws"] += 1
            return ev
        yield self.sim.timeout(
            self.timings.call_overhead + self.network.overhead_send
        )
        # RMWs are atomic by definition.  Hardware atomics serve when the
        # fabric has them; otherwise the op routes through the serializer.
        use_hw = self.network.small_atomics and elem_size <= 8
        via_lock = (not use_hw) and self.serializer.kind == "lock"
        if via_lock:
            yield from self.serializer.origin_acquire(dst)
        peer = self._origin_peer(dst)
        seq = peer.alloc_seq()
        if not use_hw and not via_lock:
            # Serializer-routed RMW: applied by a queued job after
            # delivery, so later train ops cannot assume delivery order
            # equals application order.
            peer.last_deferred_seq = seq
        barrier = peer.order_barrier
        op_key = (self.rank, next(self._op_counter))
        ev = self.sim.event()
        self._pending_replies[op_key] = (dst, "rmw", ev)
        self.send_control(
            dst, "rma.rmw_req",
            {
                "op_key": op_key, "src": self.rank, "seq": seq,
                "barrier": barrier, "kind": "rmw", "mem_id": tmem.mem_id,
                "base_disp": target_disp, "np_elem": np_elem, "op": op,
                "operand": operand, "compare": compare,
                "atomic_queue": not use_hw and not via_lock,
                "endianness": tmem.endianness,
            },
            data_bytes=elem_size,
        )
        if via_lock:
            self.sim.spawn(self._release_lock_after_event(dst, ev),
                           name=f"lockrel-{self.rank}")
        self.stats["rmws"] += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "rmw_issue",
                               rank=self.rank, dst=dst, seq=seq,
                               bytes=elem_size, op=op_key)
        return ev

    # ------------------------------------------------------------------
    # RMI (the xfer optype expansion discussed in §IV)
    # ------------------------------------------------------------------
    def issue_rmi(self, dst: int, name: str, args: tuple, attrs: RmaAttrs):
        """Invoke a registered remote method; completion value is the
        handler's return value."""
        if not (self.network.active_messages or self.machine.threads_allowed):
            raise RmaError(
                "RMI requires active messages or a communication thread "
                "(paper §V: not trivial on all architectures)"
            )
        if attrs.notify is not None:
            raise RmaError(
                "rmi cannot carry a notification (DESIGN §15: notify is "
                "defined for put/get/accumulate; a handler signals its "
                "own completion through its reply)",
                op="rmi", src=self.rank, target=dst, attrs=attrs,
            )
        if self._path_broken(dst):
            return Event(self.sim).succeed(
                self._path_error(dst, "rmi", attrs)
            )
        yield self.sim.timeout(
            self.timings.call_overhead + self.network.overhead_send
        )
        peer = self._origin_peer(dst)
        seq = peer.alloc_seq()
        # RMI handlers run from a spawned process (or serializer job)
        # after delivery — always deferred application.
        peer.last_deferred_seq = seq
        barrier = seq - 1 if attrs.ordering else peer.order_barrier
        op_key = (self.rank, next(self._op_counter))
        ev = self.sim.event()
        self._pending_replies[op_key] = (dst, "rmi", ev)
        from repro.mpi.endpoint import payload_nbytes

        self.send_control(
            dst, "rma.rmi_req",
            {
                "op_key": op_key, "src": self.rank, "seq": seq,
                "barrier": barrier, "kind": "rmi", "name": name,
                "args": args,
            },
            data_bytes=payload_nbytes(args),
        )
        self.stats["rmis"] += 1
        return ev

    # ------------------------------------------------------------------
    # Completion and ordering (MPI_RMA_complete / MPI_RMA_order)
    # ------------------------------------------------------------------
    def complete_one(self, dst: int):
        """Wait for remote completion of all prior ops to ``dst``.
        Returns the list of :class:`RmaError` failures (empty normally)."""
        yield self.sim.timeout(self.timings.call_overhead)
        errs = yield from self._complete_peer(dst)
        self.stats["completes"] += 1
        return errs

    def complete_all(self):
        """Remote-complete every target with outstanding traffic
        (``MPI_ALL_RANKS``).  Returns the list of failures."""
        yield self.sim.timeout(self.timings.call_overhead)
        events = []
        for dst in sorted(self._origin_peers):
            events.extend(self._completion_events(dst))
        if events:
            yield AllOf(self.sim, events)
        # Completion is an observation point for this rank's own memory
        # (the caller will read local buffers next): apply any arrived
        # inbound train elements — notably self-directed puts, which on
        # an all-analytic run have no packet delivery to trigger them.
        self.materialize_inbound()
        self.stats["completes"] += 1
        return _collect_errors(events)

    def _complete_peer(self, dst: int):
        events = self._completion_events(dst)
        if len(events) == 1:
            yield events[0]
        elif events:
            yield AllOf(self.sim, events)
        self.materialize_inbound()
        return _collect_errors(events)

    def _completion_events(self, dst: int) -> List[Event]:
        peer = self._origin_peers.get(dst)
        if peer is None or not peer.outstanding:
            return []
        events: List[Event] = []
        if peer.broken:
            # No flush round trip on a broken path: every record resolves
            # to an error immediately (ops with per-op events were already
            # failed by _on_path_failure; flush-mode ones get one here).
            for rec in peer.outstanding:
                ev = rec.ev_remote
                if ev is None:
                    ev = Event(self.sim).succeed(self._op_error(rec))
                events.append(ev)
            peer.completing, peer.outstanding = peer.outstanding, []
            return events
        flush_watermark = 0
        deferred: List[DeferredEvent] = []
        for rec in peer.outstanding:
            ev = rec.ev_remote
            if ev is not None:
                events.append(ev)
                if (type(ev) is DeferredEvent and not ev._armed
                        and not ev.triggered):
                    deferred.append(ev)
            else:
                flush_watermark = max(flush_watermark, rec.seq)
        if deferred:
            # Retire the whole group of analytic hw-ack events with one
            # heap entry at the latest due time.  Each event still
            # auto-fires at its own due when polled (DeferredEvent), so
            # no observable timestamp moves — only the timer count does.
            due = max(ev.due for ev in deferred)
            for ev in deferred:
                ev.mark_armed()
            self.sim.schedule_bulk_succeed_at(
                due, deferred,
                [ev._deferred_value for ev in deferred],
            )
        if flush_watermark:
            flush_id = self._next_flush_id
            self._next_flush_id += 1
            ev = self.sim.event()
            self._flush_waiters[flush_id] = (dst, ev)
            self.send_control(
                dst, "rma.flush_req",
                {"watermark": flush_watermark, "flush_id": flush_id,
                 "src": self.rank},
            )
            events.append(ev)
        peer.completing, peer.outstanding = peer.outstanding, []
        return events

    def order_one(self, dst: int) -> None:
        """Order subsequent ops to ``dst`` after all prior ones — a pure
        origin-side barrier annotation, no network traffic (the paper's
        "weaker form of synchronization")."""
        peer = self._origin_peer(dst)
        peer.order_barrier = peer.last_seq
        self.stats["orders"] += 1

    def order_all(self) -> None:
        for peer in self._origin_peers.values():
            peer.order_barrier = peer.last_seq
        self.stats["orders"] += 1

    # ------------------------------------------------------------------
    # Notification board (DESIGN §15): notified put/get/accumulate
    # ------------------------------------------------------------------
    def _check_notify_attr(self, attrs: RmaAttrs, kind: str,
                           nbytes: int) -> None:
        """Eligibility rules for a notify-carrying op (DESIGN §15).

        A notification only means something once a payload has been
        applied, so a zero-byte op cannot carry one; rmw/rmi decline at
        their own issue paths.  The match value must be a non-negative
        integer (it keys the target's board alongside the window id).
        """
        m = attrs.notify
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise RmaError(
                f"notify match value must be an int >= 0, got {m!r}",
                op=kind, src=self.rank, attrs=attrs,
            )
        if nbytes == 0:
            raise RmaError(
                f"a zero-byte {kind} cannot carry a notification "
                "(nothing is ever applied at the target; use a 1-byte "
                "payload for a pure signal)",
                op=kind, src=self.rank, attrs=attrs,
            )

    def _notify_slot_key(self, tmem: TargetMem, match: int) -> Tuple[int, int]:
        """Validate a local wait/test/notify_all call and return the
        board key.  Notifications are *target-side* state: only the
        window owner may wait on its own board."""
        if tmem.rank != self.rank:
            raise RmaError(
                f"rank {self.rank} cannot wait on rank {tmem.rank}'s "
                "notification board (notifications surface at the target)"
            )
        if tmem.mem_id not in self._exposures:
            raise RmaError(
                f"rank {self.rank}: notification wait on unknown/"
                f"withdrawn target_mem id {tmem.mem_id}"
            )
        if not isinstance(match, int) or isinstance(match, bool) or match < 0:
            raise RmaError(
                f"notify match value must be an int >= 0, got {match!r}"
            )
        return (tmem.mem_id, match)

    def _notify_available(self, key: Tuple[int, int]) -> int:
        return (self._notify_counts.get(key, 0)
                - self._notify_consumed.get(key, 0))

    def _deliver_notify(self, src: int, mem_id: int, match: int,
                        op_key=None, issued=None) -> None:
        """Count one notification on the board and wake FIFO waiters.

        ``op_key`` (when the op has one) makes delivery idempotent: a
        second delivery attempt for the same op is a no-op.  ``issued``
        is the origin-side issue timestamp carried in the descriptor;
        the difference to now is the end-to-end notify latency.
        """
        if op_key is not None:
            if op_key in self._notify_seen:
                return
            self._notify_seen.add(op_key)
        key = (mem_id, match)
        self._notify_counts[key] = self._notify_counts.get(key, 0) + 1
        self.stats["notifies"] += 1
        if issued is not None:
            self.notify_latencies.append(self.sim.now - issued)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "notify",
                               rank=self.rank, src=src, match=match,
                               op=op_key)
        self._wake_notify_waiters(key)

    def _wake_notify_waiters(self, key: Tuple[int, int]) -> None:
        """Satisfy waiters on ``key`` strictly in arrival (FIFO) order;
        a waiter needing more notifications than are available blocks
        later waiters on the same slot (no overtaking — that is what
        makes wakeup order deterministic and fair)."""
        waiters = self._notify_waiters
        i = 0
        while i < len(waiters):
            w = waiters[i]
            if w.key != key:
                i += 1
                continue
            if self._notify_available(key) < w.need:
                break
            self._notify_consumed[key] = \
                self._notify_consumed.get(key, 0) + w.need
            waiters.pop(i)
            if not w.ev.triggered:
                w.ev.succeed(None)

    def notify_count(self, tmem: TargetMem, match: int) -> int:
        """Unconsumed notifications currently on the board slot."""
        return self._notify_available(self._notify_slot_key(tmem, match))

    def test_notify(self, tmem: TargetMem, match: int,
                    count: int = 1) -> bool:
        """Consume ``count`` notifications if available *and* no earlier
        waiter is parked on the slot (FIFO, same as delivery); returns
        whether it consumed."""
        key = self._notify_slot_key(tmem, match)
        if any(w.key == key for w in self._notify_waiters):
            return False
        if self._notify_available(key) < count:
            return False
        self._notify_consumed[key] = \
            self._notify_consumed.get(key, 0) + count
        return True

    def wait_notify(self, tmem: TargetMem, match: int, count: int = 1,
                    watch=()):
        """Generator: block until ``count`` notifications on
        ``(tmem, match)`` can be consumed.  Returns ``None`` on success
        or the :class:`RmaError` describing why the wait can never be
        satisfied (a watched producer rank died or its path broke) —
        failure surfaces as a structured value, never a hang.
        """
        yield self.sim.timeout(self.timings.call_overhead)
        key = self._notify_slot_key(tmem, match)
        self.stats["notify_waits"] += 1
        watch = frozenset(watch)
        if (self._notify_available(key) >= count
                and not any(w.key == key for w in self._notify_waiters)):
            self._notify_consumed[key] = \
                self._notify_consumed.get(key, 0) + count
            return None
        for r in watch:
            if self.nic.fabric.is_dead(r) or r in self._path_failures:
                return self._path_error(r, "wait_notify")
        ev = self.sim.event()
        self._notify_waiters.append(_NotifyWaiter(key, count, ev, watch))
        value = yield ev
        return value

    def notify_all(self, tmem: TargetMem, match: int) -> int:
        """Release every waiter currently parked on ``(tmem, match)``
        without consuming board counts — a local broadcast wakeup (used
        e.g. to shut down consumers).  Returns how many were released."""
        key = self._notify_slot_key(tmem, match)
        released = 0
        for w in [w for w in self._notify_waiters if w.key == key]:
            self._notify_waiters.remove(w)
            if not w.ev.triggered:
                w.ev.succeed(None)
            released += 1
        return released

    def fail_notify_waiters(self, rank: int, failure=None) -> None:
        """Sweep waiters watching ``rank`` into structured errors.

        Called when ``rank`` dies (:meth:`World._kill_rank`) or when the
        reliable transport declares the path to it broken: any
        ``wait_notify`` whose watch set names the lost producer succeeds
        with an :class:`RmaError` value instead of hanging forever.
        """
        stranded = [w for w in self._notify_waiters if rank in w.watch]
        for w in stranded:
            self._notify_waiters.remove(w)
            if not w.ev.triggered:
                w.ev.succeed(self._path_error(rank, "wait_notify",
                                              failure=failure))

    def notify_delivered(self) -> Dict[Tuple[int, int], int]:
        """Total notifications delivered per (mem_id, match) — the
        conformance runner's exactly-once observable."""
        return dict(self._notify_counts)

    # ------------------------------------------------------------------
    # Target side: fragments
    # ------------------------------------------------------------------
    def _on_frag(self, packet: Packet) -> None:
        desc = packet.payload["desc"]
        frag: Fragment = packet.payload["frag"]
        peer = self._target_peer(desc["src"])
        op = peer.inbound.get(desc["seq"])
        if op is None:
            op = _InboundOp(desc)
            peer.inbound[desc["seq"]] = op
            if not peer.barrier_ok(op.barrier):
                self.stats["gated_frags"] += 1
                peer.gated.append(op)
            else:
                op.gate_open = not desc["atomic_queue"]
            self._mutate_notify_early(desc)
        op.arrived += 1
        if desc["atomic_queue"] or desc["kind"] == "getacc":
            # getacc buffers even on the lock-serializer path: the old
            # contents must be read before any fragment applies
            op.frags.append(frag)
            if op.arrived == op.nfrags and peer.barrier_ok(op.barrier):
                self._stage_atomic(peer, op)
        elif op.gate_open:
            self._apply_write_frag(peer, op, frag)
        else:
            op.frags.append(frag)

    def _apply_write_frag(self, peer: _TargetPeer, op: _InboundOp,
                          frag: Fragment) -> None:
        desc = op.desc
        alloc = self._resolve(desc["mem_id"])
        if desc["kind"] == "put":
            apply_put_fragment(self.mem, alloc, desc["base_disp"], frag,
                               desc["swap"])
        else:
            apply_accumulate(
                self.mem, alloc, desc["base_disp"], frag, desc["swap"],
                desc["np_elem"], desc["acc_op"], desc["acc_scale"],
                self.mem.space.np_byteorder,
            )
        op.applied_frags += 1
        if op.applied_frags == op.nfrags:
            self._finish_write_op(peer, op)

    def _finish_write_op(self, peer: _TargetPeer, op: _InboundOp) -> None:
        if self.mem.coherent:
            self._op_applied(peer, op)
        else:
            # Non-coherent target: the target must be involved to make
            # the deposit visible (invalidate stale scalar-cache lines)
            # before the op may count as applied (paper §III-B2).
            self.sim.spawn(self._invalidate_then_apply(peer, op),
                           name=f"inval-{self.rank}")

    def _invalidate_then_apply(self, peer: _TargetPeer, op: _InboundOp):
        desc = op.desc
        yield self.sim.timeout(
            self.timings.am_handler + self.timings.cache_fence
        )
        alloc = self._resolve(desc["mem_id"])
        self.mem.cache.invalidate_range(
            alloc, desc["base_disp"], desc["total_bytes"]
        )
        self._op_applied(peer, op)

    def _stage_atomic(self, peer: _TargetPeer, op: _InboundOp) -> None:
        if op.staged:
            return
        op.staged = True
        desc = op.desc

        def job():
            nbytes = desc["total_bytes"]
            cost = nbytes * self.timings.mem_copy_per_byte
            if desc["kind"] in ("acc", "getacc"):
                cost += nbytes * self.timings.accumulate_per_byte
            yield self.sim.timeout(cost)
            if desc["kind"] == "getacc":
                self._serve_getacc(peer, op)
                return
            self.materialize_inbound()
            alloc = self._resolve(desc["mem_id"])
            for frag in op.frags:
                if desc["kind"] == "put":
                    apply_put_fragment(self.mem, alloc, desc["base_disp"],
                                       frag, desc["swap"])
                else:
                    apply_accumulate(
                        self.mem, alloc, desc["base_disp"], frag,
                        desc["swap"], desc["np_elem"], desc["acc_op"],
                        desc["acc_scale"], self.mem.space.np_byteorder,
                    )
            if not self.mem.coherent:
                yield self.sim.timeout(self.timings.cache_fence)
                self.mem.cache.invalidate_range(
                    alloc, desc["base_disp"], desc["total_bytes"]
                )
            self._op_applied(peer, op)

        self.serializer.submit_job(job)

    # ------------------------------------------------------------------
    # Target side: gets / rmw / rmi
    # ------------------------------------------------------------------
    def materialize_inbound(self) -> None:
        """Apply analytically-arrived train elements destined to this
        rank.  Packet deliveries materialize automatically, but target
        memory is also read/written from serializer-deferred jobs
        (atomic gets, getacc, locked rmw) and from local CPU loads —
        any such access must first apply whatever the per-op path would
        already have delivered by now."""
        fabric = self.nic.fabric
        if fabric is not None and fabric._pending_trains:
            fabric.materialize_trains(self.rank)

    def _mutate_notify_early(self, desc: Dict[str, Any]) -> None:
        """Planted conformance bug ``notify_before_apply``: deliver the
        notification at first-fragment *arrival* instead of at apply.
        Observable whenever arrival != application — ordering-gated ops
        on unordered fabrics, serializer-staged atomics — because a
        waiter woken early reads memory the payload has not reached yet.
        The op_key dedup entry then silences the correct delivery in
        :meth:`_op_applied`, so counts stay exactly-once (the bug is a
        pure reordering, which is what the oracle's visibility edge
        catches)."""
        if ("notify_before_apply" in self.conformance_mutations
                and desc.get("notify") is not None):
            self._deliver_notify(desc["src"], desc["mem_id"],
                                 desc["notify"], desc.get("op_key"),
                                 desc.get("notify_ts"))

    def _on_get_req(self, packet: Packet) -> None:
        desc = packet.payload
        peer = self._target_peer(desc["src"])
        op = _InboundOp(desc)
        op.nfrags = 1
        peer.inbound[op.seq] = op
        self._mutate_notify_early(desc)
        if not peer.barrier_ok(op.barrier):
            peer.gated.append(op)
            return
        self._serve(peer, op)

    def _on_rmw_req(self, packet: Packet) -> None:
        desc = packet.payload
        peer = self._target_peer(desc["src"])
        op = _InboundOp(desc)
        op.nfrags = 1
        peer.inbound[op.seq] = op
        if not peer.barrier_ok(op.barrier):
            peer.gated.append(op)
            return
        self._serve(peer, op)

    def _on_rmi_req(self, packet: Packet) -> None:
        desc = packet.payload
        peer = self._target_peer(desc["src"])
        op = _InboundOp(desc)
        op.nfrags = 1
        peer.inbound[op.seq] = op
        if not peer.barrier_ok(op.barrier):
            peer.gated.append(op)
            return
        self._serve(peer, op)

    def _serve(self, peer: _TargetPeer, op: _InboundOp) -> None:
        """Execute a control-style inbound op (get / rmw / rmi)."""
        desc = op.desc
        kind = desc["kind"]
        if kind == "get":
            if desc["atomic_queue"]:
                self._stage_get(peer, op)
            else:
                self._serve_get(peer, op)
        elif kind == "rmw":
            if desc["atomic_queue"]:
                def job(op=op, peer=peer):
                    yield self.sim.timeout(self.timings.lock_op)
                    self._execute_rmw(peer, op)
                self.serializer.submit_job(job)
            else:
                self._execute_rmw(peer, op)
        elif kind == "rmi":
            def job(op=op, peer=peer):
                yield self.sim.timeout(self.timings.am_handler)
                self._execute_rmi(peer, op)
            if self.machine.threads_allowed and self.serializer.kind == "thread":
                self.serializer.submit_job(job)
            else:
                self.sim.spawn(job(), name=f"rmi-{self.rank}")
        else:  # pragma: no cover - defensive
            raise RmaError(f"unknown inbound op kind {kind!r}")

    def _serve_get(self, peer: _TargetPeer, op: _InboundOp) -> None:
        self.materialize_inbound()
        desc = op.desc
        alloc = self._resolve(desc["mem_id"])
        data = read_layout(self.mem, alloc, desc["base_disp"], desc["dtype"],
                           desc["count"])
        self._op_applied(peer, op)
        self._send_get_reply(desc["src"], desc["op_key"], data)

    def _send_get_reply(self, src: int, op_key, data: np.ndarray) -> None:
        """Fragment a get reply to MTU and inject it (as a burst when
        the reverse path allows)."""
        mtu = self.network.mtu
        total = data.size
        nfrags = max(1, -(-total // mtu))
        self.nic.send_burst([
            Packet(
                src=self.rank, dst=src, kind="rma.get_reply",
                payload={"op_key": op_key, "wire_off": i * mtu,
                         "data": data[i * mtu : (i + 1) * mtu],
                         "total": total},
                data_bytes=len(data[i * mtu : (i + 1) * mtu]),
            )
            for i in range(nfrags)
        ])

    def _stage_get(self, peer: _TargetPeer, op: _InboundOp) -> None:
        def job():
            yield self.sim.timeout(
                op.desc["total_bytes"] * self.timings.mem_copy_per_byte
            )
            self._serve_get(peer, op)

        self.serializer.submit_job(job)

    def _execute_rmw(self, peer: _TargetPeer, op: _InboundOp) -> None:
        self.materialize_inbound()
        desc = op.desc
        alloc = self._resolve(desc["mem_id"])
        np_dt = np.dtype(desc["np_elem"]).newbyteorder(
            self.mem.space.np_byteorder
        )
        disp = desc["base_disp"]
        raw = self.mem.nic_read(alloc, disp, np_dt.itemsize)
        old = raw.view(np_dt)[0]
        rmw_op = desc["op"]
        if rmw_op == "fetch_add":
            new = old + np_dt.type(desc["operand"])
        elif rmw_op == "swap":
            new = np_dt.type(desc["operand"])
        elif rmw_op == "cas":
            new = (
                np_dt.type(desc["operand"])
                if old == np_dt.type(desc["compare"])
                else old
            )
        else:  # pragma: no cover - validated at issue
            raise RmaError(f"unknown RMW op {rmw_op!r}")
        out = np.array([new], dtype=np_dt).view(np.uint8)
        self.mem.nic_write(alloc, disp, out)
        self._op_applied(peer, op)
        self.send_control(
            desc["src"], "rma.reply",
            {"op_key": desc["op_key"], "value": old.item()},
            data_bytes=np_dt.itemsize,
        )

    def _execute_rmi(self, peer: _TargetPeer, op: _InboundOp) -> None:
        self.materialize_inbound()
        desc = op.desc
        fn = self._rmi_handlers.get(desc["name"])
        if fn is None:
            raise RmaError(
                f"rank {self.rank}: no RMI handler named {desc['name']!r}"
            )
        result = fn(*desc["args"])
        self._op_applied(peer, op)
        from repro.mpi.endpoint import payload_nbytes

        self.send_control(
            desc["src"], "rma.reply",
            {"op_key": desc["op_key"], "value": result},
            data_bytes=payload_nbytes(result),
        )

    # ------------------------------------------------------------------
    # Applied-watermark bookkeeping
    # ------------------------------------------------------------------
    def _op_applied(self, peer: _TargetPeer, op: _InboundOp) -> None:
        desc = op.desc
        peer.inbound.pop(op.seq, None)
        if op.seq == peer.applied_upto + 1:
            peer.applied_upto = op.seq
            while peer.applied_upto + 1 in peer.applied_extra:
                peer.applied_extra.discard(peer.applied_upto + 1)
                peer.applied_upto += 1
        else:
            peer.applied_extra.add(op.seq)
        if desc.get("ack") == "sw":
            self.send_control(desc["src"], "rma.ack", {"op_key": desc["op_key"]})
        m = desc.get("notify")
        if m is not None:
            # THE delivery point: the payload is applied (watermark just
            # advanced), so the notification may now surface.  Idempotent
            # via the op_key — if the planted ``notify_before_apply``
            # mutation already delivered at arrival, this is a no-op.
            self._deliver_notify(desc["src"], desc["mem_id"], m,
                                 desc.get("op_key"), desc.get("notify_ts"))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "applied",
                               rank=self.rank, src=desc["src"], seq=op.seq,
                               kind_=desc["kind"], op=desc.get("op_key"))
        self._drain_gated(peer)
        self._answer_flushes(peer)

    def _drain_gated(self, peer: _TargetPeer) -> None:
        if peer.draining:
            return  # the outer drain loop will re-scan after each release
        peer.draining = True
        try:
            progress = True
            while progress:
                progress = False
                peer.gated.sort(key=lambda o: o.seq)
                for i, op in enumerate(peer.gated):
                    if peer.barrier_ok(op.barrier):
                        peer.gated.pop(i)
                        self._release_gated_op(peer, op)
                        progress = True
                        break
        finally:
            peer.draining = False

    def _release_gated_op(self, peer: _TargetPeer, op: _InboundOp) -> None:
        kind = op.desc["kind"]
        if kind in ("get", "rmw", "rmi"):
            self._serve(peer, op)
        elif op.desc["atomic_queue"] or kind == "getacc":
            if op.arrived == op.nfrags:
                self._stage_atomic(peer, op)
            # else: staged when the last fragment arrives (_on_frag
            # re-checks the barrier, which is now satisfied)
        else:
            op.gate_open = True
            buffered, op.frags = op.frags, []
            for frag in buffered:
                self._apply_write_frag(peer, op, frag)

    def _answer_flushes(self, peer: _TargetPeer) -> None:
        ready = [w for w in peer.flush_waiters if w[0] <= peer.applied_upto]
        if not ready:
            return
        peer.flush_waiters = [
            w for w in peer.flush_waiters if w[0] > peer.applied_upto
        ]
        for _watermark, flush_id, src in ready:
            self.send_control(src, "rma.flush_ack", {"flush_id": flush_id})

    # ------------------------------------------------------------------
    # Origin-side protocol packet handlers
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        op_key = packet.payload["op_key"]
        if self.tracer is not None and self.tracer.enabled:
            # Span milestone: software application ack back at the origin.
            self.tracer.record(self.sim.now, "rma", "ack",
                               rank=self.rank, src=packet.src, op=op_key)
        pair = self._sw_ack_waiters.pop(op_key, None)
        if pair is not None and not pair[1].triggered:
            pair[1].succeed(self.sim.now)

    def _on_flush_req(self, packet: Packet) -> None:
        p = packet.payload
        peer = self._target_peer(p["src"])
        if peer.applied_upto >= p["watermark"]:
            self.send_control(p["src"], "rma.flush_ack",
                              {"flush_id": p["flush_id"]})
        else:
            peer.flush_waiters.append((p["watermark"], p["flush_id"], p["src"]))

    def _on_flush_ack(self, packet: Packet) -> None:
        if self.tracer is not None and self.tracer.enabled:
            # Timeline marker only: a flush covers many ops, so it is
            # not attributed to any single span.
            self.tracer.record(self.sim.now, "rma", "flush_ack",
                               rank=self.rank, src=packet.src,
                               flush_id=packet.payload["flush_id"])
        pair = self._flush_waiters.pop(packet.payload["flush_id"], None)
        if pair is not None and not pair[1].triggered:
            pair[1].succeed(self.sim.now)

    def _on_get_reply(self, packet: Packet) -> None:
        p = packet.payload
        pend = self._pending_gets.get(p["op_key"])
        if pend is None:
            if p["op_key"] in self._failed_ops:
                # The op was failed by a path failure; a straggler reply
                # (e.g. delivered after a rank restart) is not an error.
                return
            raise RmaError(f"rank {self.rank}: stray get reply {p['op_key']}")
        chunk = p["data"]
        pend.buffer[p["wire_off"] : p["wire_off"] + len(chunk)] = chunk
        pend.received += len(chunk)
        if pend.received >= p["total"]:
            del self._pending_gets[p["op_key"]]
            self.sim.spawn(self._finish_get(pend, p["op_key"]),
                           name=f"getfin-{self.rank}")

    def _finish_get(self, pend: _PendingGet, op_key=None):
        from repro.datatypes.pack import unpack, unpack_swapped

        yield self.sim.timeout(
            self.network.overhead_recv
            + pend.buffer.size * self.timings.mem_copy_per_byte
        )
        buf = self.mem.space.buffer(pend.alloc)
        if pend.swap:
            unpack_swapped(pend.buffer, buf, pend.offset, pend.dtype,
                           pend.count, scratch=self._scratch(pend.buffer.size))
        else:
            unpack(pend.buffer, buf, pend.offset, pend.dtype, pend.count)
        if (self.tracer is not None and self.tracer.enabled
                and pend.buffer.size <= 16):
            self.tracer.record(
                self.sim.now, "consistency", "read", rank=self.rank,
                location=pend.location, value=tuple(pend.buffer.tolist()),
            )
        if self.tracer is not None and self.tracer.enabled:
            # Span milestone: reply unpacked into the origin buffer.
            self.tracer.record(self.sim.now, "rma", "complete",
                               rank=self.rank, op=op_key)
        assert pend.ev_done is not None
        pend.ev_done.succeed()

    def _on_reply(self, packet: Packet) -> None:
        op_key = packet.payload["op_key"]
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "complete",
                               rank=self.rank, src=packet.src, op=op_key)
        entry = self._pending_replies.pop(op_key, None)
        if entry is not None and not entry[2].triggered:
            entry[2].succeed(packet.payload["value"])

    # -- lock-serializer packets (delegated) -----------------------------
    def _lock_serializer(self):
        from repro.rma.serializer import CoarseLockSerializer

        if not isinstance(self.serializer, CoarseLockSerializer):
            raise RmaError(
                f"rank {self.rank}: received a process-lock packet but the "
                f"serializer is {self.serializer.kind!r}"
            )
        return self.serializer

    def _on_lock_req(self, packet: Packet) -> None:
        self._lock_serializer().on_lock_req(packet)

    def _on_lock_grant(self, packet: Packet) -> None:
        self._lock_serializer().on_grant(packet)

    def _on_unlock(self, packet: Packet) -> None:
        self._lock_serializer().on_unlock(packet)


def build_rma(world: "World") -> None:
    """Construct one engine + frontend per rank and attach to contexts."""
    from repro.rma.api import RmaInterface

    for rank, ctx in world.contexts.items():
        engine = RmaEngine(
            world.sim,
            rank,
            world.nics[rank],
            world.memories[rank],
            world.machine,
            serializer_kind=world.serializer_kind,
            tracer=world.tracer,
        )
        ctx.rma = RmaInterface(engine, ctx.comm)
