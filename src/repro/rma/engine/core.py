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
import numbers
import warnings
from operator import index, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.pack import check_bounds, pack, unpack, unpack_swapped
from repro.machine.address_space import Allocation
from repro.machine.config import MachineConfig, MachineTimings
from repro.machine.node import RankMemory
from repro.mpi.endpoint import payload_nbytes
from repro.network.nic import Nic
from repro.rma.attributes import RmaAttrs
from repro.rma.engine.board import NotifyBoard, check_notify_attr
from repro.rma.engine.failure import FailureSide
from repro.rma.engine.shared import SharedRoute
from repro.rma.engine.target import TargetSide
from repro.rma.layout import dense_sizes, fragment_layout
from repro.rma.serializer import Serializer, make_serializer
from repro.rma.target_mem import RmaError, TargetMem
from repro.rma.train import OpRecord, TrainRoute
from repro.sim.events import AllOf, DeferredEvent, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import World
    from repro.sim.core import Simulator

__all__ = ["RmaEngine", "OpRecord", "build_rma"]

#: Accumulate operations supported by the engine.
ACC_OPS = ("sum", "prod", "min", "max", "replace", "daxpy")
#: Read-modify-write operations (paper §V: conditional and unconditional).
RMW_OPS = ("cas", "fetch_add", "swap")

#: ``stats`` counters bumped once per issued op of each kind.
_TALLY = {"put": ("puts",), "acc": ("accumulates",), "get": ("gets",),
          "getacc": ("accumulates", "gets"), "rmw": ("rmws",),
          "rmi": ("rmis",)}


#: The engine's one-call messages, by kind: (``control.route`` kind,
#: whether the body belongs to the destination's serializer rather than
#: its engine, the body's name — a plain function looked up on the
#: receiver's class per message and called as ``body(receiver, src,
#: *fields)``, so no bound method is built and a class-level patch is
#: seen).  :meth:`RmaEngine.signal` sends them.
_SIGNALS = {
    "rma.flush_req": ("flush", False, "_flush_req"),
    "rma.flush_ack": ("flush", False, "_flush_ack"),
    "rma.ack": ("ack", False, "_ack"),
    "rma.lock_req": ("lock", True, "lock_req"),
    "rma.lock_grant": ("lock", True, "lock_grant"),
    "rma.unlock": ("lock", True, "unlock"),
    "rma.get_req": ("request", False, "_request"),
    "rma.rmw_req": ("request", False, "_request"),
    "rma.rmi_req": ("request", False, "_request"),
    "rma.reply": ("reply", False, "_reply"),
}


class _FlushedRun:
    """Consecutive writes to one target that only a watermark flush
    completes, issued with the same ``kind`` and ``attrs``: all the
    origin keeps of them (``RmaEngine._retain``).  ``upto`` is the
    sequence number of the last — the watermark a flush must cover;
    ``count`` is how many errors a broken path owes them."""

    __slots__ = ("kind", "attrs", "count", "upto")

    def __init__(self, kind: str, attrs: Optional[RmaAttrs],
                 upto: int) -> None:
        self.kind = kind
        self.attrs = attrs
        self.count = 1
        self.upto = upto


class _Op:
    """One operation travelling the issue pipeline (:meth:`RmaEngine._issue`):
    what the public ``issue_*`` call asked for, plus what the remote
    prologue works out for the routes behind it."""

    __slots__ = ("kind", "is_write", "has_payload", "dst", "attrs",
                 "ordering", "notify",
                 "nbytes", "tmem", "disp", "count", "dtype", "origin", "acc",
                 "call", "wire", "via_queue", "via_lock")

    def __init__(self, kind: str, dst: int, attrs: Optional[RmaAttrs],
                 nbytes: int, tmem: Optional[TargetMem] = None, disp: int = 0,
                 count: int = 0, dtype: Optional[Datatype] = None,
                 origin: Optional[tuple] = None, acc: Optional[tuple] = None,
                 call: Optional[tuple] = None) -> None:
        self.kind = kind  # put | acc | get | getacc | rmw | rmi
        self.is_write = kind == "put" or kind == "acc"
        #: Origin bytes travel to the target (put / acc / getacc).
        self.has_payload = self.is_write or kind == "getacc"
        self.dst = dst
        #: As passed (None for getacc, and for an rmw issued without).
        self.attrs = attrs
        self.ordering = attrs is not None and attrs.ordering
        self.notify = None if attrs is None else attrs.notify
        #: Transfer size; the operand size of an rmw, the argument
        #: payload of an rmi.
        self.nbytes = nbytes
        self.tmem = tmem
        self.disp = disp
        self.count = count
        self.dtype = dtype
        #: ``(alloc, offset, count, dtype)`` of the origin buffer.
        self.origin = origin
        #: ``(np_elem, op, scale)`` of an accumulate / get-accumulate.
        self.acc = acc
        #: ``(np_elem, op, operand, compare)`` of an rmw, ``(name,
        #: args)`` of an rmi.
        self.call = call
        # filled in by the remote prologue
        self.wire = None
        self.via_queue = False
        self.via_lock = False


def _exact_as(value, dt: np.dtype) -> bool:
    """Whether ``value`` is a scalar that converts to ``dt`` losing
    nothing (a NaN to a float or complex type counts as exact)."""
    if dt.kind in "iu" and isinstance(value, numbers.Integral):
        info = np.iinfo(dt)
        return info.min <= int(value) <= info.max
    if not isinstance(value, (numbers.Number, np.bool_)):
        return False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # complex -> real, overflow
        try:
            back = dt.type(value).item()
        except (TypeError, ValueError, OverflowError):
            return False
    if isinstance(value, np.generic):
        value = value.item()
    # Python compares int, float and complex exactly
    return back == value or (dt.kind in "fc" and back != back
                             and value != value)


class _Completion:
    """What one completion call (:meth:`RmaEngine._complete`) waits on
    besides its acknowledged records: the one event the caller waits on,
    triggered when the last of its ``left`` unanswered flushes is
    answered — acknowledged (:meth:`RmaEngine._flush_ack`) or failed by
    a path failure.  Flush ``first + i`` went to ``targets[i]``;
    ``errors`` lists the ``(target, RmaError)`` of the failed ones (None
    while there are none).  On a broken path, where no flush goes, the
    event stands for the errors of the flushed writes and is triggered
    at once."""

    __slots__ = ("ev", "left", "first", "targets", "errors")

    def __init__(self, sim: "Simulator", first: int) -> None:
        self.ev = Event(sim)
        self.left = 0
        self.first = first
        self.targets: List[int] = []
        self.errors: Optional[List[tuple]] = None

    def target(self, flush_id: int) -> int:
        """The target flush ``flush_id`` went to."""
        return self.targets[flush_id - self.first]

    def answered(self, error: Optional[tuple] = None) -> None:
        """One more flush is answered — failed with ``(target, error)``,
        if given: the last triggers the event."""
        if error is not None:
            if self.errors is None:
                self.errors = []
            self.errors.append(error)
        self.left -= 1
        if not self.left:
            self.ev.succeed()


def _completion_errors(held: List[tuple],
                       waiter: Optional[_Completion]) -> List[RmaError]:
    """A completion's failures, by ascending target: each target's
    records (and, on a broken path, flushed writes) in issue order, then
    its failed flush.  A record's event carries its error as its value
    (failure-aware completion succeeds events *with* the error object),
    or in the list that is its value."""
    found = []
    for target, entries in held:
        for item in entries:
            value = item.ev_remote.value if type(item) is OpRecord else item
            if isinstance(value, RmaError):
                found.append((target, value))
            elif isinstance(value, list):
                found.extend((target, v) for v in value
                             if isinstance(v, RmaError))
    if waiter is not None and waiter.errors:
        found += waiter.errors
        found.sort(key=itemgetter(0))   # stable: records before the flush
    return [error for _target, error in found]


class _PendingGet:
    """Origin-side reassembly state for a get / get-accumulate reply."""

    __slots__ = ("buffer", "received", "ev_done", "origin", "swap",
                 "location")

    def __init__(self, total: int, ev_done: Event, origin: tuple, swap: bool,
                 location: Tuple[int, int, int]) -> None:
        self.buffer = np.empty(total, dtype=np.uint8)
        self.received = 0
        self.ev_done = ev_done
        self.origin = origin
        self.swap = swap
        self.location = location


class PacketRoute:
    """Last route of the table: the op travels through the NIC as
    messages — lean or packets, as the NIC decides
    (``control.route{kind=request|write}`` counts which).  It never
    declines, and it is the one place an op gets its sequence number,
    ordering barrier and wire descriptor."""

    name = "packet"
    remote = True
    waits = True

    def __init__(self, engine: "RmaEngine") -> None:
        self.eng = engine

    def declines(self, op: _Op) -> Optional[str]:
        return None

    def issue(self, op: _Op):
        eng = self.eng
        sim = eng.sim
        dst = op.dst
        kind = op.kind
        if op.via_lock:
            yield from eng.serializer.origin_acquire(dst)
        seq = eng._next_seq(dst)
        barrier = seq - 1 if op.ordering else eng._order_barrier.get(dst, 0)
        if "drop_order_barrier" in eng.conformance_mutations:
            barrier = 0  # the planted ordering bug
        if op.has_payload:
            # Atomic application is deferred to the serializer job (or
            # bracketed by the process lock).
            if op.via_queue or op.via_lock:
                eng._last_atomic_seq[dst] = seq
        elif op.via_queue or kind == "rmi":
            # Served by a queued job (or an RMI handler process) after
            # delivery: later train ops cannot assume delivery order
            # equals application order.
            eng._last_deferred_seq[dst] = seq
        op_key = (eng.rank, next(eng._op_counter))
        desc = {"op_key": op_key, "src": eng.rank, "seq": seq,
                "barrier": barrier, "kind": kind}
        if op.notify is not None:
            # Only notify-carrying ops grow these keys: notify-free
            # descriptors (and thus traces) stay byte-identical to a
            # build without the subsystem.
            desc["notify"] = op.notify
            desc["notify_ts"] = sim.now
        tmem = op.tmem
        swap = tmem is not None and eng.mem.space.endianness != tmem.endianness
        if tmem is not None:
            desc["mem_id"] = tmem.mem_id
            desc["base_disp"] = op.disp

        if op.has_payload:
            mode = "none" if not op.is_write else eng._pick_remote_mode(
                op.attrs, tmem, barrier, op.via_queue, op.via_lock)
            eng.world.nexus.route(eng.nic, "control.route", "write")
            parts, sizes = self._cut(op, swap)
            desc.update(
                nfrags=len(sizes), ack=mode, swap=swap,
                total_bytes=op.nbytes, acc=op.acc, dtype=op.dtype,
                count=op.count,
                # Applied whole, as one serializer job: atomic-queue
                # writes, and every get-accumulate (the old contents must
                # be read before any fragment applies, even under the
                # process lock).
                via_job=op.via_queue or kind == "getacc",
            )
            ev_local, acked = eng.nic.post_frags(
                dst, "rma.frag", eng.world.contexts[dst].rma.engine._write,
                (eng.rank, desc, op.wire), parts, sizes, op.wire, op_key,
                injected=op.is_write, ack=mode == "hw")
        else:
            if kind == "get":
                desc.update(count=op.count, dtype=op.dtype)
            else:
                desc["call"] = op.call
            desc.update(total_bytes=op.nbytes, via_job=op.via_queue)
            eng.signal(dst, f"rma.{kind}_req", desc,
                       data_bytes=0 if kind == "get" else op.nbytes,
                       op=op_key)

        if op.is_write:
            if mode == "hw":
                done: Optional[Event] = acked
            elif mode == "sw":
                done = sim.event()
                eng._sw_ack_waiters[op_key] = (dst, done)
            else:
                done = None
            result = OpRecord(kind, op.attrs, ev_local, done)
            eng._retain(dst, result, seq)
            if eng.tracer.enabled and op.nbytes <= 16:
                # consistency-litmus support: small writes are recorded
                # with their value so checkers can rebuild reads-from
                # relations
                eng.tracer.record(
                    sim.now, "consistency", "write", rank=eng.rank,
                    location=(dst, tmem.mem_id, op.disp),
                    value=tuple(op.wire.tolist()),
                )
        else:
            result = done = sim.event()
            if op.origin is None:
                eng._pending_replies[op_key] = (dst, kind, done)
            else:
                eng._pending_gets[op_key] = _PendingGet(
                    op.nbytes, done, op.origin, swap,
                    (dst, tmem.mem_id, op.disp))
        if op.via_lock:
            sim.spawn(self._release_lock_after(dst, done),
                      name=f"lockrel-{eng.rank}")
        if eng.tracer.enabled and kind != "rmi":
            # (an RMI has never left an issue record; traces are pinned)
            extra = {"attrs": str(op.attrs)} if op.is_write else {}
            eng.tracer.record(sim.now, "rma", f"{kind}_issue", rank=eng.rank,
                              dst=dst, seq=seq, bytes=op.nbytes, **extra,
                              op=op_key)
        return result

    def _cut(self, op: _Op, swap: bool):
        """``(parts, sizes)``: the payload's fragments as the target's
        write body takes them, and their data bytes.  A dense write — a
        contiguous same-endian put — is never cut into
        :class:`~repro.rma.layout.Fragment` objects: its parts are the
        byte offsets of its fragments in its wire (a ``range`` whose
        step is the fragment size), so whatever arrives together lands
        in one deposit."""
        mtu = self.eng.network.mtu
        if op.kind == "put" and not swap and op.dtype.is_contiguous:
            sizes = dense_sizes(op.dtype, op.count, mtu)
            return range(0, op.nbytes, sizes[0]), sizes
        frags = fragment_layout(op.dtype, op.count, op.wire, mtu)
        return frags, [len(frag.data) for frag in frags]

    def _release_lock_after(self, dst: int, done: Event):
        if not done.triggered:
            yield done
        yield from self.eng.serializer.origin_release(dst)


class RmaEngine(FailureSide, TargetSide):
    """Per-rank RMA protocol engine (see module docstring)."""

    #: Master switch for the vectorized op-train route
    #: (:class:`repro.rma.train.TrainRoute`).  The determinism
    #: regression tests flip this off to prove the analytic and
    #: event-loop paths produce identical simulated timestamps.
    train_enabled: bool = True

    #: Treat *every* exposure as a shared window (subject to the shared
    #: route's other gates).  The ``--shared-windows`` perf toggle and
    #: the conformance runner's shared mode set this; it must leave
    #: every off-node timestamp bit-identical, since the route requires
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
        #: What every remote op costs its caller at issue (both configs
        #: are frozen: summed once, in the order the charge adds them).
        self._issue_charge = (self.timings.call_overhead
                              + self.network.overhead_send)
        self.tracer = tracer if tracer is not None else nic.fabric.tracer
        #: The world this engine lives in: the shared and train routes
        #: reach the *target's* engine through it.
        self.world: "World" = sim.context["world"]

        self._exposures: Dict[int, Allocation] = {}
        self._next_mem_id = 1
        # Per-peer state, one table per field, keyed by the peer's rank
        # (DESIGN §12, "Per-pair state").  A peer never talked to has no
        # entry, the integer tables hold nothing the cyclic collector
        # walks, and each container below exists only while it holds
        # something.  Origin side, per target:
        self._last_seq: Dict[int, int] = {}
        #: The standing ``rma_order`` barrier.
        self._order_barrier: Dict[int, int] = {}
        #: Most recent atomic op (its application is deferred to the
        #: serializer job or bracketed by the process lock).
        self._last_atomic_seq: Dict[int, int] = {}
        #: Most recent op whose *application* happens after delivery
        #: without being atomic (serializer-routed rmw, RMI handlers,
        #: atomic-queue gets).  The op-train route reasons "delivery
        #: order == application order" and stands down for a target in
        #: either of these two tables.
        self._last_deferred_seq: Dict[int, int] = {}
        #: Outstanding writes in issue order: the record of each
        #: acknowledged one, and runs (:class:`_FlushedRun`) of those
        #: only a flush completes.
        self._held: Dict[int, list] = {}
        #: Records handed to an in-flight completion, which lets go of
        #: them when its wait returns (:meth:`_release`); a path failure
        #: must fail these too or the waiting completion would hang.  On
        #: a broken path the errors of the flushed writes sit among them
        #: in issue order.
        self._completing: Dict[int, list] = {}
        #: Targets whose path failed: every later op fails fast at issue.
        self._broken: set = set()
        # Target side, per origin:
        self._applied_upto: Dict[int, int] = {}
        #: Sequence numbers applied ahead of the watermark.
        self._applied_extra: Dict[int, set] = {}
        #: Message-borne ops in flight, by ``(origin, seq)``.
        self._inbound: Dict[Tuple[int, int], Any] = {}
        #: Inbound ops waiting for the watermark to cover their barrier.
        self._gated: Dict[int, list] = {}
        #: ``(watermark, flush_id)`` of flush requests waiting for the
        #: watermark.
        self._flush_requests: Dict[int, list] = {}
        #: Origins whose gate is being drained (applying a gated op can
        #: recursively mark further ops applied).
        self._draining: set = set()
        # Waiter maps carry the destination rank (a flush's waiter knows
        # it, :meth:`_Completion.target`) so a path failure can sweep
        # exactly the waiters stranded on the broken path.
        self._sw_ack_waiters: Dict[Tuple[int, int], Tuple[int, Event]] = {}
        self._pending_gets: Dict[Tuple[int, int], _PendingGet] = {}
        self._pending_replies: Dict[Tuple[int, int], Tuple[int, str, Event]] = {}
        #: In-flight flushes, by flush id: the waiter of the completion
        #: call that sent it.
        self._flush_waiters: Dict[int, _Completion] = {}
        self._next_flush_id = 1
        # Per-engine op-key counter: keys are (rank, n), so a per-engine
        # count keeps them unique within a world while staying identical
        # across same-seed runs (a process-global counter would leak
        # between worlds and break trace bit-identity).
        self._op_counter = itertools.count(1)
        #: Test-only semantic mutations for the conformance fuzzer
        #: (``repro.check``): an empty set (the default, always, outside
        #: fuzzer self-tests) keeps behaviour — and traces — untouched.
        #: Each name is read at exactly one site: ``drop_order_barrier``
        #: (:class:`PacketRoute` ignores every ordering barrier),
        #: ``train_mistime`` (:class:`~repro.rma.train.TrainRoute`
        #: shifts the first train op per target by +1e-3 µs),
        #: ``train_overtake`` (a train element applies ahead of the
        #: pending write before it to the same bytes),
        #: ``shm_skip_fence`` (:class:`SharedRoute`) and
        #: ``notify_before_apply`` (:class:`TargetSide`).
        self.conformance_mutations: frozenset = frozenset()
        #: The route table, in order of preference: the first route
        #: that does not decline an op takes it.  ``rma.route`` counter
        #: handles are cached per (path, reason).
        self.routes = (SharedRoute(self), TrainRoute(self), PacketRoute(self))
        self._route_counters: Dict[tuple, Any] = {}
        #: Notification board (DESIGN §15).
        self.board = NotifyBoard(self)
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
        co-located origins then bypass the NIC (:class:`SharedRoute`).
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

    def _next_seq(self, dst: int) -> int:
        """Allocate the next sequence number toward ``dst``."""
        seq = self._last_seq.get(dst, 0) + 1
        self._last_seq[dst] = seq
        return seq

    # ------------------------------------------------------------------
    # The five operations: argument checks, then the one pipeline
    # ------------------------------------------------------------------
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
        return self._issue(self._transfer(
            "put", origin_alloc, origin_offset, origin_count, origin_dtype,
            tmem, target_disp, target_count, target_dtype, attrs,
        ))

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
        return self._issue(self._transfer(
            "acc", origin_alloc, origin_offset, origin_count, origin_dtype,
            tmem, target_disp, target_count, target_dtype, attrs, op, scale,
        ))

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
        return self._issue(self._transfer(
            "get", origin_alloc, origin_offset, origin_count, origin_dtype,
            tmem, target_disp, target_count, target_dtype, attrs,
        ))

    # Get-accumulate: atomic fetch-and-op on a whole section — the
    # natural generalization of §V's RMW discussion (and what MPI-3
    # eventually standardized as MPI_Get_accumulate).
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
        return self._issue(self._transfer(
            "getacc", origin_alloc, origin_offset, origin_count,
            origin_dtype, tmem, target_disp, target_count, target_dtype,
            None, op, scale,
        ))

    def _transfer(self, kind, origin_alloc, origin_offset, origin_count,
                  origin_dtype, tmem, target_disp, target_count,
                  target_dtype, attrs, acc_op=None, scale=1.0) -> _Op:
        """Argument checks shared by the four section transfers."""
        acc = None
        if acc_op is not None:
            if acc_op not in ACC_OPS:
                raise RmaError(
                    f"unknown accumulate op {acc_op!r}; choose from {ACC_OPS}")
            if target_dtype.elem_np is None:
                raise RmaError(
                    "accumulate requires a datatype with a uniform element "
                    "type"
                )
            if origin_dtype.elem_np != target_dtype.elem_np:
                # MPI: both sides of an accumulate share one predefined
                # element type; anything else adds raw bit patterns
                raise RmaError(
                    f"accumulate origin element type {origin_dtype.elem_np} "
                    f"does not match target element type "
                    f"{target_dtype.elem_np} ({kind} from rank {self.rank} "
                    f"to target_mem on rank {tmem.rank})")
            acc = (target_dtype.elem_np, acc_op, scale)
        if not (type(target_disp) is int and type(origin_offset) is int
                and type(origin_count) is int and type(target_count) is int):
            self._check_integers(
                kind, tmem, target_disp=target_disp,
                origin_offset=origin_offset, origin_count=origin_count,
                target_count=target_count)
        if origin_count < 0 or target_count < 0:
            name, count = (("origin_count", origin_count) if origin_count < 0
                           else ("target_count", target_count))
            raise RmaError(
                f"{name} must be >= 0, got {count!r} ({kind} from rank "
                f"{self.rank} to target_mem on rank {tmem.rank})")
        nbytes = origin_count * origin_dtype.size
        t_bytes = target_count * target_dtype.size
        if nbytes != t_bytes:
            raise RmaError(
                f"origin layout ({nbytes} B) does not match target layout "
                f"({t_bytes} B)"
            )
        lo, hi = target_dtype.byte_range(target_count)
        tmem.check_access(target_disp, lo, hi)
        if kind == "get" or kind == "getacc":
            # data lands in the origin buffer: validate its range before
            # any waiting
            check_bounds(self.mem.space.buffer(origin_alloc), origin_offset,
                         origin_dtype, origin_count)
        op = _Op(kind, tmem.rank, attrs, nbytes, tmem, target_disp,
                 target_count, target_dtype,
                 (origin_alloc, origin_offset, origin_count, origin_dtype),
                 acc)
        if op.notify is not None:
            check_notify_attr(attrs, kind, nbytes, self.rank)
        return op

    def _check_integers(self, kind: str, tmem: TargetMem, **named) -> None:
        """Reject a displacement, offset or count that is not an integer
        (numpy integers count) by name, at the call — it would otherwise
        surface as a slicing ``TypeError`` wherever the op is applied,
        which for a train element is inside another rank's call."""
        for name, value in named.items():
            try:
                index(value)
            except TypeError:
                raise RmaError(
                    f"{name} must be an integer, got {value!r} ({kind} from "
                    f"rank {self.rank} to target_mem on rank {tmem.rank})"
                ) from None

    def _check_rmw_values(self, tmem: TargetMem, np_elem, op: str,
                          named) -> int:
        """Reject an rmw element type that is not numeric, or an operand
        / compare value that does not convert to it exactly, by name, at
        the call — each used to surface on the target, inside another
        rank's NIC, as a raw numpy error or a silently wrong word.
        Returns the element size."""
        where = (f"(rmw from rank {self.rank} to target_mem on rank "
                 f"{tmem.rank})")
        try:
            dt = np.dtype(np_elem)
        except (TypeError, ValueError):
            dt = None
        if dt is None or dt.kind not in "biufc":
            raise RmaError(
                f"{op} element type must be a numeric NumPy type (bool, "
                f"integer, unsigned, float or complex), got {np_elem!r} "
                f"{where}")
        for name, value in named:
            if not _exact_as(value, dt):
                raise RmaError(
                    f"{op} {name} must be a scalar exactly representable "
                    f"as {dt.name}, got {value!r} {where}")
        return dt.itemsize

    # RMW (paper §V: conditional and unconditional read-modify-write)
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
        if type(target_disp) is not int:
            self._check_integers("rmw", tmem, target_disp=target_disp)
        elem_size = self._check_rmw_values(
            tmem, np_elem, op, (("operand", operand), ("compare", compare))
            if op == "cas" else (("operand", operand),))
        tmem.check_access(target_disp, 0, elem_size)
        return self._issue(_Op("rmw", tmem.rank, attrs, elem_size, tmem,
                               target_disp,
                               call=(np_elem, op, operand, compare)))

    # RMI (the xfer optype expansion discussed in §IV)
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
        return self._issue(_Op("rmi", dst, attrs, payload_nbytes(args),
                               call=(name, args)))

    def _issue(self, op: _Op):
        """The one issue pipeline.  A broken path fails fast; otherwise
        the first route of :attr:`routes` that does not decline takes
        the op, counted as ``rma.route{path=, reason=}`` — the reason
        being the gate that closed the route before it.  The remote
        prologue (issue charge, packing, atomic routing) runs once,
        ahead of the first remote route."""
        if self._path_broken(op.dst):
            return self._fail_fast(op)
        reason = None
        charged = False
        for route in self.routes:
            if route.remote and not charged:
                charged = True
                charge = self._issue_charge
                if op.is_write and not op.origin[3].is_contiguous:
                    charge += op.nbytes * self.timings.mem_copy_per_byte
                yield charge
                if op.nbytes == 0 and op.tmem is not None:
                    if op.is_write:
                        self._tally(op, 0)
                    return self._finished(op)
                if op.has_payload:
                    # Eager/rendezvous split, one rule: a payload is
                    # copied at issue unless its request cannot complete
                    # before it is applied — a write larger than one MTU
                    # that is atomic or remote-complete, or any
                    # get-accumulate (it completes with its reply).  Only
                    # those ride as a zero-copy view, pinned until
                    # application — the contract real RDMA rendezvous
                    # protocols impose.  Every other request may complete
                    # at injection, and the caller may then reuse the
                    # buffer while fragments are still in flight.
                    attrs = op.attrs
                    pinned = op.nbytes > self.network.mtu and (
                        attrs is None or attrs.atomicity
                        or attrs.remote_completion)
                    alloc, offset, count, dtype = op.origin
                    op.wire = pack(self.mem.space.buffer(alloc), offset,
                                   dtype, count, copy=not pinned)
                self._route_atomic(op)
            why = route.declines(op)
            if why is None:
                counter = self._route_counters.get((route.name, reason))
                if counter is None:
                    counter = self._route_counter(route.name, reason)
                counter.inc()
                self._tally(op, op.nbytes)
                if route.waits:
                    return (yield from route.issue(op))
                return route.issue(op)
            reason = why

    def _route_atomic(self, op: _Op) -> None:
        """Decide how ``op``'s atomicity is enforced: not at all, by the
        target's serializer queue (``via_queue``), or by the origin
        holding the target's process lock (``via_lock``)."""
        kind = op.kind
        if kind == "rmw":
            # RMWs are atomic by definition.  Hardware atomics serve
            # when the fabric has them.
            atomic = not (self.network.small_atomics and op.nbytes <= 8)
        elif kind == "getacc":
            atomic = True
        else:
            atomic = kind != "rmi" and op.attrs.atomicity
        if atomic:
            if self.serializer.kind == "lock":
                op.via_lock = True
            else:
                op.via_queue = True

    def _pick_remote_mode(self, attrs: RmaAttrs, tmem: TargetMem,
                          barrier: int, atomic_via_serializer: bool,
                          lock_serialized: bool) -> str:
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
                and not (0 < self._last_atomic_seq.get(tmem.rank, 0)
                         <= barrier)
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

    def _route_counter(self, path: str, reason: Optional[str]):
        """The ``rma.route`` counter for one (path, reason), cached."""
        labels = {"path": path}
        if reason is not None:
            labels["reason"] = reason
        counter = self._route_counters[(path, reason)] = \
            self.tracer.metrics.counter("rma.route", **labels)
        return counter

    def _tally(self, op: _Op, nbytes: int) -> None:
        stats = self.stats
        for key in _TALLY[op.kind]:
            stats[key] += 1
        if op.kind == "put":
            stats["bytes_put"] += nbytes
        elif op.kind == "get":
            stats["bytes_got"] += nbytes

    def _retain(self, dst: int, rec: OpRecord, seq: int) -> None:
        """Record an issued write as outstanding toward ``dst``: the
        next completion call waits for it, or flushes it.  A write with
        a per-op completion event is held as its record; one that only a
        flush completes leaves its sequence number — the watermark that
        flush must cover — and one more count on the run of same-kind,
        same-attribute flushed writes it extends (failure attribution
        reports one error per write, in issue order)."""
        held = self._held.get(dst)
        if held is None:
            held = self._held[dst] = []
        if rec.ev_remote is not None:
            held.append(rec)
            return
        run = held[-1] if held else None
        if (type(run) is _FlushedRun and run.kind == rec.kind
                and (run.attrs is rec.attrs or run.attrs == rec.attrs)):
            run.count += 1
            run.upto = seq
        else:
            held.append(_FlushedRun(rec.kind, rec.attrs, seq))

    def _finished(self, op: _Op, value=None):
        """What ``issue_*`` returns for an op that is already over (a
        zero-byte transfer, a shared-window access, a fail-fast): the
        completion event, wrapped in an :class:`OpRecord` for writes."""
        ev = Event(self.sim).succeed(value)
        if not op.is_write:
            return ev
        return OpRecord(op.kind, op.attrs, ev, ev)

    def _land(self, data: np.ndarray, origin: tuple, swap: bool) -> None:
        """Unpack fetched wire bytes into the origin buffer."""
        alloc, offset, count, dtype = origin
        buf = self.mem.space.buffer(alloc)
        if swap:
            if self._pack_scratch.size < data.size:
                self._pack_scratch = np.empty(data.size, dtype=np.uint8)
            unpack_swapped(data, buf, offset, dtype, count,
                           scratch=self._pack_scratch)
        else:
            unpack(data, buf, offset, dtype, count)

    def signal(self, dst: int, message: str, *fields,
               data_bytes: int = 0, op=None) -> None:
        """Send ``message`` (a key of ``_SIGNALS``: a control message, a
        request or a reply carrying ``data_bytes`` of payload, of RMA
        operation ``op``) to ``dst``: a :meth:`Nic.post
        <repro.network.nic.Nic.post>` whose effect is the message's body
        on the destination engine (or its serializer), called with
        ``fields``.  Counted as ``control.route{kind=, path=live|packet,
        reason=}``."""
        kind, on_serializer, name = _SIGNALS[message]
        world = self.world
        world.nexus.route(self.nic, "control.route", kind)
        receiver = world.contexts[dst].rma.engine
        if on_serializer:
            receiver = receiver.serializer
        self.nic.post(dst, message, getattr(type(receiver), name),
                      (receiver, self.rank, *fields), data_bytes, op=op)

    # ------------------------------------------------------------------
    # Completion and ordering (MPI_RMA_complete / MPI_RMA_order)
    # ------------------------------------------------------------------
    def complete_one(self, dst: int):
        """Wait for remote completion of all prior ops to ``dst``.
        Returns the list of :class:`RmaError` failures (empty normally)."""
        return self._complete(dst)

    def complete_all(self):
        """Remote-complete every target with outstanding traffic
        (``MPI_ALL_RANKS``), in ascending rank order.  Returns the list
        of failures."""
        return self._complete(None)

    def _complete(self, dst: Optional[int]):
        """The one body of :meth:`complete_one` (``dst``) and
        :meth:`complete_all` (``None``)."""
        yield self.timings.call_overhead
        held, waiter, wait = self._start_completion(dst)
        if wait is not None:
            yield wait
        self._release(held)
        # Completion is an observation point for this rank's own memory
        # (the caller will read local buffers next): apply any arrived
        # inbound train elements — notably self-directed puts, which on
        # an all-analytic run have no packet delivery to trigger them.
        self.materialize_inbound()
        self.stats["completes"] += 1
        return _completion_errors(held, waiter)

    def _start_completion(self, dst: Optional[int]):
        """Remote-complete everything outstanding to ``dst`` (``None``:
        to every target with outstanding writes, ascending).  Per
        target: each acknowledged write's own event, then one flush up
        to the last flushed write; every flush of the call answers the
        one :class:`_Completion` built here.  The acknowledged records
        move to ``_completing``, where a path failure still finds them
        while the caller waits, and ``(target, records)`` joins
        ``held`` for :meth:`_release`.  Returns ``(held, waiter, the
        event to wait on or None)``.

        The caller resumes after the urgent-queue hops a wait on one
        event per flush (and per flushed write on a broken path) takes:
        an ``AllOf`` over the records' events and the waiter's, or, for
        :meth:`complete_one` when that count is one, the lone event."""
        held: List[tuple] = []
        waiter: Optional[_Completion] = None
        waits = 0
        for target in sorted(self._held) if dst is None else (dst,):
            outstanding = self._held.pop(target, None)
            if outstanding is None:
                continue
            entries = []
            if target in self._broken:
                # No flush round trip on a broken path: every flushed
                # write resolves to an error now, in issue order among
                # the records (ops with per-op events were already failed
                # by _on_path_failure).
                for item in outstanding:
                    if type(item) is not _FlushedRun:
                        entries.append(item)
                        continue
                    if waiter is None:
                        waiter = _Completion(self.sim, self._next_flush_id)
                    for _ in range(item.count):
                        entries.append(
                            self._error(target, item.kind, item.attrs))
                waits += len(entries)
            else:
                flush_watermark = 0
                deferred: List[DeferredEvent] = []
                for item in outstanding:
                    if type(item) is _FlushedRun:
                        flush_watermark = item.upto
                        continue
                    entries.append(item)
                    ev = item.ev_remote
                    if (type(ev) is DeferredEvent and not ev._armed
                            and not ev.triggered):
                        deferred.append(ev)
                if deferred:
                    # Retire the whole group of analytic hw-ack events
                    # with one heap entry at the latest due time.  Each
                    # event still auto-fires at its own due when polled
                    # (DeferredEvent), so no observable timestamp moves —
                    # only the timer count does.
                    due = max(ev.due for ev in deferred)
                    for ev in deferred:
                        ev.mark_armed()
                    self.sim.schedule_bulk_succeed_at(
                        due, deferred,
                        [ev._deferred_value for ev in deferred],
                    )
                waits += len(entries)
                if flush_watermark:
                    flush_id = self._next_flush_id
                    self._next_flush_id += 1
                    if waiter is None:
                        waiter = _Completion(self.sim, flush_id)
                    self._flush_waiters[flush_id] = waiter
                    waiter.targets.append(target)
                    waiter.left += 1
                    waits += 1
                    self.signal(target, "rma.flush_req", flush_watermark,
                                flush_id)
            if entries:
                self._completing[target] = entries
                held.append((target, entries))
        events = [rec.ev_remote for _target, entries in held
                  for rec in entries if type(rec) is OpRecord]
        if waiter is not None:
            if not waiter.left:
                waiter.ev.succeed()
            events.append(waiter.ev)
        if dst is not None and waits == 1:
            return held, waiter, events[0]
        return held, waiter, AllOf(self.sim, events) if events else None

    def _release(self, held: List[tuple]) -> None:
        """A completion's wait is over: let go of the records it retired.
        By identity — a later completion waiting on the same peer has
        put its own list there and keeps it."""
        completing = self._completing
        for dst, records in held:
            if completing.get(dst) is records:
                del completing[dst]

    def order_one(self, dst: int) -> None:
        """Order subsequent ops to ``dst`` after all prior ones — a pure
        origin-side barrier annotation, no network traffic (the paper's
        "weaker form of synchronization")."""
        self._order_barrier[dst] = self._last_seq.get(dst, 0)
        self.stats["orders"] += 1

    def order_all(self) -> None:
        self._order_barrier.update(self._last_seq)
        self.stats["orders"] += 1

    # ------------------------------------------------------------------
    # Origin-side message bodies
    # ------------------------------------------------------------------
    def _ack(self, src: int, op_key) -> None:
        """``ack`` from ``src``: it applied our sw-acked op ``op_key``."""
        if self.tracer.enabled:
            # Span milestone: software application ack back at the origin.
            self.tracer.record(self.sim.now, "rma", "ack",
                               rank=self.rank, src=src, op=op_key)
        pair = self._sw_ack_waiters.pop(op_key, None)
        if pair is not None and not pair[1].triggered:
            pair[1].succeed(self.sim.now)

    def _flush_ack(self, src: int, flush_id: int) -> None:
        """``flush_ack`` from ``src``: our flush ``flush_id`` is covered
        by its applied watermark."""
        if self.tracer.enabled:
            # Timeline marker only: a flush covers many ops, so it is
            # not attributed to any single span.
            self.tracer.record(self.sim.now, "rma", "flush_ack",
                               rank=self.rank, src=src, flush_id=flush_id)
        waiter = self._flush_waiters.pop(flush_id, None)
        if waiter is not None:      # a duplicated or stale ack counts once
            waiter.answered()

    def _get_reply(self, src: int, op_key, data, total: int,
                   parts: range) -> None:
        """``get_reply`` from ``src``: the chunks ``parts`` (their byte
        offsets in ``data``, a ``range`` whose step is the chunk size)
        of the ``total`` bytes our get (or get-accumulate) ``op_key``
        fetched.  The last one starts the unpack — the receive overhead
        and the copy, one timer — from the urgent queue
        (:meth:`_unpack`): that is where in the event order a process
        spawned here would push its first timeout, so equal-time heap
        entries pop in the same order either way."""
        pend = self._pending_gets.get(op_key)
        if pend is None:
            if op_key in self._failed_ops:
                # The op was failed by a path failure; a straggler reply
                # (e.g. delivered after a rank restart) is not an error.
                return
            raise RmaError(f"rank {self.rank}: stray get reply {op_key}")
        lo = parts.start
        chunk = data[lo:lo + len(parts) * parts.step]
        pend.buffer[lo:lo + len(chunk)] = chunk
        pend.received += len(chunk)
        if pend.received >= total:
            del self._pending_gets[op_key]
            self.sim.schedule_urgent_call(self._unpack, pend, op_key)

    def _unpack(self, pend: _PendingGet, op_key) -> None:
        """The receive overhead and the copy into the origin buffer
        start: :meth:`_got` when they are paid."""
        self.sim.schedule_call(
            self.network.overhead_recv
            + pend.buffer.size * self.timings.mem_copy_per_byte,
            self._got, pend, op_key)

    def _got(self, pend: _PendingGet, op_key) -> None:
        """The fetched bytes are unpacked into the origin buffer: the get
        is complete."""
        self._land(pend.buffer, pend.origin, pend.swap)
        if self.tracer.enabled:
            if pend.buffer.size <= 16:
                self.tracer.record(
                    self.sim.now, "consistency", "read", rank=self.rank,
                    location=pend.location,
                    value=tuple(pend.buffer.tolist()),
                )
            # Span milestone: reply unpacked into the origin buffer.
            self.tracer.record(self.sim.now, "rma", "complete",
                               rank=self.rank, op=op_key)
        pend.ev_done.succeed()

    def _reply(self, src: int, op_key, value) -> None:
        """``reply`` from ``src``: our rmw / rmi ``op_key`` returned
        ``value``."""
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "rma", "complete",
                               rank=self.rank, src=src, op=op_key)
        entry = self._pending_replies.pop(op_key, None)
        if entry is not None and not entry[2].triggered:
            entry[2].succeed(value)


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
