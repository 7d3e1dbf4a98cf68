"""A GASNet-style communication subsystem (paper §VI).

Two layers, as in the spec the paper cites (v1.8):

- **core API**: active messages in three flavours — *short* (arguments
  only), *medium* (payload delivered into a temporary buffer at the
  target), *long* (payload deposited at a caller-chosen address in the
  target's segment, then the handler runs).  Handlers are registered by
  index and may send a single reply.  "No particular ordering is
  guaranteed for these operations nor is it possible to specify any."
- **extended API**: ``put``/``get`` (blocking, explicit-handle ``_nb``,
  implicit-handle ``_nbi``) into/out of the attached segment.  There is
  **no accumulate** and **no noncontiguous transfer** — the two gaps §VI
  contrasts with the strawman API.

Requires a fabric with active-message support; constructing the
interface on (e.g.) Portals-without-AM raises, matching §III-B1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datatypes import BYTE
from repro.machine.address_space import Allocation
from repro.mpi.request import Request
from repro.rma.attributes import RmaAttrs
from repro.rma.engine import RmaEngine
from repro.rma.target_mem import TargetMem

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm
    from repro.runtime import World

__all__ = ["GasnetError", "GasnetInterface", "build_gasnet"]

#: GASNet never orders anything; blocking ops just wait locally.
_NO_ATTRS = RmaAttrs()

#: Medium AM payload cap (bytes), after the spec's gasnet_AMMaxMedium.
MAX_MEDIUM = 512


class GasnetError(RuntimeError):
    """GASNet usage error."""


class GasnetInterface:
    """Per-rank GASNet frontend (``ctx.gasnet``)."""

    def __init__(self, engine: RmaEngine, comm_world: "Comm") -> None:
        if not engine.network.active_messages:
            raise GasnetError(
                f"network {engine.network.name!r} has no active-message "
                "support; GASNet cannot run here (paper §III-B1)"
            )
        self.engine = engine
        self.comm = comm_world
        self._handlers: Dict[int, Callable[..., Any]] = {}
        self._reply_events: Dict[int, Any] = {}
        self._reply_seq = 0
        self._segment: Optional[Allocation] = None
        self._seg_tmems: Optional[List[TargetMem]] = None
        self._nbi_handles: List[Request] = []
        self.am_handled = 0

    # ------------------------------------------------------------------
    # Segment attach (collective)
    # ------------------------------------------------------------------
    def attach(self, segment_bytes: int):
        """Collectively attach a segment; extended-API transfers must
        stay inside it (``yield from``)."""
        if self._segment is not None:
            raise GasnetError("segment already attached")
        self._segment = self.engine.mem.space.alloc(segment_bytes)
        yield self.engine.registration_cost(segment_bytes)
        tmem = self.engine.expose(self._segment)
        self._seg_tmems = yield from self.comm.allgather(tmem)
        return self._segment

    @property
    def segment(self) -> Allocation:
        if self._segment is None:
            raise GasnetError("gasnet_attach has not been called")
        return self._segment

    def _seg(self, rank: int) -> TargetMem:
        if self._seg_tmems is None:
            raise GasnetError("gasnet_attach has not been called")
        return self._seg_tmems[rank]

    # ------------------------------------------------------------------
    # Core API: active messages
    # ------------------------------------------------------------------
    def register_handler(self, index: int, fn: Callable[..., Any]) -> None:
        """Register AM handler ``index`` (signature ``fn(src, *args)`` for
        short, ``fn(src, data, *args)`` for medium/long)."""
        if index in self._handlers:
            raise GasnetError(f"AM handler {index} already registered")
        self._handlers[index] = fn

    def _am_common(self, dst, handler, args, data, dest_off, flavor,
                   want_reply):
        reply_ev = None
        reply_id = None
        if want_reply:
            self._reply_seq += 1
            reply_id = (self.engine.rank, self._reply_seq)
            reply_ev = self.engine.sim.event()
            self._reply_events[reply_id] = reply_ev
        nbytes = 0 if data is None else int(np.asarray(data).nbytes)
        self.engine.nic.post(
            dst, "gasnet.am", self._peer(dst)._on_am,
            (self.engine.rank, handler, args, data, dest_off, flavor,
             reply_id),
            nbytes, data)
        return reply_ev

    def _peer(self, rank: int) -> "GasnetInterface":
        """``rank``'s interface: where an AM's body runs."""
        return self.engine.world.contexts[rank].gasnet

    def am_short(self, dst: int, handler: int, *args, want_reply=False):
        """Short AM: a few integer arguments, no payload."""
        yield (
            self.engine.timings.call_overhead
            + self.engine.network.overhead_send
        )
        ev = self._am_common(dst, handler, args, None, None, "short",
                             want_reply)
        if ev is not None:
            reply = yield ev
            return reply

    def am_medium(self, dst: int, handler: int, data: np.ndarray, *args,
                  want_reply=False):
        """Medium AM: payload (≤ :data:`MAX_MEDIUM`) lands in a temporary
        buffer passed to the handler."""
        data = np.asarray(data, dtype=np.uint8)
        if data.nbytes > MAX_MEDIUM:
            raise GasnetError(
                f"medium AM payload {data.nbytes} exceeds MAX_MEDIUM "
                f"({MAX_MEDIUM}); use a long AM"
            )
        yield (
            self.engine.timings.call_overhead
            + self.engine.network.overhead_send
        )
        ev = self._am_common(dst, handler, args, data.copy(), None, "medium",
                             want_reply)
        if ev is not None:
            reply = yield ev
            return reply

    def am_long(self, dst: int, handler: int, data: np.ndarray,
                dest_off: int, *args, want_reply=False):
        """Long AM: payload is deposited at ``dest_off`` in the target's
        segment, then the handler runs."""
        data = np.asarray(data, dtype=np.uint8)
        seg = self._seg(dst)
        if dest_off < 0 or dest_off + data.nbytes > seg.size:
            raise GasnetError("long AM payload outside the target segment")
        yield (
            self.engine.timings.call_overhead
            + self.engine.network.overhead_send
        )
        ev = self._am_common(dst, handler, args, data.copy(), dest_off,
                             "long", want_reply)
        if ev is not None:
            reply = yield ev
            return reply

    def _on_am(self, src: int, handler: int, args: tuple, data,
               dest_off: Optional[int], flavor: str, reply_id) -> None:
        """``gasnet.am`` from ``src`` lands: run handler ``handler`` off
        the NIC, then send its reply if one is wanted."""

        def handler_job():
            # NIC-side handler activation cost
            yield self.engine.timings.am_handler
            fn = self._handlers.get(handler)
            if fn is None:
                raise GasnetError(
                    f"rank {self.engine.rank}: no AM handler {handler}"
                )
            if flavor == "short":
                result = fn(src, *args)
            elif flavor == "medium":
                result = fn(src, data, *args)
            else:  # long: deposit into the segment first
                seg = self.segment
                self.engine.mem.nic_write(seg, dest_off, data)
                result = fn(src, data, *args)
            self.am_handled += 1
            if reply_id is not None:
                self.engine.nic.post(src, "gasnet.am_reply",
                                     self._peer(src)._on_reply,
                                     (reply_id, result))

        self.engine.sim.spawn(handler_job(), name=f"am-{self.engine.rank}")

    def _on_reply(self, reply_id, value) -> None:
        """``gasnet.am_reply`` lands: the AM ``reply_id`` returned
        ``value``."""
        ev = self._reply_events.pop(reply_id, None)
        if ev is not None:
            ev.succeed(value)

    # ------------------------------------------------------------------
    # Extended API: put/get (contiguous only, into/out of segments)
    # ------------------------------------------------------------------
    def put(self, dst: int, dest_off: int, src: Allocation, src_off: int,
            nbytes: int):
        """Blocking put (waits local completion; unordered)."""
        rec = yield from self.engine.issue_put(
            src, src_off, nbytes, BYTE, self._seg(dst), dest_off, nbytes,
            BYTE, _NO_ATTRS,
        )
        if not rec.ev_local.triggered:
            yield rec.ev_local

    def get(self, dst: int, src_off: int, dest: Allocation, dest_off: int,
            nbytes: int):
        """Blocking get from ``dst``'s segment."""
        ev = yield from self.engine.issue_get(
            dest, dest_off, nbytes, BYTE, self._seg(dst), src_off, nbytes,
            BYTE, _NO_ATTRS,
        )
        if not ev.triggered:
            yield ev

    def put_nb(self, dst: int, dest_off: int, src: Allocation, src_off: int,
               nbytes: int):
        """Explicit-handle nonblocking put."""
        rec = yield from self.engine.issue_put(
            src, src_off, nbytes, BYTE, self._seg(dst), dest_off, nbytes,
            BYTE, _NO_ATTRS,
        )
        return Request(self.engine.sim, event=rec.ev_local, kind="gasnet_nb")

    def get_nb(self, dst: int, src_off: int, dest: Allocation, dest_off: int,
               nbytes: int):
        """Explicit-handle nonblocking get."""
        ev = yield from self.engine.issue_get(
            dest, dest_off, nbytes, BYTE, self._seg(dst), src_off, nbytes,
            BYTE, _NO_ATTRS,
        )
        return Request(self.engine.sim, event=ev, kind="gasnet_nb")

    def wait_syncnb(self, handle: Request):
        """Sync one explicit handle."""
        yield from handle.wait()

    def put_nbi(self, dst: int, dest_off: int, src: Allocation, src_off: int,
                nbytes: int):
        """Implicit-handle nonblocking put (synced by wait_syncnbi)."""
        h = yield from self.put_nb(dst, dest_off, src, src_off, nbytes)
        self._nbi_handles.append(h)

    def get_nbi(self, dst: int, src_off: int, dest: Allocation,
                dest_off: int, nbytes: int):
        """Implicit-handle nonblocking get."""
        h = yield from self.get_nb(dst, src_off, dest, dest_off, nbytes)
        self._nbi_handles.append(h)

    def wait_syncnbi(self):
        """Sync every outstanding implicit-handle operation."""
        handles, self._nbi_handles = self._nbi_handles, []
        yield from Request.waitall(handles)


def build_gasnet(world: "World") -> None:
    """Attach a :class:`GasnetInterface` where the fabric supports AMs."""
    if not world.network.active_messages:
        return  # GASNet simply is not available on this fabric
    for rank, ctx in world.contexts.items():
        ctx.gasnet = GasnetInterface(ctx.rma.engine, ctx.comm)
