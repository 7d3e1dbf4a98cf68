"""Per-rank MPI endpoint: wire protocol and tag matching.

One :class:`MpiEndpoint` exists per rank.  It owns the bodies of the
``p2p.*`` messages (each one call on the destination endpoint, sent with
``Nic.post``) and a matching engine (a predicate
:class:`~repro.sim.resources.Channel`), and exposes the primitive
``isend``/``irecv`` that :class:`~repro.mpi.comm.Comm` builds on.

Two transfer protocols, as in real MPI libraries:

- **eager** (payload ≤ ``eager_threshold``): the data rides the first
  packet.  If it arrives before the matching receive is posted it sits
  in the unexpected-message queue and the receiver pays an extra copy
  when it finally matches.
- **rendezvous** (larger): the sender ships a ready-to-send (RTS)
  envelope; the receiver answers clear-to-send (CTS) once the receive
  is posted; only then does the payload move — straight into the posted
  buffer, no unexpected copy, at the price of a round trip.

Matching is FIFO per (context, source, tag), preserving MPI's
non-overtaking rule — on an *ordered* fabric.  On an unordered fabric
two same-tag messages may arrive swapped, which is faithful to why MPI
implementations add sequence numbers; we keep the raw behaviour visible
because the RMA ordering-attribute benches rely on it.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Tuple

import numpy as np

from repro.machine.config import MachineTimings
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request, Status
from repro.network.nic import Nic
from repro.sim.resources import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["MpiEndpoint", "Message", "payload_nbytes"]

#: Messages larger than this use the rendezvous protocol (bytes).
DEFAULT_EAGER_THRESHOLD = 16384

_msg_ids = itertools.count(1)


def payload_nbytes(obj: Any) -> int:
    """Wire size estimate for an arbitrary Python payload."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    if isinstance(obj, (int, float, bool)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


def _checked(data: Any):
    """What the transport's checksum covers of a p2p payload: a byte
    array (anything with ``tobytes``); other objects travel unchecked."""
    return data if hasattr(data, "tobytes") else None


@dataclass(frozen=True)
class Message:
    """A matchable envelope (eager payload or rendezvous RTS)."""

    context: Tuple
    src: int
    tag: int
    data: Any
    nbytes: int
    arrived_at: float
    rdv_id: int = 0  # nonzero: RTS of a rendezvous transfer


class MpiEndpoint:
    """The per-rank messaging engine."""

    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        nic: Nic,
        timings: MachineTimings,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        peers: Optional[Dict[int, "MpiEndpoint"]] = None,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.nic = nic
        self.timings = timings
        self.eager_threshold = eager_threshold
        #: Every rank's endpoint by rank (this one enters itself): where
        #: a message's body runs.
        self.peers: Dict[int, MpiEndpoint] = {} if peers is None else peers
        self.peers[rank] = self
        self._inbox = Channel(sim)
        #: sender side: rendezvous payloads awaiting CTS
        #: (id -> (data, nbytes, req_ev))
        self._rdv_out: Dict[int, Tuple[Any, int, Any]] = {}
        #: receiver side: events per rendezvous payload arrival
        self._rdv_in: Dict[int, Any] = {}
        # stats
        self.sends = 0
        self.recvs = 0
        self.eager_sends = 0
        self.rdv_sends = 0
        self.unexpected_matches = 0

    # -- message bodies (run when the message lands) ----------------------
    def _on_message(self, src: int, context: Tuple, tag: int, data: Any,
                    nbytes: int) -> None:
        """``p2p.msg``: an eager message lands in the inbox."""
        self._inbox.put(Message(context=context, src=src, tag=tag,
                                data=data, nbytes=nbytes,
                                arrived_at=self.sim.now))

    def _on_rts(self, src: int, context: Tuple, tag: int, nbytes: int,
                rdv_id: int) -> None:
        """``p2p.rts``: the envelope of a rendezvous transfer lands in
        the inbox."""
        self._inbox.put(Message(context=context, src=src, tag=tag,
                                data=None, nbytes=nbytes,
                                arrived_at=self.sim.now, rdv_id=rdv_id))

    def _on_cts(self, src: int, rdv_id: int) -> None:
        """``p2p.cts``: the receive is posted — the payload moves."""
        data, nbytes, req_ev = self._rdv_out.pop(rdv_id)
        injected = self.sim.event()
        self.nic.post(src, "p2p.data", self.peers[src]._on_data,
                      (rdv_id, data), nbytes, _checked(data),
                      injected=injected)
        # the send request completes when the payload has left
        injected.add_callback(lambda ev: req_ev.succeed(ev.value))

    def _on_data(self, rdv_id: int, data: Any) -> None:
        """``p2p.data``: the payload of a rendezvous transfer lands in
        the posted buffer."""
        ev = self._rdv_in.pop(rdv_id, None)
        if ev is None:
            raise RuntimeError(
                f"rank {self.rank}: rendezvous payload without a waiter"
            )
        ev.succeed(data)

    # ------------------------------------------------------------------
    def isend(
        self, data: Any, dst: int, tag: int, context: Tuple, *,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, Request]:
        """Start a nonblocking send; returns a :class:`Request`.

        Charges the sender's call + injection overhead before returning,
        which is why this is a generator.  ``nbytes`` is the wire size
        when the caller already knows it (a forwarded message is the
        size it arrived with); otherwise it is derived from ``data``.
        """
        if nbytes is None:
            nbytes = payload_nbytes(data)
        yield self.timings.call_overhead + self.nic.config.overhead_send
        self.sends += 1
        peer = self.peers[dst]
        if nbytes <= self.eager_threshold:
            self.eager_sends += 1
            injected = self.sim.event()
            self.nic.post(dst, "p2p.msg", peer._on_message,
                          (self.rank, context, tag, data, nbytes), nbytes,
                          _checked(data), injected=injected)
            return Request(self.sim, event=injected, kind="isend")
        # rendezvous
        self.rdv_sends += 1
        rdv_id = next(_msg_ids)
        req_ev = self.sim.event()
        self._rdv_out[rdv_id] = (data, nbytes, req_ev)
        self.nic.post(dst, "p2p.rts", peer._on_rts,
                      (self.rank, context, tag, nbytes, rdv_id))
        return Request(self.sim, event=req_ev, kind="isend-rdv")

    def send(
        self, data: Any, dst: int, tag: int, context: Tuple, *,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, None]:
        """Blocking send (complete when the payload left this rank)."""
        req = yield from self.isend(data, dst, tag, context, nbytes=nbytes)
        yield from req.wait()

    def irecv(self, src: int, tag: int, context: Tuple) -> Request:
        """Post a nonblocking receive; returns a :class:`Request` whose
        value is the received object."""
        req = Request(self.sim, kind="irecv")
        posted_at = self.sim.now

        def match(m: Message) -> bool:
            if m.context != context:
                return False
            if src != ANY_SOURCE and m.src != src:
                return False
            if tag != ANY_TAG and m.tag != tag:
                return False
            return True

        def receiver():
            msg: Message = yield from self._inbox.get(match)
            data = msg.data
            copy_cost = 0.0
            if msg.rdv_id:
                # rendezvous: answer CTS, wait for the payload to land
                # directly in our (posted) buffer
                arrival = self.sim.event()
                self._rdv_in[msg.rdv_id] = arrival
                self.nic.post(msg.src, "p2p.cts",
                              self.peers[msg.src]._on_cts,
                              (self.rank, msg.rdv_id))
                data = yield arrival
            elif msg.arrived_at < posted_at:
                # eager + unexpected: it sat in the queue; pay the copy
                # out of the unexpected buffer
                self.unexpected_matches += 1
                copy_cost = msg.nbytes * self.timings.mem_copy_per_byte
            yield (
                self.nic.config.overhead_recv
                + msg.nbytes * self.timings.mem_copy_per_byte
                + copy_cost
            )
            req.status = Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
            self.recvs += 1
            req.event.succeed(data)

        self.sim.spawn(receiver(), name=f"irecv-{self.rank}")
        return req

    def recv(
        self, src: int, tag: int, context: Tuple
    ) -> Generator[Any, Any, Any]:
        """Blocking receive; returns the received object."""
        req = self.irecv(src, tag, context)
        data = yield from req.wait()
        return data

    def recv_status(
        self, src: int, tag: int, context: Tuple
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Blocking receive returning ``(data, Status)``."""
        req = self.irecv(src, tag, context)
        data = yield from req.wait()
        assert req.status is not None
        return data, req.status
