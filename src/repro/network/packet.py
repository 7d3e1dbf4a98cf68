"""Packets — the unit of transfer on the simulated fabric."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

__all__ = ["Packet", "HEADER_SIZE", "ACK_SIZE"]

#: Fixed per-packet header bytes charged on the wire.
HEADER_SIZE = 32
#: Size of a hardware-generated ack (remote-completion event).
ACK_SIZE = 8

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One message on the fabric, as an object: the form a message
    takes where the NIC's gate is closed (:meth:`Nic.closed_gate
    <repro.network.nic.Nic.closed_gate>` — a fault injector or a
    transport must see it), and the NIC's own raw form (``Nic.send``).

    Attributes
    ----------
    src, dst:
        Origin and destination ranks.
    kind:
        The message's label (e.g. ``"rma.frag"``, ``"p2p.msg"``,
        ``"xport.ack"``): what fault plans filter on and trace records
        name; a raw packet is dispatched on it to a registered handler.
    fn, args:
        A posted message (:meth:`Nic.post <repro.network.nic.Nic.post>`):
        its whole effect at ``dst`` is ``fn(*args)``.  ``None`` for a
        raw packet.
    op:
        The RMA operation the message belongs to (trace records), or
        ``None``.
    data:
        The bytes the transport's checksum covers — a fragment's own
        bytes, a p2p payload, a get-reply chunk — or ``None`` (checksum
        0).
    payload:
        A raw packet's free-form contents.
    data_bytes:
        Payload size charged to serialization (0 for control packets).
    want_ack:
        Request a hardware delivery ack when the fabric supports
        remote-completion events.
    ev_injected:
        Triggers when the origin NIC finished serializing the packet
        (local completion of the transfer at the origin).
    ev_remote_complete:
        Triggers when the data is known (at the origin) to have landed
        at the target — via hardware ack or a software protocol.  Only
        created when someone intends to wait on it.
    """

    src: int
    dst: int
    kind: str
    fn: Optional[Callable[..., None]] = None
    args: tuple = ()
    op: Any = None
    data: Any = None
    payload: Any = None
    data_bytes: int = 0
    want_ack: bool = False
    ev_injected: Optional["Event"] = None
    ev_remote_complete: Optional["Event"] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Reliability fields, populated only when a reliable transport is
    #: armed (fault-injection runs).  ``flow_seq`` is the per-(src, dst)
    #: sequence number; ``checksum`` is the true payload checksum;
    #: ``wire_checksum`` is what travels on the wire (a corruption fault
    #: mangles it, never the payload itself); ``attempts`` counts
    #: transmissions including retransmits.
    flow_seq: Optional[int] = None
    #: Flow incarnation at preparation time; a restart bumps the pair's
    #: epoch so stale in-flight packets are recognizably from the past.
    flow_epoch: int = 0
    checksum: Optional[int] = None
    wire_checksum: Optional[int] = None
    attempts: int = 0

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire including the fixed header."""
        return HEADER_SIZE + self.data_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet #{self.packet_id} {self.kind} {self.src}->{self.dst} "
            f"{self.data_bytes}B>"
        )
