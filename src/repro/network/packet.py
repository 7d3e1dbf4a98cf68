"""Wire sizes, and the raw packet a NIC's own tests and benchmarks send."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

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
    """A raw message (:meth:`Nic.send <repro.network.nic.Nic.send>`):
    posted onto the same flight as every other message, and dispatched
    at ``dst`` on its ``kind`` to the handler registered there
    (:meth:`Nic.register_handler
    <repro.network.nic.Nic.register_handler>`).

    Attributes
    ----------
    src, dst:
        Origin and destination ranks.
    kind:
        The message's label: what the destination dispatches on, fault
        plans filter on and trace records name.
    payload:
        Free-form contents.
    data_bytes:
        Payload size charged to serialization.
    ev_injected:
        Triggers when the origin NIC finished serializing the packet
        (local completion of the transfer at the origin).
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    data_bytes: int = 0
    ev_injected: Optional["Event"] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire including the fixed header."""
        return HEADER_SIZE + self.data_bytes
