"""End-to-end retransmission: dropped packets re-offered at their source NI.

The fault injector's ``drop_retransmit`` policy and the degradation
ladder's drop stage both send lost packets again from their source,
through this one queue. Attempt ``a`` waits ``8 << a`` cycles; a packet
refused by a full NI queue on all :data:`ATTEMPTS` offers is given up.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..router.packet import Packet

__all__ = ["RetransmitQueue", "ATTEMPTS"]

ATTEMPTS = 8


class RetransmitQueue:
    """Packets waiting out their backoff before the source re-offers them."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        #: Pending entries as (ready_cycle, seq, attempt, packet).
        self._entries: List[Tuple[int, int, int, Packet]] = []
        self._seq = 0
        self.retransmitted = 0
        self.abandoned = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, cycle: int, packet: Packet, attempt: int = 0) -> None:
        """Schedule offer number *attempt* (from 0) of *packet*, lost at *cycle*."""
        if attempt >= ATTEMPTS:
            self.abandoned += 1
            return
        self._seq += 1
        self._entries.append((cycle + (8 << attempt), self._seq, attempt, packet))

    def earliest(self) -> Optional[int]:
        """The first cycle at which :meth:`pump` re-offers; None = empty."""
        return min((entry[0] for entry in self._entries), default=None)

    def pump(self, cycle: int) -> None:
        """Re-offer every packet whose backoff has expired by *cycle*."""
        if not self._entries:
            return
        ready = sorted(e for e in self._entries if e[0] <= cycle)
        if not ready:
            return
        self._entries = [e for e in self._entries if e[0] > cycle]
        fabric = self.fabric
        for _, _, attempt, packet in ready:
            # Identity (pid, src, dst, gen_cycle) is kept, so end-to-end
            # latency includes the lost attempt and the backoff. Transport
            # and routing state restart: out of escape, in the up*/down*
            # up phase (escape entry re-arms it only there).
            packet.in_escape = False
            packet.updown_up_phase = True
            packet.net_entry_cycle = None
            packet.blocked_since = None
            if fabric.offer_packet(packet):
                self.retransmitted += 1
                fabric.stats.packets_retransmitted += 1
            else:
                self.push(cycle, packet, attempt + 1)
