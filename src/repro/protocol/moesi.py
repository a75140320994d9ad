"""MOESI-style coherence traffic: six message classes (Section V-A).

The paper notes that while its MESI evaluation needs three virtual
networks, "other coherence protocols may require even more; e.g., MOESI
requires six virtual networks. In these cases, the area and power savings
of DRAIN would be even greater." This model realises that six-class
dependency structure so the claim is testable end-to-end:

- read/upgrade transactions:  ``REQ -> [FWD ->] RESP -> UNBLOCK``
  (the requester unblocks the directory after receiving its response —
  the directory entry stays busy until the UNBLOCK arrives);
- writeback transactions:     ``WB -> WB_ACK``
  (owned/modified lines written back to the home, which acknowledges).

Consumption rules (each creates the protocol dependency chain):

- REQ at home: needs injection space for FWD (3-hop) or RESP (2-hop);
- FWD at sharer: needs injection space for RESP;
- RESP at requester: needs injection space for UNBLOCK;
- WB at home: needs injection space for WB_ACK;
- WB_ACK, UNBLOCK: pure sinks.

With six virtual networks the chain can never close through the network;
on fewer shared VNs it can — and DRAIN removes it.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.config import ProtocolConfig
from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet
from .source import ClosedLoopSource

__all__ = ["MoesiTraffic"]


class MoesiTraffic(ClosedLoopSource):
    """Closed-loop MOESI-style transaction generator (6 message classes)."""

    def __init__(
        self,
        num_nodes: int,
        config: ProtocolConfig,
        issue_probability: float,
        rng: random.Random,
        total_transactions: Optional[int] = None,
        writeback_fraction: float = 0.3,
    ) -> None:
        super().__init__(num_nodes, config, issue_probability, rng,
                         total_transactions)
        if not 0.0 <= writeback_fraction <= 1.0:
            raise ValueError("writeback_fraction must be a probability")
        self.writeback_fraction = writeback_fraction
        self._busy_directories = 0  # entries awaiting UNBLOCK

    def _issue(self, fabric: Fabric, node: int,
               cycle: int) -> Optional[Packet]:
        rng = self.rng
        if rng.random() < self.writeback_fraction:
            cls = MessageClass.WB
        else:
            cls = MessageClass.REQ
        if fabric.injection_space(node, cls) <= 0:
            return None
        home = self._pick_other(node)
        packet = self._packet(node, home, cls, cycle)
        if cls is MessageClass.REQ:
            packet.needs_fwd = rng.random() < self.config.forward_probability
            if packet.needs_fwd:
                packet.fwd_target = self._pick_other(node, home)
        return packet

    def consume(self, fabric: Fabric, cycle: int) -> None:
        for node in range(self.num_nodes):
            # Pure sinks first.
            unblock = fabric.peek_ejection(node, MessageClass.UNBLOCK)
            if unblock is not None:
                fabric.pop_ejection(node, MessageClass.UNBLOCK)
                self._busy_directories -= 1
                self.completed += 1
                fabric.stats.transactions_completed += 1

            wb_ack = fabric.peek_ejection(node, MessageClass.WB_ACK)
            if wb_ack is not None:
                fabric.pop_ejection(node, MessageClass.WB_ACK)
                self.outstanding[node] -= 1
                self.completed += 1
                fabric.stats.transactions_completed += 1

            # RESP at the requester: spawns the directory UNBLOCK.
            resp = fabric.peek_ejection(node, MessageClass.RESP)
            if resp is not None and fabric.injection_space(
                node, MessageClass.UNBLOCK
            ) > 0:
                fabric.pop_ejection(node, MessageClass.RESP)
                self.outstanding[node] -= 1
                # fwd_target carries the home directory to unblock.
                unblock_pkt = self._packet(
                    node, resp.fwd_target, MessageClass.UNBLOCK, cycle
                )
                self._reply(fabric, unblock_pkt)

            # REQ at the home directory.
            req = fabric.peek_ejection(node, MessageClass.REQ)
            if req is not None:
                if req.needs_fwd:
                    if fabric.injection_space(node, MessageClass.FWD) > 0:
                        fabric.pop_ejection(node, MessageClass.REQ)
                        self._busy_directories += 1
                        fwd = self._packet(
                            node, req.fwd_target, MessageClass.FWD, cycle
                        )
                        fwd.fwd_target = req.src
                        self._reply(fabric, fwd)
                elif fabric.injection_space(node, MessageClass.RESP) > 0:
                    fabric.pop_ejection(node, MessageClass.REQ)
                    self._busy_directories += 1
                    resp_pkt = self._packet(
                        node, req.src, MessageClass.RESP, cycle
                    )
                    resp_pkt.fwd_target = node  # home to unblock later
                    self._reply(fabric, resp_pkt)

            # FWD at the sharer: inject RESP to the original requester.
            fwd_msg = fabric.peek_ejection(node, MessageClass.FWD)
            if fwd_msg is not None and fabric.injection_space(
                node, MessageClass.RESP
            ) > 0:
                fabric.pop_ejection(node, MessageClass.FWD)
                resp_pkt = self._packet(
                    node, fwd_msg.fwd_target, MessageClass.RESP, cycle
                )
                resp_pkt.fwd_target = fwd_msg.src  # the home directory
                self._reply(fabric, resp_pkt)

            # WB at the home: acknowledge.
            wb = fabric.peek_ejection(node, MessageClass.WB)
            if wb is not None and fabric.injection_space(
                node, MessageClass.WB_ACK
            ) > 0:
                fabric.pop_ejection(node, MessageClass.WB)
                ack = self._packet(node, wb.src, MessageClass.WB_ACK, cycle)
                self._reply(fabric, ack)
