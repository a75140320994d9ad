"""MESI-flavoured coherence-transaction traffic (Ruby stand-in).

The paper runs full applications over gem5's Ruby MESI directory protocol.
What matters for deadlock behaviour is the *message-class dependency
chain*: consuming a request at the directory requires injecting a
dependent message (a forward/invalidation or a response), forwards require
injecting responses, and responses are a pure sink. With finite MSHRs and
finite per-class ejection queues, this is exactly the structure that
produces protocol-level deadlocks on a shared virtual network (Figure 2a)
and that virtual networks — or DRAIN — must break.

Transactions come in two shapes, chosen per request:

- 2-hop: ``REQ(src -> home)`` then ``RESP(home -> src)``;
- 3-hop: ``REQ(src -> home)``, ``FWD(home -> sharer)``,
  ``RESP(sharer -> src)`` — the invalidation/ownership-transfer chain.

The generator is closed-loop: each node issues a new transaction with a
per-cycle probability while it has a free MSHR, mirroring how a core's
outstanding misses are bounded (Section III-A's assumption that one
message class can never flood all network buffers).
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.config import ProtocolConfig
from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet
from .source import ClosedLoopSource

__all__ = ["CoherenceTraffic"]


class CoherenceTraffic(ClosedLoopSource):
    """Closed-loop directory-protocol transaction generator."""

    def __init__(
        self,
        num_nodes: int,
        config: ProtocolConfig,
        issue_probability: float,
        rng: random.Random,
        total_transactions: Optional[int] = None,
        locality: float = 0.0,
        mesh_width: Optional[int] = None,
    ) -> None:
        super().__init__(num_nodes, config, issue_probability, rng,
                         total_transactions)
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be a probability")
        self.locality = locality
        self.mesh_width = mesh_width
        self._next_txn = 0

    # ------------------------------------------------------------------
    def _pick_home(self, src: int) -> int:
        """Home directory for a new request; *locality* biases it nearby."""
        if self.locality > 0.0 and self.mesh_width and self.rng.random() < self.locality:
            width = self.mesh_width
            x, y = src % width, src // width
            neighbours = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny * width + nx < self.num_nodes:
                    neighbours.append(ny * width + nx)
            neighbours = [n for n in neighbours if 0 <= n < self.num_nodes]
            if neighbours:
                return self.rng.choice(neighbours)
        return self._pick_other(src)

    def _issue(self, fabric: Fabric, node: int,
               cycle: int) -> Optional[Packet]:
        if fabric.injection_space(node, MessageClass.REQ) <= 0:
            return None  # retried implicitly next cycle; MSHR not yet taken
        home = self._pick_home(node)
        req = self._packet(node, home, MessageClass.REQ, cycle)
        req.txn_id = self._next_txn
        self._next_txn += 1
        req.needs_fwd = self.rng.random() < self.config.forward_probability
        if req.needs_fwd:
            req.fwd_target = self._pick_other(node, home)
        return req

    def consume(self, fabric: Fabric, cycle: int) -> None:
        """Per-cycle NI/directory/cache processing at every node.

        One message per class per node per cycle, and — crucially —
        consuming a REQ or FWD requires free injection space for the
        dependent message it spawns; otherwise it stays in its ejection
        queue and backpressures the network.
        """
        if not getattr(fabric, "ej_pending_total", 1):
            return  # nothing ejected anywhere this cycle
        ej_pending = getattr(fabric, "ej_pending", None)
        for node in range(self.num_nodes):
            if ej_pending is not None and not ej_pending[node]:
                continue
            # Responses: the sink class, always consumable.
            resp = fabric.peek_ejection(node, MessageClass.RESP)
            if resp is not None:
                fabric.pop_ejection(node, MessageClass.RESP)
                self.outstanding[node] -= 1
                self.completed += 1
                fabric.stats.transactions_completed += 1

            # Forwards: the cache must inject a RESP to the original
            # requester (carried in fwd_target).
            fwd = fabric.peek_ejection(node, MessageClass.FWD)
            if fwd is not None and fabric.injection_space(node, MessageClass.RESP) > 0:
                requester = fwd.fwd_target
                fabric.pop_ejection(node, MessageClass.FWD)
                resp_pkt = self._packet(node, requester, MessageClass.RESP, cycle)
                resp_pkt.txn_id = fwd.txn_id
                self._reply(fabric, resp_pkt)

            # Requests at the home directory.
            req = fabric.peek_ejection(node, MessageClass.REQ)
            if req is not None:
                if req.needs_fwd:
                    if fabric.injection_space(node, MessageClass.FWD) > 0:
                        fabric.pop_ejection(node, MessageClass.REQ)
                        fwd_pkt = self._packet(
                            node, req.fwd_target, MessageClass.FWD, cycle
                        )
                        fwd_pkt.txn_id = req.txn_id
                        fwd_pkt.fwd_target = req.src  # original requester
                        self._reply(fabric, fwd_pkt)
                else:
                    if fabric.injection_space(node, MessageClass.RESP) > 0:
                        fabric.pop_ejection(node, MessageClass.REQ)
                        resp_pkt = self._packet(
                            node, req.src, MessageClass.RESP, cycle
                        )
                        resp_pkt.txn_id = req.txn_id
                        self._reply(fabric, resp_pkt)
