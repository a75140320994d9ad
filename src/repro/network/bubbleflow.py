"""Bubble Flow Control (BFC) baseline (Section VII related work [35]-[38]).

BFC proactively avoids deadlock on rings and tori without turn
restrictions inside a ring: a packet may *enter* a dimension ring only if
the ring retains at least one free buffer (a "bubble") after the entry, so
the ring can always rotate. Moves that continue within a ring are
unrestricted.

This model implements localised BFC on a 2D torus over the standard
fabric:

- routing is dimension-order (travel the X ring, then the Y ring), with
  the shorter wrap direction chosen per pair;
- entering moves (from the injection port, or the X->Y dimension turn)
  are granted only while the target ring's VC column keeps >= 2 free
  slots (the entering packet takes one; one bubble survives);
- in-ring moves need only the usual free downstream VC.

The paper cites BFC as the ring/torus-specific proactive alternative;
having it executable lets the test suite demonstrate its guarantee on
tori — and that, like every proactive scheme, it constrains admission
where DRAIN constrains nothing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.config import SimConfig
from ..core.metrics import NetworkStats
from ..router.packet import Packet
from ..routing.base import RoutingFunction
from ..topology.graph import Link
from .fabric import Fabric
from .index import FabricIndex

__all__ = ["TorusDorRouting", "BubbleFlowFabric"]


class TorusDorRouting(RoutingFunction):
    """Dimension-order routing on a 2D torus, shortest wrap per dimension."""

    # DOR on torus rings is NOT deadlock-free by itself (the wrap closes a
    # cycle); the bubble condition supplies the safety.
    deadlock_free = False

    def __init__(self, index: FabricIndex, width: int, height: int) -> None:
        if width * height != index.num_nodes:
            raise ValueError("torus dimensions do not match the topology")
        self.index = index
        self.width = width
        self.height = height
        n = index.num_nodes
        self._next: List[List[int]] = [[-1] * n for _ in range(n)]
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    self._next[src][dst] = self._compute_next(src, dst)

    def _compute_next(self, src: int, dst: int) -> int:
        width, height = self.width, self.height
        sx, sy = src % width, src // width
        dx, dy = dst % width, dst // width
        if sx != dx:
            forward = (dx - sx) % width
            backward = (sx - dx) % width
            step = 1 if forward <= backward else -1
            nxt = ((sx + step) % width) + sy * width
        else:
            forward = (dy - sy) % height
            backward = (sy - dy) % height
            step = 1 if forward <= backward else -1
            nxt = sx + ((sy + step) % height) * width
        return self.index.link_id[Link(src, nxt)]

    def candidates(self, router: int, packet: Packet) -> List[int]:
        return [self._next[router][packet.dst]]

    def next_link(self, router: int, dst: int) -> int:
        return self._next[router][dst]


class BubbleFlowFabric(Fabric):
    """Fabric whose ring-entry claims obey the localised bubble condition.

    Ring membership is positional on the torus: a link whose endpoints
    share a row belongs to that row's X ring; sharing a column, the
    column's Y ring. The base allocation loop exposes the input port being
    served (``_serving_port``); ``_pick_vc`` vetoes claims that would
    enter a ring without leaving a bubble.

    Event-horizon note: the inherited ``inert``/``skip_cycles`` pair
    stays sound here (this subclass runs the scalar kernel, so only the
    empty case of ``inert`` applies) — the only extra per-cycle state, the
    ``_pending_entries`` admission ledger, is cleared at the *start* of
    every movement stage, so a skipped idle cycle (which would only have
    cleared an already-empty dict) leaves nothing stale behind.
    """

    def __init__(self, index: FabricIndex, config: SimConfig,
                 routing: RoutingFunction, width: int, height: int,
                 stats: Optional[NetworkStats] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, config, routing, escape_mode=None,
                         stats=stats, rng=rng)
        self.width = width
        self.height = height
        # Rings are *unidirectional*: the clockwise and counterclockwise
        # traversals of a physical ring are independent buffer cycles, and
        # the bubble must survive in the direction actually entered.
        self.link_ring: List[Optional[Tuple[str, int, int]]] = []
        for i in range(index.num_links):
            src, dst = index.link_src[i], index.link_dst[i]
            if src // width == dst // width:
                sx, dx = src % width, dst % width
                direction = +1 if (dx - sx) % width == 1 else -1
                self.link_ring.append(("x", src // width, direction))
            elif src % width == dst % width:
                sy, dy = src // width, dst // width
                direction = +1 if (dy - sy) % height == 1 else -1
                self.link_ring.append(("y", src % width, direction))
            else:
                self.link_ring.append(None)
        self.ring_links: Dict[Tuple[str, int, int], List[int]] = {}
        for link, ring in enumerate(self.link_ring):
            if ring is not None:
                self.ring_links.setdefault(ring, []).append(link)
        self.bubble_stalls = 0  # admission vetoes (proactive restriction cost)
        #: Ring entries already granted this cycle: without this, two
        #: simultaneous entries could each see two free slots and together
        #: consume the last bubble (the classic BFC admission race).
        self._pending_entries: Dict[Tuple[Tuple[str, int, int], int], int] = {}

    def _ring_free_slots(self, ring: Tuple[str, int, int], vn: int) -> int:
        free = 0
        flat = self._buf
        stride = self._port_stride
        vcs = self.vcs_per_vn
        offset = vn * vcs
        for link in self.ring_links[ring]:
            base = link * stride + offset
            for i in range(vcs):
                if flat[base + i] is None:
                    free += 1
        return free

    def _is_entering(self, src_port: int, link: int) -> bool:
        if self.index.is_injection_port(src_port):
            return True
        return self.link_ring[src_port] != self.link_ring[link]

    def _pick_vc(self, port: int, vn: int, vc_mode: int, claimed) -> int:
        vc = super()._pick_vc(port, vn, vc_mode, claimed)
        if vc < 0 or port >= self.index.num_links:
            return vc
        ring = self.link_ring[port]
        if ring is None:
            return vc
        if self._is_entering(self._serving_port, port):
            pending = self._pending_entries.get((ring, vn), 0)
            if self._ring_free_slots(ring, vn) - pending < 2:
                self.bubble_stalls += 1
                return -1
            self._pending_entries[(ring, vn)] = pending + 1
        return vc

    def movement_stage(self) -> None:
        self._pending_entries.clear()
        super().movement_stage()
