"""Dimension-order (XY) routing for fault-free 2D meshes.

DOR is the classic proactively deadlock-free routing function: packets
first travel along X, then along Y, which forbids the Y->X turns needed to
close a cyclic channel dependency. The paper uses DOR as the escape-VC
routing function on the fault-free mesh (Section V-B) and as the basic
router baseline for the area comparison.
"""

from __future__ import annotations

from typing import List

from ..network.index import DenseCandidateTables, FabricIndex
from ..router.packet import Packet
from ..topology.graph import Link
from .base import RoutingFunction

__all__ = ["DimensionOrderRouting"]


class DimensionOrderRouting(RoutingFunction):
    """XY routing over a fault-free mesh (requires mesh coordinates)."""

    deadlock_free = True
    # On a complete mesh an XY route is as long as the Manhattan distance,
    # which is the hop distance: every next hop is one hop closer. A link
    # that is not one grid step (a torus's wrap link) is a shortcut XY
    # never takes, and the constructor clears the fact for that instance.
    minimal = True

    def __init__(self, index: FabricIndex) -> None:
        self.index = index
        topology = index.topology
        if topology.coordinates is None:
            raise ValueError("dimension-order routing requires mesh coordinates")
        if index.dead_links or index.dead_routers:
            raise ValueError("dimension-order routing requires a fault-free mesh")
        coords = topology.coordinates
        if any(abs(coords[a][0] - coords[b][0])
               + abs(coords[a][1] - coords[b][1]) != 1
               for a, b in zip(index.link_src, index.link_dst)):
            self.minimal = False
        n = index.num_nodes
        self._next: List[List[int]] = [[-1] * n for _ in range(n)]
        for router in range(n):
            x, y = coords[router]
            for dst in range(n):
                if dst == router:
                    continue
                dx, dy = coords[dst]
                if dx != x:
                    step = (x + 1, y) if dx > x else (x - 1, y)
                else:
                    step = (x, y + 1) if dy > y else (x, y - 1)
                neighbor = next(
                    (m for m in topology.neighbors(router) if coords[m] == step),
                    None,
                )
                if neighbor is None:
                    raise ValueError(
                        f"XY route from {router} to {dst} needs missing link "
                        f"{(x, y)}->{step}: topology is not a full mesh"
                    )
                self._next[router][dst] = index.link_id[Link(router, neighbor)]
        #: The same relation as CSR tables (the vectorized engine's form).
        self.compiled_tables = DenseCandidateTables(index, [
            [[link] if link >= 0 else [] for link in row]
            for row in self._next
        ])

    def candidates(self, router: int, packet: Packet) -> List[int]:
        return [self._next[router][packet.dst]]

    def next_link(self, router: int, dst: int) -> int:
        """The unique XY next-hop link id (test hook)."""
        return self._next[router][dst]
