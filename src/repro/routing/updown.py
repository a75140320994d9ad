"""Up*/down* routing [9] — the turn-restriction baseline for irregular networks.

Routers are numbered by BFS discovery order from a root. Each
unidirectional link is classified *up* (towards a lower number / the root)
or *down*. A legal route is any sequence of zero or more up links followed
by zero or more down links; the forbidden down->up turn breaks every cyclic
channel dependency, making the function deadlock-free on any connected
topology — at the cost of non-minimal paths (the performance gap quantified
by Figure 5 of the paper).

Routes are shortest paths in the product graph of (router, phase) states,
so the function is *adaptive within legality*: all legal next hops on
shortest legal paths are offered as candidates. The relation is two CSR
tables, one per phase, read by the packet's phase bit; every state's legal
distances come from one bit-parallel BFS over the product graph
(:func:`~repro.topology.graph.hop_distances`), and at fault epoch 0 the
result is a part of the topology's
:class:`~repro.structcache.CompiledNetwork`, shared by every simulation and
the certifier.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..network.index import DenseCandidateTables, FabricIndex
from ..router.packet import Packet
from ..topology.graph import hop_distances
from .base import RoutingFunction

__all__ = ["UpDownRouting"]


class UpDownRouting(RoutingFunction):
    """Adaptive shortest-path up*/down* routing over an arbitrary topology."""

    deadlock_free = True
    stateful = True  # candidates depend on the packet's up/down phase bit

    def __init__(self, index: FabricIndex, root: int = 0,
                 deterministic: bool = False) -> None:
        """*deterministic* selects the classic single-path variant: each
        (router, phase, destination) uses one fixed legal next hop — the
        lowest-numbered link of the adaptive cell — as in conventional
        up*/down* implementations [9]. The default offers all legal
        shortest next hops (adaptive-within-legality)."""
        self.index = index
        self.root = root
        self.deterministic = deterministic
        if index.fault_epoch == 0:
            built = index.compiled.part(
                ("updown", root), lambda: self._compile(strict=True))
        else:
            built = self._compile(strict=True)
        self._adopt(built)

    def _adopt(self, built) -> None:
        # label[r] = (BFS order, r), the required unique total ordering;
        # link_is_up[l] = 1 when link l goes up (towards a smaller label);
        # _lengths[src, dst] = legal hops of a fresh (up-phase) packet;
        # compiled_tables = (down-phase, up-phase), indexed by the bit.
        self.label, self.link_is_up, adaptive, single, self._lengths = built
        self.compiled_tables = single if self.deterministic else adaptive

    def _compile(self, strict: bool):
        """(labels, link classes, adaptive tables, deterministic tables,
        route lengths) over the live index's surviving links. With
        ``strict=False`` unreachable pairs are tolerated — the post-fault
        rebuild path, as Autonet-style systems relabel after a failure."""
        index = self.index
        n = index.num_nodes
        src = np.asarray(index.link_src, dtype=np.intp)
        dst = np.asarray(index.link_dst, dtype=np.intp)
        # BFS numbering from the root over the surviving graph is the
        # root's row of the live distance matrix (-1: cut off).
        order = np.asarray(index.dist_matrix()[self.root], dtype=np.int64)
        label = list(zip(order.tolist(), range(n)))
        up = (order[dst] < order[src]) | (
            (order[dst] == order[src]) & (dst < src))
        alive = index.live_links()

        # Product states 2 * router + phase (1 = up phase). An up link is
        # legal from the up phase only and stays there; a down link is
        # legal from either phase and lands in the down phase.
        land = 2 * dst + up  # the state a legal hop over each link lands in
        live = np.flatnonzero(alive)
        downs = live[~up[live]]
        prev = np.concatenate((2 * src[live] + 1, 2 * src[downs]))
        succ = np.concatenate((land[live], 2 * dst[downs]))

        # hops[state, d]: legal distance from state to destination d, which
        # both of d's phase states seed.
        hops = hop_distances(prev, succ, np.arange(2 * n) // 2, n)
        lengths = np.ascontiguousarray(hops[1::2])
        lengths.setflags(write=False)
        if strict and (lengths < 0).any():
            target, router = divmod(int((lengths < 0).T.argmax()), n)
            raise ValueError(f"up*/down* cannot route {router} -> {target}: "
                             "topology must be connected")

        # Cells: the links whose landing state is one hop closer, in
        # out-link (= neighbour) order, the landing-state order of a BFS
        # parent scan. Row r * n + d of table [phase].
        live_out = [[link for link in links if alive[link]]
                    for links in index.out_links]

        def cell(router):
            out = np.asarray(live_out[router], dtype=np.int32)
            here = hops[2 * router:2 * router + 2, None]  # (2, 1, n)
            # (2, k, n): per phase, the links landing one hop closer.
            masks = (hops[land[out]] == here - 1) & (here > 0)
            masks[0] &= ~up[out][:, None]  # no up link from the down phase
            return out, masks

        adaptive = DenseCandidateTables.compile(index, cell)

        # The single-path variant: each non-empty cell's lowest link, its
        # first (a cell lists its links in ascending out-link order).
        def lowest(tables):
            full = tables.counts() > 0
            links = tables.links[tables.offsets[:-1][full]]
            return DenseCandidateTables.from_arrays(
                index, DenseCandidateTables.offsets_of(full), links)

        single = tuple(lowest(t) for t in adaptive)
        return (label, up.astype(np.uint8).tobytes(), adaptive, single,
                lengths)

    def rebuild(self) -> None:
        """Relabel and recompute routes after a runtime fault.

        Requires the index's fault state to be current. Unreachable pairs
        yield empty candidate lists; the fault injector is responsible for
        dropping packets with no surviving route.
        """
        self._adopt(self._compile(strict=False))

    # ------------------------------------------------------------------
    # RoutingFunction interface
    # ------------------------------------------------------------------
    def on_inject(self, packet: Packet) -> None:
        packet.updown_up_phase = True

    def on_hop(self, packet: Packet, link_id: int) -> None:
        if not self.link_is_up[link_id]:
            packet.updown_up_phase = False

    def candidates(self, router: int, packet: Packet) -> List[int]:
        return self.compiled_tables[packet.updown_up_phase].row(
            router, packet.dst)

    def arrival_phase(self, link_id: int, up_phase: bool) -> bool:
        """A packet stays in the up phase only while traversing up links.

        Up links are legal from the up phase alone, so the phase after a
        legal traversal of *link_id* is fully determined by its class —
        the static-certifier analogue of :meth:`on_hop`.
        """
        return up_phase and bool(self.link_is_up[link_id])

    # ------------------------------------------------------------------
    # Analysis hooks
    # ------------------------------------------------------------------
    def route_length(self, src: int, dst: int) -> int:
        """Shortest legal path length from a freshly injected packet."""
        return int(self._lengths[src, dst])

    def average_route_length(self) -> float:
        """Mean legal route length over all ordered pairs (Figure 5 input)."""
        pairs = self.index.num_nodes * (self.index.num_nodes - 1)
        total = int(self._lengths.sum(dtype=np.int64))
        return total / pairs if pairs else 0.0

    def non_minimality(self) -> float:
        """Ratio of mean up*/down* route length to mean minimal distance."""
        minimal = self.index.topology.average_distance()
        return self.average_route_length() / minimal if minimal else 1.0

