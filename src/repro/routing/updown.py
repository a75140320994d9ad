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
tables, one per phase, read by the packet's phase bit; every destination's
BFS runs at once (numpy frontiers), and at fault epoch 0 the result is a
part of the topology's :class:`~repro.structcache.CompiledNetwork`, shared
by every simulation and the certifier.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..network.index import DenseCandidateTables, FabricIndex
from ..router.packet import Packet
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
        alive = np.ones(index.num_links, dtype=bool)
        alive[sorted(index.dead_links)] = False
        if index.dead_routers:
            dead = np.zeros(n, dtype=bool)
            dead[sorted(index.dead_routers)] = True
            alive &= ~(dead[src] | dead[dst])

        # Product states 2 * router + phase (1 = up phase). An up link is
        # legal from the up phase only and stays there; a down link is
        # legal from either phase and lands in the down phase.
        live = np.flatnonzero(alive)
        downs = live[~up[live]]
        prev = np.concatenate((2 * src[live] + 1, 2 * src[downs]))
        succ = np.concatenate((2 * dst[live] + up[live], 2 * dst[downs]))
        pred = prev[np.argsort(succ, kind="stable")]
        deg = np.bincount(succ, minlength=2 * n)
        start = np.concatenate(([0], np.cumsum(deg)))

        # hops[state * n + d]: legal distance from state to destination d,
        # every destination's reverse BFS at once (a frontier key is
        # ``state * n + d``, as in Topology._all_pairs_numpy).
        hops = np.full(2 * n * n, -1, dtype=np.int32)
        d = np.arange(n, dtype=np.int64)
        frontier = np.concatenate((2 * d * n + d, (2 * d + 1) * n + d))
        hops[frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            state = frontier // n
            count = deg[state]
            total = int(count.sum())
            reps = np.repeat(np.arange(frontier.size), count)
            offs = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
            keys = pred[start[state][reps] + offs] * n + (frontier % n)[reps]
            fresh = keys[hops[keys] < 0]
            if not fresh.size:
                break
            hops[fresh] = level
            frontier = np.flatnonzero(hops == level)
        hops = hops.reshape(2 * n, n)
        lengths = np.ascontiguousarray(hops[1::2])
        lengths.setflags(write=False)
        if strict and (lengths < 0).any():
            target, router = divmod(int((lengths < 0).T.argmax()), n)
            raise ValueError(f"up*/down* cannot route {router} -> {target}: "
                             "topology must be connected")

        # Cells: the links whose landing state is one hop closer, in
        # out-link (= neighbour) order, the landing-state order of a BFS
        # parent scan. Row r * n + d of table [phase].
        def cell(router):
            out = np.asarray([link for link in index.out_links[router]
                              if alive[link]], dtype=np.int32)
            reach = hops[2 * dst[out] + up[out]]  # (k, n) after each link
            masks = []
            for phase in (0, 1):
                here = hops[2 * router + phase]
                productive = (reach == here - 1) & (here > 0)
                if not phase:
                    productive &= ~up[out][:, None]
                masks.append(productive)
            return out, masks

        adaptive = DenseCandidateTables.compile(index, cell)

        # The single-path variant: each non-empty cell's lowest link.
        def lowest(tables):
            full = tables.counts() > 0
            links = (np.minimum.reduceat(tables.links, tables.offsets[:-1][full])
                     if tables.links.size else tables.links)
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

