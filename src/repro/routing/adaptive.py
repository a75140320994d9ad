"""Fully adaptive minimal routing (Table II: "Fully adaptive random").

Every output link that lies on *some* shortest path to the destination is a
candidate; the allocator breaks ties (randomised rotation), which yields
the paper's fully-adaptive-random behaviour. No turn restrictions are
imposed, so this routing function is **not** deadlock-free — exactly the
regime DRAIN and SPIN operate in, and the routing used for the Figure 3
deadlock-likelihood study.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..network.index import DenseCandidateTables, FabricIndex
from ..router.packet import Packet
from .base import RoutingFunction

__all__ = ["AdaptiveMinimalRouting"]


class AdaptiveMinimalRouting(RoutingFunction):
    """Table-driven minimal adaptive routing over an arbitrary topology.

    The productive-link tables live in one form only: the frozen CSR
    arrays of :attr:`compiled_tables`
    (:class:`~repro.network.index.DenseCandidateTables`). Over a
    boot-state index (fault epoch 0) they are the topology's memoised
    tables (:meth:`repro.structcache.CompiledNetwork.tables`), compiled
    from the distance matrix once and shared by every simulation of that
    topology; *tables* overrides them, accepted only if its fault epoch
    matches the live index. Over a faulted index, and on every
    fault-driven :meth:`rebuild`, the same compile runs on the live index
    under its epoch, so a rebuild of a thousand-node table stays cheap and
    stale tables cannot survive a fault. The vectorized engine consumes the
    arrays as they are; the dense sweep and the deadlock oracles read one
    CSR row per :meth:`candidates` call (the fabric memoises per cell); the
    nested list form exists only for callers of :meth:`export_tables`.
    """

    deadlock_free = False
    minimal = True  # cells are ``dist[link_dst[out]] == row - 1``

    def __init__(
        self,
        index: FabricIndex,
        tables: Optional[DenseCandidateTables] = None,
    ) -> None:
        self.index = index
        #: Nested-list view handed out by :meth:`export_tables` (None
        #: until somebody asks); once it exists it serves candidates().
        self._exported: Optional[List[List[List[int]]]] = None
        if tables is not None and tables.epoch == index.fault_epoch:
            if tables.num_nodes != index.num_nodes:
                raise ValueError(
                    "compiled tables do not match the index geometry"
                )
            self.compiled_tables: DenseCandidateTables = tables
        elif index.fault_epoch == 0:
            self.compiled_tables = index.compiled.tables(
                index, lambda: self._compile(strict=True)
            )
        else:
            self.compiled_tables = self._compile(strict=True)

    def _compile(self, strict: bool) -> DenseCandidateTables:
        """CSR tables of the live index: links one hop closer to each dst."""
        index = self.index
        n = index.num_nodes
        dist = index.dist_matrix()
        dead_links = index.dead_links
        link_dst = np.asarray(index.link_dst, dtype=np.intp)

        def cell(router):
            out = index.out_links[router]
            if dead_links:
                out = [link for link in out if link not in dead_links]
            out = np.asarray(out, dtype=np.int32)
            row = dist[router]
            # productive[k, dst]: taking out[k] shortens the way to dst.
            # row > 0 drops the router itself and unreachable (-1) pairs.
            return out, [(dist[link_dst[out]] == row - 1) & (row > 0)]

        (tables,) = DenseCandidateTables.compile(index, cell)
        if strict:
            # Empty cells, read off the offsets: counts() would be another
            # n * n int32 array.
            offsets = tables.offsets
            stranded = (offsets[1:] == offsets[:-1]).reshape(n, n)
            np.fill_diagonal(stranded, False)
            if stranded.any():
                router, dst = divmod(int(stranded.argmax()), n)
                raise ValueError(
                    f"no productive link from {router} to {dst}: "
                    "topology must be connected"
                )
        return tables

    def rebuild(self) -> None:
        """Recompute the route tables after a runtime fault.

        The index's distance matrix must already reflect the fault (see
        :meth:`FabricIndex.apply_faults`). Unlike construction, a rebuild
        tolerates unreachable pairs — those (router, dst) entries become
        empty candidate lists and the fault injector drops the affected
        packets instead of crashing the allocator.
        """
        self._exported = None
        self.compiled_tables = self._compile(strict=False)

    def candidates(self, router: int, packet: Packet) -> List[int]:
        exported = self._exported
        if exported is not None:
            return exported[router][packet.dst]
        return self.compiled_tables.row(router, packet.dst)

    def raw_candidates(self, router: int, dst: int) -> List[int]:
        """Productive links for an explicit (router, dst) pair (test hook)."""
        return self.compiled_tables.row(router, dst)

    def export_tables(self, num_nodes: int) -> List[List[List[int]]]:
        """Zero-copy export of the productive-link tables as nested lists.

        Materialised from the CSR arrays on first call; from then on
        :meth:`candidates` serves the same list objects, so the export is
        current by construction — a fault-driven :meth:`rebuild` drops it
        and the next call exports the rebuilt tables.
        """
        exported = self._exported
        if exported is None:
            tables = self.compiled_tables
            n = tables.num_nodes
            flat = tables.links.tolist()
            offs = tables.offsets.tolist()
            exported = [
                [flat[offs[i]:offs[i + 1]] for i in range(r * n, (r + 1) * n)]
                for r in range(n)
            ]
            self._exported = exported
        return exported
