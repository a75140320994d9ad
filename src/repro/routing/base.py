"""Routing-function interface.

A routing function answers one question for the fabric's allocator: given a
packet's current router, its destination and its routing state, which
output links may it take next? Candidates are returned as link ids in the
shared :class:`~repro.network.index.FabricIndex` numbering.

Routing functions are table-driven — all shortest-path / legality
computation happens at construction time, so per-cycle routing is a list
lookup (the hardware analogue: route-computation tables filled at boot).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from ..router.packet import Packet

__all__ = ["RoutingFunction"]


class RoutingFunction(ABC):
    """Abstract table-driven routing function."""

    #: True when the function is deadlock-free by construction (used by the
    #: scheme layer to decide whether an escape mechanism is required).
    deadlock_free: bool = False

    #: True when candidates depend on per-packet routing state beyond the
    #: destination (up*/down*'s phase bit). The static certifier
    #: (:mod:`repro.analysis.certifier`) enumerates both phases for
    #: stateful functions when building the channel-dependency graph.
    stateful: bool = False

    #: CSR candidate tables
    #: (:class:`~repro.network.index.DenseCandidateTables`) of functions
    #: that keep their relation in that form, else None. Holders must
    #: treat them as current only while ``compiled_tables.epoch`` matches
    #: the live index's fault epoch; subclasses replace them on rebuild.
    compiled_tables = None

    @abstractmethod
    def candidates(self, router: int, packet: Packet) -> List[int]:
        """Output link ids *packet* may take from *router* (dst != router)."""

    def cache_key(self, packet: Packet) -> object:
        """Hashable summary of the per-packet state ``candidates`` reads.

        The fabric memoizes candidate groups per (router, destination,
        escape flag); for stateful functions the memo key additionally
        includes this value, so two packets with equal keys must receive
        identical candidates. Stateful subclasses must override.
        """
        if self.stateful:
            raise NotImplementedError(
                f"{type(self).__name__} is stateful but defines no cache_key"
            )
        return None

    def on_hop(self, packet: Packet, link_id: int) -> None:
        """Update per-packet routing state after traversing *link_id*.

        Default: no state. Up*/down* overrides this to latch the phase bit.
        """

    def on_inject(self, packet: Packet) -> None:
        """Initialise per-packet routing state at injection."""

    def rebuild(self) -> None:
        """Recompute route tables after a runtime fault (online recovery).

        Implementations read the fault state from their ``FabricIndex``
        (``dead_links`` / ``dead_routers`` and the refreshed distance
        matrix). Functions without a fault story refuse loudly rather than
        silently routing into dead links.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support online fault recovery"
        )

    # ------------------------------------------------------------------
    # Static-analysis hooks (repro.analysis.certifier)
    # ------------------------------------------------------------------
    def route_candidates(
        self, router: int, dst: int, up_phase: bool = True
    ) -> List[int]:
        """Candidates for an explicit (router, destination, phase) query.

        The certifier interrogates routing tables without live packets; a
        throwaway probe packet carries the destination and — for stateful
        functions — the phase bit. Requires ``router != dst``.
        """
        probe = Packet(-1, router, dst)
        probe.updown_up_phase = up_phase
        return self.candidates(router, probe)

    def arrival_phase(self, link_id: int, up_phase: bool) -> bool:
        """Phase a packet is in after traversing *link_id*.

        Mirrors :meth:`on_hop` for the certifier's dependency-graph
        construction. Stateless functions keep the phase unchanged.
        """
        return up_phase

    # ------------------------------------------------------------------
    # Dense-table export (repro.network.vectorized)
    # ------------------------------------------------------------------
    def export_tables(self, num_nodes: int) -> Optional[List[List[List[int]]]]:
        """Full per-(router, dst) candidate tables, or None if unavailable.

        The vectorized movement engine precompiles candidate lookups into
        flat index tables; it can only do so when the complete routing
        relation is a pure function of (router, dst). Stateless functions
        get a generic probe-based export; table-backed subclasses override
        with a zero-copy view of their own tables. Stateful functions
        return None, which makes the engine fall back to the scalar path.

        The returned nested lists must present candidates in exactly the
        order :meth:`candidates` yields them — the allocator's randomised
        rotation starts from an LCG draw over that order, so a reordered
        export would silently change grant decisions.
        """
        if self.stateful:
            return None
        tables: List[List[List[int]]] = []
        for router in range(num_nodes):
            row: List[List[int]] = []
            for dst in range(num_nodes):
                if dst == router:
                    row.append([])
                else:
                    row.append(list(self.candidates(router, Packet(-1, router, dst))))
            tables.append(row)
        return tables
