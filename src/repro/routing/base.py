"""Routing-function interface.

A routing function answers one question for the fabric's allocator: given a
packet's current router, its destination and its routing state, which
output links may it take next? Candidates are returned as link ids in the
shared :class:`~repro.network.index.FabricIndex` numbering.

Routing functions are table-driven — all shortest-path / legality
computation happens at construction time, so per-cycle routing is a table
lookup (the hardware analogue: route-computation tables filled at boot).
Every function a simulation builds keeps its relation in one form, the CSR
candidate tables of :attr:`RoutingFunction.compiled_tables`, which the
vectorized engine reads whole and everything else one cell per
:meth:`RoutingFunction.candidates` call (the dense reference sweep, the
deadlock oracles).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from ..router.packet import Packet

__all__ = ["RoutingFunction"]


class RoutingFunction(ABC):
    """Abstract table-driven routing function."""

    #: True when the function is deadlock-free by construction (used by the
    #: scheme layer to decide whether an escape mechanism is required).
    deadlock_free: bool = False

    #: True when candidates depend on the packet's up*/down* phase bit
    #: (``Packet.updown_up_phase``), the only per-packet routing state the
    #: fabric, its memo and the vectorized engine model. A stateful
    #: function sets the bit in :meth:`on_inject`, clears it in
    #: :meth:`on_hop` on a link whose ``link_is_up`` byte is 0, and keeps
    #: one table per phase. The static certifier
    #: (:mod:`repro.analysis.certifier`) follows the phase from injection
    #: through :meth:`arrival_phase`.
    stateful: bool = False

    #: True when every candidate of every cell leads exactly one hop closer
    #: to the destination under the distances the tables were compiled
    #: against: a move along tables that carry the live fault epoch never
    #: misroutes, so the vectorized engine skips the per-move distance
    #: test for them. A fact about the class, never a knob; an instance
    #: may only clear it, where its topology breaks the class's premise.
    minimal: bool = False

    #: CSR candidate tables
    #: (:class:`~repro.network.index.DenseCandidateTables`), in the exact
    #: order :meth:`candidates` yields them (the allocator's rotation
    #: starts from an LCG draw over that order); for a stateful function a
    #: ``(down-phase, up-phase)`` pair indexed by the phase bit. Tagged
    #: with the fault epoch they were built under; subclasses with a
    #: rebuild story replace them in :meth:`rebuild`.
    compiled_tables = None

    @abstractmethod
    def candidates(self, router: int, packet: Packet) -> List[int]:
        """Output link ids *packet* may take from *router* (dst != router)."""

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
