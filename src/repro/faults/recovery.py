"""Online drain-path recovery over the surviving dependency graph.

When a permanent fault removes links (or whole routers), the boot-time
drain path no longer exists: some of its links are gone, and the survivor
graph may even have split into several connected components. DRAIN's
fault story (Section III-B / VI of the paper) is to rerun the offline
path-construction algorithm on the survivor graph and broadcast fresh
turn-tables; this module is that rerun.

Per surviving component the paper's preferred engine — Hawick-James
elementary-circuit search — is tried first under a deterministic
``max_circuits`` budget (the stand-in for a wall-clock timeout: cycle
enumeration is exponential in the worst case, and the budget bounds it
without leaking real time into results). On budget exhaustion, or for
components too large to search at all, recovery falls back to the
spanning-tree/Eulerian engine (Hierholzer), which is linear-time and
guaranteed to succeed on any component — every router keeps equal in- and
out-degree because links die in bidirectional pairs.

The result is one covering cycle per component; together they cover every
surviving unidirectional link exactly once, which
:meth:`repro.drain.controller.DrainController.install_paths` requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..drain.path import (
    DrainPath,
    DrainPathError,
    euler_drain_path,
    hawick_james_drain_path,
)
from ..network.index import FabricIndex

__all__ = ["RecoveryResult", "recover_drain_paths"]

#: Components with more unidirectional links than this skip Hawick-James
#: entirely — the circuit space is far too large to enumerate — and go
#: straight to the Eulerian engine.
HAWICK_JAMES_LINK_BUDGET = 24


@dataclass
class RecoveryResult:
    """Outcome of one online drain-path recovery."""

    paths: List[DrainPath]
    engines: List[str] = field(default_factory=list)  # one per component
    covered_links: int = 0  # unidirectional links covered, all components

    @property
    def components(self) -> int:
        return len(self.paths)

    @property
    def engine(self) -> str:
        """Summary label: ``hawick-james``, ``euler`` or ``mixed``."""
        unique = set(self.engines)
        if len(unique) == 1:
            return next(iter(unique))
        return "mixed" if unique else "none"


def recover_drain_paths(
    index: FabricIndex,
    max_circuits: int = 512,
) -> RecoveryResult:
    """Re-cover the surviving graph of *index* with drain cycles.

    Returns one :class:`~repro.drain.path.DrainPath` per surviving
    connected component (components are sub-topologies on the full router
    numbering with dead routers isolated, so link identities — and hence
    the fabric's port ids — are preserved), in root order. Raises
    :class:`~repro.drain.path.DrainPathError` when no links survive at
    all; anything less catastrophic always succeeds via the Eulerian
    fallback.
    """
    surviving = index.surviving_topology()
    components = surviving.link_components()
    if not components:
        raise DrainPathError(
            f"no links survive on {surviving.name!r}; "
            "the drain path cannot be recovered"
        )
    result = RecoveryResult(paths=[])
    for members in components:
        comp = surviving.component(members)
        path = None
        engine = "euler"
        if 2 * comp.num_edges <= HAWICK_JAMES_LINK_BUDGET:
            try:
                path = hawick_james_drain_path(comp, max_circuits=max_circuits)
                engine = "hawick-james"
            except DrainPathError:
                path = None  # budget exhausted: fall back
        if path is None:
            path = euler_drain_path(comp, start=members[0])
        result.paths.append(path)
        result.engines.append(engine)
        result.covered_links += len(path)
    return result
