"""Shared construction for cross-trial batches (see DESIGN.md,
"Cross-trial batching").

A batch is a ``for`` loop: :func:`repro.harness.trials._run_batch` runs
each member's own :meth:`Simulation.run` to completion, one after
another, and the only thing members share is what is expensive to build
and read-only once built. One topology, one
:class:`~repro.network.index.FabricIndex` (the all-pairs BFS), one
routing build, one drain path (:class:`SharedParts`) and one compiled
vectorized-engine table set (:func:`adopt_engine_tables`) serve every
fault-free member of a group. Sharing never reaches per-trial state, so
every member's result dict is bit-identical to its solo run — the
batched parity-fuzz lane pins that against all three solo engines.
"""

from __future__ import annotations

__all__ = [
    "SharedParts",
    "adopt_engine_tables",
]


class SharedParts:
    """Construction artefacts shared across a batch's fault-free members.

    Built once from the group's common (topology, config-sans-seed)
    shape; :class:`~repro.core.simulator.Simulation` adopts the index and
    routing functions when handed an instance whose ``topology`` is the
    one it was given (the guard that keeps accidental cross-topology
    reuse impossible). All shared pieces are read-only on the hot path:
    the index is only mutated by fault application (fault members build
    private parts), and the routing functions are stateless by the
    vectorized-engine support gate.
    """

    __slots__ = ("topology", "scheme", "index", "routing",
                 "escape_routing", "drain_path", "drain_ctrl")

    def __init__(self, topology, scheme, index, routing, escape_routing,
                 drain_path, drain_ctrl=None) -> None:
        self.topology = topology
        self.scheme = scheme
        self.index = index
        self.routing = routing
        self.escape_routing = escape_routing
        self.drain_path = drain_path
        #: Donor drain controller — members adopt its compiled turn
        #: tables (read-only until a recovery reinstall replaces them).
        self.drain_ctrl = drain_ctrl

    @classmethod
    def from_simulation(cls, sim) -> "SharedParts":
        """Capture a donor simulation's shareable construction artefacts."""
        ctrl = sim.drain_controller
        return cls(
            sim.topology,
            sim.config.scheme,
            sim.index,
            sim.fabric.routing,
            sim.fabric.escape_routing,
            ctrl.path if ctrl is not None and ctrl.paths else None,
            ctrl,
        )


def adopt_engine_tables(donor_fabric, fabrics) -> int:
    """Share the donor's compiled vectorized-engine rows with *fabrics*.

    The rows are immutable tuples keyed by (index, routing, escape mode);
    adoption is gated on all three being the donor's own objects, which
    holds exactly for the fault-free members of one batch group. Members
    whose fault epoch later moves rebuild privately (the engine's normal
    invalidation path). Returns the number of adopters.
    """
    donor = getattr(donor_fabric, "_engine", None)
    if donor is None:
        return 0
    if donor._rows is None or donor._epoch != donor_fabric.index.fault_epoch:
        donor._build_tables()
    adopted = 0
    for fabric in fabrics:
        eng = getattr(fabric, "_engine", None)
        if (
            eng is None
            or eng is donor
            or eng._rows is not None
            or fabric.index is not donor_fabric.index
            or fabric.routing is not donor_fabric.routing
            or fabric.escape_routing is not donor_fabric.escape_routing
            or fabric.escape_mode != donor_fabric.escape_mode
            or fabric.escape_sticky != donor_fabric.escape_sticky
        ):
            continue
        eng._rows = donor._rows
        eng._esc_rows = donor._esc_rows
        eng._epoch = donor._epoch
        eng._used0 = donor._used0  # same index, same epoch; copied per cycle
        eng.tables = donor.tables
        eng.escape_tables = donor.escape_tables
        eng.rebuilds += 1  # counts as this engine's initial build
        adopted += 1
    return adopted
