"""Cross-trial lockstep batching: amortize setup and per-cycle overhead
across independent sweep trials (see DESIGN.md, "Cross-trial lockstep
batching").

PR 6 established why lockstep numpy *within one trial* loses: the
RNG-draw-parity contract makes conflict resolution sequential inside a
cycle. Independent trials have no such coupling — each trial's internal
draw order is untouched by running N of them side by side — so batching
across trials is the one axis where array work amortizes without touching
the parity contract at all.

The batch runner steps N compatible simulations cycle-by-cycle in one
process:

- **Shared construction** (done by the harness layer,
  :func:`repro.harness.trials.execute_batch`): one topology, one
  :class:`~repro.network.index.FabricIndex` (the all-pairs BFS), one
  routing build, one drain path and one compiled vectorized-engine table
  set serve every fault-free member.
- **Per-trial idle skip**: after the generate phase, a quiescent member
  replays the cycle in O(1) via ``Fabric.skip_cycles(1)`` — the same
  replay the solo fast-forward performs, applied per trial per cycle, so
  members idle and retire independently (the live-mask) without any
  cross-trial horizon coupling.
- **Due-gated drain controller**: in the normal state the controller's
  only per-cycle effect is the epoch countdown, which
  ``DrainController.skip_cycles`` replays in O(1); the batch loop
  accumulates those skips and steps the controller densely exactly at
  its event horizon (and on every in-window cycle).

Every member's result dict is bit-identical to its solo run — the
batched parity-fuzz lane pins that against all three solo engines.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "SharedParts",
    "BatchMember",
    "BatchedEngine",
]

# ----------------------------------------------------------------------
# Shared construction
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# The lockstep batch runner
# ----------------------------------------------------------------------

class BatchMember:
    """One trial inside a lockstep batch: the simulation plus loop state."""

    __slots__ = (
        "sim", "traffic", "cycles", "warmup", "end",
        "ctrl_gated", "ctrl_due", "ctrl_skips", "retired",
    )

    def __init__(self, sim, cycles: int, warmup: int = 0) -> None:
        if warmup >= cycles:
            raise ValueError("warmup must be shorter than the run")
        self.sim = sim
        self.traffic = sim.traffic
        self.cycles = cycles
        self.warmup = warmup
        self.end = sim.fabric.cycle + cycles
        # Drain-controller due-gating is only sound while nothing else can
        # shrink the countdown mid-flight: the degradation ladder and the
        # fault injector both may, so their members step the controller
        # densely (they are the parity lane's concern, not the perf path).
        self.ctrl_gated = (
            sim.drain_controller is not None
            and sim.fault_injector is None
            and sim.degradation_ladder is None
        )
        self.ctrl_due: Optional[int] = None
        self.ctrl_skips = 0
        self.retired = False


class BatchedEngine:
    """Step N independent same-shape simulations as one batch.

    Members advance in bounded quanta under a live-mask: each scheduling
    round grants every live member up to ``quantum`` cycles, members
    retire independently (traffic completion, watchdog halt, or their own
    end cycle), and the round-robin repeats until the mask empties. Every
    member cycle applies the exact :meth:`Simulation.step` phase order;
    at retirement ``measured_cycles`` is sealed exactly as
    :meth:`Simulation.run` seals it. The per-member quiescent skip and
    the due-gated drain controller replay precisely the state a dense
    cycle would touch, so results are bit-identical to solo runs.

    Why quanta instead of cycle-granularity lockstep: batch members are
    fully independent, so any interleaving is parity-exact — but
    switching fabrics every cycle was measured ~40% slower than solo on
    8x64-router members (the interleaved working sets thrash the cache,
    see DESIGN.md "Cross-trial lockstep batching"). A bounded quantum
    keeps one member's buffers hot while still bounding how far members
    skew apart (memory high-water and fair progress under eviction).
    """

    #: Default scheduling quantum (cycles per member per round).
    QUANTUM = 512

    def __init__(self, members: List[BatchMember],
                 quantum: int = QUANTUM) -> None:
        if not members:
            raise ValueError("a batch needs at least one member")
        if quantum < 1:
            raise ValueError("quantum must be at least 1 cycle")
        for m in members:
            if m.sim.fabric.cycle != 0:
                raise ValueError("batch members must join before cycle 0")
        self.members = list(members)
        self.quantum = quantum

    def run(self) -> None:
        for m in self.members:
            fabric = m.sim.fabric
            fabric.measure_from = fabric.cycle + m.warmup
            if m.ctrl_gated:
                m.ctrl_due = m.sim.drain_controller.next_event_cycle(
                    fabric.cycle
                )
        live = list(self.members)
        quantum = self.quantum
        step = self._step_member
        while live:
            nxt = []
            for m in live:
                grant = quantum
                while grant and not m.retired:
                    step(m)
                    grant -= 1
                if not m.retired:
                    nxt.append(m)
            live = nxt

    # ------------------------------------------------------------------
    def _step_member(self, m: BatchMember) -> None:
        """One cycle of one member: Simulation.step order, then the
        run-loop's retirement checks."""
        sim = m.sim
        fabric = sim.fabric
        cycle = fabric.cycle
        if sim.fault_injector is not None:
            sim.fault_injector.step()
        m.traffic.generate(fabric, cycle)
        if sim.degradation_ladder is not None:
            sim.degradation_ladder.step()
        ctrl = sim.drain_controller
        if ctrl is not None:
            if not m.ctrl_gated:
                ctrl.step()
            elif cycle >= m.ctrl_due:
                if m.ctrl_skips:
                    ctrl.skip_cycles(m.ctrl_skips)
                    m.ctrl_skips = 0
                ctrl.step()
                if ctrl.state != "normal":
                    m.ctrl_due = cycle + 1
                else:
                    m.ctrl_due = ctrl.next_event_cycle(cycle + 1)
            else:
                m.ctrl_skips += 1
        if sim.spin_controller is not None:
            sim.spin_controller.step()
        if sim.bubble_controller is not None:
            sim.bubble_controller.step()
        if sim.ideal_resolver is not None:
            sim.ideal_resolver.step()
        if sim.watchdog is not None:
            sim.watchdog.step()
        if fabric.quiescent:
            # A dense step on a quiescent fabric touches exactly the
            # counters skip_cycles replays, and consume is a no-op.
            fabric.skip_cycles(1)
        else:
            fabric.step()
            m.traffic.consume(fabric, fabric.cycle)
        if m.traffic.done():
            self._retire(m)
        elif sim.halt_on_deadlock and sim.deadlocked:
            self._retire(m)
        elif fabric.cycle >= m.end:
            self._retire(m)

    def _retire(self, m: BatchMember) -> None:
        fabric = m.sim.fabric
        m.sim.stats.measured_cycles = max(
            0, fabric.cycle - fabric.measure_from
        )
        m.retired = True
