"""Top-level simulation facade: wire a topology, a scheme and a traffic
source into a runnable cycle-level simulation.

This is the main public entry point of the library::

    from repro import Simulation, SimConfig, Scheme, make_mesh
    from repro.traffic import SyntheticTraffic, UniformRandom
    import random

    topo = make_mesh(8, 8)
    config = SimConfig(scheme=Scheme.DRAIN)
    traffic = SyntheticTraffic(UniformRandom(64, 8), 0.05, random.Random(1))
    sim = Simulation(topo, config, traffic)
    stats = sim.run(cycles=10_000, warmup=2_000)
"""

from __future__ import annotations

from typing import Optional

# Loaded here, at the top of the engine's import, rather than from deep
# inside the package chain below: numpy's own import runs measurably
# slower when it starts that many frames down (CPython's frame-stack
# chunking); `core.import_s` in benchmarks/perf times this module.
import numpy  # noqa: F401

from ..drain.controller import DrainController
from ..drain.path import DrainPath
from ..network.deadlock import (
    WaitForGraph,
    deadlock_cycle_payload,
    extract_cycle,
    find_deadlocked_slots,
    next_check,
    rotate_cycle,
)
from ..network.fabric import Fabric
from ..network.index import FabricIndex
from ..network.spin import SpinController
from ..network.staticbubble import StaticBubbleController
from ..routing import select_escape_routing
from ..routing.adaptive import AdaptiveMinimalRouting
from ..routing.updown import UpDownRouting
from ..topology.graph import Topology
from . import rng as rng_mod
from .config import Scheme, SimConfig
from .metrics import NetworkStats

__all__ = ["Simulation", "IdealResolver", "DeadlockWatchdog"]


class IdealResolver:
    """Oracle deadlock resolution at zero cost (Figure 5's ideal baseline).

    Periodically finds all deadlocked packets and rotates their cycles
    until none remain — instantly, without freezing the network or
    charging probe latency. No real hardware can do this; it upper-bounds
    what fully adaptive routing could achieve.
    """

    def __init__(self, fabric: Fabric, check_interval: int = 2) -> None:
        self.fabric = fabric
        self.check_interval = check_interval

    def next_event_cycle(self, now: int) -> int:
        """Next oracle tick (the conservative event-horizon clamp).

        With the default 2-cycle interval this effectively disables
        fast-forward for the IDEAL scheme — an accepted cost: the oracle
        is a measurement bound, not a performance target.
        """
        return next_check(now, self.check_interval)

    def step(self) -> None:
        fabric = self.fabric
        if fabric.cycle % self.check_interval:
            return
        # Resolve aggressively: the bound must never be deadlock-limited,
        # even deep past saturation. Each pass rotates one resource cycle;
        # a rotation permutes the occupants of exactly the rotated slots,
        # so the wait-for graph is built once and only those slots are
        # re-derived between passes (dense mode keeps the full rebuild as
        # the parity reference).
        graph: Optional[WaitForGraph] = None
        for _ in range(256):  # safety bound
            if graph is None or getattr(fabric, "dense", False):
                graph = WaitForGraph(fabric)
            deadlocked = graph.deadlocked()
            if not deadlocked:
                return
            cycle = extract_cycle(fabric, deadlocked, graph=graph)
            if cycle is None:
                return
            fabric.stats.deadlock_events += 1
            rotate_cycle(fabric, cycle, forced_kind="ideal")
            graph.refresh_slots(cycle)


class DeadlockWatchdog:
    """Measurement-only deadlock detector for the ``NONE`` scheme.

    Used by the Figure 3 deadlock-likelihood study: when the network makes
    no progress for a grace period, the exact OR-model oracle is consulted;
    a non-empty deadlocked set marks the run as deadlocked.
    """

    def __init__(self, fabric: Fabric, check_interval: int, grace: int) -> None:
        self.fabric = fabric
        self.check_interval = check_interval
        self.grace = grace
        self.deadlocked = False
        #: Concrete minimal deadlock cycle (``deadlock_cycle_payload``
        #: shape) captured at detection time; ``None`` until then and on
        #: the wormhole fabric (no exact slot oracle there).
        self.cycle_payload = None

    def next_event_cycle(self, now: int) -> int:
        """Next check tick: the watchdog never sleeps past one.

        An empty network cannot deadlock, but a stuck one — every occupied
        router asleep, the fast-forward's other entry case — may be
        exactly the wedge the oracle looks for. The tick therefore runs
        densely, which keeps the halt-on-deadlock contract ("checked every
        ``check_interval`` cycles") and its halt cycle identical to a dense
        run.
        """
        return next_check(now, self.check_interval)

    def step(self) -> None:
        fabric = self.fabric
        if self.deadlocked or fabric.cycle % self.check_interval:
            return
        occupancy = getattr(fabric, "packets_in_network", None)
        if occupancy is None:
            occupancy = fabric.count_flits()  # wormhole fabric
        if occupancy == 0:
            return
        if fabric.cycle - fabric.last_progress_cycle < self.grace:
            return
        if hasattr(fabric, "occupied_slots"):
            stuck = find_deadlocked_slots(fabric, assume_ejection_drains=False)
            if not stuck:
                return
            fabric.stats.deadlocks_detected += len(stuck)
            self.cycle_payload = deadlock_cycle_payload(fabric, stuck)
        # Wormhole fabric: persistent zero progress with flits buffered is
        # the deadlock signal (no exact oracle over flit FIFOs).
        self.deadlocked = True
        fabric.stats.deadlock_events += 1


class Simulation:
    """A fully wired simulation of one (topology, scheme, traffic) triple."""

    def __init__(
        self,
        topology: Topology,
        config: SimConfig,
        traffic,
        drain_path: Optional[DrainPath] = None,
        halt_on_deadlock: bool = False,
        fault_schedule=None,
        fault_policy: str = "drop_retransmit",
        fault_curve_window: int = 0,
        fault_max_circuits: int = 512,
        pause_storm=None,
        degradation_ladder: bool = False,
        dense: bool = False,
    ) -> None:
        if fault_schedule is not None and config.flow_control == "wormhole":
            raise ValueError(
                "runtime fault injection models the virtual cut-through "
                "fabric only (no wormhole fault hooks)"
            )
        if pause_storm is not None and config.flow_control != "pause_resume":
            raise ValueError(
                "pause storms need a pause/resume fabric: set "
                "flow_control='pause_resume' in the SimConfig"
            )
        self.topology = topology
        self.config = config
        self.traffic = traffic
        self.halt_on_deadlock = halt_on_deadlock
        scheme = config.scheme
        # Everything compiled from the topology alone — numbering, boot
        # distances, routing tables, the default drain cycle, ESCAPE_VC's
        # merged engine table — is shared through the index's CompiledNetwork; the index itself
        # (what faults rewrite) is private to this simulation.
        self.index = FabricIndex(topology)
        self.stats = NetworkStats()

        # Main routing function (Table II: fully adaptive random everywhere
        # except the pure up*/down* baseline).
        if scheme is Scheme.UPDOWN:
            # The classic deterministic variant: this is the baseline whose
            # cost Figure 5 quantifies.
            routing = UpDownRouting(self.index, deterministic=True)
        else:
            routing = AdaptiveMinimalRouting(self.index)

        escape_mode = None
        escape_routing = None
        if scheme is Scheme.DRAIN:
            escape_mode = "drain"
        elif scheme is Scheme.ESCAPE_VC:
            escape_mode = "escape_vc"
            escape_routing = select_escape_routing(self.index)

        rng = rng_mod.spawn(config.seed, "fabric")
        if config.flow_control == "wormhole":
            # A standalone flit pipeline (its engine_name reports that);
            # SimConfig admits it for DRAIN and NONE only, so it never
            # needs an escape routing.
            from ..network.wormhole import WormholeFabric

            self.fabric = WormholeFabric(
                self.index, config, routing, escape_mode=escape_mode,
                stats=self.stats, rng=rng, dense=dense,
            )
        else:
            if config.flow_control == "pause_resume":
                from ..network.pause import PauseResumeFabric

                fabric_cls = PauseResumeFabric
            else:
                fabric_cls = Fabric
            self.fabric = fabric_cls(
                self.index,
                config,
                routing,
                escape_mode=escape_mode,
                escape_routing=escape_routing,
                stats=self.stats,
                rng=rng,
                dense=dense,
            )

        self.drain_controller: Optional[DrainController] = None
        self.spin_controller: Optional[SpinController] = None
        self.bubble_controller: Optional[StaticBubbleController] = None
        self.ideal_resolver: Optional[IdealResolver] = None
        self.watchdog: Optional[DeadlockWatchdog] = None

        if scheme is Scheme.DRAIN:
            self.drain_controller = DrainController(
                self.fabric, config.drain, path=drain_path
            )
        elif scheme is Scheme.SPIN:
            self.spin_controller = SpinController(
                self.fabric, config.spin, check_interval=config.deadlock_check_interval
            )
        elif scheme is Scheme.STATIC_BUBBLE:
            self.bubble_controller = StaticBubbleController(
                self.fabric, config.spin,
                check_interval=config.deadlock_check_interval,
            )
        elif scheme is Scheme.IDEAL:
            self.ideal_resolver = IdealResolver(self.fabric)
        if scheme in (Scheme.NONE, Scheme.SPIN) or halt_on_deadlock:
            self.watchdog = DeadlockWatchdog(
                self.fabric,
                config.deadlock_check_interval,
                config.deadlock_grace,
            )

        self.degradation_ladder = None
        if degradation_ladder:
            if self.drain_controller is None:
                raise ValueError(
                    "the degradation ladder escalates through forced drains: "
                    "it needs scheme=DRAIN"
                )
            from ..drain.ladder import DegradationLadder

            self.degradation_ladder = DegradationLadder(
                self.fabric,
                self.drain_controller,
                check_interval=config.deadlock_check_interval,
                grace=config.deadlock_grace,
            )

        self.fault_injector = None
        if fault_schedule is not None or pause_storm is not None:
            from ..faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                self,
                fault_schedule,
                policy=fault_policy,
                curve_window=fault_curve_window,
                max_circuits=fault_max_circuits,
                storm=pause_storm,
            )

        #: Reference mode: plain per-cycle stepping, no fast-forward.
        self.dense = bool(dense)
        #: The wired side components that step after ``traffic.generate``,
        #: in phase order (:meth:`step`). The ladder precedes the
        #: drain controller, so a forced drain collapses the countdown and
        #: the freeze fires that very cycle.
        self._post_generate = [
            component
            for component in (
                self.degradation_ladder,
                self.drain_controller,
                self.spin_controller,
                self.bubble_controller,
                self.ideal_resolver,
                self.watchdog,
            )
            if component is not None
        ]
        #: Event-horizon hooks — every wired side component's
        #: ``next_event_cycle``; :meth:`_event_horizon` takes their min.
        self._horizon_hooks = [
            component.next_event_cycle
            for component in (self.fault_injector, *self._post_generate)
            if component is not None
        ]
        #: Fast-forward telemetry (not part of NetworkStats — outputs stay
        #: bit-identical to dense runs): spans entered and cycles covered.
        self.ff_spans = 0
        self.ff_cycles = 0

    # ------------------------------------------------------------------
    @property
    def deadlocked(self) -> bool:
        """True when the measurement watchdog has flagged a deadlock."""
        return self.watchdog is not None and self.watchdog.deadlocked

    def step(self) -> None:
        """Advance the whole system by one cycle."""
        fabric = self.fabric
        if self.fault_injector is not None:
            # Faults strike at the cycle boundary, before traffic or any
            # controller sees the cycle, so all of them observe a
            # consistent post-fault network.
            self.fault_injector.step()
        self.traffic.generate(fabric, fabric.cycle)
        for component in self._post_generate:
            component.step()
        fabric.step()
        self.traffic.consume(fabric, fabric.cycle)

    def run(self, cycles: int, warmup: int = 0) -> NetworkStats:
        """Run for *cycles* cycles; statistics cover cycles >= *warmup*.

        Stops early when the traffic source reports completion (closed-loop
        workloads) or — with ``halt_on_deadlock`` — when the watchdog fires.

        Unless ``dense=True``, stretches in which nothing in the fabric can
        act (``Fabric.inert``: it is empty, or every occupied router sleeps
        and no node can inject) are fast-forwarded: the run computes the
        event horizon (the earliest cycle any side component may act) and
        skips to it — an empty fabric stops earlier, at the first cycle
        the traffic source's ``next_event_cycle`` names — replaying only
        the per-cycle state a dense loop would touch. Every source keeps
        that one contract, ``next_event_cycle`` plus ``skip_cycles``.
        Outputs are bit-identical either way; the parity suite pins it.
        """
        if warmup >= cycles:
            raise ValueError("warmup must be shorter than the run")
        fabric = self.fabric
        traffic = self.traffic
        fabric.measure_from = fabric.cycle + warmup
        end = fabric.cycle + cycles
        fast = not self.dense
        while fabric.cycle < end:
            if fast and fabric.inert and not traffic.done():
                consumed = self._fast_forward(end)
                if consumed:
                    self.ff_spans += 1
                    self.ff_cycles += consumed
                    # Nothing is delivered inside a span (a packet injected
                    # on its final cycle is still in a VC), so done() and
                    # the watchdog cannot have flipped mid-span.
                    continue
            self.step()
            if traffic.done():
                break
            if self.halt_on_deadlock and self.deadlocked:
                break
        self.stats.measured_cycles = max(0, fabric.cycle - fabric.measure_from)
        return self.stats

    # ------------------------------------------------------------------
    # Event-horizon fast-forward (see DESIGN.md, "Performance architecture")
    # ------------------------------------------------------------------
    def _event_horizon(self, now: int, end: int) -> int:
        """Earliest cycle in (*now*, *end*] that must run densely.

        The min over the wired components' ``next_event_cycle`` hooks, the
        measurement boundary and the end of the run. Every cycle strictly
        before the returned value is guaranteed to be an observable no-op
        for every side component — provided nothing in the fabric can act
        (``Fabric.inert``) all the while, which the caller's span
        construction guarantees.
        """
        horizon = end
        measure_from = self.fabric.measure_from
        if now < measure_from < horizon:
            horizon = measure_from
        for hook in self._horizon_hooks:
            nxt = hook(now)
            if nxt is not None and nxt < horizon:
                horizon = nxt
        return horizon

    def _fast_forward(self, end: int) -> int:
        """Skip from an inert fabric; returns the cycles consumed (0 = run
        the current cycle densely instead).

        The span runs to the event horizon, computed first. A stuck fabric
        (packets buffered, every occupied router asleep, no node able to
        inject) stays stuck until a side component acts, so the whole span
        is skipped, the source generating across it: every packet lands in
        a backlog or an NI queue that cannot inject. From an empty fabric
        the source also bounds the span: its ``next_event_cycle(now,
        limit)`` is the first cycle before the horizon at which its
        ``generate`` may act, and that cycle runs densely via the main
        loop.
        """
        fabric = self.fabric
        now = fabric.cycle
        limit = self._event_horizon(now, end)
        if limit - now < 2:
            return 0
        if fabric.quiescent:
            limit = self.traffic.next_event_cycle(now, limit)
        span = limit - now
        if span:
            self._skip(span)
        return span

    def _skip(self, cycles: int) -> None:
        """Advance *cycles* cycles of an inert fabric: the source's packets
        first (stamped from the span's first cycle), then the fabric and
        the drain countdown."""
        fabric = self.fabric
        self.traffic.skip_cycles(fabric, fabric.cycle, cycles)
        fabric.skip_cycles(cycles)
        if self.drain_controller is not None:
            self.drain_controller.skip_cycles(cycles)

    def throughput(self) -> float:
        """Received packets/node/cycle over the measured window."""
        return self.stats.throughput(self.index.num_nodes)
