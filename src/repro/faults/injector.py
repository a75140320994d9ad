"""Runtime fault application, in-flight packet policy, and degradation metrics.

:class:`FaultInjector` sits between a :class:`~repro.faults.schedule.
FaultSchedule` and a live simulation. Each cycle it:

1. heals transient faults whose repair time arrived,
2. applies fault events due this cycle — marking links/routers dead on the
   :class:`~repro.network.index.FabricIndex`, resolving packets caught on
   dying wires per the configured policy, rebuilding the routing tables
   over the survivor graph, and (under DRAIN) recomputing a covering
   drain-cycle set via :mod:`repro.faults.recovery` and installing it on
   the controller,
3. re-offers retransmittable packets whose backoff expired, and
4. samples the recovery curve (windowed deltas of the run counters).

Two in-flight policies model the ends of the recovery-cost spectrum:

- ``drop_retransmit`` — flits on a dying wire are lost; the packet is
  re-offered at its source NI after an exponential backoff (end-to-end
  retransmission, the usual fault-tolerant-NoC assumption), through the
  one :class:`~repro.network.retransmit.RetransmitQueue`;
- ``source_reroute`` — the serialised transfer is cancelled and the packet
  stays in the upstream buffer it never released, to be re-routed over the
  survivor graph (link-level retry, zero loss on wire faults).

Everything here is cycle-counted and seed-free: no wall-clock value ever
reaches a result dict, so fault trials are bit-reproducible across worker
counts and machines — which the determinism suite pins.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..drain.path import DrainPathError
from ..network.deadlock import next_check
from ..network.retransmit import RetransmitQueue
from ..router.packet import Packet
from .recovery import recover_drain_paths
from .schedule import FAULT_POLICIES, FaultEvent, FaultSchedule
from .storm import PauseStormEvent, PauseStormSchedule

__all__ = ["FaultInjector", "FAULT_POLICIES"]


class FaultInjector:
    """Apply a fault schedule to a running simulation, cycle by cycle.

    Optionally also steps a :class:`PauseStormSchedule` — flow-control
    faults (stuck XOFF rows, delayed resumes, victim bursts) — through
    the same pipeline; storms require a pause-capable fabric
    (:class:`repro.network.PauseResumeFabric`).
    """

    def __init__(
        self,
        sim,
        schedule: Optional[FaultSchedule] = None,
        policy: str = "drop_retransmit",
        curve_window: int = 0,
        max_circuits: int = 512,
        storm: Optional[PauseStormSchedule] = None,
    ) -> None:
        if policy not in FAULT_POLICIES:
            raise ValueError(
                f"unknown fault policy {policy!r}; choose from {FAULT_POLICIES}"
            )
        if curve_window < 0:
            raise ValueError("curve_window must be >= 0")
        if schedule is None:
            schedule = FaultSchedule(events=())
        if storm is not None and any(
            e.kind in ("stuck_xoff", "resume_jitter") for e in storm
        ) and not hasattr(sim.fabric, "force_pause"):
            raise ValueError(
                "pause storms need a pause/resume fabric: set "
                "flow_control='pause_resume' in the SimConfig"
            )
        self.sim = sim
        self.schedule = schedule
        self.storm = storm
        self.policy = policy
        self.curve_window = curve_window
        self.max_circuits = max_circuits

        self._events: List[FaultEvent] = list(schedule.events)
        self._next_event = 0
        #: Active fault multiplicity per target (overlapping transients).
        self._edge_faults: Dict[Tuple[int, int], int] = {}
        self._router_faults: Dict[int, int] = {}
        #: Pending transient repairs as (repair_cycle, seq, event).
        self._repairs: List[Tuple[int, int, FaultEvent]] = []
        self._seq = 0
        self.retransmits = RetransmitQueue(sim.fabric)

        #: Pause-storm pipeline state.
        self._storm_events: List[PauseStormEvent] = (
            list(storm.events) if storm is not None else []
        )
        self._next_storm = 0
        #: Active resume-jitter intervals as (expiry_cycle, jitter).
        self._jitter_active: List[Tuple[int, int]] = []
        self.storm_applied = 0

        #: Per-recompute metadata (cycle, engine, components, ...).
        self.recomputes: List[Dict[str, Any]] = []
        #: Recovery-curve samples (windowed counter deltas).
        self.curve: List[Dict[str, Any]] = []
        self._curve_prev: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def events_remaining(self) -> int:
        return len(self._events) - self._next_event

    def _dead_sets(self) -> Tuple[Set[int], Set[int]]:
        """Current dead unidirectional-link ids and router ids."""
        index = self.sim.index
        dead_routers = {r for r, n in self._router_faults.items() if n > 0}
        dead_links: Set[int] = set()
        for (a, b), n in self._edge_faults.items():
            if n > 0:
                for link in index.links:
                    if {link.src, link.dst} == {a, b}:
                        dead_links.add(index.link_id[link])
        for r in dead_routers:
            dead_links.update(index.in_links[r])
            dead_links.update(index.out_links[r])
        return dead_links, dead_routers

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Run the fault pipeline for the current fabric cycle."""
        cycle = self.sim.fabric.cycle
        changed = False
        changed |= self._apply_repairs(cycle)
        dropped = self._apply_events(cycle)
        if dropped is not None:
            changed = True
        if changed:
            self._reconfigure(cycle, dropped or [])
        self._apply_storm(cycle)
        self.retransmits.pump(cycle)
        if self.curve_window and cycle and cycle % self.curve_window == 0:
            self._sample_curve(cycle)

    def next_event_cycle(self, now: int) -> Optional[int]:
        """First cycle >= *now* at which :meth:`step` may act; None = never.

        The minimum over the pipelines: the next unapplied schedule and
        storm events, the earliest resume-jitter expiry, transient repair
        and retransmission, and (with curve sampling on) the next
        ``curve_window`` boundary. On every cycle strictly before the
        returned value :meth:`step` provably mutates nothing.
        """
        pending = [ready for ready, _, _ in self._repairs]
        pending += [expiry for expiry, _ in self._jitter_active]
        if self._next_event < len(self._events):
            pending.append(self._events[self._next_event].cycle)
        if self._next_storm < len(self._storm_events):
            pending.append(self._storm_events[self._next_storm].cycle)
        ready = self.retransmits.earliest()
        if ready is not None:
            pending.append(ready)
        if self.curve_window:
            # _sample_curve skips cycle 0.
            pending.append(next_check(max(now, 1), self.curve_window))
        return max(now, min(pending)) if pending else None

    # ------------------------------------------------------------------
    def _apply_repairs(self, cycle: int) -> bool:
        due = [r for r in self._repairs if r[0] <= cycle]
        if not due:
            return False
        self._repairs = [r for r in self._repairs if r[0] > cycle]
        stats = self.sim.stats
        for _, _, event in sorted(due):
            if event.kind == "link":
                key = tuple(sorted(event.target))
                self._edge_faults[key] = self._edge_faults.get(key, 1) - 1
            else:
                r = event.target[0]
                self._router_faults[r] = self._router_faults.get(r, 1) - 1
            stats.faults_revived += 1
        return True

    def _apply_events(self, cycle: int) -> Optional[List[Packet]]:
        """Apply all events due at *cycle*; None when nothing was due.

        Returns the packets dropped by the fabric-side fault primitives so
        :meth:`_reconfigure` can route them into loss/retransmit handling.
        """
        events = self._events
        due: List[FaultEvent] = []
        while self._next_event < len(events) and events[self._next_event].cycle <= cycle:
            due.append(events[self._next_event])
            self._next_event += 1
        if not due:
            return None
        fabric = self.sim.fabric
        stats = self.sim.stats
        index = self.sim.index
        dropped: List[Packet] = []
        newly_dead_links: Set[int] = set()
        newly_dead_routers: Set[int] = set()
        for event in due:
            stats.faults_applied += 1
            if event.transient:
                self._seq += 1
                self._repairs.append((event.repair_cycle, self._seq, event))
            if event.kind == "link":
                key = tuple(sorted(event.target))
                prev = self._edge_faults.get(key, 0)
                self._edge_faults[key] = prev + 1
                if prev == 0:
                    a, b = key
                    for link_obj in (index.links[i] for i in index.out_links[a]):
                        if link_obj.dst == b:
                            newly_dead_links.add(index.link_id[link_obj])
                            newly_dead_links.add(
                                index.link_reverse[index.link_id[link_obj]]
                            )
            else:
                r = event.target[0]
                prev = self._router_faults.get(r, 0)
                self._router_faults[r] = prev + 1
                if prev == 0:
                    newly_dead_routers.add(r)
                    newly_dead_links.update(index.in_links[r])
                    newly_dead_links.update(index.out_links[r])
        if newly_dead_links:
            dropped.extend(
                fabric.fault_cancel_transfers(
                    newly_dead_links, drop=self.policy == "drop_retransmit"
                )
            )
        for r in sorted(newly_dead_routers):
            dropped.extend(fabric.fault_kill_router(r))
        return dropped

    def _reconfigure(self, cycle: int, dropped: List[Packet]) -> None:
        """Rebuild distances, routing and the drain cover after a change."""
        sim = self.sim
        index = sim.index
        fabric = sim.fabric
        stats = sim.stats
        dead_links, dead_routers = self._dead_sets()
        index.apply_faults(dead_links, dead_routers)
        fabric.routing.rebuild()
        if fabric.escape_routing is not None:
            fabric.escape_routing.rebuild()
        fabric.invalidate_routing_cache()
        dropped = list(dropped)
        dropped.extend(fabric.fault_drop_unroutable())
        if sim.drain_controller is not None:
            self._recompute_drain(cycle)
        for packet in dropped:
            stats.packets_lost += 1
            if (
                self.policy == "drop_retransmit"
                and packet.eject_cycle is None
                and packet.src not in dead_routers
            ):
                self.retransmits.push(cycle, packet)

    def _recompute_drain(self, cycle: int) -> None:
        sim = self.sim
        try:
            result = recover_drain_paths(sim.index, max_circuits=self.max_circuits)
            paths = result.paths
            meta = dict(
                engine=result.engine,
                engines=list(result.engines),
                components=result.components,
                covered_links=result.covered_links,
            )
        except DrainPathError as exc:
            # Faults left no drainable links at all (every router isolated):
            # drain windows become no-ops until a transient repair restores
            # an edge. The error's sorted link payload goes into the journal
            # record so the failure is diagnosable (and byte-stable) offline.
            paths = []
            meta = dict(engine="none", engines=[], components=0,
                        covered_links=0,
                        uncovered=exc.as_dict()["missing"])
        sim.drain_controller.install_paths(paths)
        sim.drain_controller.reinstalls += 1
        sim.stats.drain_recomputes += 1
        record = {
            "cycle": cycle,
            "links_alive": sim.index.num_links - len(sim.index.dead_links),
            "unreachable_pairs": sim.index.unreachable_pairs(),
        }
        record.update(meta)
        self.recomputes.append(record)

    # ------------------------------------------------------------------
    def _apply_storm(self, cycle: int) -> None:
        """Apply due pause-storm events and expire resume-jitter windows."""
        if self._jitter_active:
            live = [(e, v) for e, v in self._jitter_active if e > cycle]
            if len(live) != len(self._jitter_active):
                self._jitter_active = live
                self.sim.fabric.resume_jitter = max(
                    (v for _, v in live), default=0
                )
        events = self._storm_events
        if self._next_storm >= len(events):
            return
        fabric = self.sim.fabric
        traffic = getattr(self.sim, "traffic", None)
        while self._next_storm < len(events) and events[self._next_storm].cycle <= cycle:
            event = events[self._next_storm]
            self._next_storm += 1
            self.storm_applied += 1
            if event.kind == "stuck_xoff":
                link, vn = event.target
                fabric.force_pause(link, vn, cycle + event.duration)
            elif event.kind == "resume_jitter":
                self._jitter_active.append(
                    (cycle + event.duration, event.value)
                )
                fabric.resume_jitter = max(
                    v for _, v in self._jitter_active
                )
            else:  # burst
                if traffic is None or not hasattr(traffic, "queue_burst"):
                    raise ValueError(
                        "burst storm events need flow-level traffic with "
                        "queue_burst (repro.traffic.FlowTraffic)"
                    )
                src, dst = event.target
                traffic.queue_burst(src, dst, event.value, cycle)

    # ------------------------------------------------------------------
    def _sample_curve(self, cycle: int) -> None:
        sim = self.sim
        stats = sim.stats
        prev = self._curve_prev
        lat_count = stats.latency.count
        lat_sum = stats.latency.mean * lat_count
        window_count = lat_count - prev.get("lat_count", 0)
        window_sum = lat_sum - prev.get("lat_sum", 0.0)
        alive_nodes = sim.index.num_nodes - len(sim.index.dead_routers)
        ejected = stats.packets_ejected - int(prev.get("ejected", 0))
        sample = {
            "cycle": cycle,
            "ejected": ejected,
            "injected": stats.packets_injected - int(prev.get("injected", 0)),
            "lost": stats.packets_lost - int(prev.get("lost", 0)),
            "retransmitted": stats.packets_retransmitted
            - int(prev.get("retransmitted", 0)),
            "unroutable": stats.packets_unroutable
            - int(prev.get("unroutable", 0)),
            "avg_latency": (window_sum / window_count) if window_count else 0.0,
            "in_network": sim.fabric.packets_in_network,
            "throughput": (
                ejected / (alive_nodes * self.curve_window)
                if alive_nodes else 0.0
            ),
            "faults_active": sum(
                1 for n in self._edge_faults.values() if n > 0
            ) + sum(1 for n in self._router_faults.values() if n > 0),
        }
        self.curve.append(sample)
        self._curve_prev = {
            "ejected": stats.packets_ejected,
            "injected": stats.packets_injected,
            "lost": stats.packets_lost,
            "retransmitted": stats.packets_retransmitted,
            "unroutable": stats.packets_unroutable,
            "lat_count": lat_count,
            "lat_sum": lat_sum,
        }

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-able degradation/recovery summary for result dicts."""
        stats = self.sim.stats
        return {
            "policy": self.policy,
            "faults_applied": stats.faults_applied,
            "faults_revived": stats.faults_revived,
            "packets_lost": stats.packets_lost,
            "packets_retransmitted": stats.packets_retransmitted,
            "packets_unroutable": stats.packets_unroutable,
            "drain_recomputes": stats.drain_recomputes,
            "recomputes": list(self.recomputes),
            "unreachable_pairs": self.sim.index.unreachable_pairs(),
            "events_remaining": self.events_remaining,
            "recovery_curve": list(self.curve),
            "storm_applied": self.storm_applied,
            "storm_events_remaining": (
                len(self._storm_events) - self._next_storm
            ),
        }

