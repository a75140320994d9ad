"""SPIN baseline: reactive deadlock detection and recovery [5].

SPIN sends probes when a head packet has been blocked past a timeout; a
probe walks the chain of blocked packets and, if it returns to its origin,
a deadlock cycle has been found. The routers in the cycle then make a
globally coordinated *spin*: every packet in the cycle moves one hop
forward simultaneously.

This model reproduces that behaviour on top of the fabric's wait-for
state: timeout counters per buffered packet, a probe phase whose latency
(and message count, for the power model) is charged per hop of the
discovered cycle, and the coordinated rotation itself. The complexity the
paper attributes to SPIN — online detection plus global coordination — is
exactly the machinery in this file; DRAIN needs none of it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.config import SpinConfig
from .deadlock import (
    Slot,
    extract_cycle,
    find_deadlocked_slots,
    next_check,
    rotate_cycle,
    timed_out_heads,
)
from .fabric import Fabric

__all__ = ["SpinController"]


class SpinController:
    """Timeout-probe-spin state machine attached to a fabric."""

    def __init__(self, fabric: Fabric, config: SpinConfig, check_interval: int = 32):
        self.fabric = fabric
        self.config = config
        self.check_interval = check_interval
        #: (fire_cycle, anchor_slot) pairs for probes in flight.
        self._pending: List[Tuple[int, Slot]] = []
        self._last_spin_cycle = -(10**9)

    def next_event_cycle(self, now: int) -> Optional[int]:
        """First cycle >= *now* at which :meth:`step` may act.

        Pending probes fire on their recorded cycle (and firing mutates
        the pending list even when the deadlock has dissolved), so the
        earliest pending fire clamps the horizon alongside the next
        detection tick.
        """
        nxt = next_check(now, self.check_interval)
        for fire, _ in self._pending:
            if fire < nxt:
                nxt = fire
        return max(nxt, now)

    def step(self) -> None:
        """Run SPIN's per-cycle work: fire due spins, launch due probes."""
        fabric = self.fabric
        cycle = fabric.cycle

        if self._pending:
            due = [p for p in self._pending if p[0] <= cycle]
            if due:
                self._pending = [p for p in self._pending if p[0] > cycle]
                for _fire, anchor in due:
                    self._resolve(anchor)

        if cycle % self.check_interval:
            return
        anchors = [
            slot[:3] for slot in timed_out_heads(fabric, self.config.timeout)
        ]
        if not anchors:
            return
        deadlocked = find_deadlocked_slots(fabric)
        if not deadlocked:
            return
        # Launch one probe per detection pass (SPIN serialises recovery).
        anchor = next((a for a in anchors if a in deadlocked), None)
        if anchor is None:
            return
        cycle_slots = extract_cycle(fabric, deadlocked)
        if cycle_slots is None:
            return
        probe_hops = len(cycle_slots)
        fabric.stats.probes_sent += probe_hops
        fabric.stats.deadlock_events += 1
        fabric.stats.deadlocks_detected += len(deadlocked)
        fire = cycle + self.config.probe_hop_latency * probe_hops
        self._pending.append((fire, anchor))

    def _resolve(self, anchor: Slot) -> None:
        """Probe returned: re-validate and spin the deadlock cycle."""
        fabric = self.fabric
        if fabric.cycle - self._last_spin_cycle < self.config.spin_interval:
            return
        deadlocked = find_deadlocked_slots(fabric)
        if anchor not in deadlocked:
            return  # deadlock dissolved while the probe was in flight
        cycle_slots = extract_cycle(fabric, deadlocked)
        if cycle_slots is None:
            return
        # The spin itself is one more coordinated message round.
        fabric.stats.probes_sent += len(cycle_slots)
        rotate_cycle(fabric, cycle_slots, forced_kind="spin")
        fabric.stats.spins_performed += 1
        self._last_spin_cycle = fabric.cycle
