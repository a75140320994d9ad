"""Staged degradation ladder: detect CBD -> force a drain -> drop-and-retry.

Lossless (PFC) fabrics can wedge on cyclic buffer dependencies that no
pause-threshold tuning resolves; DRAIN's periodic drain resolves them, but
waiting out a multi-thousand-cycle epoch while the fabric is dead costs
real latency.  The :class:`DegradationLadder` wires the deadlock oracle
and the :class:`~repro.drain.controller.DrainController` into a staged
response, escalating only as cheaper stages fail:

1. **Detect** — on a fixed cadence, once progress has stalled past a
   grace period, run the pause-aware wait-for-graph oracle
   (:func:`repro.network.find_deadlocked_slots` with
   ``assume_ejection_drains=False``) and capture the concrete minimal
   cycle (:func:`repro.network.deadlock_cycle_payload`).
2. **Escalate** — collapse the drain epoch via
   :meth:`DrainController.force_drain`, so the next cycle opens a drain
   window instead of waiting out the epoch.  Re-check after a backoff;
   retry with doubled backoff up to a bounded budget (drains are cheap
   but not free — each one freezes the fabric for the window).
3. **Degrade** — if the forced drains did not clear the wedge (e.g. a
   storm-pinned XOFF row that no rotation can open), drop the packets of
   the minimal deadlock cycle and retransmit them from their sources
   through the one :class:`~repro.network.retransmit.RetransmitQueue`
   (backoff ``8 << attempt`` over 8 attempts) — trading a bounded packet
   loss for guaranteed progress, like end-to-end recovery in real RoCE
   fabrics.

Per-stage counters and recovery latencies live on the ladder and surface
through :meth:`summary` — never through the golden
``NetworkStats.as_dict()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..network.deadlock import (
    deadlock_cycle_payload,
    extract_cycle,
    find_deadlocked_slots,
    next_check,
)
from ..network.fabric import Fabric
from ..network.retransmit import RetransmitQueue
from .controller import DrainController

__all__ = ["DegradationLadder"]


class DegradationLadder:
    """Detect -> forced-drain -> drop-and-retransmit escalation engine."""

    def __init__(
        self,
        fabric: Fabric,
        drain_controller: DrainController,
        check_interval: int = 128,
        grace: int = 64,
        drain_retries: int = 3,
    ) -> None:
        if drain_retries < 1:
            raise ValueError("need at least one forced-drain retry")
        self.fabric = fabric
        self.drain_controller = drain_controller
        self.check_interval = check_interval
        self.grace = grace
        self.drain_retries = drain_retries

        #: "idle" (watching) or "waiting" (mid-episode, between stages).
        self._state = "idle"
        self._episode_start = 0
        self._retries_used = 0
        self._deadline = 0
        #: Cycle of the episode's most recent stage action (forced drain
        #: or drop); progress past it proves the stage is working.
        self._stage_cycle = 0
        #: The drop stage's packets, on their way back to their sources.
        self.retransmits = RetransmitQueue(fabric)

        # Stage counters (ladder-local; see module docstring).
        self.detections = 0
        self.forced_drains = 0
        self.cycle_drops = 0
        self.packets_dropped = 0
        self.recoveries = 0
        self.recovery_cycles: List[int] = []
        #: Minimal-cycle payload of the most recent detection.
        self.last_cycle_payload: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def _stuck_slots(self):
        return find_deadlocked_slots(self.fabric, assume_ejection_drains=False)

    def _detection_ready(self, cycle: int) -> bool:
        fabric = self.fabric
        return (
            not fabric.frozen
            and self.drain_controller.state == "normal"
            and fabric.packets_in_network > 0
            and cycle - fabric.last_progress_cycle >= self.grace
        )

    def _wait(self, cycle: int) -> None:
        """Re-check once this retry's backoff window has passed."""
        self._state = "waiting"
        self._stage_cycle = cycle
        self._deadline = cycle + (self.check_interval << (self._retries_used - 1))

    def _escalate(self, cycle: int) -> None:
        """Stage 2: force a drain window and schedule the re-check."""
        if self.drain_controller.force_drain():
            self.forced_drains += 1
        self._retries_used += 1
        self._wait(cycle)

    def _degrade(self, cycle: int, stuck) -> None:
        """Stage 3: drop the minimal deadlock cycle and retransmit it."""
        fabric = self.fabric
        slots = extract_cycle(fabric, stuck)
        if slots is None:
            # No rotatable cycle (pure ejection wedge): drop the whole
            # stuck set — the bounded worst case, still live.
            slots = sorted(stuck)
        self.cycle_drops += 1
        for port, vn, vc in slots:
            if fabric.slot(port, vn, vc) is None:
                continue
            packet = fabric.fault_drop_slot(port, vn, vc)
            self.packets_dropped += 1
            fabric.stats.packets_lost += 1
            self.retransmits.push(cycle, packet)
        # Confirm recovery on the normal cadence; the drop budget resets
        # so a re-formed cycle climbs the full ladder again.
        self._retries_used = 1
        self._wait(cycle)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Run the ladder for the current fabric cycle.

        Must run *before* :meth:`DrainController.step` in the simulation
        loop, so a forced drain collapses the countdown the same cycle.
        """
        cycle = self.fabric.cycle
        self.retransmits.pump(cycle)
        if self._state == "idle":
            if cycle % self.check_interval or not self._detection_ready(cycle):
                return
            stuck = self._stuck_slots()
            if not stuck:
                return
            self.detections += 1
            self._episode_start = cycle
            self._retries_used = 0
            self.last_cycle_payload = deadlock_cycle_payload(
                self.fabric, stuck
            )
            self._escalate(cycle)
            return

        # waiting: between a forced drain (or a drop) and its re-check.
        if cycle < self._deadline:
            return
        if self.fabric.frozen or self.drain_controller.state != "normal":
            return  # the forced window is still running; re-check after
        if (
            self.fabric.packets_in_network == 0
            or cycle - self.fabric.last_progress_cycle < self.grace
        ):
            # The fabric is empty or visibly moving again: resolved.
            self._recover(cycle)
            return
        stuck = self._stuck_slots()
        if not stuck:
            self._recover(cycle)
            return
        if self.fabric.last_progress_cycle > self._stage_cycle:
            # The last stage action produced real progress (a drain
            # rotation counts) even though some packets are stuck again:
            # the drains are working, so keep greasing the fabric with
            # them rather than escalating to packet drops.
            self._retries_used = 0
            self._escalate(cycle)
        elif self._retries_used < self.drain_retries:
            self._escalate(cycle)
        else:
            # A whole backoff ladder of forced drains moved nothing:
            # the wedge is undrainable (e.g. storm-pinned pauses).
            self._degrade(cycle, stuck)

    def _recover(self, cycle: int) -> None:
        self.recoveries += 1
        self.recovery_cycles.append(cycle - self._episode_start)
        self._state = "idle"
        self._retries_used = 0

    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> int:
        """First cycle >= *now* at which :meth:`step` may act."""
        if self._state == "waiting":
            nxt = max(now, self._deadline)
        else:
            nxt = next_check(now, self.check_interval)
        ready = self.retransmits.earliest()
        if ready is not None and ready < nxt:
            nxt = max(now, ready)
        return nxt

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-stage counters (kept out of the golden ``as_dict``)."""
        return {
            "detections": self.detections,
            "forced_drains": self.forced_drains,
            "cycle_drops": self.cycle_drops,
            "packets_dropped": self.packets_dropped,
            "packets_retransmitted": self.retransmits.retransmitted,
            "packets_lost_forever": self.retransmits.abandoned,
            "recoveries": self.recoveries,
            "recovery_cycles": list(self.recovery_cycles),
            "pending_retransmits": len(self.retransmits),
            "deadlock_cycle": self.last_cycle_payload,
        }
