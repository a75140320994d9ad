"""Static-Bubble-style reactive baseline (Section VII related work [7]).

DISHA [6] and Static Bubble [7] provision extra buffers at design time
that stay *off* until a timeout-based detector finds a deadlock; the extra
buffer then gives one blocked packet somewhere to go, breaking the cycle.
Compared to SPIN there is no coordinated multi-router movement — recovery
is local — but the design still pays for the always-present extra buffer
and the detection machinery.

The model: every router owns one normally-off *bubble* slot. When the
oracle confirms a deadlock involving a packet blocked past the timeout,
that packet is lifted into its router's bubble (freeing its VC, which
unblocks the cycle). Bubble packets drain back into the network — or eject
— with priority as soon as a slot frees up (the controller runs before the
fabric's movement and injection stages, so re-entry wins freed slots).

Model limitation, kept deliberately: under *sustained* over-saturation the
bubbles can all fill while new wedges keep forming, and recovery stalls —
the real designs avoid this with carefully sequenced token/priority
machinery, which is precisely the complexity cost the paper attributes to
reactive schemes. At the loads the paper evaluates, the model recovers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import SpinConfig
from ..router.packet import Packet
from .deadlock import find_deadlocked_slots, next_check, timed_out_heads
from .fabric import Fabric

__all__ = ["StaticBubbleController"]


class StaticBubbleController:
    """Timeout-detect + local-bubble-recovery state machine."""

    def __init__(self, fabric: Fabric, config: SpinConfig,
                 check_interval: int = 32) -> None:
        self.fabric = fabric
        self.config = config
        self.check_interval = check_interval
        #: The one extra buffer per router; None while switched off.
        self.bubbles: Dict[int, Optional[Packet]] = {
            n: None for n in range(fabric.index.num_nodes)
        }
        self.activations = 0

    # ------------------------------------------------------------------
    def occupied_bubbles(self) -> int:
        return sum(1 for p in self.bubbles.values() if p is not None)

    def next_event_cycle(self, now: int) -> int:
        """First cycle >= *now* at which :meth:`step` may act.

        An occupied bubble re-enters the network opportunistically every
        cycle, so any occupancy pins the horizon to *now*; otherwise only
        the detection tick matters. (A bubble packet counts in
        ``packets_in_network`` but sits in no VC, so a stuck fabric — every
        occupied router asleep — can hold one; this clamp is what keeps
        the fast-forward from skipping its re-entry.)
        """
        if self.occupied_bubbles():
            return now
        return next_check(now, self.check_interval)

    def step(self) -> None:
        self._drain_bubbles()
        fabric = self.fabric
        if fabric.cycle % self.check_interval:
            return
        stalled = timed_out_heads(fabric, self.config.timeout)
        if not stalled:
            return
        deadlocked = find_deadlocked_slots(fabric)
        if not deadlocked:
            return
        fabric.stats.deadlock_events += 1
        fabric.stats.deadlocks_detected += len(deadlocked)
        # Lift one deadlocked, timed-out packet into its router's bubble.
        for port, vn, vc, packet in stalled:
            if (port, vn, vc) not in deadlocked:
                continue
            router = fabric.index.port_router[port]
            if self.bubbles[router] is not None:
                continue
            fabric.set_slot(port, vn, vc, None)
            # packets_in_network keeps counting the packet: a bubble is
            # part of the router, just not a normal VC slot.
            self.bubbles[router] = packet
            self.activations += 1
            packet.blocked_since = fabric.cycle
            fabric.stats.buffer_reads += 1
            fabric.stats.buffer_writes += 1
            fabric.last_progress_cycle = fabric.cycle
            return  # one recovery per detection pass

    def _drain_bubbles(self) -> None:
        """Bubble packets re-enter the network (or eject) when possible."""
        fabric = self.fabric
        for router, packet in self.bubbles.items():
            if packet is None:
                continue
            if packet.dst != router:
                self._reenter(router, packet)
            elif fabric.ejection_space(router, packet.msg_class) > 0:
                self.bubbles[router] = None
                fabric._eject(router, packet)

    def _reenter(self, router: int, packet: Packet) -> None:
        """Move a bubble packet into its first claimable candidate VC."""
        fabric = self.fabric
        vn = packet.vn
        for group in fabric.candidate_links(router, packet):
            for link, vc_mode in group:
                tvc = fabric._pick_vc(link, vn, vc_mode, claimed=set())
                if tvc >= 0:
                    fabric.set_slot(link, vn, tvc, packet)
                    self.bubbles[router] = None
                    fabric.forced_hop(packet, router, link)
                    return
