"""Flow-level traffic: a fixed set of (src, dst) flows.

Datacenter CBD scenarios are defined by *which flows exist*, not by a
node-uniform pattern: two flows can share every buffer of a dependency
cycle without deadlocking while a third tips the cycle over (SNIPPETS
Snippet 2).  :class:`FlowTraffic` drives an explicit flow list — open-loop
Bernoulli per flow, optionally bounded to a finite packet budget — and
supports storm-injected victim bursts via :meth:`queue_burst`.

The generator keeps a fixed per-cycle RNG draw order: one rate draw per
live flow, in flow order, on the source's own ``random.Random``. For the
event-horizon fast-forward, :meth:`FlowTraffic.next_event_cycle` reads
that generator ahead, one whole cycle at a time, to the first cycle with
a hit and keeps the hit list; the cycles before it generate nothing.
A flow's draws depend only on its own hits, so the read-ahead is exact.
``consume`` is the ideal sink every
:class:`~repro.traffic.backlog.OpenLoopSource` shares, counting
deliveries per flow too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet
from .backlog import OpenLoopSource

__all__ = ["Flow", "FlowTraffic"]


@dataclass(frozen=True)
class Flow:
    """One traffic flow: *src* sends to *dst* at *rate* packets/cycle.

    ``packets`` bounds the flow to a finite packet count (``None`` keeps
    it open-loop forever); finite flows let a scenario run to completion
    so delivery can be checked packet-for-packet.
    """

    src: int
    dst: int
    rate: float
    packets: Optional[int] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow source and destination must differ")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("flow rate must be in [0, 1] packets/cycle")
        if self.packets is not None and self.packets < 1:
            raise ValueError("finite flows need at least one packet")

    def as_tuple(self) -> Tuple[int, int, float, Optional[int]]:
        return (self.src, self.dst, self.rate, self.packets)


class FlowTraffic(OpenLoopSource):
    """Open-loop injector over an explicit flow list.

    Every packet, a burst's included, is generated as a record in
    ``self.backlog``; each cycle the backlog offers them in node order.
    """

    def __init__(
        self,
        flows: Sequence[Flow],
        rng: random.Random,
        msg_class: MessageClass = MessageClass.REQ,
    ) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        super().__init__()
        self.flows: Tuple[Flow, ...] = tuple(flows)
        self.rng = rng
        self.msg_class = msg_class
        #: Packets still to generate per finite flow (None = unbounded).
        self._remaining: List[Optional[int]] = [f.packets for f in self.flows]
        #: (index, rate) of every flow that still draws, in flow order.
        self._live: List[Tuple[int, float]] = [
            (i, f.rate) for i, f in enumerate(self.flows)]
        #: Read-ahead state: every cycle before ``_drawn_to`` has made its
        #: draws, and ``_ahead`` holds the flows that hit at cycle
        #: ``_drawn_to - 1``, kept for :meth:`generate`.
        self._drawn_to = 0
        self._ahead: List[int] = []
        #: Per-flow delivered counts keyed by (src, dst).
        self.flow_delivered: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def queue_burst(self, src: int, dst: int, count: int, cycle: int) -> None:
        """Enqueue *count* packets src->dst at once (pause-storm bursts)."""
        if src == dst:
            raise ValueError("burst source and destination must differ")
        for _ in range(count):
            self._push(src, dst, cycle, self.msg_class)

    def _draw(self) -> List[int]:
        """One cycle of Bernoulli draws: the indices of the flows that hit.

        One ``rng.random()`` per live flow, in flow order — the draw order
        that stepping and reading ahead share.
        """
        rand = self.rng.random
        return [i for i, rate in self._live if rand() < rate]

    def generate(self, fabric: Fabric, cycle: int, count: int = 1) -> None:
        """Make the packets of cycles ``cycle .. cycle + count - 1``, then
        offer the backlogs (one cycle unless a span asks for more). The
        cycles the read-ahead drew are not drawn again."""
        flows = self.flows
        remaining = self._remaining
        for now in range(max(cycle, self._drawn_to - 1), cycle + count):
            if now < self._drawn_to:  # the read-ahead's last cycle
                hits, self._ahead = self._ahead, []
            else:
                self._drawn_to = now + 1
                hits = self._draw()
            for i in hits:
                flow = flows[i]
                self._push(flow.src, flow.dst, now, self.msg_class)
                left = remaining[i]
                if left is not None:
                    remaining[i] = left - 1
                    if left == 1:  # exhausted: it draws no more
                        self._live = [e for e in self._live if e[0] != i]
        self._offer(fabric)

    def next_event_cycle(self, now: int, limit: int) -> int:
        """First cycle in [*now*, *limit*] at which :meth:`generate` may act.

        *now* while a backlog waits on its NI; otherwise the next cycle
        with a hit, read ahead whole cycles at a time and never at or past
        *limit* (*limit* when none comes first).
        """
        if self.backlog.waiting:
            return now
        if self._ahead:
            return min(self._drawn_to - 1, limit)
        cycle = max(now, self._drawn_to)
        if self._live:
            draw = self._draw
            while cycle < limit:
                hits = draw()
                if hits:
                    self._ahead = hits
                    self._drawn_to = cycle + 1
                    return cycle
                cycle += 1
        self._drawn_to = max(self._drawn_to, limit)
        return limit

    def _sink(self, packet: Packet) -> None:
        self.delivered += 1
        key = (packet.src, packet.dst)
        self.flow_delivered[key] = self.flow_delivered.get(key, 0) + 1

    def done(self) -> bool:
        """True once every finite flow is generated, offered and delivered.

        Open-loop flows (``packets=None``) never terminate.
        """
        return (not self._live and not self.backlog.size
                and self.delivered >= self.generated)
