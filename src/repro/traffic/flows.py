"""Flow-level traffic: a fixed set of (src, dst) flows.

Datacenter CBD scenarios are defined by *which flows exist*, not by a
node-uniform pattern: two flows can share every buffer of a dependency
cycle without deadlocking while a third tips the cycle over (SNIPPETS
Snippet 2).  :class:`FlowTraffic` drives an explicit flow list — open-loop
Bernoulli per flow, optionally bounded to a finite packet budget — and
supports storm-injected victim bursts via :meth:`queue_burst`.

The generator keeps a fixed per-cycle RNG draw order (one rate draw per
live flow, in flow order), with ``idle_generate`` replaying exactly those
draws for the event-horizon fast-forward; ``consume`` is the ideal sink
every :class:`~repro.traffic.backlog.OpenLoopSource` shares, counting
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
        #: Per-flow delivered counts keyed by (src, dst).
        self.flow_delivered: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def queue_burst(self, src: int, dst: int, count: int, cycle: int) -> None:
        """Enqueue *count* packets src->dst at once (pause-storm bursts)."""
        if src == dst:
            raise ValueError("burst source and destination must differ")
        for _ in range(count):
            self._push(src, dst, cycle, self.msg_class)

    def _draw(self, cycle: int) -> bool:
        """One cycle of Bernoulli draws; True when any packet was created.

        The draw order — one ``rng.random()`` per live flow, in flow
        order — is the parity contract shared with :meth:`idle_generate`.
        """
        rand = self.rng.random
        hit = False
        for i, flow in enumerate(self.flows):
            remaining = self._remaining[i]
            if remaining is not None and remaining <= 0:
                continue  # exhausted finite flow: no draw
            if rand() < flow.rate:
                self._push(flow.src, flow.dst, cycle, self.msg_class)
                if remaining is not None:
                    self._remaining[i] = remaining - 1
                hit = True
        return hit

    def generate(self, fabric: Fabric, cycle: int) -> None:
        self._draw(cycle)
        self._offer(fabric)

    def idle_generate(self, fabric: Fabric, cycle: int, budget: int) -> int:
        """Replay :meth:`generate` across up to *budget* known-idle cycles."""
        consumed = 0
        while consumed < budget:
            now = cycle + consumed
            consumed += 1
            if self._draw(now):
                self._offer(fabric)
                return consumed
            if self.done():
                return consumed
        return consumed

    def _sink(self, packet: Packet) -> None:
        self.delivered += 1
        key = (packet.src, packet.dst)
        self.flow_delivered[key] = self.flow_delivered.get(key, 0) + 1

    def done(self) -> bool:
        """True once every finite flow is generated, offered and delivered.

        Open-loop flows (``packets=None``) never terminate.
        """
        for remaining in self._remaining:
            if remaining is None or remaining > 0:
                return False
        return not self.backlog.size and self.delivered >= self.generated
