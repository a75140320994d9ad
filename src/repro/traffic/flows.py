"""Flow-level traffic: a fixed set of (src, dst) flows.

Datacenter CBD scenarios are defined by *which flows exist*, not by a
node-uniform pattern: two flows can share every buffer of a dependency
cycle without deadlocking while a third tips the cycle over (SNIPPETS
Snippet 2).  :class:`FlowTraffic` drives an explicit flow list — open-loop
Bernoulli per flow, optionally bounded to a finite packet budget — and
supports storm-injected victim bursts via :meth:`queue_burst`.

The generator keeps a fixed per-cycle RNG draw order (one rate draw per
live flow, in flow order), with ``idle_generate`` replaying exactly those
draws for the event-horizon fast-forward, and ``consume`` sinking ejected
packets immediately as :class:`repro.traffic.SyntheticTraffic` does.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet

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


class FlowTraffic:
    """Open-loop injector over an explicit flow list."""

    def __init__(
        self,
        flows: Sequence[Flow],
        rng: random.Random,
        msg_class: MessageClass = MessageClass.REQ,
    ) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        self.flows: Tuple[Flow, ...] = tuple(flows)
        self.rng = rng
        self.msg_class = msg_class
        num_nodes = max(max(f.src, f.dst) for f in self.flows) + 1
        self.num_nodes = num_nodes
        self._backlog: List[Deque[Packet]] = [deque() for _ in range(num_nodes)]
        #: Packets still to generate per finite flow (None = unbounded).
        self._remaining: List[Optional[int]] = [f.packets for f in self.flows]
        self._next_pid = 0
        self.generated = 0
        self.delivered = 0
        #: Per-flow delivered counts keyed by (src, dst).
        self.flow_delivered: Dict[Tuple[int, int], int] = {}
        self._record_hook = None

    # ------------------------------------------------------------------
    def _new_packet(self, src: int, dst: int, cycle: int) -> Packet:
        packet = Packet(self._next_pid, src, dst, self.msg_class,
                        gen_cycle=cycle)
        self._next_pid += 1
        self.generated += 1
        self._backlog[src].append(packet)
        if self._record_hook is not None:
            self._record_hook(packet)
        return packet

    def queue_burst(self, src: int, dst: int, count: int, cycle: int) -> None:
        """Enqueue *count* packets src->dst at once (pause-storm bursts)."""
        if src == dst:
            raise ValueError("burst source and destination must differ")
        if src >= len(self._backlog):
            # Storm bursts may victimise any topology node, not just the
            # configured flow endpoints; grow the backlog on demand.
            self._backlog.extend(
                deque() for _ in range(src + 1 - len(self._backlog))
            )
            self.num_nodes = len(self._backlog)
        for _ in range(count):
            self._new_packet(src, dst, cycle)

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
                self._new_packet(flow.src, flow.dst, cycle)
                if remaining is not None:
                    self._remaining[i] = remaining - 1
                hit = True
        return hit

    def _offer_sweep(self, fabric: Fabric) -> None:
        for backlog in self._backlog:
            while backlog and fabric.offer_packet(backlog[0]):
                backlog.popleft()

    def generate(self, fabric: Fabric, cycle: int) -> None:
        self._draw(cycle)
        self._offer_sweep(fabric)

    def idle_generate(self, fabric: Fabric, cycle: int, budget: int) -> int:
        """Replay :meth:`generate` across up to *budget* known-idle cycles."""
        consumed = 0
        while consumed < budget:
            now = cycle + consumed
            consumed += 1
            if self._draw(now):
                self._offer_sweep(fabric)
                return consumed
            if self.done():
                return consumed
        return consumed

    def consume(self, fabric: Fabric, cycle: int) -> None:
        if not hasattr(fabric, "pop_ejection"):
            return
        if not getattr(fabric, "ej_pending_total", 1):
            return
        ej_pending = getattr(fabric, "ej_pending", None)
        pop = fabric.pop_ejection
        ej_queues = fabric.ej_queues
        for node in range(fabric.index.num_nodes):
            if ej_pending is not None and not ej_pending[node]:
                continue
            for cls, queue in enumerate(ej_queues[node]):
                while queue:
                    packet = pop(node, cls)
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
        return self.backlog_size() == 0 and self.delivered >= self.generated

    def backlog_size(self) -> int:
        return sum(len(b) for b in self._backlog)
