"""The closed-loop base of the coherence-transaction generators.

A closed-loop source issues a transaction from a node only while that
node has a free MSHR, so what it offers depends on what the network has
delivered. :class:`ClosedLoopSource` owns what the MESI and MOESI models
share: the transaction counters, one per-node Bernoulli ``generate``
loop that hands each hit to the model's ``_issue``, and the fast-forward
contract every traffic source keeps:

- ``next_event_cycle(now, limit)`` reads the generator ahead, one whole
  cycle of per-node draws at a time, and stops at the first node that
  hits. It is asked only while the fabric is empty, so nothing is
  delivered before *limit* and the set of nodes that draw is frozen. The
  hit is kept for ``generate``, and no draw is made at or past *limit*.
- ``skip_cycles`` is ``generate`` over a span, minus the cycles the
  read-ahead has already drawn.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.config import ProtocolConfig
from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet

__all__ = ["ClosedLoopSource"]


class ClosedLoopSource:
    """Closed-loop transaction generator: a node with a free MSHR starts
    a transaction with probability ``issue_probability`` per cycle.

    Draw-order contract: each cycle, every node with a free MSHR makes
    one ``rng.random()`` in ascending node order, until ``issued``
    reaches ``total_transactions``; a draw below the issue probability
    is followed at once by the draws of that node's ``_issue``.
    """

    def __init__(
        self,
        num_nodes: int,
        config: ProtocolConfig,
        issue_probability: float,
        rng: random.Random,
        total_transactions: Optional[int] = None,
    ) -> None:
        if num_nodes < 3:
            raise ValueError("the 3-hop chain needs at least three nodes")
        if not 0.0 <= issue_probability <= 1.0:
            raise ValueError("issue_probability must be a probability")
        self.num_nodes = num_nodes
        self.config = config
        self.issue_probability = issue_probability
        self.rng = rng
        self.total_transactions = total_transactions
        self.outstanding: List[int] = [0] * num_nodes
        self.issued = 0
        self.completed = 0
        self._next_pid = 0
        #: Read-ahead state: every cycle before ``_drawn_to`` has made its
        #: Bernoulli draws, and ``_ahead`` is the node whose draw hit at
        #: cycle ``_drawn_to - 1``, kept for :meth:`generate` (None if none).
        self._drawn_to = 0
        self._ahead: Optional[int] = None

    # ------------------------------------------------------------------
    def _pick_other(self, *exclude: int) -> int:
        while True:
            n = self.rng.randrange(self.num_nodes)
            if n not in exclude:
                return n

    def _packet(self, src: int, dst: int, cls: MessageClass,
                cycle: int) -> Packet:
        packet = Packet(self._next_pid, src, dst, cls, gen_cycle=cycle)
        self._next_pid += 1
        return packet

    def _issue(self, fabric: Fabric, node: int,
               cycle: int) -> Optional[Packet]:
        """The request that starts *node*'s transaction, past its
        Bernoulli hit; None when its NI queue has no room for it."""
        raise NotImplementedError

    def _start(self, fabric: Fabric, node: int, cycle: int) -> None:
        request = self._issue(fabric, node, cycle)
        if request is not None and fabric.offer_packet(request):
            self.outstanding[node] += 1
            self.issued += 1

    def _reply(self, fabric: Fabric, packet: Packet) -> None:
        """Offer a protocol message whose NI room was checked this cycle."""
        if not fabric.offer_packet(packet):
            raise AssertionError("injection space vanished within a cycle")

    # ------------------------------------------------------------------
    # TrafficSource interface
    # ------------------------------------------------------------------
    def generate(self, fabric: Fabric, cycle: int) -> None:
        first = 0
        if cycle < self._drawn_to:
            # Read ahead: only the kept hit, if it is this cycle's, and
            # the nodes after it are left to draw.
            node = self._ahead
            if node is None or cycle != self._drawn_to - 1:
                return
            self._ahead = None
            self._start(fabric, node, cycle)
            first = node + 1
        rand = self.rng.random
        p = self.issue_probability
        mshrs = self.config.mshrs_per_node
        outstanding = self.outstanding
        total = self.total_transactions
        for node in range(first, self.num_nodes):
            if outstanding[node] >= mshrs:
                continue
            if total is not None and self.issued >= total:
                return
            if rand() < p:
                self._start(fabric, node, cycle)

    def next_event_cycle(self, now: int, limit: int) -> int:
        """First cycle in [*now*, *limit*] at which :meth:`generate` may
        act, read ahead on an empty fabric (see the module docstring)."""
        if self._ahead is not None:
            return min(self._drawn_to - 1, limit)
        cycle = max(now, self._drawn_to)
        total = self.total_transactions
        if total is None or self.issued < total:
            mshrs = self.config.mshrs_per_node
            eligible = [node for node, busy in enumerate(self.outstanding)
                        if busy < mshrs]
            if eligible:
                rand = self.rng.random
                p = self.issue_probability
                while cycle < limit:
                    for node in eligible:
                        if rand() < p:
                            self._ahead = node
                            self._drawn_to = cycle + 1
                            return cycle
                    cycle += 1
        self._drawn_to = max(self._drawn_to, limit)
        return limit

    def skip_cycles(self, fabric: Fabric, cycle: int, count: int) -> None:
        """:meth:`generate` for cycles ``cycle .. cycle + count - 1``.

        Cycles the read-ahead drew cost nothing. The others are stepped
        one by one: on a stuck fabric a hit may still find NI room, and
        the MSHR it takes changes which nodes draw next cycle.
        """
        for now in range(max(cycle, self._drawn_to - 1), cycle + count):
            self.generate(fabric, now)

    def done(self) -> bool:
        return (
            self.total_transactions is not None
            and self.completed >= self.total_transactions
        )

    def in_flight(self) -> int:
        return self.issued - self.completed
