"""The source backlog, and what the open-loop sources share around it.

An open-loop source generates whether or not its NI injection queue has
room, so past saturation its backlog grows without bound. A backlogged
packet is therefore a record, not a :class:`Packet`: one int holding its
pid, destination, generation cycle and message class. A record becomes a
``Packet`` only when the backlog offers it; a node whose NI refuses keeps
that built packet as its head, so a :class:`Backlog` holds at most one
``Packet`` per waiting node.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import compress
from typing import Callable, Deque, Dict, Iterable, Set

from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet

__all__ = ["Backlog", "OpenLoopSource"]

# Record layout, low bits first: message class (3 bits), destination (20),
# pid (40), then the generation cycle in the unbounded high bits.
_DST_SHIFT, _PID_SHIFT, _CYCLE_SHIFT = 3, 23, 63
_DST_MASK, _PID_MASK = (1 << 20) - 1, (1 << 40) - 1
_CLASSES = tuple(MessageClass)


class Backlog:
    """Per-node FIFOs of packet records, offered head first.

    ``waiting`` is the set of nodes with a backlog and ``size`` the number
    of packets in it; both are kept as records come and go.
    """

    __slots__ = ("_records", "_heads", "waiting", "size")

    def __init__(self) -> None:
        self._records: Dict[int, Deque[int]] = defaultdict(deque)
        self._heads: Dict[int, Packet] = {}  # built, refused by the NI
        self.waiting: Set[int] = set()
        self.size = 0

    def push(self, node: int, pid: int, dst: int, cycle: int,
             msg_class: int) -> None:
        """Append a generated packet's record to *node*'s backlog."""
        if pid > _PID_MASK or dst > _DST_MASK:
            raise OverflowError(f"pid {pid} or destination {dst} does not "
                                "fit a backlog record")
        self._records[node].append(
            cycle << _CYCLE_SHIFT | pid << _PID_SHIFT | dst << _DST_SHIFT
            | msg_class)
        self.waiting.add(node)
        self.size += 1

    def hold(self, node: int, packet: Packet) -> None:
        """Keep *packet*, refused by its NI, as idle *node*'s head."""
        self._heads[node] = packet
        self.waiting.add(node)
        self.size += 1

    def sweep(self, offer: Callable[[Packet], bool],
              nodes: Iterable[int]) -> None:
        """Offer each of *nodes*' packets in order until its NI refuses.

        *offer* is the fabric's ``offer_packet``; *nodes* may be
        ``waiting`` itself, which changes only after the walk.
        """
        heads = self._heads
        records = self._records
        drained = []
        accepted = 0
        for node in nodes:
            packet = heads.pop(node, None)
            queue = records[node]
            while True:
                if packet is None:
                    if not queue:
                        drained.append(node)
                        break
                    record = queue.popleft()
                    packet = Packet(
                        record >> _PID_SHIFT & _PID_MASK, node,
                        record >> _DST_SHIFT & _DST_MASK,
                        _CLASSES[record & 7], record >> _CYCLE_SHIFT)
                if not offer(packet):
                    heads[node] = packet
                    break
                packet = None
                accepted += 1
        self.size -= accepted
        if drained:
            self.waiting.difference_update(drained)

    def clear(self) -> None:
        """Drop every backlogged packet."""
        self._records.clear()
        self._heads.clear()
        self.waiting.clear()
        self.size = 0


class OpenLoopSource:
    """Base of the synthetic, flow and trace sources: pids, packet
    counts, one :class:`Backlog`, an ideal sink, and ``skip_cycles`` as
    their ``generate(fabric, cycle, count)`` over a span."""

    def __init__(self) -> None:
        self.backlog = Backlog()
        self._next_pid = 0
        self.generated = 0
        self.delivered = 0

    def _push(self, src: int, dst: int, cycle: int, msg_class: int) -> None:
        """Generate one packet, as a record in *src*'s backlog."""
        self.backlog.push(src, self._next_pid, dst, cycle, msg_class)
        self._next_pid += 1
        self.generated += 1

    def _offer(self, fabric: Fabric) -> None:
        """Offer every backlog, in node order."""
        backlog = self.backlog
        if backlog.waiting:
            backlog.sweep(fabric.offer_packet, sorted(backlog.waiting))

    def skip_cycles(self, fabric: Fabric, cycle: int, count: int) -> None:
        """``generate`` for cycles ``cycle .. cycle + count - 1`` in one
        call: their packets, then one offer sweep.

        The caller guarantees that no NI injection queue drains inside the
        span — the fabric is empty and the span ends at or before
        ``next_event_cycle``, or no node can inject. Then every sweep
        after the first finds each backlog's head refused again, and one
        sweep at the end offers what the per-cycle sweeps would have: NI
        room only shrinks, so the packets a node's queue accepts are the
        same prefix of its backlog whenever they are offered.
        """
        if count > 0:
            self.generate(fabric, cycle, count)

    def consume(self, fabric: Fabric, cycle: int) -> None:
        """Sink every ejected packet immediately (ideal NI consumption).

        The wormhole fabric has no NI ejection queues (flits reassemble at
        the MSHRs and complete in place), so there is nothing to drain.
        """
        if not getattr(fabric, "ej_pending_total", 0):
            return  # nothing ejected anywhere this cycle, or no NI queues
        pop = fabric.pop_ejection
        ej_queues = fabric.ej_queues
        for node in compress(range(len(ej_queues)), fabric.ej_pending):
            for cls, queue in enumerate(ej_queues[node]):
                while queue:
                    self._sink(pop(node, cls))

    def _sink(self, packet: Packet) -> None:
        self.delivered += 1

    def backlog_size(self) -> int:
        """Packets generated but not yet accepted by their NI queue."""
        return self.backlog.size
