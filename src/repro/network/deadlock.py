"""Deadlock analysis of a live fabric.

Three tools live here:

- :class:`WaitForGraph` / :func:`find_deadlocked_slots` — an exact
  OR-request-model fixpoint: a buffered packet *can eventually move* if it
  can eject, or if any of its candidate downstream VCs is free, or is
  occupied by a packet that can eventually move. Everything else is
  deadlocked. This is the measurement oracle behind the Figure 3 study,
  the detection substrate of the SPIN baseline, and the instant resolver
  of the IDEAL upper bound. The graph object is reusable: callers that
  rotate a cycle and re-check (the IDEAL resolver) refresh only the
  rotated slots instead of re-deriving every packet's candidates.
- :func:`extract_cycle` / :func:`rotate_cycle` — pull one resource cycle
  out of the deadlocked set and force its packets to move one hop in
  unison (the coordinated movement of SPIN's spin and of the ideal
  resolver; DRAIN's drain uses the precomputed drain path instead and does
  not need any of this machinery — that asymmetry *is* the paper's point).
- :func:`next_check` / :func:`timed_out_heads` — the detection tick of
  every online responder (the IDEAL oracle, the watchdog, SPIN, static
  bubble, the degradation ladder) and the timeout trigger of SPIN and
  static bubble.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..analysis.certificate import buffer_cycle_payload
from ..router.packet import MessageClass, Packet
from .fabric import Fabric

__all__ = [
    "WaitForGraph",
    "find_deadlocked_slots",
    "extract_cycle",
    "rotate_cycle",
    "has_deadlock",
    "deadlock_cycle_payload",
    "next_check",
    "timed_out_heads",
]

Slot = Tuple[int, int, int]  # (port, vn, vc)

#: Message classes whose ejection queues always drain eventually (sinks).
#: RESP is a sink under the MESI model; under the MOESI model the true
#: sinks are WB_ACK and UNBLOCK (RESP consumption spawns an UNBLOCK), but
#: its RESP queues still drain once the UNBLOCK path does, so the oracle
#: treats all three as eventually-draining for measurement purposes.
_SINK_CLASSES = {MessageClass.RESP, MessageClass.WB_ACK, MessageClass.UNBLOCK}


def _target_slots(fabric: Fabric, router: int, vn: int, packet: Packet) -> List[Slot]:
    """All downstream VC slots *packet* could legally claim right now."""
    out: List[Slot] = []
    vcs = fabric.vcs_per_vn
    for group in fabric.candidate_links(router, packet):
        for link, vc_mode in group:
            # Priority between groups is irrelevant for liveness: any
            # claimable slot is a slot the packet could move into.
            if vc_mode == 0:
                vc_range = range(vcs)
            elif vc_mode == 2:
                vc_range = range(1)
            else:
                # Modes 3 and 4: non-escape VCs. Mode 4's conservative
                # criterion only throttles throughput; for liveness any
                # free non-escape slot is eventually claimable.
                vc_range = range(1, vcs)
            for vc in vc_range:
                slot = (link, vn, vc)
                if slot not in out:
                    out.append(slot)
    return out


class WaitForGraph:
    """Wait-for structure over the fabric's occupied slots, reusable.

    Holds, per occupied slot, the occupying packet and either its legal
    target slots (in-transit packets) or its ejectability (at-destination
    packets). Building it costs one candidate derivation per occupied
    slot; afterwards :meth:`deadlocked` is a cheap fixpoint over the
    stored edges, and :meth:`refresh_slots` re-derives only the slots a
    rotation touched — the freeness of a target depends solely on *which*
    slots are occupied, and a rotation permutes occupants without changing
    that set.
    """

    __slots__ = ("fabric", "assume", "occupant", "targets", "at_dest", "paused")

    def __init__(self, fabric: Fabric, assume_ejection_drains: bool = True) -> None:
        self.fabric = fabric
        self.assume = assume_ejection_drains
        self.occupant: Dict[Slot, Packet] = {}
        self.targets: Dict[Slot, List[Slot]] = {}
        #: Present only for at-destination slots; value = ejectable flag.
        self.at_dest: Dict[Slot, bool] = {}
        #: Pause-aware fabrics (PFC) report their XOFF rows as
        #: ``(port, vn) -> occupied slots``; a free slot in a paused row is
        #: *not* claimable — the waiter depends on the row's occupants
        #: instead (only their departure re-opens the row). Absent on the
        #: base credit fabric, so credit-mode analysis is untouched.
        paused_hook = getattr(fabric, "paused_rows", None)
        self.paused = paused_hook() if paused_hook is not None else None
        for port, vn, vc, packet in fabric.occupied_slots():
            slot = (port, vn, vc)
            self.occupant[slot] = packet
            self._extract(slot, packet)

    def _extract(self, slot: Slot, packet: Packet) -> None:
        """(Re)derive one slot's wait-for edges from the live fabric."""
        fabric = self.fabric
        router = fabric.index.port_router[slot[0]]
        if packet.dst == router:
            self.targets[slot] = []
            self.at_dest[slot] = (
                self.assume
                or packet.msg_class in _SINK_CLASSES
                or fabric.ejection_space(router, packet.msg_class) > 0
            )
        else:
            self.at_dest.pop(slot, None)
            self.targets[slot] = _target_slots(fabric, router, slot[1], packet)

    def refresh_slots(self, slots: Iterable[Slot]) -> None:
        """Re-read occupants and re-derive edges for *slots* only.

        Intended for post-rotation updates: a rotation permutes the
        packets within a cycle's slots, so only those slots' occupants
        (and hence their targets / at-destination status) changed.
        """
        for slot in slots:
            packet = self.fabric.slot(*slot)
            if packet is None:
                self.occupant.pop(slot, None)
                self.targets.pop(slot, None)
                self.at_dest.pop(slot, None)
            else:
                self.occupant[slot] = packet
                self._extract(slot, packet)

    def deadlocked(self) -> Set[Slot]:
        """The OR-request-model fixpoint over the stored wait-for edges."""
        occupant = self.occupant
        at_dest = self.at_dest
        paused = self.paused
        # Escape-exempt fabrics (DRAIN over PFC) let any packet claim a
        # free escape VC (vc 0) even in an XOFF row — mirror that here or
        # the oracle would report deadlocks the escape channel resolves.
        exempt = paused is not None and getattr(
            self.fabric, "pause_exempt_escape", False
        )
        can_move: Set[Slot] = set()
        waiters: Dict[Slot, List[Slot]] = {}
        frontier: List[Slot] = []
        for slot, tgt in self.targets.items():
            if slot in at_dest:
                if at_dest[slot]:
                    can_move.add(slot)
                    frontier.append(slot)
                continue
            movable = False
            for t in tgt:
                if t not in occupant:
                    row_occ = paused.get((t[0], t[1])) if paused else None
                    if row_occ is None or not row_occ or (
                        exempt and t[2] == 0
                    ):
                        # Free and unpaused, paused-but-empty (a forced
                        # pause with a finite expiry), or a pause-exempt
                        # escape slot: eventually claimable.
                        movable = True
                    else:
                        # Free slot in a paused row: claimable only after
                        # an occupant leaves and the row XONs (OR over the
                        # occupants, like OR over target slots).
                        for held in row_occ:
                            waiters.setdefault(held, []).append(slot)
                else:
                    waiters.setdefault(t, []).append(slot)
            if movable:
                can_move.add(slot)
                frontier.append(slot)

        while frontier:
            slot = frontier.pop()
            for waiter in waiters.get(slot, ()):
                if waiter not in can_move:
                    can_move.add(waiter)
                    frontier.append(waiter)

        return {s for s in occupant if s not in can_move}


def find_deadlocked_slots(
    fabric: Fabric, assume_ejection_drains: bool = True
) -> Set[Slot]:
    """Return the set of buffer slots whose packets can never move again.

    *assume_ejection_drains* treats every packet that has reached its
    destination router as eventually ejectable (true for synthetic traffic
    and for sink classes). When False, only sink-class packets and packets
    with free ejection space count as ejectable, which additionally exposes
    protocol-level deadlocks where non-sink ejection queues are wedged.
    """
    # An empty fabric cannot deadlock; skip the graph construction (the
    # oracle is consulted on watchdog/controller ticks, which at low load
    # mostly land on empty networks).
    if getattr(fabric, "packets_in_network", 1) == 0:
        return set()
    return WaitForGraph(fabric, assume_ejection_drains).deadlocked()


def has_deadlock(fabric: Fabric, assume_ejection_drains: bool = True) -> bool:
    """True when at least one buffered packet is permanently stuck."""
    return bool(find_deadlocked_slots(fabric, assume_ejection_drains))


def extract_cycle(
    fabric: Fabric,
    deadlocked: Set[Slot],
    graph: Optional[WaitForGraph] = None,
) -> Optional[List[Slot]]:
    """Find one resource cycle within the deadlocked slots.

    Returns the cycle as a slot list ``[s0, s1, ..., sk-1]`` where the
    packet in ``si`` waits on (and during a spin moves into) ``s(i+1) % k``.
    Returns ``None`` when the deadlocked set contains no rotatable cycle
    (e.g. pure protocol-level wedges at ejection queues, which no amount of
    spinning can fix — Section I-B: "There are no existing reactive
    solutions for protocol-level deadlocks").

    A *graph* built over the current fabric state (and refreshed after any
    rotation) lets repeated extractions reuse the stored wait-for edges
    instead of re-deriving candidates per pass.
    """
    if not deadlocked:
        return None
    index = fabric.index
    if graph is not None:
        occupant = graph.occupant
        paused = graph.paused
    else:
        occupant = {
            (port, vn, vc): packet
            for port, vn, vc, packet in fabric.occupied_slots()
        }
        paused_hook = getattr(fabric, "paused_rows", None)
        paused = paused_hook() if paused_hook is not None else None

    succ: Dict[Slot, List[Slot]] = {}
    for slot in deadlocked:
        packet = occupant[slot]
        router = index.port_router[slot[0]]
        if packet.dst == router:
            succ[slot] = []
            continue
        if graph is not None:
            tgt = graph.targets[slot]
        else:
            tgt = _target_slots(fabric, router, slot[1], packet)
        edges: List[Slot] = []
        for t in tgt:
            if t in deadlocked:
                if t not in edges:
                    edges.append(t)
            elif paused and t not in occupant:
                if t[2] == 0 and getattr(fabric, "pause_exempt_escape", False):
                    continue  # claimable despite the pause; no edge
                # Free slot in a paused row: the wait-for edge runs to the
                # row's deadlocked occupants (see WaitForGraph.deadlocked),
                # so the extracted cycle traverses pause-induced CBD edges.
                for held in paused.get((t[0], t[1]), ()):
                    if held in deadlocked and held not in edges:
                        edges.append(held)
        succ[slot] = edges

    # Iterative DFS for any cycle in the deadlocked wait-for subgraph.
    color: Dict[Slot, int] = {}  # 0 absent/white, 1 grey (on stack), 2 black
    parent: Dict[Slot, Slot] = {}
    for root in succ:
        if color.get(root):
            continue
        stack: List[Tuple[Slot, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            slot, child_idx = stack[-1]
            children = succ[slot]
            if child_idx >= len(children):
                color[slot] = 2
                stack.pop()
                continue
            stack[-1] = (slot, child_idx + 1)
            child = children[child_idx]
            if color.get(child, 0) == 0:
                color[child] = 1
                parent[child] = slot
                stack.append((child, 0))
            elif color[child] == 1:
                # Found a grey back-edge: unwind slot -> ... -> child.
                cycle = [slot]
                node = slot
                while node != child:
                    node = parent[node]
                    cycle.append(node)
                cycle.reverse()
                return cycle
    return None


def deadlock_cycle_payload(
    fabric: Fabric,
    deadlocked: Set[Slot],
    graph: Optional[WaitForGraph] = None,
) -> Optional[Dict]:
    """Describe one minimal deadlock cycle as a JSON-ready payload.

    The runtime analogue of the certifier's counterexample: a
    ``buffer-cycle`` over concrete occupied VC slots, naming the routers,
    links and holding packets so a watchdog halt is actionable. Both are
    built by :func:`~repro.analysis.certificate.buffer_cycle_payload`, in
    its canonical rotation — the one freedom ``extract_cycle`` has — so a
    wedge compares with its static refutation by plain equality on the
    ``links`` field. Returns ``None`` when the deadlocked set contains no
    cycle (pure ejection-queue wedges).
    """
    cycle = extract_cycle(fabric, deadlocked, graph)
    if cycle is None:
        return None
    index = fabric.index
    hops = []
    for port, vn, vc in cycle:
        packet = fabric.slot(port, vn, vc)
        hops.append({
            "router": index.port_router[port],
            "port": port,
            "vn": vn,
            "vc": vc,
            "link": None if index.is_injection_port(port) else [
                index.link_src[port], index.link_dst[port]
            ],
            "packet": None if packet is None else {
                "pid": packet.pid,
                "src": packet.src,
                "dst": packet.dst,
                "msg_class": packet.msg_class.name,
                "hops": packet.hops,
            },
        })
    return buffer_cycle_payload(hops)


def rotate_cycle(fabric: Fabric, cycle: List[Slot], forced_kind: str) -> int:
    """Move every packet in *cycle* one slot forward, in unison.

    ``forced_kind`` is ``"spin"`` or ``"ideal"``; a spin also counts
    ``spin_moves`` per packet. Returns the number of packets moved. Each
    move is a :meth:`Fabric.forced_hop`; ejection is *not* performed
    here — after the rotation packets re-route normally (SPIN semantics).
    """
    if len(cycle) < 2:
        raise ValueError("a rotation cycle needs at least two slots")
    index = fabric.index
    packets = [fabric.slot(p, vn, vc) for p, vn, vc in cycle]
    if any(p is None for p in packets):
        raise ValueError("rotation cycle contains an empty slot")
    n = len(cycle)
    for i in range(n):
        dst_slot = cycle[(i + 1) % n]
        packet = packets[i]
        fabric.set_slot(dst_slot[0], dst_slot[1], dst_slot[2], packet)
        link = dst_slot[0]
        if index.is_injection_port(link):
            raise ValueError("rotation cycle passes through an injection port")
        if forced_kind == "spin":
            packet.spin_moves += 1
        fabric.forced_hop(packet, index.port_router[cycle[i][0]], link)
    return n


def next_check(now: int, interval: int) -> int:
    """A detector's next tick: the first multiple of *interval* >= *now*."""
    return -(-now // interval) * interval


def timed_out_heads(fabric: Fabric, timeout: int) -> List[Tuple[int, int, int, Packet]]:
    """Network slots (``occupied_slots`` tuples) blocked >= *timeout* cycles.

    The timeout trigger of SPIN and static bubble; injection ports excluded.
    """
    cycle = fabric.cycle
    is_injection_port = fabric.index.is_injection_port
    return [
        slot for slot in fabric.occupied_slots()
        if not is_injection_port(slot[0])
        and slot[3].blocked_since is not None
        and cycle - slot[3].blocked_since >= timeout
    ]
