"""Cycle-level network fabric: buffers, allocation, movement, NI queues.

This is the Garnet2.0 stand-in. The architectural contract matches
Table II of the paper:

- input-buffered VC routers, virtual cut-through, **one packet per VC**;
- credit-based flow control (a VC freed in cycle *t* is claimable from
  cycle *t+1*, because freeness is evaluated against start-of-cycle state);
- 1-cycle routers and 1-cycle links (a granted packet sits in the
  downstream VC at the start of the next cycle);
- per-router crossbar constraints: one grant per input port and one per
  output link per cycle; one ejection per router per cycle;
- per-message-class injection and ejection queues at every network
  interface (Section III-A's protocol assumptions);
- U-turns permitted (assumption 3).

Scheme-specific behaviour (escape-VC discipline, DRAIN escape rules) is
expressed through ``escape_mode``:

- ``None`` — all VCs equivalent (SPIN / NONE / IDEAL / UPDOWN);
- ``"drain"`` — VC 0 of each VN is the drained escape VC; fully adaptive
  routing everywhere; packets prefer non-escape VCs and fall back to the
  escape VC; once in an escape VC a packet stays in escape VCs;
- ``"escape_vc"`` — classic escape VC: non-escape VCs are fully adaptive,
  VC 0 follows a restricted deadlock-free routing function; escape entry
  is only possible along that restricted route and is sticky.

Performance architecture (see DESIGN.md, "Performance architecture"):

- VC buffers live in one preallocated flat list indexed by precomputed
  strides (``port * port_stride + vn * vcs_per_vn + vc``), read through
  :meth:`slot` and written through :meth:`set_slot`, which keeps
  occupancy exact;
- per-port and per-router occupancy counters plus per-node NI pending
  counters form the *active set*: the movement, injection and deadlock
  scans skip routers/ports/nodes with no live state, in the exact same
  deterministic iteration order as a dense sweep (the skipped work had no
  side effects, so outputs are bit-identical);
- the vectorized engine (:mod:`repro.network.vectorized`) runs the
  movement stage of every non-dense fabric — any routing function, 1 to 8
  VCs per VN, any packet size, credit or pause/resume flow control;
  ``engine_name`` reports it. Multi-flit transfers keep their state here
  (``_in_flight``, ``_in_flight_sources``, ``_reserved``,
  ``_link_busy_until``): the engine starts them through
  :meth:`_start_transfer` and :meth:`_complete_transfers` lands them at the
  top of every cycle, frozen or not;
- ``dense=True`` retains the pre-optimization reference sweep (no skip
  checks, no memoization) as the single oracle of the parity suites;
- the :attr:`inert` predicate — "nothing in the fabric can act": it is
  empty (:attr:`quiescent`), or stuck, every occupied router asleep and
  no node able to inject — and :meth:`skip_cycles` fast-forwards an
  inert fabric across *n* cycles by advancing only the state a dense
  cycle would mutate (cycle counter, stats cycle counter, the
  injection-fairness rotation, and when stuck the sleeping routers' LCG
  jumps and PFC stalls). The event-horizon engine in ``Simulation.run``
  is the only caller.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import List, Optional, Tuple

from ..core.config import SimConfig
from ..core.metrics import NetworkStats
from ..router.packet import MessageClass, Packet
from ..routing.base import RoutingFunction
from .index import FabricIndex
from .vectorized import VectorizedEngine

__all__ = ["Fabric", "EJECT"]

#: Sentinel candidate meaning "eject at the local NI".
EJECT = -1

_NUM_CLASSES = len(MessageClass)


class Fabric:
    """The network state plus the per-cycle allocation/movement pipeline.

    State is held once and sized by what it holds: one flat VC buffer,
    integer occupancy counters, and per-node NI queues
    (:attr:`inj_queues`, :attr:`ej_queues`, ``[node][msg_class]``) that
    are plain lists bounded by the configured queue depths — a message
    class no traffic uses allocates no item storage.
    """

    def __init__(
        self,
        index: FabricIndex,
        config: SimConfig,
        routing: RoutingFunction,
        escape_mode: Optional[str] = None,
        escape_routing: Optional[RoutingFunction] = None,
        stats: Optional[NetworkStats] = None,
        rng: Optional[random.Random] = None,
        dense: bool = False,
    ) -> None:
        if escape_mode not in (None, "drain", "escape_vc"):
            raise ValueError(f"unknown escape mode {escape_mode!r}")
        if escape_mode == "escape_vc" and escape_routing is None:
            raise ValueError("escape_vc mode requires an escape routing function")
        self.index = index
        self.config = config
        self.net = config.network
        self.routing = routing
        self.escape_mode = escape_mode
        self.escape_routing = escape_routing
        self.stats = stats if stats is not None else NetworkStats()
        self.rng = rng if rng is not None else random.Random(config.seed)
        #: Reference mode: dense sweeps, no memoization (parity baseline).
        self.dense = bool(dense)

        self.num_vns = self.net.num_vns
        self.vcs_per_vn = self.net.vcs_per_vn
        self.escape_sticky = config.drain.escape_sticky

        #: Vectorized-engine hook state. ``_engine_avail`` must exist before
        #: the first buffer write: ``set_slot`` mirrors every write into
        #: the engine's availability masks once an engine is installed, and
        #: wakes the routers whose scan the write can change (the engine's
        #: ``asleep`` flags; see DESIGN.md, "Sleeping routers").
        self._engine = None
        self._engine_avail: Optional[bytearray] = None

        #: Flat VC storage: slot (port, vn, vc) lives at
        #: ``port * _port_stride + vn * vcs_per_vn + vc``.
        self._port_stride = self.num_vns * self.vcs_per_vn
        self._buf: List[Optional[Packet]] = (
            [None] * (index.num_ports * self._port_stride)
        )
        #: Active-set occupancy counters, maintained by every buffer write.
        self._port_occ: List[int] = [0] * index.num_ports
        self._router_occ: List[int] = [0] * index.num_nodes
        self.packets_in_network = 0

        # Network-interface queues, one per message class per node: plain
        # lists, bounded by the queue depths (a deque would allocate a
        # 64-slot block per class up front — 9 MB on a 1024-switch fabric).
        self.inj_queues: List[List[List[Packet]]] = [
            [[] for _ in range(_NUM_CLASSES)] for _ in range(index.num_nodes)
        ]
        self.ej_queues: List[List[List[Packet]]] = [
            [[] for _ in range(_NUM_CLASSES)] for _ in range(index.num_nodes)
        ]
        self._inj_depth = self.net.injection_queue_depth
        self._ej_depth = self.net.ejection_queue_depth
        #: Queued injection-side packets per node (active-set hint; packets
        #: enqueued through :meth:`offer_packet` keep it exact), plus the
        #: network-wide total backing the :attr:`quiescent` predicate.
        self._inj_pending: List[int] = [0] * index.num_nodes
        self._inj_total = 0
        #: Ejection-queue occupancy per node plus the network-wide total
        #: (lets traffic sinks skip nodes with nothing to consume).
        self.ej_pending: List[int] = [0] * index.num_nodes
        self.ej_pending_total = 0

        #: Per-unidirectional-link traversal counters (utilisation probes):
        #: one per allocated packet move; forced moves skip them.
        self.link_util: List[int] = [0] * index.num_links
        #: Multi-flit serialisation state (packet_size_flits > 1): a
        #: granted packet keeps its source slot, reserves its target slot
        #: and holds the link busy until the transfer completes. Both slot
        #: sets hold flat slot indices.
        self.packet_size_flits = self.net.packet_size_flits
        self._link_busy_until: List[int] = [-1] * index.num_links
        self._in_flight: List[Tuple[int, int, int, int, int, int, int, Packet]] = []
        self._in_flight_sources = set()  # slots whose packet is mid-transfer
        self._reserved = set()  # target slots awaiting an arrival
        self.frozen = False  # pre-drain / drain-window credit freeze
        self.cycle = 0
        self.measure_from = 0  # packets generated earlier are not recorded
        self.last_progress_cycle = 0
        self._lcg = (config.seed * 2654435761) & 0x7FFFFFFF
        #: Class-rotation counter for NI injection fairness. One shared
        #: counter: the legacy per-node counters advanced in lockstep (one
        #: bump per node per non-frozen cycle), so a single counter yields
        #: the identical service order.
        self._inj_rr: int = 0

        #: VC-order scratch: immutable, precomputed once, shared by every
        #: ``_pick_vc`` call (no per-call range/tuple churn, and — being
        #: tuples — no way to leak allocation state across trials).
        self._vc_order_all: Tuple[int, ...] = tuple(range(self.vcs_per_vn))
        self._vc_order_escape: Tuple[int, ...] = (0,)
        self._vc_order_adaptive: Tuple[int, ...] = tuple(range(1, self.vcs_per_vn))

        # Engine (see DESIGN.md, "Vectorized kernel"): the dense reference
        # sweep when asked for, the vectorized kernel otherwise.
        #: Resolved engine: "dense" or "vectorized".
        self.engine_name: str = "dense" if self.dense else "vectorized"
        if not self.dense:
            self._engine = VectorizedEngine(self)
            self._engine_avail = self._engine.avail

    # ------------------------------------------------------------------
    # Flat-buffer slot primitives (the only legal buffer mutators)
    # ------------------------------------------------------------------
    def slot(self, port: int, vn: int, vc: int) -> Optional[Packet]:
        """The packet in VC slot (port, vn, vc), or None."""
        return self._buf[port * self._port_stride + vn * self.vcs_per_vn + vc]

    def set_slot(self, port: int, vn: int, vc: int,
                 packet: Optional[Packet]) -> None:
        """Write one VC slot, keeping the occupancy counters exact.

        The one buffer writer outside the injection stage and the apply
        passes: controllers, scenario builders and tests write through it,
        so the active-set counters and the engine's availability masks
        never drift from the buffer.
        """
        idx = port * self._port_stride + vn * self.vcs_per_vn + vc
        old = self._buf[idx]
        self._buf[idx] = packet
        if old is None:
            if packet is not None:
                self._port_occ[port] += 1
                self._router_occ[self.index.port_router[port]] += 1
        elif packet is None:
            self._port_occ[port] -= 1
            self._router_occ[self.index.port_router[port]] -= 1
        av = self._engine_avail
        if av is not None:
            ai = port * self.num_vns + vn
            eng = self._engine
            eng.asleep[self.index.port_router[port]] = 0
            if packet is None:
                av[ai] |= 1 << vc
                eng.asleep[eng.upstream[port]] = 0
            else:
                av[ai] &= ~(1 << vc) & 0xFF

    # ------------------------------------------------------------------
    # NI-side API (used by traffic generators and protocol models)
    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> bool:
        """Enqueue *packet* at its source NI; False when the queue is full.

        Under runtime faults, packets from a dead source or towards an
        unreachable/dead destination are swallowed (accepted then counted
        lost) instead of rejected: a False return would make open-loop
        traffic retry the same doomed packet forever and wedge the NI
        queue for routable traffic behind it.
        """
        index = self.index
        if index.dead_routers or index.dead_links:
            if (
                packet.src in index.dead_routers
                or packet.dst in index.dead_routers
                or index.dist[packet.src][packet.dst] < 0
            ):
                self.stats.packets_unroutable += 1
                return True
        queue = self.inj_queues[packet.src][packet.msg_class]
        if len(queue) >= self._inj_depth:
            return False
        queue.append(packet)
        self._inj_pending[packet.src] += 1
        self._inj_total += 1
        return True

    def injection_space(self, node: int, msg_class: MessageClass) -> int:
        """Free slots in *node*'s injection queue for *msg_class*."""
        return self._inj_depth - len(self.inj_queues[node][msg_class])

    def peek_ejection(self, node: int, msg_class: MessageClass) -> Optional[Packet]:
        queue = self.ej_queues[node][msg_class]
        return queue[0] if queue else None

    def pop_ejection(self, node: int, msg_class: int) -> Packet:
        """Dequeue the head packet of *node*'s per-class ejection queue.

        ``msg_class`` may be a :class:`MessageClass` or its plain integer
        value (hot consumers pass the int straight from an index loop).
        """
        self.last_progress_cycle = self.cycle
        packet = self.ej_queues[node][msg_class].pop(0)
        eng = self._engine
        if eng is not None:
            eng.asleep[node] = 0  # ejection-queue room is scan input
        self.ej_pending[node] -= 1
        self.ej_pending_total -= 1
        return packet

    def ejection_space(self, node: int, msg_class: MessageClass) -> int:
        return self._ej_depth - len(self.ej_queues[node][msg_class])

    # ------------------------------------------------------------------
    # Candidate computation (shared by the allocator and the deadlock oracle)
    # ------------------------------------------------------------------
    def invalidate_routing_cache(self) -> None:
        """Drop the engine's plans (fault recovery / path reinstall).

        Must be called whenever a routing function's tables change outside
        of :meth:`FabricIndex.apply_faults` (whose fault-epoch bump is
        detected automatically).
        """
        if self._engine is not None:
            self._engine.invalidate()

    def candidate_links(
        self, router: int, packet: Packet
    ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Output candidates for *packet* at *router*, in priority groups.

        Each group is a tuple of ``(link, vc_mode)`` pairs; the allocator
        exhausts a group (in randomised order) before trying the next, so
        groups encode strict preferences. ``vc_mode`` selects which
        downstream VCs may be claimed: 0 = any VC, 2 = escape VC only,
        3 = non-escape VCs only.

        - DRAIN: strictly prefer non-escape VCs on any productive output;
          fall back to the escape VC only when no non-escape VC is
          claimable (entering escape is free of routing restrictions but —
          with ``escape_sticky`` — commits the packet to escape VCs).
        - Escape-VC baseline: adaptive (non-escape) and restricted-route
          escape candidates compete in a single group, modelling the usual
          round-robin VC selection; escape entry is always sticky.
        """
        return self._build_candidate_groups(router, packet)

    def _build_candidate_groups(
        self, router: int, packet: Packet
    ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Candidate-group construction (see :meth:`candidate_links`)."""
        mode = self.escape_mode
        if mode is None:
            return (tuple((link, 0)
                          for link in self.routing.candidates(router, packet)),)
        if mode == "drain":
            links = self.routing.candidates(router, packet)
            if packet.in_escape:
                return (tuple((link, 2) for link in links),)
            if self.vcs_per_vn == 1:
                # Degenerate config: the only VC is the escape VC.
                return (tuple((link, 2) for link in links),)
            return (tuple((link, 3) for link in links),
                    tuple((link, 2) for link in links))
        # escape_vc
        if packet.in_escape:
            return (
                tuple((link, 2)
                      for link in self.escape_routing.candidates(router, packet)),
            )
        cands = [(link, 4)
                 for link in self.routing.candidates(router, packet)]
        if self.vcs_per_vn == 1:
            # Degenerate config: the only VC is the escape VC.
            cands = []
        for link in self.escape_routing.candidates(router, packet):
            cands.append((link, 2))
        return (tuple(cands),)

    def _pick_vc(self, port: int, vn: int, vc_mode: int, claimed) -> int:
        """Free claimable VC index at *port*/*vn* honouring *vc_mode*; -1 if none."""
        flat = self._buf
        base = port * self._port_stride + vn * self.vcs_per_vn
        if vc_mode == 0:
            order = self._vc_order_all
        elif vc_mode == 2:  # escape only
            order = self._vc_order_escape
        elif vc_mode == 4:  # non-escape, conservative allocation
            # Duato-style conservative criterion for adaptive VCs [11]: only
            # claim an adaptive VC while the port retains another free VC,
            # so the escape path can never be starved of buffer space.
            free = 0
            for vc in self._vc_order_all:
                if flat[base + vc] is None and (port, vn, vc) not in claimed:
                    free += 1
            if free < 2:
                return -1
            order = self._vc_order_adaptive
        else:  # non-escape only
            order = self._vc_order_adaptive
        reserved = self._reserved
        for vc in order:
            if (
                flat[base + vc] is None
                and (port, vn, vc) not in claimed
                and base + vc not in reserved
            ):
                return vc
        return -1

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def inject_stage(self) -> None:
        """Move packets from NI injection queues into injection-port VCs.

        One VC allocation per virtual network per node per cycle. Frozen
        during pre-drain/drain windows (no new VC allocations).
        """
        if self.frozen:
            return
        # Rotate class service order for fairness between classes that
        # share a VN.
        rr = self._inj_rr
        self._inj_rr = (rr + 1) % _NUM_CLASSES
        if not self._inj_total:
            return  # no NI queue holds a packet
        fast = not self.dense
        flat = self._buf
        index = self.index
        stats = self.stats
        dead_routers = index.dead_routers
        num_links = index.num_links
        vcs = self.vcs_per_vn
        stride = self._port_stride
        inj_pending = self._inj_pending
        port_occ = self._port_occ
        router_occ = self._router_occ
        num_vns = self.num_vns
        av = self._engine_avail
        asleep = None if av is None else self._engine.asleep
        # Only nodes with a queued packet: the others' queues are empty, so
        # the dense reference takes the same walk.
        for node in compress(range(index.num_nodes), inj_pending):
            if dead_routers and node in dead_routers:
                continue
            port = num_links + node
            if fast and port_occ[port] == stride:
                continue  # injection port full: no class can be granted
            queues = self.inj_queues[node]
            base_port = port * stride
            granted_vns = 0
            for off in range(_NUM_CLASSES):
                cls = (rr + off) % _NUM_CLASSES
                queue = queues[cls]
                if not queue:
                    continue
                vn = cls % self.num_vns
                base = base_port + vn * vcs
                vc = -1
                for i in range(vcs):
                    if flat[base + i] is None:
                        vc = i
                        break
                if vc < 0:
                    continue
                packet = queue.pop(0)
                inj_pending[node] -= 1
                self._inj_total -= 1
                packet.vn = vn
                packet.net_entry_cycle = self.cycle
                packet.blocked_since = self.cycle
                self.routing.on_inject(packet)
                flat[base + vc] = packet
                if av is not None:
                    av[port * num_vns + vn] &= ~(1 << vc) & 0xFF
                    asleep[node] = 0
                port_occ[port] += 1
                router_occ[node] += 1
                self.packets_in_network += 1
                stats.packets_injected += 1
                stats.buffer_writes += 1
                self.last_progress_cycle = self.cycle
                granted_vns += 1
                if granted_vns >= self.num_vns:
                    break

    def _slot_index(self, port: int, vn: int, vc: int) -> int:
        return port * self._port_stride + vn * self.vcs_per_vn + vc

    def _start_transfer(self, port: int, vn: int, vc: int, link: int,
                        tvc: int, packet: Packet) -> None:
        """Grant a serialised transfer: hold the link, keep the source,
        reserve the target (landed by :meth:`_complete_transfers`)."""
        done = self.cycle + self.packet_size_flits - 1
        self._link_busy_until[link] = done
        self._in_flight.append((done, port, vn, vc, link, vn, tvc, packet))
        self._in_flight_sources.add(self._slot_index(port, vn, vc))
        self._reserved.add(self._slot_index(link, vn, tvc))

    def _complete_transfers(self) -> None:
        """Land multi-flit transfers whose serialisation has finished."""
        cycle = self.cycle
        remaining = []
        for entry in self._in_flight:
            done, sp, svn, svc, link, tvn, tvc, packet = entry
            if done > cycle:
                remaining.append(entry)
                continue
            self.set_slot(sp, svn, svc, None)
            self._in_flight_sources.discard(self._slot_index(sp, svn, svc))
            self._reserved.discard(self._slot_index(link, tvn, tvc))
            self.set_slot(link, tvn, tvc, packet)
            self._account_move(sp, svn, link, tvn, tvc, packet)
        self._in_flight = remaining

    def movement_stage(self) -> None:
        """Switch allocation + traversal: the per-cycle router pipeline.

        Transfers whose serialisation ends this cycle land first, frozen or
        not. The vectorized engine then runs the cycle's scan; a dense
        fabric runs the reference sweep below instead.
        """
        if self._in_flight:
            self._complete_transfers()
        eng = self._engine
        if eng is not None:
            eng.movement()
            return
        if self.frozen:
            return
        index = self.index
        flat = self._buf
        num_vns = self.num_vns
        vcs = self.vcs_per_vn
        stride = self._port_stride
        cycle = self.cycle

        moves: List[Tuple[int, int, int, int, int, int, Packet]] = []
        ejects: List[Tuple[int, int, int, Packet]] = []
        link_used = bytearray(index.num_links)
        claimed = set()
        # Lazily seeded per-cycle ejection budgets: at typical occupancy
        # only a handful of routers eject per cycle, so dicts beat
        # preallocating O(nodes) lists every cycle.
        epc = self.net.ejections_per_cycle
        eject_budget: dict = {}
        eject_pending: dict = {}

        in_flight_sources = self._in_flight_sources
        ej_queues = self.ej_queues
        ej_depth = self._ej_depth
        lcg = self._lcg
        dead_links = index.dead_links
        dead_routers = index.dead_routers
        for router in range(index.num_nodes):
            if dead_routers and router in dead_routers:
                continue  # dead router: buffers were emptied at fault time
            ports = index.in_ports[router]
            nports = len(ports)
            port_start = (cycle + router) % nports
            for pi in range(nports):
                port = ports[(port_start + pi) % nports]
                base_port = port * stride
                granted = False
                for vn_off in range(num_vns):
                    vn = (cycle + vn_off) % num_vns
                    base = base_port + vn * vcs
                    for vc_off in range(vcs):
                        vc = (cycle + port + vc_off) % vcs
                        packet = flat[base + vc]
                        if packet is None:
                            continue
                        if base + vc in in_flight_sources:
                            continue  # mid-transfer on its link
                        if packet.dst == router:
                            cls = packet.msg_class
                            budget = eject_budget.get(router, epc)
                            if budget > 0:
                                rc = (router, cls)
                                pending = eject_pending.get(rc, 0)
                                if (
                                    len(ej_queues[router][cls]) + pending
                                    < ej_depth
                                ):
                                    ejects.append((port, vn, vc, packet))
                                    eject_budget[router] = budget - 1
                                    eject_pending[rc] = pending + 1
                                    granted = True
                        else:
                            for group in self.candidate_links(router, packet):
                                ncands = len(group)
                                if not ncands:
                                    continue
                                lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
                                start = lcg % ncands
                                for ci in range(ncands):
                                    link, vc_mode = group[(start + ci) % ncands]
                                    if (
                                        link_used[link]
                                        or self._link_busy_until[link] >= cycle
                                        or (dead_links and link in dead_links)
                                    ):
                                        continue
                                    tvc = self._pick_vc(link, vn, vc_mode, claimed)
                                    if tvc < 0:
                                        continue
                                    if self.packet_size_flits > 1:
                                        self._start_transfer(port, vn, vc,
                                                             link, tvc, packet)
                                    else:
                                        moves.append(
                                            (port, vn, vc, link, vn, tvc, packet)
                                        )
                                        claimed.add((link, vn, tvc))
                                    link_used[link] = 1
                                    granted = True
                                    break
                                if granted:
                                    break
                        if granted:
                            break
                    if granted:
                        break
                # one grant per input port per cycle (crossbar input constraint)
        self._lcg = lcg
        self._apply_moves(moves, ejects)

    def _apply_moves(
        self,
        moves: List[Tuple[int, int, int, int, int, int, Packet]],
        ejects: List[Tuple[int, int, int, Packet]],
    ) -> None:
        flat = self._buf
        index = self.index
        stats = self.stats
        cycle = self.cycle
        stride = self._port_stride
        vcs = self.vcs_per_vn
        port_occ = self._port_occ
        router_occ = self._router_occ
        port_router = index.port_router
        if moves or ejects:
            self.last_progress_cycle = cycle
        for port, vn, vc, _t1, _t2, _t3, _pkt in moves:
            flat[port * stride + vn * vcs + vc] = None
            port_occ[port] -= 1
            router_occ[port_router[port]] -= 1
        for port, vn, vc, _pkt in ejects:
            flat[port * stride + vn * vcs + vc] = None
            port_occ[port] -= 1
            router_occ[port_router[port]] -= 1
        for src_port, vn, _vc, link, tvn, tvc, packet in moves:
            flat[link * stride + tvn * vcs + tvc] = packet
            port_occ[link] += 1
            router_occ[port_router[link]] += 1
            self._account_move(src_port, vn, link, tvn, tvc, packet)
        for port, _vn, _vc, packet in ejects:
            router = port_router[port]
            self._eject(router, packet)
            stats.buffer_reads += 1
            stats.xbar_traversals += 1

    def _account_move(self, src_port: int, vn: int, link: int, tvn: int,
                      tvc: int, packet: Packet) -> None:
        """Per-traversal bookkeeping shared by 1-cycle and serialised moves."""
        stats = self.stats
        index = self.index
        packet.hops += 1
        packet.blocked_since = self.cycle
        old_router = index.port_router[src_port]
        new_router = index.link_dst[link]
        if index.dist[new_router][packet.dst] > index.dist[old_router][packet.dst]:
            packet.misroutes += 1
            stats.misroutes += 1
        self._route_state_update(packet, link, tvc)
        stats.flits_traversed += self.packet_size_flits
        stats.vn_hops[tvn] = stats.vn_hops.get(tvn, 0) + 1
        self.link_util[link] += 1
        stats.buffer_reads += 1
        stats.buffer_writes += 1
        stats.xbar_traversals += 1
        self.last_progress_cycle = self.cycle

    def _route_state_update(self, packet: Packet, link: int, tvc: int) -> None:
        """Latch escape/phase state after *packet* traverses *link* into VC *tvc*."""
        sticky = self.escape_mode == "escape_vc" or self.escape_sticky
        if self.escape_mode is not None and tvc == 0 and not packet.in_escape and sticky:
            packet.in_escape = True
            if self.escape_mode == "escape_vc":
                self.escape_routing.on_inject(packet)
        if packet.in_escape and self.escape_mode == "escape_vc":
            self.escape_routing.on_hop(packet, link)
        else:
            self.routing.on_hop(packet, link)

    def _eject(self, router: int, packet: Packet) -> None:
        """Deliver *packet* into the per-class ejection queue at *router*."""
        packet.eject_cycle = self.cycle
        self.ej_queues[router][packet.msg_class].append(packet)
        self.ej_pending[router] += 1
        self.ej_pending_total += 1
        self.packets_in_network -= 1
        stats = self.stats
        stats.packets_ejected += 1
        if self.cycle >= self.measure_from:
            stats.packets_ejected_measured += 1
        if packet.gen_cycle >= self.measure_from:
            stats.latency.add(packet.latency)
            if packet.net_entry_cycle is not None:
                stats.network_latency.add(packet.network_latency)
            stats.hops.add(packet.hops)

    def step(self) -> None:
        """Advance the fabric by one cycle.

        Movement runs before injection so that a packet written into a VC
        (by injection or by a move) earliest departs in the *next* cycle —
        the 1-cycle router latency of Table II.
        """
        self.movement_stage()
        self.inject_stage()
        self.cycle += 1
        self.stats.cycles += 1

    # ------------------------------------------------------------------
    # Event-horizon fast-forward: "nothing in the fabric can act"
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """True when the fabric is empty: no packet in any VC, nothing
        queued at any NI (injection or ejection side), no serialised
        transfer on a wire, and not frozen by a drain window."""
        return (
            self.packets_in_network == 0
            and self._inj_total == 0
            and self.ej_pending_total == 0
            and not self._in_flight
            and not self.frozen
        )

    @property
    def inert(self) -> bool:
        """True when nothing in the fabric can act this cycle, and keeps
        being true until an event from outside the fabric.

        Two cases. The fabric is :attr:`quiescent`; or it is *stuck*
        (:meth:`_stuck`): packets are buffered, but every occupied router
        sleeps and no node can inject. Either way a :meth:`step` touches
        only the cycle counters, the injection-fairness rotation and — when
        stuck — the sleeping routers' LCG jumps and PFC stalls, which is
        what :meth:`skip_cycles` replays. O(1) on a cycle that followed
        progress; the stuck test's O(n) scans run only after a cycle in
        which nothing moved, injected or ejected.
        """
        if self.packets_in_network:
            # Progress last cycle rules "stuck" out in O(1): it moved,
            # injected or consumed a packet, which wakes a router.
            return (self.last_progress_cycle < self.cycle - 1
                    and self._stuck())
        return not (self._inj_total or self.ej_pending_total
                    or self._in_flight or self.frozen)

    def _stuck(self) -> bool:
        """The non-empty case of :attr:`inert` past its progress filter:
        the vectorized engine runs (not ``dense``), nothing waits to be
        consumed, nothing is frozen or on a wire, every live node's
        injection port is full, and every occupied router sleeps."""
        engine = self._engine
        if (engine is None or self.ej_pending_total or self._in_flight
                or self.frozen):
            return False
        stride = self._port_stride
        ports = self._port_occ[self.index.num_links:]
        if min(ports) != stride:
            dead = self.index.dead_routers
            if not dead or any(occ != stride for node, occ in enumerate(ports)
                               if node not in dead):
                return False
        return engine.sleeping()

    def skip_cycles(self, count: int) -> None:
        """Fast-forward *count* cycles of an :attr:`inert` fabric.

        Callers must hold the event-horizon contract: nothing outside the
        fabric acts on it for the whole span. An empty fabric advances in
        O(1). A stuck fabric also replays the sleeping routers' LCG jumps
        and stalls (``VectorizedEngine.skip``, O(n + log count)). Anything
        else would have acted — an awake router, a node that can inject, a
        packet queued at an NI of an empty fabric, a frozen window — so it
        is a contract violation, not a tolerable approximation.
        """
        if count <= 0:
            return
        if self.packets_in_network:
            if not self._stuck():
                raise RuntimeError(
                    "skip_cycles on a fabric that can act: "
                    f"{self.packets_in_network} buffered and not stuck, "
                    f"frozen={self.frozen}"
                )
            self._engine.skip(count)
        elif (self._in_flight or self.frozen or self.ej_pending_total
              or self._inj_total):
            raise RuntimeError(
                "skip_cycles on a non-quiescent fabric: "
                f"{len(self._in_flight)} in flight, frozen={self.frozen}, "
                f"{self.ej_pending_total} awaiting consumption, "
                f"{self._inj_total} queued at an NI"
            )
        self.cycle += count
        self.stats.cycles += count
        # inject_stage advances the class-rotation counter every non-frozen
        # cycle even when every NI queue is empty.
        self._inj_rr = (self._inj_rr + count) % _NUM_CLASSES

    # ------------------------------------------------------------------
    # Draining (called by DrainController during drain windows)
    # ------------------------------------------------------------------
    def forced_hop(self, packet: Packet, old_router: int, link: int) -> None:
        """Account a forced move of *packet* from *old_router* over *link*.

        Every forced movement — drain, SPIN and ideal rotations, bubble
        re-entry — is accounted here; the caller writes the slots and
        keeps its own per-scheme counter.
        """
        stats = self.stats
        dist = self.index.dist
        packet.hops += 1
        packet.blocked_since = self.cycle
        if dist[self.index.link_dst[link]][packet.dst] > dist[old_router][packet.dst]:
            packet.misroutes += 1
            stats.misroutes += 1
        stats.flits_traversed += self.packet_size_flits
        stats.buffer_reads += 1
        stats.buffer_writes += 1
        stats.xbar_traversals += 1
        self.last_progress_cycle = self.cycle

    def drain_rotate_escape(self, path_ports: List[int]) -> None:
        """Rotate all escape-VC packets one hop along the drain path.

        ``path_ports`` is the drain path as input-port (link) ids in cycle
        order; position ``i`` feeds position ``i+1``. The rotation is a
        permutation of buffer contents — every slot's new content comes
        from its predecessor — so it never requires a free buffer. After
        the rotation, packets that arrived at their destination router
        eject immediately if their per-class ejection queue has space.
        """
        flat = self._buf
        index = self.index
        link_dst = index.link_dst
        stats = self.stats
        stride = self._port_stride
        vcs = self.vcs_per_vn
        n = len(path_ports)
        for vn in range(self.num_vns):
            offset = vn * vcs
            packets = [flat[p * stride + offset] for p in path_ports]
            moved = 0
            for i in range(n):
                packet = packets[i]
                tgt = path_ports[(i + 1) % n]
                self.set_slot(tgt, vn, 0, packet)
                if packet is None:
                    continue
                moved += 1
                packet.drain_moves += 1
                self.forced_hop(packet, link_dst[path_ports[i]], tgt)
            stats.drained_packets += moved
            for p in path_ports:
                packet = flat[p * stride + offset]
                if packet is None:
                    continue
                router = link_dst[p]
                if packet.dst != router:
                    continue
                if self.ejection_space(router, packet.msg_class) > 0:
                    self.set_slot(p, vn, 0, None)
                    self._eject(router, packet)
                    stats.buffer_reads += 1

    # ------------------------------------------------------------------
    # Introspection helpers (oracle, controllers, tests)
    # ------------------------------------------------------------------
    def occupied_slots(self) -> List[Tuple[int, int, int, Packet]]:
        """All occupied buffer slots as (port, vn, vc, packet) tuples."""
        out = []
        flat = self._buf
        stride = self._port_stride
        vcs = self.vcs_per_vn
        num_vns = self.num_vns
        port_occ = self._port_occ
        fast = not self.dense
        for port in range(self.index.num_ports):
            if fast and not port_occ[port]:
                continue
            base_port = port * stride
            for vn in range(num_vns):
                base = base_port + vn * vcs
                for vc in range(vcs):
                    packet = flat[base + vc]
                    if packet is not None:
                        out.append((port, vn, vc, packet))
        return out

    def count_packets(self) -> int:
        """Packets currently buffered in the network (invariant check).

        Deliberately scans the raw flat buffer — not the occupancy
        counters — so tests can cross-check counter maintenance.
        """
        return sum(1 for packet in self._buf if packet is not None)

    def transfers_in_flight(self) -> int:
        """Serialised link transfers still completing (multi-flit packets).

        The drain controller refuses to open a drain window while this is
        non-zero — the runtime embodiment of the paper's rule that the
        pre-drain window is sized by the maximum packet size.
        """
        return len(self._in_flight)

    def link_utilization(self) -> List[float]:
        """Per-link traversal rate over the run so far: :attr:`link_util`
        per cycle.

        ``link_util`` counts one per packet moved over a link by
        allocation, whatever the packet's length in flits, so this is
        packets per cycle (flits per cycle only at one-flit packets).
        Forced moves (:meth:`forced_hop`: drain, SPIN, ideal and bubble
        rotations) are not counted, here or in ``NetworkStats.vn_hops``;
        ``NetworkStats.flits_traversed`` counts both kinds.
        """
        if self.cycle == 0:
            return [0.0] * self.index.num_links
        return [count / self.cycle for count in self.link_util]

    def router_load(self) -> dict:
        """Per-router incoming traffic, for heat rendering: the sum of
        :meth:`link_utilization` over the router's input links (allocated
        packet moves per cycle; forced moves are not counted)."""
        load = {n: 0.0 for n in range(self.index.num_nodes)}
        for link, rate in enumerate(self.link_utilization()):
            load[self.index.link_dst[link]] += rate
        return load

    # ------------------------------------------------------------------
    # Runtime fault primitives (called by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def fault_cancel_transfers(
        self, dead_link_ids: set, drop: bool
    ) -> List[Packet]:
        """Resolve serialised transfers caught mid-wire on dying links.

        With ``drop`` the packet is lost (its flits were on the dead wire);
        without it the transfer is cancelled and the packet stays in its
        source slot — it never released that buffer — ready to reroute.
        Returns the dropped packets so the caller can account/retransmit.
        """
        dropped: List[Packet] = []
        remaining = []
        for entry in self._in_flight:
            done, sp, svn, svc, link, tvn, tvc, packet = entry
            if link not in dead_link_ids:
                remaining.append(entry)
                continue
            self._in_flight_sources.discard(self._slot_index(sp, svn, svc))
            self._reserved.discard(self._slot_index(link, tvn, tvc))
            if drop:
                self.set_slot(sp, svn, svc, None)
                self.packets_in_network -= 1
                dropped.append(packet)
        self._in_flight = remaining
        for link in dead_link_ids:
            self._link_busy_until[link] = -1
        return dropped

    def fault_drop_slot(self, port: int, vn: int, vc: int) -> Packet:
        """Vaporise the packet in one buffer slot (fault semantics).

        A packet caught mid-transfer takes its transfer with it: the entry,
        the source mark and the target reservation go, and the (live) link
        is released at once — the source stops sending.
        """
        packet = self.slot(port, vn, vc)
        if packet is None:
            raise ValueError(f"no packet at slot {(port, vn, vc)}")
        self.set_slot(port, vn, vc, None)
        self.packets_in_network -= 1
        slot = self._slot_index(port, vn, vc)
        if slot in self._in_flight_sources:
            self._in_flight_sources.discard(slot)
            for i, entry in enumerate(self._in_flight):
                _done, sp, svn, svc, link, tvn, tvc, _pkt = entry
                if (sp, svn, svc) == (port, vn, vc):
                    del self._in_flight[i]
                    self._reserved.discard(self._slot_index(link, tvn, tvc))
                    self._link_busy_until[link] = -1
                    break
        return packet

    def fault_kill_router(self, router: int) -> List[Packet]:
        """Drop everything resident at a dying router; return the packets.

        Covers the router's input-port VCs (including its injection port)
        and both NI queue sets. Serialised transfers on the router's
        incident links must already have been resolved via
        :meth:`fault_cancel_transfers` (their links die with the router).
        """
        dropped: List[Packet] = []
        for port in self.index.in_ports[router]:
            for vn in range(self.num_vns):
                for vc in range(self.vcs_per_vn):
                    if self.slot(port, vn, vc) is not None:
                        dropped.append(self.fault_drop_slot(port, vn, vc))
        for queue in self.inj_queues[router]:
            dropped.extend(queue)
            self._inj_pending[router] -= len(queue)
            self._inj_total -= len(queue)
            queue.clear()
        for queue in self.ej_queues[router]:
            dropped.extend(queue)
            self.ej_pending[router] -= len(queue)
            self.ej_pending_total -= len(queue)
            queue.clear()
        return dropped

    def fault_drop_unroutable(self) -> List[Packet]:
        """Drop buffered/queued packets with no surviving route; return them.

        A packet is unroutable when its destination died or the fault
        disconnected it from the packet's current router. Run after
        :meth:`FabricIndex.apply_faults` so the distance matrix is current.
        """
        index = self.index
        dead_routers = index.dead_routers
        dist = index.dist
        dropped: List[Packet] = []
        for port, vn, vc, packet in self.occupied_slots():
            here = index.port_router[port]
            if here in dead_routers:
                continue  # handled by fault_kill_router
            if packet.dst in dead_routers or dist[here][packet.dst] < 0:
                dropped.append(self.fault_drop_slot(port, vn, vc))
        for node in range(index.num_nodes):
            if node in dead_routers:
                continue
            for queue in self.inj_queues[node]:
                keep = []
                for p in queue:
                    if p.dst not in dead_routers and dist[node][p.dst] >= 0:
                        keep.append(p)
                    else:
                        dropped.append(p)
                if len(keep) != len(queue):
                    self._inj_pending[node] -= len(queue) - len(keep)
                    self._inj_total -= len(queue) - len(keep)
                    queue.clear()
                    queue.extend(keep)
        return dropped
