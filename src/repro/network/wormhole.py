"""Wormhole (flit-based) fabric with DRAIN packet truncation.

Section III-C3 of the paper: DRAIN supports flit-based flow control by
*truncating* packets. Draining forces the contents of every escape VC to
turn along the drain path regardless of packet boundaries; flits of one
packet may thus be forced in different directions. Routers re-tag the
split: the last flit of the downstream part becomes a tail, the first flit
of the upstream remainder gets header information. All flits are buffered
at the destination's MSHRs and the packet is reassembled once every flit
has arrived (leveraging the mechanisms of deflection routing [24], [25]).

Model summary:

- every VC is a flit FIFO of ``vc_depth_flits``; a VC holds flits of at
  most one packet *segment* at a time (atomic VC reuse: a new head may
  only enter an empty, unowned VC);
- a segment's head performs route + VC allocation; body/tail flits follow
  on the allocated output; the allocation is released when the tail
  departs;
- one flit per output link and per input port per cycle;
- draining rotates whole escape-VC FIFOs along the drain path (a
  permutation of buffer contents, like the VCT fabric) and then re-tags
  the contents of *every* VC as an independent head..tail segment — this
  is the truncation;
- destinations reassemble flits by (packet id, flit index); the packet is
  delivered when all of its flits have arrived, exactly once each.

Scheme support: ``escape_mode=None`` (no protection) and
``escape_mode="drain"``. The escape-VC and SPIN baselines are evaluated by
the paper only under virtual cut-through, which `repro.network.fabric`
covers.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from ..core.config import SimConfig
from ..core.metrics import NetworkStats
from ..router.flit import Flit, FlitType, make_flits
from ..router.packet import MessageClass, Packet
from ..routing.base import RoutingFunction
from .index import FabricIndex

__all__ = ["WormholeFabric"]

_NUM_CLASSES = len(MessageClass)
_EJECT = -1


class _VC:
    """One virtual-channel flit FIFO plus its allocation state."""

    __slots__ = ("flits", "write_open", "out_link", "out_vc")

    def __init__(self) -> None:
        self.flits: Deque[Flit] = deque()
        #: True while a segment is streaming in (head seen, tail not yet).
        self.write_open = False
        #: Allocated output for the buffered segment (None = unrouted);
        #: _EJECT means the local ejection port.
        self.out_link: Optional[int] = None
        self.out_vc: Optional[int] = None


class WormholeFabric:
    """Flit-level wormhole network with DRAIN truncation support."""

    #: Engine reporting (parity with :class:`~.fabric.Fabric`): the
    #: wormhole pipeline is a standalone flit-level implementation.
    engine_name = "wormhole"

    def __init__(
        self,
        index: FabricIndex,
        config: SimConfig,
        routing: RoutingFunction,
        escape_mode: Optional[str] = None,
        vc_depth_flits: int = 4,
        stats: Optional[NetworkStats] = None,
        rng: Optional[random.Random] = None,
        dense: bool = False,
    ) -> None:
        if escape_mode not in (None, "drain"):
            raise ValueError(
                "the wormhole fabric supports escape_mode None or 'drain'"
            )
        if vc_depth_flits < 1:
            raise ValueError("VC depth must be at least one flit")
        self.index = index
        self.config = config
        self.net = config.network
        self.routing = routing
        self.escape_mode = escape_mode
        self.vc_depth = vc_depth_flits
        self.stats = stats if stats is not None else NetworkStats()
        self.rng = rng if rng is not None else random.Random(config.seed)
        #: Reference mode: dense sweeps, no memoization (parity baseline).
        self.dense = bool(dense)

        self.num_vns = self.net.num_vns
        self.vcs_per_vn = self.net.vcs_per_vn
        self.vcs: List[List[List[_VC]]] = [
            [[_VC() for _ in range(self.vcs_per_vn)] for _ in range(self.num_vns)]
            for _ in range(index.num_ports)
        ]
        #: Per-class NI injection queues: plain lists, as on
        #: :class:`~repro.network.fabric.Fabric`.
        self.inj_queues: List[List[List[Packet]]] = [
            [[] for _ in range(_NUM_CLASSES)] for _ in range(index.num_nodes)
        ]
        self._inj_depth = self.net.injection_queue_depth
        #: Reassembly buffers at the destination MSHRs: pid -> arrived flit
        #: indices. Packet payload sizes are tracked on the packet itself.
        self._reassembly: Dict[int, Set[int]] = {}
        self._packet_sizes: Dict[int, int] = {}
        self.flits_in_network = 0
        self.packets_in_flight = 0
        self.frozen = False
        self.cycle = 0
        self.measure_from = 0
        self.last_progress_cycle = 0
        self._lcg = (config.seed * 2654435761) & 0x7FFFFFFF
        self._drain_generation = 0
        #: Active-set counters: buffered flits per port / per router and
        #: queued injection-side packets per node. Maintained by every
        #: flit enqueue/dequeue so the movement and injection sweeps can
        #: skip idle routers, ports and nodes.
        self._port_flits: List[int] = [0] * index.num_ports
        self._router_flits: List[int] = [0] * index.num_nodes
        self._inj_pending: List[int] = [0] * index.num_nodes
        self._inj_total = 0
        #: Candidate-group memo, keyed (router, dst[, routing state]);
        #: see Fabric.candidate_links for the invalidation contract.
        self._cand_cache: Dict = {}
        self._cand_epoch: int = index.fault_epoch

    # ------------------------------------------------------------------
    # NI-side API
    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> bool:
        queue = self.inj_queues[packet.src][packet.msg_class]
        if len(queue) >= self._inj_depth:
            return False
        queue.append(packet)
        self._inj_pending[packet.src] += 1
        self._inj_total += 1
        return True

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One cycle: movement (flit transfers) then injection."""
        if not self.frozen:
            self._movement_stage()
            self._injection_stage()
        self.cycle += 1
        self.stats.cycles += 1

    @property
    def quiescent(self) -> bool:
        """True when a :meth:`step` would be an observable no-op.

        No flit buffered anywhere (ejection is immediate on flit arrival,
        so there is no ejection-side residue to check), nothing queued at
        any NI, and not frozen. See ``Fabric.quiescent`` for the contract.
        """
        return (
            self.flits_in_network == 0
            and self._inj_total == 0
            and not self.frozen
        )

    #: "Nothing can act" is "empty" here: the flit pipeline has no sleeping
    #: routers, so a wedged wormhole network is stepped.
    inert = quiescent

    def skip_cycles(self, count: int) -> None:
        """Fast-forward *count* provably idle cycles in O(1).

        Same contract as ``Fabric.skip_cycles``: the fabric must be
        :attr:`quiescent`. The wormhole pipeline keeps no fairness counter
        outside ``cycle`` itself, so only the cycle counters advance.
        """
        if count <= 0:
            return
        if not self.quiescent:
            raise RuntimeError(
                "skip_cycles on a non-quiescent wormhole fabric: "
                f"{self.flits_in_network} flits buffered, "
                f"{self._inj_total} queued at an NI, frozen={self.frozen}"
            )
        self.cycle += count
        self.stats.cycles += count

    def invalidate_routing_cache(self) -> None:
        """Drop memoized candidate groups (routing tables changed)."""
        self._cand_cache.clear()
        self._cand_epoch = self.index.fault_epoch

    def _candidate_groups(self, router: int, packet: Packet):
        """Output-link priority groups (mirrors the VCT fabric's policy).

        Memoized per (router, destination, up*/down* phase bit) — the
        groups do not depend on the packet's escape flag, which is applied
        as a VC-mode override during allocation.
        """
        if self.dense:
            return self._build_candidate_groups(router, packet)
        if self._cand_epoch != self.index.fault_epoch:
            self._cand_cache.clear()
            self._cand_epoch = self.index.fault_epoch
        key = (router, packet.dst, packet.updown_up_phase)
        groups = self._cand_cache.get(key)
        if groups is None:
            groups = self._build_candidate_groups(router, packet)
            self._cand_cache[key] = groups
        return groups

    def _build_candidate_groups(self, router: int, packet: Packet):
        links = self.routing.candidates(router, packet)
        if self.escape_mode is None:
            return (tuple((link, 0) for link in links),)
        if self.vcs_per_vn == 1:
            return (tuple((link, 2) for link in links),)
        return (tuple((link, 3) for link in links),
                tuple((link, 2) for link in links))

    def _pick_target_vc(self, link: int, vn: int, vc_mode: int) -> int:
        """A downstream VC the head may claim: empty and not being written."""
        row = self.vcs[link][vn]
        if vc_mode == 0:
            order = range(self.vcs_per_vn)
        elif vc_mode == 2:
            order = (0,)
        else:
            order = range(1, self.vcs_per_vn)
        for vc in order:
            state = row[vc]
            if not state.flits and not state.write_open:
                return vc
        return -1

    def _movement_stage(self) -> None:
        index = self.index
        link_used = bytearray(index.num_links)
        moved_any = False
        fast = not self.dense
        router_flits = self._router_flits
        port_flits = self._port_flits
        for router in range(index.num_nodes):
            if fast and not router_flits[router]:
                continue
            ports = index.in_ports[router]
            nports = len(ports)
            start = (self.cycle + router) % nports
            for pi in range(nports):
                port = ports[(start + pi) % nports]
                if fast and not port_flits[port]:
                    continue
                if self._service_port(router, port, link_used):
                    moved_any = True
        if moved_any:
            self.last_progress_cycle = self.cycle

    def _service_port(self, router: int, port: int, link_used) -> bool:
        """Move at most one flit out of *port*; True when a flit moved."""
        rows = self.vcs[port]
        for vn_off in range(self.num_vns):
            vn = (self.cycle + vn_off) % self.num_vns
            row = rows[vn]
            for vc_off in range(self.vcs_per_vn):
                vc = (self.cycle + port + vc_off) % self.vcs_per_vn
                state = row[vc]
                if not state.flits:
                    continue
                head_flit = state.flits[0]
                if head_flit.moved_at == self.cycle:
                    continue  # arrived this cycle; departs next cycle
                packet = head_flit.packet
                if state.out_link is None:
                    if not head_flit.is_head:
                        continue  # truncation retag pending; wait
                    if not self._allocate_route(router, vn, state, packet,
                                                link_used):
                        continue
                if state.out_link == _EJECT:
                    self._eject_flit(router, state, port)
                    return True
                link = state.out_link
                if link_used[link]:
                    continue
                target = self.vcs[link][vn][state.out_vc]
                if len(target.flits) >= self.vc_depth:
                    continue  # no credit
                flit = state.flits.popleft()
                flit.moved_at = self.cycle
                target.flits.append(flit)
                self._port_flits[port] -= 1
                self._router_flits[router] -= 1
                self._port_flits[link] += 1
                self._router_flits[self.index.link_dst[link]] += 1
                link_used[link] = 1
                self.stats.flits_traversed += 1
                self.stats.buffer_reads += 1
                self.stats.buffer_writes += 1
                self.stats.xbar_traversals += 1
                self.stats.vn_hops[vn] = self.stats.vn_hops.get(vn, 0) + 1
                if flit.is_head:
                    target.write_open = True
                    packet.hops += 1
                    packet.blocked_since = self.cycle
                    old = self.index.port_router[port]
                    new = self.index.link_dst[link]
                    if self.index.dist[new][packet.dst] > self.index.dist[old][packet.dst]:
                        packet.misroutes += 1
                        self.stats.misroutes += 1
                    if (
                        self.escape_mode == "drain"
                        and state.out_vc == 0
                        and self.config.drain.escape_sticky
                    ):
                        packet.in_escape = True
                if flit.is_tail:
                    target.write_open = False
                    state.out_link = None
                    state.out_vc = None
                return True
        return False

    def _allocate_route(self, router: int, vn: int, state: _VC,
                        packet: Packet, link_used) -> bool:
        """Route + VC allocation for the segment head at *state*."""
        if packet.dst == router:
            state.out_link = _EJECT
            state.out_vc = 0
            return True
        lcg = self._lcg
        for group in self._candidate_groups(router, packet):
            n = len(group)
            if not n:
                continue
            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
            start = lcg % n
            for ci in range(n):
                link, vc_mode = group[(start + ci) % n]
                if link_used[link]:
                    continue
                if self.escape_mode == "drain" and packet.in_escape:
                    vc_mode = 2
                tvc = self._pick_target_vc(link, vn, vc_mode)
                if tvc < 0:
                    continue
                state.out_link = link
                state.out_vc = tvc
                self._lcg = lcg
                return True
        self._lcg = lcg
        return False

    def _eject_flit(self, router: int, state: _VC, port: int) -> None:
        flit = state.flits.popleft()
        packet = flit.packet
        self.flits_in_network -= 1
        self._port_flits[port] -= 1
        self._router_flits[router] -= 1
        self.stats.buffer_reads += 1
        if flit.is_tail:
            state.out_link = None
            state.out_vc = None
        arrived = self._reassembly.setdefault(packet.pid, set())
        if flit.index in arrived:
            raise AssertionError(
                f"flit {flit} delivered twice (reassembly corruption)"
            )
        arrived.add(flit.index)
        if len(arrived) == self._packet_sizes[packet.pid]:
            del self._reassembly[packet.pid]
            del self._packet_sizes[packet.pid]
            packet.eject_cycle = self.cycle
            self.packets_in_flight -= 1
            self.stats.packets_ejected += 1
            if self.cycle >= self.measure_from:
                self.stats.packets_ejected_measured += 1
            if packet.gen_cycle >= self.measure_from:
                self.stats.latency.add(packet.latency)
                self.stats.hops.add(packet.hops)
            self.last_progress_cycle = self.cycle

    def _injection_stage(self) -> None:
        """Start streaming one queued packet per free injection VC."""
        index = self.index
        fast = not self.dense
        inj_pending = self._inj_pending
        for node in range(index.num_nodes):
            if fast and not inj_pending[node]:
                continue
            port = index.num_links + node
            for cls in range(_NUM_CLASSES):
                queue = self.inj_queues[node][cls]
                if not queue:
                    continue
                vn = cls % self.num_vns
                row = self.vcs[port][vn]
                vc = next(
                    (i for i, s in enumerate(row)
                     if not s.flits and not s.write_open),
                    -1,
                )
                if vc < 0:
                    continue
                packet = queue.pop(0)
                inj_pending[node] -= 1
                self._inj_total -= 1
                packet.vn = vn
                packet.net_entry_cycle = self.cycle
                packet.blocked_since = self.cycle
                self.routing.on_inject(packet)
                flits = make_flits(packet, self.net.packet_size_flits)
                # The whole packet is written over the next cycles in real
                # hardware; with vc_depth >= packet size we write it atomically
                # (the NI-side serialisation is not what the paper measures).
                for flit in flits:
                    row[vc].flits.append(flit)
                self.flits_in_network += len(flits)
                self._port_flits[port] += len(flits)
                self._router_flits[node] += len(flits)
                self._packet_sizes[packet.pid] = len(flits)
                self.packets_in_flight += 1
                self.stats.packets_injected += 1
                self.stats.buffer_writes += len(flits)
                self.last_progress_cycle = self.cycle

    def seed_flits(self, port: int, vn: int, vc: int, flits) -> None:
        """Place pre-made flits into a VC directly (scenario/test seeding).

        The only sanctioned way to stuff buffer state from outside the
        pipeline: it keeps the active-set flit counters exact. The caller
        still registers the packet's size in ``_packet_sizes`` if the
        flits are expected to reassemble.
        """
        state = self.vcs[port][vn][vc]
        count = 0
        for flit in flits:
            state.flits.append(flit)
            count += 1
        self.flits_in_network += count
        self._port_flits[port] += count
        self._router_flits[self.index.port_router[port]] += count

    # ------------------------------------------------------------------
    # Draining with truncation (DrainController interface)
    # ------------------------------------------------------------------
    def drain_rotate_escape(self, path_ports: List[int]) -> None:
        """Rotate escape-VC FIFOs along the drain path, then truncate.

        The rotation moves whole escape-VC contents to the next link of the
        drain path (a permutation). Afterwards the contents of *every* VC
        are re-tagged as independent head..tail segments and all output
        allocations are cancelled — the packet-truncation step.
        """
        index = self.index
        stats = self.stats
        n = len(path_ports)
        cycle = self.cycle
        self._drain_generation += 1
        port_flits = self._port_flits
        router_flits = self._router_flits
        for vn in range(self.num_vns):
            contents = [self.vcs[p][vn][0].flits for p in path_ports]
            lengths = [len(flits) for flits in contents]
            rotated = [contents[(i - 1) % n] for i in range(n)]
            moved = 0
            for i, port in enumerate(path_ports):
                state = self.vcs[port][vn][0]
                state.flits = rotated[i]
                delta = lengths[(i - 1) % n] - lengths[i]
                if delta:
                    port_flits[port] += delta
                    router_flits[index.link_dst[port]] += delta
                nflits = len(state.flits)
                if nflits == 0:
                    continue
                moved += nflits
                packet = state.flits[0].packet
                old_router = index.link_dst[path_ports[(i - 1) % n]]
                new_router = index.link_dst[port]
                packet.drain_moves += 1
                packet.hops += 1
                packet.blocked_since = cycle
                if index.dist[new_router][packet.dst] > index.dist[old_router][packet.dst]:
                    packet.misroutes += 1
                    stats.misroutes += 1
                stats.flits_traversed += nflits
                stats.buffer_reads += nflits
                stats.buffer_writes += nflits
            if moved:
                stats.drained_packets += moved
                self.last_progress_cycle = cycle
        self._truncate_all()
        # Packets now sitting at their destination leave during the window.
        for port in path_ports:
            router = index.link_dst[port]
            for vn in range(self.num_vns):
                state = self.vcs[port][vn][0]
                while state.flits and state.flits[0].packet.dst == router:
                    self._eject_flit(router, state, port)

    def _truncate_all(self) -> None:
        """Re-tag every VC's contents as an independent segment."""
        generation = self._drain_generation
        for port in range(self.index.num_ports):
            for vn in range(self.num_vns):
                for state in self.vcs[port][vn]:
                    state.out_link = None
                    state.out_vc = None
                    state.write_open = False
                    flits = state.flits
                    if not flits:
                        continue
                    if len(flits) == 1:
                        flits[0].kind = FlitType.HEAD_TAIL
                    else:
                        flits[0].kind = FlitType.HEAD
                        for flit in list(flits)[1:-1]:
                            flit.kind = FlitType.BODY
                        flits[-1].kind = FlitType.TAIL
                    for flit in flits:
                        flit.segment = generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def transfers_in_flight(self) -> int:
        """Wormhole transfers are flit-atomic; nothing spans a drain window."""
        return 0

    def count_flits(self) -> int:
        total = 0
        for port in range(self.index.num_ports):
            for vn in range(self.num_vns):
                for state in self.vcs[port][vn]:
                    total += len(state.flits)
        return total
