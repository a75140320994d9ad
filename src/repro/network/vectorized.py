"""Vectorized movement engine: batched tables, incremental credit masks.

This is the movement kernel of every non-dense fabric (see DESIGN.md,
"Vectorized kernel"); the fabric's ``dense=True`` reference sweep is its
oracle, and the two are bit-identical:

- ``dense``      — reference sweep, no memoization (parity baseline);
- ``vectorized`` — this module, for every routing function, 1 to 8 VCs
  per VN, any packet size, credit or pause/resume flow control.

Architecture
============

Candidate computation is batched across all routers ahead of time: every
routing function holds its complete relation as
:class:`~repro.network.index.DenseCandidateTables` (numpy CSR arrays,
:attr:`RoutingFunction.compiled_tables`), which the engine adopts as they
are — again whenever the index's fault epoch moves or the fabric's
routing cache is invalidated. The scan reads each examined packet's
candidates in place, through the tables' read-only memoryviews, by one
*plan* per escape flag (:meth:`VectorizedEngine._build_tables`); no
per-cell copy is made. ESCAPE_VC's adaptive and restricted-route
candidates share one rotation, so its plan outside escape reads the one
table the engine compiles: both cells merged, with a VC mode per
candidate. ``_pick_vc`` becomes one lookup in a per-mode table over the
target's availability byte (:data:`_PICK`), whatever the VC count.

Up*/down* is the one stateful routing function: its candidates depend on
the packet's phase bit, and it keeps one table per phase. When a fabric's
main or escape function is stateful, each plan becomes a (down-phase,
up-phase) pair and the scan picks the plan by the packet's
``updown_up_phase``; the apply pass clears the bit on a down link from the
``link_is_up`` bytes of the function governing the packet (the escape
function once a packet is in escape under ESCAPE_VC, the main one
otherwise), exactly as the functions' ``on_hop`` would. Stateless fabrics
keep one plan per escape flag and pay one branch per packet.

Credit and escape availability live in one flat byte array — bit ``v`` of
``avail[port * num_vns + vn]`` is set iff VC ``v`` of that (port, vn) row
is free and unclaimed. The masks are maintained incrementally by every
buffer write (``Fabric.set_slot``, the injection stage, and this engine's
own apply pass), so a cycle's allocation reads them with zero rebuild
cost. The scan reads them first: per (port, VN) row, ``full ^ avail``
names the slots that hold a packet, and a per-rotation table lists those
VCs in scan order, so empty slots are never walked. Every occupied slot
has its bit clear, and a claim earlier in the same scan clears only the
bit of a still-empty slot, which the walk skips as before.

The apply pass tests distance rows for misroutes only when a plan may
detour (:attr:`VectorizedEngine._detours`): a move along the live tables
of a :attr:`RoutingFunction.minimal` function is one hop closer by
construction, so fabrics over adaptive-minimal tables (and ESCAPE_VC
over DOR on a mesh) never read the rows; up*/down*, ESCAPE_VC over
up*/down* and tables older than the fault epoch do.

Conflict resolution deliberately replays the reference sweep's iteration
order and per-occupied-slot LCG draws: grant decisions are sequential by
contract (each draw's candidate rotation depends on every earlier grant in
the cycle through the link/VC claims), which is what keeps the two
bit-identical. The parity fuzzer (tests/test_parity_fuzz.py) pins
that contract across schemes, topologies, loads and fault schedules.

Sleeping routers (DESIGN.md, "Sleeping routers"): a router whose full scan
granted nothing goes to sleep with the number of LCG draws that scan
consumed. Until one of its slots, its out-links' availability bits, its
ejection-queue room or the fault epoch changes — each of which wakes it —
every later scan would block the same packets and draw the same count, so
``movement()`` replaces the whole walk by one affine LCG jump. That makes
host cost per cycle follow the packets that can move, not the packets that
are blocked, while staying bit-identical to the reference sweep. When
every occupied router sleeps and no node can inject, every pass is the
same until an outside event: ``Simulation``'s fast-forward then replays
a whole span of passes at once (:meth:`VectorizedEngine.skip`).

PFC pause (``PauseResumeFabric``) is one more term of "can this output
grant": the kernel reads the fabric's XOFF rows — indexed like ``avail`` —
where the dense sweep's ``_pick_vc`` does. An XOFF target stalls the candidate
(counted even when the row is full) unless the escape exemption lets VC 0
through; a sleeping router replays its scan's stall count beside its draw
count, every XOFF/XON flip wakes the router feeding that row, and the
apply pass hands the rows a cycle touched to the fabric's hysteresis once
all of its grants have landed.

One VC per VN: the only VC is the escape VC, so under an escape
discipline a packet outside escape is offered the escape plan itself —
DRAIN's lone escape group, ESCAPE_VC's restricted route without its
adaptive candidates — with the same rotation counts and draws.

Multi-flit packets (``packet_size_flits > 1``) serialise each transfer
over its link; the transfer state is the fabric's, and the fabric lands
finished transfers before every scan. Within the scan:

- a grant starts a transfer (``_launch``): no slot moves, the target's
  availability bit is untouched — a reserved slot only ever sits behind
  a busy link — and escape/phase state latches on landing, not now;
- a source slot mid-transfer is skipped without a draw;
- a busy link (held through its landing cycle) is pre-marked in the
  cycle's ``used`` copy, like a dead link: it stays in the rotation count;
- a router that holds a busy link does not sleep, because the link frees
  with no slot write to wake it. Landings wake like any slot write.

A (port, VN) row holds at most 8 VCs (one availability byte);
``NetworkConfig`` rejects more.
"""

from __future__ import annotations

from itertools import compress, product
from typing import List, Optional, Tuple

import numpy as _np

from .index import DenseCandidateTables

__all__ = ["VectorizedEngine", "lcg_jump"]


def _pick_tables() -> Tuple[Tuple[int, ...], ...]:
    """``_PICK[vc_mode][avail byte]`` -> VC to claim, or -1.

    The table form of ``Fabric._pick_vc`` over a row's free-VC bits: mode 0
    takes the lowest free VC, 2 the escape VC (VC 0) only, 3 the lowest
    free non-escape VC, 4 the same while a second VC stays free (the
    Duato-conservative rule). Mode 1 grants nothing: no candidate carries
    it, an XOFF row maps the modes it blocks onto it (:data:`_XOFF_MODE`).
    """
    lowest, adaptive, conservative = [-1] * 256, [-1] * 256, [-1] * 256
    for a in range(1, 256):
        lowest[a] = (a & -a).bit_length() - 1
        high = a & ~1
        if high:
            adaptive[a] = (high & -high).bit_length() - 1
            if a & (a - 1):  # two or more VCs free
                conservative[a] = adaptive[a]
    escape = [0 if a & 1 else -1 for a in range(256)]
    return tuple(tuple(t) for t in (
        lowest, [-1] * 256, escape, adaptive, conservative))


_PICK = _pick_tables()

#: ``_XOFF_MODE[exempt][vc_mode]``: the mode an XOFF target row leaves of a
#: candidate's. Pause governs the non-escape VCs; with an escape discipline
#: (``exempt``) a claim that may land on VC 0 still may, nothing else does.
_XOFF_MODE = ((1, 1, 1, 1, 1), (2, 1, 2, 1, 1))


def _of_phase(routing, phase):
    """*routing*'s table of up*/down* phase *phase*: its only table when it
    is stateless."""
    tables = routing.compiled_tables
    return tables[phase] if routing.stateful else tables


def lcg_jump(lcg: int, draws: int) -> int:
    """The movement LCG after *draws* steps, in O(log draws).

    One step is the affine map ``x -> (1103515245 x + 12345) mod 2**31``;
    *draws* steps are its *draws*-th power, composed by repeated squaring
    (powers of one map commute, so the bit order does not matter).
    """
    a, c = 1103515245, 12345
    mul, add = 1, 0
    while draws:
        if draws & 1:
            mul = (mul * a) & 0x7FFFFFFF
            add = (add * a + c) & 0x7FFFFFFF
        c = (c * a + c) & 0x7FFFFFFF
        a = (a * a) & 0x7FFFFFFF
        draws >>= 1
    return (lcg * mul + add) & 0x7FFFFFFF


class VectorizedEngine:
    """Movement/allocation/ejection kernel over precompiled tables."""

    __slots__ = (
        "fabric", "_plan", "_esc_plan", "_epoch", "avail",
        "_slot_port", "_slot_ai", "_slot_bit", "rebuilds",
        "tables", "escape_tables",
        "asleep", "sleep_draws", "sleep_stalls", "upstream", "_jump",
        "_used0", "_xoff", "_xoff_mode", "_scan", "_land", "_phase_up",
        "_busy", "_detours",
    )

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        index = fabric.index
        num_vns = fabric.num_vns
        stride = fabric._port_stride
        num_slots = index.num_ports * stride
        # Slot geometry, precomputed vectorized: slot -> owning port, slot
        # -> avail byte index, slot -> avail bit.
        slots = _np.arange(num_slots)
        ports = slots // stride
        vns = (slots % stride) // fabric.vcs_per_vn
        vcs = slots % fabric.vcs_per_vn
        self._slot_port: List[int] = ports.tolist()
        self._slot_ai: List[int] = (ports * num_vns + vns).tolist()
        self._slot_bit: List[int] = (1 << vcs).tolist()
        # Availability masks, seeded from the live buffer (usually empty at
        # construction; scenario builders may pre-place packets).
        self.avail = bytearray(index.num_ports * num_vns)
        for ai in range(len(self.avail)):
            self.avail[ai] = (1 << fabric.vcs_per_vn) - 1
        flat = fabric._buf
        for s in range(num_slots):
            if flat[s] is not None:
                self.avail[self._slot_ai[s]] &= ~self._slot_bit[s] & 0xFF
        n = index.num_nodes
        #: Sleep flags: ``asleep[r]`` is set when router r's last full scan
        #: granted nothing, cleared by everything that changes what that
        #: scan read. Byte n is a sink: injection ports have no upstream
        #: router, and pointing them there keeps every wake an
        #: unconditional store.
        self.asleep = bytearray(n + 1)
        #: LCG draws router r's last grant-less scan consumed (valid while
        #: ``asleep[r]``).
        self.sleep_draws: List[int] = [0] * n
        #: PFC stalls that scan counted (XOFF targets it examined): as
        #: rotation-independent as the draw count, replayed with it.
        self.sleep_stalls: List[int] = [0] * n
        #: port -> router whose grants fill that port's slots (sink for
        #: injection ports).
        self.upstream: List[int] = (
            index.link_src + [n] * (index.num_ports - index.num_links))
        #: ``_jump[k]`` = (A_k, C_k) with ``lcg_after_k_draws = (lcg * A_k +
        #: C_k) & mask``; grown on demand as routers fall asleep.
        self._jump: List[Tuple[int, int]] = [(1, 0)]
        #: Per-cycle ``used`` template with this epoch's dead links marked.
        self._used0 = bytearray(index.num_links)
        #: Links a serialised transfer may still hold (multi-flit fabrics):
        #: every link this engine granted one on, pruned each pass against
        #: the fabric's ``_link_busy_until``.
        self._busy: List[int] = []
        #: The fabric's XOFF rows (indexed like ``avail``); None on a credit
        #: fabric, which then pays one ``is not None`` per examined
        #: candidate and per sleeping router, and nothing else.
        self._xoff: Optional[bytearray] = None
        self._bind(False)
        #: The plans of packets outside and in escape (a (down, up) pair
        #: each when a routing function is stateful); None until the first
        #: movement pass builds them.
        self._plan = None
        self._esc_plan = None
        self._epoch = -1
        self.tables = None
        self.escape_tables = None
        #: ``(main, escape)`` ``link_is_up`` bytes that clear a packet's
        #: phase bit after a hop, or None when no routing function is
        #: stateful (then the plans are not phase pairs either).
        self._phase_up: Optional[Tuple[bytes, bytes]] = None
        #: True when some table a plan reads may detour (a non-minimal
        #: function, or tables older than the live fault epoch): only then
        #: does the apply pass test distance rows for misroutes.
        self._detours = True
        #: Table (re)builds performed, including the initial one (test hook
        #: for the fault-epoch invalidation contract).
        self.rebuilds = 0

    def bind_pause(self, xoff: bytearray, exempt_escape: bool) -> None:
        """Adopt a pause/resume fabric's XOFF rows (bound once, by its
        constructor: the arrays do not exist when the engine is built)."""
        self._xoff = xoff
        self._bind(exempt_escape)

    def _bind(self, exempt_escape: bool) -> None:
        """Gather what :meth:`movement` and :meth:`_apply` read that never
        changes over the engine's life, in the order they unpack it: one
        tuple unpack per call instead of some twenty attribute walks each
        (a low-load cycle is mostly these preambles)."""
        fabric = self.fabric
        index = fabric.index
        vcs = fabric.vcs_per_vn
        num_vns = fabric.num_vns
        #: ``held[rot][mask]``: the VCs of a row whose bits are set in
        #: *mask* (its slots that hold a packet, ``full ^ avail``), in the
        #: scan order of rotation start ``rot = (cycle + port) % vcs``.
        held = tuple(
            tuple(tuple(vc for vc in ((rot + k) % vcs for k in range(vcs))
                        if mask >> vc & 1)
                  for mask in range(1 << vcs))
            for rot in range(vcs))
        #: VN scan order by its start ``cycle % num_vns``.
        vn_orders = tuple(tuple((v0 + k) % num_vns for k in range(num_vns))
                          for v0 in range(num_vns))
        #: Each router's input ports twice over: its rotation from ``pstart``
        #: is one slice, with no per-port modulo.
        ports2 = [tuple(ports + ports) for ports in index.in_ports]
        mode = fabric.escape_mode
        latch0 = mode is not None and (mode == "escape_vc"
                                       or fabric.escape_sticky)
        # Entering escape under ESCAPE_VC re-arms a stateful escape
        # function's phase (its on_inject).
        rearm = mode == "escape_vc" and fabric.escape_routing.stateful
        #: What an XOFF target row leaves of each candidate mode.
        self._xoff_mode = _XOFF_MODE[bool(exempt_escape)]
        self._scan = (
            fabric._buf, num_vns, vcs, (1 << vcs) - 1, fabric._port_stride,
            index.num_nodes, self.avail, held, vn_orders, _PICK, ports2,
            fabric._port_occ, fabric._router_occ, fabric.ej_queues,
            fabric._ej_depth, fabric.net.ejections_per_cycle, latch0, rearm,
            self.asleep, self.sleep_draws, self.sleep_stalls, self._jump,
            self._xoff, self._xoff_mode, fabric._in_flight_sources,
            fabric.packet_size_flits > 1)
        self._land = (
            fabric._buf, fabric.stats, self.avail, self._slot_port,
            self._slot_ai, self._slot_bit, fabric._port_occ,
            fabric._router_occ, index.port_router, index.link_dst,
            index.dist, fabric.link_util, self.asleep, self.upstream,
            num_vns, fabric._eject)

    # ------------------------------------------------------------------
    # Plans over the routing tables
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the plans (mirror of ``invalidate_routing_cache``)."""
        self._plan = None
        self._esc_plan = None
        self.wake_all()

    def wake_all(self) -> None:
        """Clear every sleep flag (plans or fault epoch changed; tests)."""
        self.asleep[:] = bytes(len(self.asleep))

    def _build_tables(self) -> None:
        """Install this epoch's plans over the routing functions' tables.

        A plan is ``(offsets, links, modes, group modes)``: one table's
        read-only CSR views, its per-candidate VC modes (the merged
        ESCAPE_VC table only; None otherwise) and one VC mode per
        candidate group, whose count is a non-empty cell's draws. The
        groups are ``Fabric._build_candidate_groups``': mode None offers
        any VC (0); DRAIN the non-escape VCs, then the escape VC (3, 2);
        a packet in escape the escape VC (2).
        """
        fabric = self.fabric
        index = fabric.index
        mode = fabric.escape_mode
        main = fabric.routing
        esc = fabric.escape_routing if mode == "escape_vc" else None
        self.tables = main.compiled_tables
        self.escape_tables = esc.compiled_tables if esc is not None else None
        phased = main.stateful or (esc is not None and esc.stateful)
        single = fabric.vcs_per_vn == 1
        if esc is not None and not single:
            net = index.compiled
            if (index.fault_epoch == 0 and not esc.stateful
                    and self.tables is net.parts.get("tables")):
                # A pure function of the topology and the escape function's
                # class: every stateless one is built from the index alone.
                merged = net.part(("escape_vc", type(esc)),
                                  self._merge_tables)
            else:
                merged = self._merge_tables()

        def plans(phase):
            """(plan outside escape, plan in escape) of one phase."""
            table = _of_phase(main, phase)
            plan = (table.offsets_view, table.links_view, None, (0,))
            if mode is None:
                # The escape flag is never consulted (candidate_links
                # ignores it too): one plan serves both.
                return plan, plan
            if esc is None:  # drain: non-escape VCs first, the escape VC after
                esc_plan = plan[:3] + ((2,),)
                plan = plan[:3] + ((3, 2),)
            else:
                table = _of_phase(esc, phase)
                esc_plan = (table.offsets_view, table.links_view, None, (2,))
                if not single:
                    table, modes = merged[phase] if phased else merged
                    # One group; the mode is per candidate.
                    plan = (table.offsets_view, table.links_view, modes, (-1,))
            # With one VC per VN the only VC is the escape VC: a packet
            # outside escape is offered exactly the escape plan (DRAIN's
            # lone escape group; ESCAPE_VC without its adaptive candidates).
            return (esc_plan if single else plan), esc_plan

        if phased:
            # One plan per phase bit: a stateful function's cells come from
            # its table of that phase.
            (down, esc_down), (up, esc_up) = plans(0), plans(1)
            self._plan, self._esc_plan = (down, up), (esc_down, esc_up)
            never = bytes([1]) * index.num_links  # a stateless on_hop
            main_up = main.link_is_up if main.stateful else never
            if esc is None:
                esc_up = main_up  # escape packets follow the main function
            else:
                esc_up = esc.link_is_up if esc.stateful else never
            self._phase_up = (main_up, esc_up)
        else:
            self._plan, self._esc_plan = plans(None)
            self._phase_up = None
        # A minimal function's live tables lead one hop closer by
        # construction; anything else (up*/down*, tables compiled before
        # the live fault epoch) may detour.
        self._detours = not all(
            fn.minimal and fn.compiled_tables.epoch == index.fault_epoch
            for fn in (main, esc) if fn is not None)
        # Routing tables may still list links that died this epoch (a
        # routing function without a rebuild story keeps them; the dense
        # sweep skips them per-candidate while leaving them in the rotation
        # count). Pre-marking them "used" reproduces that skip for free.
        used0 = self._used0 = bytearray(index.num_links)
        for link in sorted(index.dead_links):
            used0[link] = 1
        self._epoch = index.fault_epoch
        self.rebuilds += 1
        self.wake_all()

    def _merge_tables(self):
        """ESCAPE_VC's table outside escape as ``(tables, modes)``, a pair
        of them by phase when a function is stateful: per cell the main
        function's links (mode 4), then the escape function's (mode 2), in
        fresh read-only arrays."""
        fabric = self.fabric
        main, esc = fabric.routing, fabric.escape_routing

        def merge(phase):
            adaptive, escape = _of_phase(main, phase), _of_phase(esc, phase)
            ca, ce = adaptive.counts(), escape.counts()
            offsets = DenseCandidateTables.offsets_of(ca + ce)
            # A link lands at its cell's new start plus its rank in the
            # source cell; the escape links follow the cell's adaptive ones.
            at_a = _np.arange(adaptive.links.size) + _np.repeat(
                offsets[:-1] - adaptive.offsets[:-1], ca)
            at_e = _np.arange(escape.links.size) + _np.repeat(
                offsets[:-1] + ca - escape.offsets[:-1], ce)
            links = _np.empty(int(offsets[-1]), dtype=adaptive.links.dtype)
            links[at_a] = adaptive.links
            links[at_e] = escape.links
            modes = _np.full(links.size, 2, dtype=_np.int8)
            modes[at_a] = 4
            modes.setflags(write=False)
            return (DenseCandidateTables.from_arrays(
                fabric.index, offsets, links), memoryview(modes))

        if main.stateful or esc.stateful:
            return merge(0), merge(1)
        return merge(None)

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def movement(self) -> None:
        """One movement/allocation/ejection pass, dense-bit-identical."""
        fabric = self.fabric
        if fabric.frozen:
            return
        index = fabric.index
        if self._plan is None or self._epoch != index.fault_epoch:
            self._build_tables()
        if not fabric.packets_in_network:
            return  # nothing buffered: no scan, no draw, no grant
        (flat, num_vns, vcs, full, stride, n, avail, held, vn_orders, pick,
         ports2, port_occ, router_occ, ej_queues, ej_depth, epc, latch0,
         rearm, asleep, sleep_draws, sleep_stalls, jump, xoff,
         xoff_mode, sources, serial) = self._scan
        cycle = fabric.cycle
        used = bytearray(self._used0)
        busy = self._busy
        if busy:
            # A transfer holds its link through its landing cycle: marked
            # used, like a dead link, it stays in the rotation count.
            until = fabric._link_busy_until
            busy = self._busy = [link for link in busy if until[link] >= cycle]
            for link in busy:
                used[link] = 1
        plan = self._plan
        esc_plan = self._esc_plan
        phased = self._phase_up is not None
        dead_routers = index.dead_routers or None
        lcg = fabric._lcg
        vn_order = vn_orders[cycle % num_vns]
        stalls = 0

        moves: List[Tuple[int, int, int, int, "object"]] = []
        ejects: List[Tuple[int, int, int, "object"]] = []
        moves_append = moves.append
        ejects_append = ejects.append

        # Occupied routers only, in router order (occupancy is constant
        # during the scan: grants land in _apply).
        for router in compress(range(n), router_occ):
            if asleep[router]:
                a, c = jump[sleep_draws[router]]
                lcg = (lcg * a + c) & 0x7FFFFFFF
                if xoff is not None:
                    stalls += sleep_stalls[router]
                continue
            if dead_routers is not None and router in dead_routers:
                continue
            draws = scan_stalls = 0
            ports = ports2[router]
            nports = len(ports) >> 1
            pstart = (cycle + router) % nports
            budget = epc
            pend = None
            router_row = router * n
            any_grant = False
            for port in ports[pstart:pstart + nports]:
                if not port_occ[port]:
                    continue
                base_port = port * stride
                row = port * num_vns
                by_held = held[(cycle + port) % vcs]
                granted = False
                for vn in vn_order:
                    # Occupied slots have their bit clear; a bit this scan
                    # cleared by a claim marks a still-empty slot, skipped
                    # below like any empty one.
                    mask = full ^ avail[row + vn]
                    if not mask:
                        continue
                    vbase = vn * vcs
                    base = base_port + vbase
                    for vc in by_held[mask]:
                        s = base + vc
                        pkt = flat[s]
                        if pkt is None:
                            continue
                        dst = pkt.dst
                        if dst == router:
                            if budget > 0:
                                cls = pkt.msg_class
                                queue = ej_queues[router][cls]
                                if pend is None:
                                    ok = len(queue) < ej_depth
                                else:
                                    ok = (len(queue) + pend.get(cls, 0)
                                          < ej_depth)
                                if ok:
                                    budget -= 1
                                    if pend is None:
                                        pend = {cls: 1}
                                    else:
                                        pend[cls] = pend.get(cls, 0) + 1
                                    ejects_append((s, port, router, pkt))
                                    granted = True
                            if granted:
                                break
                            continue
                        if sources and s in sources:
                            continue  # mid-transfer on its link: no draw
                        if phased:
                            offsets, links, modes, gmodes = (
                                esc_plan if pkt.in_escape else plan)[
                                    pkt.updown_up_phase]
                        else:
                            offsets, links, modes, gmodes = (
                                esc_plan if pkt.in_escape else plan)
                        idx = router_row + dst
                        o = offsets[idx]
                        end = offsets[idx + 1]
                        nc = end - o
                        if not nc:
                            continue  # no candidate: no draw
                        draws += len(gmodes)  # exact iff nothing is granted
                        for gm in gmodes:
                            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
                            # Walk the cell from the drawn candidate to its
                            # end, then wrap to its start.
                            j = o + lcg % nc
                            stop = j + nc
                            if modes is None:
                                pm = pick[gm]
                                while j < stop:
                                    link = links[j if j < end else j - nc]
                                    j += 1
                                    if used[link]:
                                        continue
                                    ai = link * num_vns + vn
                                    a = avail[ai]
                                    if xoff is not None and xoff[ai]:
                                        # Read before the row's free bits:
                                        # a stall counts on a full row too.
                                        tvc = pick[xoff_mode[gm]][a]
                                        if tvc < 0:
                                            scan_stalls += 1
                                            continue
                                    else:
                                        tvc = pm[a]
                                        if tvc < 0:
                                            continue
                                    break
                                else:
                                    continue  # nothing claimable: next group
                            else:  # ESCAPE_VC's merged cell
                                while j < stop:
                                    i = j if j < end else j - nc
                                    j += 1
                                    link = links[i]
                                    if used[link]:
                                        continue
                                    ai = link * num_vns + vn
                                    a = avail[ai]
                                    if xoff is not None and xoff[ai]:
                                        tvc = pick[xoff_mode[modes[i]]][a]
                                        if tvc < 0:
                                            scan_stalls += 1
                                            continue
                                    else:
                                        tvc = pick[modes[i]][a]
                                        if tvc < 0:
                                            continue
                                    break
                                else:
                                    continue
                            used[link] = 1
                            if not serial:
                                # A serialised grant reserves its target
                                # behind a busy link and latches on landing
                                # (Fabric._account_move).
                                avail[ai] = a ^ (1 << tvc)
                                if (not tvc and latch0
                                        and not pkt.in_escape):
                                    pkt.in_escape = True
                                    if rearm:
                                        pkt.updown_up_phase = True
                            moves_append((s, link * stride + vbase + tvc,
                                          link, vn, pkt))
                            granted = True
                            break
                        if granted:
                            break
                    if granted:
                        any_grant = True
                        break
                # one grant per input port per cycle (crossbar input)
            if scan_stalls:
                stalls += scan_stalls
            if not any_grant:
                # Nothing granted: every packet was examined, drew once per
                # candidate group and stalled once per XOFF candidate,
                # whatever the rotation.
                asleep[router] = 1
                sleep_draws[router] = draws
                sleep_stalls[router] = scan_stalls
                while draws >= len(jump):
                    a, c = jump[-1]
                    jump.append(((a * 1103515245) & 0x7FFFFFFF,
                                 (c * 1103515245 + 12345) & 0x7FFFFFFF))
        fabric._lcg = lcg
        if stalls:
            fabric.pfc_stalls += stalls
        # A router holding a busy link stays awake: the link frees with no
        # slot write to wake it.
        if busy:
            upstream = self.upstream  # a link's feeder is its source router
            for link in busy:
                asleep[upstream[link]] = 0
        if serial and moves:
            self._launch(moves)
            moves = []
        self._apply(moves, ejects)

    def _launch(self, grants) -> None:
        """Start the cycle's serialised transfers, in grant order; they
        land through ``Fabric._complete_transfers``."""
        fabric = self.fabric
        vcs = fabric.vcs_per_vn
        slot_port = self._slot_port
        for s, d, link, vn, pkt in grants:
            fabric._start_transfer(slot_port[s], vn, s % vcs, link, d % vcs,
                                   pkt)
            self._busy.append(link)

    def _apply(self, moves, ejects) -> None:
        """Land the cycle's grants with batched accounting.

        Move targets were free at the start of the scan and stay claimed
        (their avail bits cleared at grant time), and a granted source slot
        is never claimable this cycle (its packet still occupies it during
        the scan) — so sources and targets are disjoint and a single pass
        per move is exact. Per-queue eject order is grant order, matching
        the dense apply. On a pause/resume fabric the rows the cycle
        touched then go through XOFF/XON hysteresis, after every grant has
        landed (a row that loses and gains a packet in one cycle must not
        flap) — the masks are exact by then, so occupancy is read off
        them.
        """
        if not (moves or ejects):
            return
        fabric = self.fabric
        (flat, stats, avail, slot_port, slot_ai, slot_bit, port_occ,
         router_occ, port_router, link_dst, dist, link_util, asleep,
         upstream, num_vns, eject) = self._land
        cycle = fabric.cycle
        fabric.last_progress_cycle = cycle
        vn_hops = [0] * num_vns
        for s, d, link, vn, pkt in moves:
            flat[s] = None
            flat[d] = pkt
            sp = slot_port[s]
            port_occ[sp] -= 1
            port_occ[link] += 1
            src_router = port_router[sp]
            dst_router = link_dst[link]
            router_occ[src_router] -= 1
            router_occ[dst_router] += 1
            avail[slot_ai[s]] |= slot_bit[s]
            # The granting router stayed awake; the arrival changes the
            # destination's slots, the freed slot its feeder's credits.
            asleep[dst_router] = 0
            asleep[upstream[sp]] = 0
            pkt.hops += 1
            pkt.blocked_since = cycle
            link_util[link] += 1
            vn_hops[vn] += 1
        if self._detours:
            # Only a table that may detour can move a packet away from its
            # destination (Fabric._account_move's test, per move).
            misroutes = 0
            for s, _, link, _, pkt in moves:
                pdst = pkt.dst
                if (dist[link_dst[link]][pdst]
                        > dist[port_router[slot_port[s]]][pdst]):
                    pkt.misroutes += 1
                    misroutes += 1
            stats.misroutes += misroutes
        phase_up = self._phase_up
        if phase_up is not None:
            # The governing function's on_hop: a down link ends the up
            # phase (escape_up is main_up unless the mode is ESCAPE_VC).
            main_up, escape_up = phase_up
            for _, _, link, _, pkt in moves:
                if not (escape_up if pkt.in_escape else main_up)[link]:
                    pkt.updown_up_phase = False
        nm = len(moves)
        ne = len(ejects)
        if nm:
            stats.flits_traversed += nm  # single-flit packets (gated)
            svh = stats.vn_hops
            for vn, count in enumerate(vn_hops):
                if count:
                    svh[vn] = svh.get(vn, 0) + count
        stats.buffer_reads += nm + ne
        stats.buffer_writes += nm
        stats.xbar_traversals += nm + ne
        for s, port, router, pkt in ejects:
            flat[s] = None
            port_occ[port] -= 1
            router_occ[router] -= 1
            avail[slot_ai[s]] |= slot_bit[s]
            asleep[upstream[port]] = 0
            eject(router, pkt)
        if self._xoff is not None:
            fabric._settle_rows(moves, ejects)

    # ------------------------------------------------------------------
    # Stuck-network spans (Simulation's fast-forward)
    # ------------------------------------------------------------------
    def sleeping(self) -> bool:
        """True when every occupied router sleeps on this epoch's plans.

        Then a :meth:`movement` pass grants nothing and is nothing but the
        sleeping routers' LCG jumps and replayed stalls — the same pass
        every cycle until something wakes a router.
        """
        fabric = self.fabric
        if self._plan is None or self._epoch != fabric.index.fault_epoch:
            return False  # the next pass rebuilds the plans and wakes all
        return all(compress(self.asleep, fabric._router_occ))

    def skip(self, count: int) -> None:
        """Replay *count* movement passes of a fabric where every occupied
        router sleeps (:meth:`sleeping`): one LCG jump by the passes' total
        draw count, and their PFC stalls."""
        fabric = self.fabric
        occupied = list(compress(range(fabric.index.num_nodes),
                                 fabric._router_occ))
        draws = sum(self.sleep_draws[r] for r in occupied)
        stalls = sum(self.sleep_stalls[r] for r in occupied)
        fabric._lcg = lcg_jump(fabric._lcg, count * draws)
        if stalls:
            fabric.pfc_stalls += count * stalls

    # ------------------------------------------------------------------
    # Test hooks
    # ------------------------------------------------------------------
    def audit_masks(self) -> List[int]:
        """Avail-byte indices whose mask disagrees with the buffer (tests)."""
        fabric = self.fabric
        flat = fabric._buf
        bad = []
        expect = bytearray(len(self.avail))
        for ai in range(len(expect)):
            expect[ai] = (1 << fabric.vcs_per_vn) - 1
        for s in range(len(flat)):
            if flat[s] is not None:
                expect[self._slot_ai[s]] &= ~self._slot_bit[s] & 0xFF
        for ai in range(len(expect)):
            if expect[ai] != self.avail[ai]:
                bad.append(ai)
        return bad

    def audit_sleep(self) -> List[int]:
        """Sleeping routers a fresh scan would not leave asleep (tests).

        Re-derives, without side effects and in storage order (a grant-less
        scan is rotation-independent), whether any packet of a sleeping
        router could be granted and how many LCG draws and PFC stalls the
        scan would consume; returns the routers where any of the three
        disagrees with the stored state. Mid-transfer sources are skipped
        and busy links count as used, as in the scan; a sleeper holding a
        busy link is refuted outright (the scan never lets one sleep).
        """
        fabric = self.fabric
        index = fabric.index
        if self._plan is None or self._epoch != index.fault_epoch:
            return []  # the next movement() rebuilds and wakes everyone
        flat = fabric._buf
        n = index.num_nodes
        num_vns = fabric.num_vns
        vcs = fabric.vcs_per_vn
        stride = fabric._port_stride
        can_eject = fabric.net.ejections_per_cycle > 0
        xoff = self._xoff
        until = fabric._link_busy_until
        cycle = fabric.cycle
        bad = []
        for router in range(n):
            if not self.asleep[router]:
                continue
            draws = stalls = 0
            grant = any(until[link] >= cycle for link in index.out_links[router])
            for port in index.in_ports[router]:
                for off in range(stride):
                    pkt = flat[port * stride + off]
                    if pkt is None or port * stride + off in (
                            fabric._in_flight_sources):
                        continue
                    if pkt.dst == router:
                        queue = fabric.ej_queues[router][pkt.msg_class]
                        if can_eject and len(queue) < fabric._ej_depth:
                            grant = True
                        continue
                    plan = self._esc_plan if pkt.in_escape else self._plan
                    if self._phase_up is not None:
                        plan = plan[pkt.updown_up_phase]
                    offsets, links, modes, gmodes = plan
                    idx = router * n + pkt.dst
                    cell = range(offsets[idx], offsets[idx + 1])
                    if cell:
                        draws += len(gmodes)
                    vn = off // vcs
                    for gm, k in product(gmodes, cell):
                        link = links[k]
                        m = gm if modes is None else modes[k]
                        if self._used0[link] or until[link] >= cycle:
                            continue
                        ai = link * num_vns + vn
                        if xoff is not None and xoff[ai]:
                            m = self._xoff_mode[m]
                            stalls += 1  # exact iff nothing is granted
                        if _PICK[m][self.avail[ai]] >= 0:
                            grant = True
            if (grant or draws != self.sleep_draws[router]
                    or stalls != self.sleep_stalls[router]):
                bad.append(router)
        return bad
