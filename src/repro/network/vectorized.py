"""Vectorized movement engine: batched tables, incremental credit masks.

This is the third entry in the fabric's engine matrix (see DESIGN.md,
"Vectorized kernel"):

- ``dense``      — reference sweep, no memoization (parity baseline);
- ``scalar``     — the active-set kernel (PR 4), the universal fast path;
- ``vectorized`` — this module: the saturation kernel, default wherever
  its support conditions hold, bit-identical to the other two.

Architecture
============

Candidate computation is batched across all routers ahead of time: each
routing function exports its complete (router, dst) relation once
(:meth:`RoutingFunction.export_tables`), and the engine flattens it into
:class:`~repro.network.index.DenseCandidateTables` (numpy CSR arrays,
rebuilt when the index's fault epoch moves or the fabric's routing cache
is invalidated). From those arrays the engine precompiles one immutable
row per (router, dst, escape-flag): the candidate links doubled back to
back (so a rotation never takes a modulo) plus the scheme's VC-mode
discipline, replacing the scalar path's per-packet memo lookups and
``_pick_vc`` calls.

Credit and escape availability live in one flat byte array — bit ``v`` of
``avail[port * num_vns + vn]`` is set iff VC ``v`` of that (port, vn) row
is free and unclaimed. The masks are maintained incrementally by every
buffer write (``Fabric._slot_set``, the injection stage, and this engine's
own apply pass), so a cycle's allocation reads them with zero rebuild
cost.

Conflict resolution deliberately replays the exact scalar iteration order
and per-occupied-slot LCG draws: grant decisions are sequential by
contract (each draw's candidate rotation depends on every earlier grant in
the cycle through the link/VC claims), which is what keeps all three
engines bit-identical. The parity fuzzer (tests/test_parity_fuzz.py) pins
that contract across schemes, topologies, loads and fault schedules.

Sleeping routers (DESIGN.md, "Sleeping routers"): a router whose full scan
granted nothing goes to sleep with the number of LCG draws that scan
consumed. Until one of its slots, its out-links' availability bits, its
ejection-queue room or the fault epoch changes — each of which wakes it —
every later scan would block the same packets and draw the same count, so
``movement()`` replaces the whole walk by one affine LCG jump. That makes
host cost per cycle follow the packets that can move, not the packets that
are blocked, while staying bit-identical to the other two engines.

Support conditions (anything else silently selects the scalar path, with
the reason recorded on ``Fabric.engine_fallback_reason``): a plain
``Fabric`` (no flow-control subclass), single-flit packets, two VCs per
VN, and stateless routing functions with no per-hop state hooks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as _np

from ..routing.base import RoutingFunction
from .index import DenseCandidateTables

__all__ = ["VectorizedEngine"]

_PAIR = (0, 1)

#: Group layout: (links doubled, modes doubled, count, homogeneous mode).
_Group = Tuple[Tuple[int, ...], Tuple[int, ...], int, int]


def _make_group(links: List[int], mode: int) -> _Group:
    doubled = tuple(links) + tuple(links)
    return (doubled, (mode,) * len(doubled), len(links), mode)


def _make_mixed_group(pairs: List[Tuple[int, int]]) -> _Group:
    links = tuple(link for link, _ in pairs)
    modes = tuple(mode for _, mode in pairs)
    return (links + links, modes + modes, len(pairs), -1)


class VectorizedEngine:
    """Movement/allocation/ejection kernel over precompiled tables."""

    __slots__ = (
        "fabric", "_rows", "_esc_rows", "_epoch", "avail",
        "_slot_port", "_slot_ai", "_slot_bit", "rebuilds",
        "tables", "escape_tables",
        "asleep", "sleep_draws", "upstream", "_jump", "_used0",
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
        #: port -> router whose grants fill that port's slots (sink for
        #: injection ports).
        self.upstream: List[int] = (
            index.link_src + [n] * (index.num_ports - index.num_links))
        #: ``_jump[k]`` = (A_k, C_k) with ``lcg_after_k_draws = (lcg * A_k +
        #: C_k) & mask``; grown on demand as routers fall asleep.
        self._jump: List[Tuple[int, int]] = [(1, 0)]
        #: Per-cycle ``used`` template with this epoch's dead links marked.
        self._used0 = bytearray(index.num_links)
        self._rows: Optional[List[Tuple[_Group, ...]]] = None
        self._esc_rows: Optional[List[Tuple[_Group, ...]]] = None
        self._epoch = -1
        self.tables: Optional[DenseCandidateTables] = None
        self.escape_tables: Optional[DenseCandidateTables] = None
        #: Table (re)builds performed, including the initial one (test hook
        #: for the fault-epoch invalidation contract).
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Support gate
    # ------------------------------------------------------------------
    @staticmethod
    def unsupported_reason(fabric) -> Optional[str]:
        """Why this fabric cannot run the vectorized engine (None = it can).

        Structural conditions (plain Fabric, single-flit, two VCs per VN)
        are checked by the caller; this covers the routing functions.
        """
        for fn in (fabric.routing, fabric.escape_routing):
            if fn is None:
                continue
            if fn.stateful:
                return f"stateful routing ({type(fn).__name__})"
            if (type(fn).on_hop is not RoutingFunction.on_hop
                    or type(fn).on_inject is not RoutingFunction.on_inject):
                return f"routing with per-hop hooks ({type(fn).__name__})"
        return None

    # ------------------------------------------------------------------
    # Table compilation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the compiled rows (mirror of ``invalidate_routing_cache``)."""
        self._rows = None
        self._esc_rows = None
        self.wake_all()

    def wake_all(self) -> None:
        """Clear every sleep flag (rows or fault epoch changed; tests)."""
        self.asleep[:] = bytes(len(self.asleep))

    def _build_tables(self) -> None:
        """Install this epoch's rows: the topology's memoised boot rows
        where they apply, rows compiled from the live fabric otherwise.

        Rows are a pure function of the topology and the escape
        discipline while the index is at fault epoch 0 and the main
        routing function holds the topology's own memoised tables (a
        replaced or rebuilt function does not). The escape function is
        keyed by class: every stateless one is built from the index alone.
        """
        fabric = self.fabric
        index = fabric.index
        net = index.compiled
        tables = getattr(fabric.routing, "compiled_tables", None)
        if (index.fault_epoch == 0 and tables is not None
                and tables is net.parts.get("tables")):
            built = net.part(
                ("rows", fabric.escape_mode, type(fabric.escape_routing)),
                self._compile_rows,
            )
        else:
            built = self._compile_rows()
        (self.tables, self.escape_tables, self._rows, self._esc_rows,
         self._used0) = built
        self._epoch = index.fault_epoch
        self.rebuilds += 1
        self.wake_all()

    def _compile_rows(self):
        """(tables, escape tables, rows, escape rows, used0) of the live
        fabric; never written once built (``used0`` is copied per cycle)."""
        fabric = self.fabric
        index = fabric.index
        n = index.num_nodes
        compiled = getattr(fabric.routing, "compiled_tables", None)
        if compiled is not None and compiled.epoch == index.fault_epoch:
            # The routing function already holds its tables in CSR form
            # (adaptive-minimal: memoised, or rebuilt under this epoch):
            # adopt the arrays instead of re-packing lists.
            tables = compiled
        else:
            exported = fabric.routing.export_tables(n)
            if exported is None:  # pragma: no cover - gated at construction
                raise RuntimeError("routing function stopped exporting tables")
            tables = DenseCandidateTables(index, exported)
        main_rows = tables.row_lists()
        escape_tables = esc_main_rows = None
        if fabric.escape_mode == "escape_vc":
            esc_exported = fabric.escape_routing.export_tables(n)
            if esc_exported is None:  # pragma: no cover - gated likewise
                raise RuntimeError("escape routing stopped exporting tables")
            escape_tables = DenseCandidateTables(index, esc_exported)
            esc_main_rows = escape_tables.row_lists()
        mode = fabric.escape_mode
        empty: Tuple[_Group, ...] = ()
        rows: List[Tuple[_Group, ...]] = [empty] * (n * n)
        esc_rows: List[Tuple[_Group, ...]] = [empty] * (n * n)
        for idx in range(n * n):
            links = main_rows[idx]
            if mode is None:
                if links:
                    row = (_make_group(links, 0),)
                    rows[idx] = row
                    # escape flag is never consulted under mode None, but
                    # the scalar memo ignores it too: same row either way.
                    esc_rows[idx] = row
            elif mode == "drain":
                if links:
                    g2 = _make_group(links, 2)
                    rows[idx] = (_make_group(links, 3), g2)
                    esc_rows[idx] = (g2,)
            else:  # escape_vc
                esc_links = esc_main_rows[idx]
                pairs = [(link, 4) for link in links]
                pairs.extend((link, 2) for link in esc_links)
                if pairs:
                    rows[idx] = (_make_mixed_group(pairs),)
                if esc_links:
                    esc_rows[idx] = (_make_group(esc_links, 2),)
        # Routing tables may still list links that died this epoch (a
        # routing function without a rebuild story keeps them; the scalar
        # path skips them per-candidate while leaving them in the rotation
        # count). Pre-marking them "used" reproduces that skip for free.
        used0 = bytearray(index.num_links)
        for link in sorted(index.dead_links):
            used0[link] = 1
        return tables, escape_tables, rows, esc_rows, used0

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def movement(self) -> None:
        """One movement/allocation/ejection pass, scalar-bit-identical."""
        fabric = self.fabric
        if fabric.frozen:
            return
        index = fabric.index
        if self._rows is None or self._epoch != index.fault_epoch:
            self._build_tables()
        if not fabric.packets_in_network:
            return  # nothing buffered: no scan, no draw, no grant
        flat = fabric._buf
        num_vns = fabric.num_vns
        stride = fabric._port_stride
        cycle = fabric.cycle
        n = index.num_nodes
        avail = self.avail
        used = bytearray(self._used0)
        rows = self._rows
        esc_rows = self._esc_rows
        in_ports = index.in_ports
        port_occ = fabric._port_occ
        router_occ = fabric._router_occ
        ej_queues = fabric.ej_queues
        ej_depth = fabric._ej_depth
        epc = fabric.net.ejections_per_cycle
        dead_routers = index.dead_routers or None
        lcg = fabric._lcg
        mode = fabric.escape_mode
        latch0 = mode is not None and (mode == "escape_vc"
                                       or fabric.escape_sticky)
        vn_start = cycle % num_vns
        asleep = self.asleep
        sleep_draws = self.sleep_draws
        jump = self._jump

        moves: List[Tuple[int, int, int, int, "object"]] = []
        ejects: List[Tuple[int, int, int, "object"]] = []
        moves_append = moves.append
        ejects_append = ejects.append
        grants = 0  # len(moves) + len(ejects) when the current scan began

        for router in range(n):
            if not router_occ[router]:
                continue
            if asleep[router]:
                a, c = jump[sleep_draws[router]]
                lcg = (lcg * a + c) & 0x7FFFFFFF
                continue
            if dead_routers is not None and router in dead_routers:
                continue
            draws = 0
            ports = in_ports[router]
            nports = len(ports)
            pstart = (cycle + router) % nports
            budget = epc
            pend = None
            router_row = router * n
            for pi in range(nports):
                k = pstart + pi
                if k >= nports:
                    k -= nports
                port = ports[k]
                if not port_occ[port]:
                    continue
                base_port = port * stride
                v0 = (cycle + port) & 1
                granted = False
                for vn_off in range(num_vns):
                    vn = vn_start + vn_off
                    if vn >= num_vns:
                        vn -= num_vns
                    base = base_port + vn + vn  # vn * vcs, vcs == 2
                    vc = v0
                    for _ in _PAIR:
                        s = base + vc
                        vc = 1 - vc
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
                        row = (esc_rows[router_row + dst] if pkt.in_escape
                               else rows[router_row + dst])
                        draws += len(row)  # exact iff nothing is granted
                        for group in row:
                            links2 = group[0]
                            nc = group[2]
                            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
                            j = lcg % nc
                            stop = j + nc
                            gm = group[3]
                            if gm == 3:  # non-escape VCs only (VC 1)
                                while j < stop:
                                    link = links2[j]
                                    if not used[link]:
                                        ai = link * num_vns + vn
                                        a = avail[ai]
                                        if a & 2:
                                            used[link] = 1
                                            avail[ai] = a & 1
                                            moves_append(
                                                (s, link * stride + vn + vn
                                                 + 1, link, vn, pkt))
                                            granted = True
                                            break
                                    j += 1
                            elif gm == 2:  # escape VC only (VC 0)
                                while j < stop:
                                    link = links2[j]
                                    if not used[link]:
                                        ai = link * num_vns + vn
                                        a = avail[ai]
                                        if a & 1:
                                            used[link] = 1
                                            avail[ai] = a & 2
                                            if latch0 and not pkt.in_escape:
                                                pkt.in_escape = True
                                            moves_append(
                                                (s, link * stride + vn + vn,
                                                 link, vn, pkt))
                                            granted = True
                                            break
                                    j += 1
                            else:  # mode 0 / mode 4 / mixed groups
                                modes2 = group[1]
                                while j < stop:
                                    link = links2[j]
                                    if not used[link]:
                                        ai = link * num_vns + vn
                                        a = avail[ai]
                                        if a:
                                            m = modes2[j]
                                            tvc = -1
                                            if m == 4:
                                                # Duato-conservative: keep
                                                # one VC free for escape.
                                                if a == 3:
                                                    tvc = 1
                                            elif m == 2:
                                                if a & 1:
                                                    tvc = 0
                                            elif m == 3:
                                                if a & 2:
                                                    tvc = 1
                                            elif a & 1:  # mode 0, VC order
                                                tvc = 0
                                            else:
                                                tvc = 1
                                            if tvc >= 0:
                                                used[link] = 1
                                                if tvc:
                                                    avail[ai] = a & 1
                                                else:
                                                    avail[ai] = a & 2
                                                    if (latch0
                                                            and not
                                                            pkt.in_escape):
                                                        pkt.in_escape = True
                                                moves_append(
                                                    (s, link * stride
                                                     + vn + vn + tvc,
                                                     link, vn, pkt))
                                                granted = True
                                                break
                                    j += 1
                            if granted:
                                break
                        if granted:
                            break
                    if granted:
                        break
                # one grant per input port per cycle (crossbar input)
            g = len(moves) + len(ejects)
            if g != grants:
                grants = g
            else:
                # Nothing granted: every packet was examined and drew once
                # per candidate group, whatever the rotation.
                asleep[router] = 1
                sleep_draws[router] = draws
                while draws >= len(jump):
                    a, c = jump[-1]
                    jump.append(((a * 1103515245) & 0x7FFFFFFF,
                                 (c * 1103515245 + 12345) & 0x7FFFFFFF))
        fabric._lcg = lcg
        self._apply(moves, ejects)

    def _apply(self, moves, ejects) -> None:
        """Land the cycle's grants with batched accounting.

        Move targets were free at the start of the scan and stay claimed
        (their avail bits cleared at grant time), and a granted source slot
        is never claimable this cycle (its packet still occupies it during
        the scan) — so sources and targets are disjoint and a single pass
        per move is exact. Per-queue eject order is grant order, matching
        the scalar apply.
        """
        fabric = self.fabric
        if not (moves or ejects):
            return
        flat = fabric._buf
        index = fabric.index
        stats = fabric.stats
        cycle = fabric.cycle
        avail = self.avail
        slot_port = self._slot_port
        slot_ai = self._slot_ai
        slot_bit = self._slot_bit
        port_occ = fabric._port_occ
        router_occ = fabric._router_occ
        port_router = index.port_router
        link_dst = index.link_dst
        dist = index.dist
        link_util = fabric.link_util
        asleep = self.asleep
        upstream = self.upstream
        fabric.last_progress_cycle = cycle
        misroutes = 0
        vn_hops = [0] * fabric.num_vns
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
            pdst = pkt.dst
            if dist[dst_router][pdst] > dist[src_router][pdst]:
                pkt.misroutes += 1
                misroutes += 1
            link_util[link] += 1
            vn_hops[vn] += 1
        nm = len(moves)
        ne = len(ejects)
        if nm:
            if misroutes:
                stats.misroutes += misroutes
            stats.flits_traversed += nm  # single-flit packets (gated)
            svh = stats.vn_hops
            for vn, count in enumerate(vn_hops):
                if count:
                    svh[vn] = svh.get(vn, 0) + count
        stats.buffer_reads += nm + ne
        stats.buffer_writes += nm
        stats.xbar_traversals += nm + ne
        eject = fabric._eject
        for s, port, router, pkt in ejects:
            flat[s] = None
            port_occ[port] -= 1
            router_occ[router] -= 1
            avail[slot_ai[s]] |= slot_bit[s]
            asleep[upstream[port]] = 0
            eject(router, pkt)

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
        router could be granted and how many LCG draws the scan would
        consume; returns the routers where either disagrees with the flag.
        """
        fabric = self.fabric
        index = fabric.index
        if self._rows is None or self._epoch != index.fault_epoch:
            return []  # the next movement() rebuilds and wakes everyone
        flat = fabric._buf
        n = index.num_nodes
        num_vns = fabric.num_vns
        stride = fabric._port_stride
        can_eject = fabric.net.ejections_per_cycle > 0
        bad = []
        for router in range(n):
            if not self.asleep[router]:
                continue
            draws = 0
            grant = False
            for port in index.in_ports[router]:
                for off in range(stride):
                    pkt = flat[port * stride + off]
                    if pkt is None:
                        continue
                    if pkt.dst == router:
                        queue = fabric.ej_queues[router][pkt.msg_class]
                        if can_eject and len(queue) < fabric._ej_depth:
                            grant = True
                        continue
                    row = (self._esc_rows if pkt.in_escape
                           else self._rows)[router * n + pkt.dst]
                    draws += len(row)
                    vn = off // 2  # vcs_per_vn == 2 (gated)
                    for links2, modes2, nc, _ in row:
                        for link, m in zip(links2[:nc], modes2):
                            if self._used0[link]:
                                continue
                            a = self.avail[link * num_vns + vn]
                            if (a == 3 if m == 4 else a & 1 if m == 2
                                    else a & 2 if m == 3 else a):
                                grant = True
            if grant or draws != self.sleep_draws[router]:
                bad.append(router)
        return bad
