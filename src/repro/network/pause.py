"""PFC-style pause/resume (XOFF/XON) flow control.

:class:`PauseResumeFabric` models lossless-Ethernet Priority Flow Control
on top of the credit-mode fabric.  The unit of pausing is a buffer *row*:
the ``vcs_per_vn`` VC slots of one (link port, VN) pair — the analogue of
one PFC priority class on one switch input port.  A row asserts XOFF once
its occupancy reaches ``pause_threshold`` and releases it (XON) only when
occupancy falls back to ``resume_threshold`` (strict hysteresis).  While a
row is XOFF, upstream allocation may not claim any of its slots — even
free ones — which is exactly how pause propagation builds the cyclic
buffer dependencies (CBD) that wedge real lossless fabrics: the deadlock
is caused by the flow control itself, not by routing.

Semantics notes:

- Injection ports are never paused (hosts are admission-controlled by the
  NI queues) and ejection is never paused (the sink always drains) — CBD
  lives entirely in the link-buffer graph, as in the reference scenario
  (SNIPPETS Snippet 2).
- Pause state only changes in :meth:`set_slot`, the apply pass
  (:meth:`_apply_moves`, or :meth:`_settle_rows` under the vectorized
  engine), :meth:`force_pause` and the expiry scan at the top of
  :meth:`movement_stage`, so one cycle's allocation loop observes a
  consistent start-of-cycle XOFF snapshot.
- ``force_pause`` (used by :class:`repro.faults.PauseStormSchedule`)
  pins a row XOFF until a given cycle even if its occupancy would allow
  XON — the "stuck pause frame" failure mode; ``resume_jitter`` delays
  every XON by a fixed number of cycles (slow pause-frame processing).
- The vectorized movement engine models pause as one more term of "can
  this output grant": it reads :attr:`_xoff` where :meth:`_pick_vc` does,
  and every XOFF/XON flip wakes the router feeding that row (see
  DESIGN.md "Lossless flow control & pause storms"), at any packet size.
  The dense reference (``dense=True``) stays as the oracle; only it runs
  :meth:`_apply_moves` and :meth:`_pick_vc`.
- Event-horizon soundness: an empty fabric holds no packets, so every
  row occupancy is zero and the only latent pause state is a forced pause
  whose expiry mutates nothing observable while the network is empty; the
  expiry scan processes overdue entries lazily on the next dense cycle.
  A stuck fabric (packets buffered, every occupied router asleep) is
  different: its sleeping routers replay stalls against the XOFF rows, so
  a pending XON deadline refuses the stuck span (``_stuck``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Tuple

from ..router.packet import Packet
from .fabric import Fabric

__all__ = ["PauseResumeFabric"]


class PauseResumeFabric(Fabric):
    """Credit fabric with per-(link port, VN) XOFF/XON pause semantics."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        pfc = self.config.pfc
        self.pause_threshold = pfc.pause_threshold
        self.resume_threshold = pfc.resume_threshold
        self.headroom = pfc.headroom
        err = pfc.feasibility_error(self.vcs_per_vn)
        if err is not None:
            raise ValueError(err)
        num_rows = self.index.num_links * self.num_vns
        #: Per-row occupancy and XOFF state; row = port * num_vns + vn.
        self._row_occ = bytearray(num_rows)
        self._xoff = bytearray(num_rows)
        #: Rows whose XON is deferred: forced pauses (pause storms) and
        #: jittered resumes; row -> earliest cycle XON may fire.
        self._pause_until: Dict[int, int] = {}
        #: Cycles every XON is delayed by (pause-frame processing time).
        self.resume_jitter = 0
        # PFC counters — surfaced via pfc_summary(), never via the golden
        # NetworkStats.as_dict().
        self.pfc_pauses = 0
        self.pfc_resumes = 0
        self.pfc_stalls = 0
        self.pfc_forced = 0
        #: PFC pause governs the *adaptive* VCs only: when an escape
        #: discipline is configured, its VC 0 has dedicated reserved
        #: buffering (that is what ``headroom`` provisions), so escape
        #: entry ignores XOFF. This is the DRAIN/PFC integration point:
        #: pause-induced CBD can never close over the escape channel,
        #: and the drain rotation empties it regardless of pause state.
        self.pause_exempt_escape = self.escape_mode is not None
        #: Row occupancy by availability byte (bit v set = VC v free): the
        #: vectorized engine's masks already hold what a recount would find.
        self._occ_of_avail = bytes(
            self.vcs_per_vn - bin(a).count("1")
            for a in range(1 << self.vcs_per_vn))
        if self._engine is not None:
            self._engine.bind_pause(self._xoff, self.pause_exempt_escape)

    # ------------------------------------------------------------------
    # Row state maintenance
    # ------------------------------------------------------------------
    def _recount_row(self, row: int) -> None:
        """Recompute one row's occupancy and apply pause hysteresis."""
        port, vn = divmod(row, self.num_vns)
        base = port * self._port_stride + vn * self.vcs_per_vn
        flat = self._buf
        occ = 0
        for i in range(self.vcs_per_vn):
            if flat[base + i] is not None:
                occ += 1
        self._hysteresis(row, occ)

    def _settle_rows(self, moves, ejects) -> None:
        """Hysteresis for the rows one vectorized apply pass touched.

        *moves* and *ejects* are the pass's grant lists: each move's target
        row (``link * num_vns + vn``) and each grant's source row
        (``slot_ai[s]``) settles, in grant order, repeats and all — each
        row's outcome depends on that row alone, and :meth:`_hysteresis`
        applied twice to one occupancy within a cycle acts once, so the
        rows need neither sorting nor a set. Injection-port rows, which
        are never paused, are skipped.
        """
        avail = self._engine_avail
        slot_ai = self._engine._slot_ai
        occ_of = self._occ_of_avail
        xoff = self._xoff
        row_occ = self._row_occ
        pause = self.pause_threshold
        resume = self.resume_threshold
        num_vns = self.num_vns
        num_rows = len(xoff)
        for _, _, link, vn, _ in moves:
            row = link * num_vns + vn
            occ = occ_of[avail[row]]
            # Inside the hysteresis band nothing can flip: the common case,
            # settled without a call.
            if occ > resume if xoff[row] else occ < pause:
                row_occ[row] = occ
            else:
                self._hysteresis(row, occ)
        for grant in chain(moves, ejects):
            row = slot_ai[grant[0]]
            if row >= num_rows:
                continue
            occ = occ_of[avail[row]]
            if occ > resume if xoff[row] else occ < pause:
                row_occ[row] = occ
            else:
                self._hysteresis(row, occ)

    def _hysteresis(self, row: int, occ: int) -> None:
        self._row_occ[row] = occ
        if self._xoff[row]:
            if occ <= self.resume_threshold:
                if row in self._pause_until:
                    return  # forced pause / jitter already armed
                if self.resume_jitter > 0:
                    self._pause_until[row] = self.cycle + self.resume_jitter
                    return
                self._set_xoff(row, 0)
        elif occ >= self.pause_threshold:
            self._set_xoff(row, 1)

    def _set_xoff(self, row: int, xoff: int) -> None:
        """Flip one row's pause state, counted, and wake the router feeding
        it: an XOFF target is scan input of the vectorized engine."""
        self._xoff[row] = xoff
        if xoff:
            self.pfc_pauses += 1
        else:
            self.pfc_resumes += 1
        engine = self._engine
        if engine is not None:
            engine.asleep[engine.upstream[row // self.num_vns]] = 0

    def set_slot(self, port: int, vn: int, vc: int,
                  packet: Optional[Packet]) -> None:
        super().set_slot(port, vn, vc, packet)
        if port < self.index.num_links:
            self._recount_row(port * self.num_vns + vn)

    def _apply_moves(self, moves, ejects) -> None:
        super()._apply_moves(moves, ejects)
        if not (moves or ejects):
            return
        num_links = self.index.num_links
        num_vns = self.num_vns
        dirty = set()
        for port, vn, _vc, link, tvn, _tvc, _pkt in moves:
            if port < num_links:
                dirty.add(port * num_vns + vn)
            dirty.add(link * num_vns + tvn)
        for port, vn, _vc, _pkt in ejects:
            if port < num_links:
                dirty.add(port * num_vns + vn)
        for row in sorted(dirty):
            self._recount_row(row)

    # ------------------------------------------------------------------
    # Pipeline hooks
    # ------------------------------------------------------------------
    def _stuck(self) -> bool:
        # An armed XON deadline (a forced pause or a jittered resume) fires
        # in the expiry scan below: a timer inside the fabric, so no stuck
        # span while one is pending.
        return not self._pause_until and super()._stuck()

    def movement_stage(self) -> None:
        if self._pause_until:
            cycle = self.cycle
            expired = sorted(
                row for row, until in self._pause_until.items()
                if until <= cycle
            )
            for row in expired:
                del self._pause_until[row]
                if self._xoff[row] and self._row_occ[row] <= self.resume_threshold:
                    self._set_xoff(row, 0)
        super().movement_stage()

    def _pick_vc(self, port: int, vn: int, vc_mode: int, claimed) -> int:
        if port < self.index.num_links and self._xoff[port * self.num_vns + vn]:
            if not self.pause_exempt_escape or vc_mode in (3, 4):
                self.pfc_stalls += 1
                return -1
            # Escape channel exempt: restrict the claim to VC 0.
            vc = super()._pick_vc(port, vn, 2, claimed)
            if vc < 0:
                self.pfc_stalls += 1
            return vc
        return super()._pick_vc(port, vn, vc_mode, claimed)

    # ------------------------------------------------------------------
    # Storm / oracle API
    # ------------------------------------------------------------------
    def force_pause(self, port: int, vn: int, until_cycle: int) -> None:
        """Pin row (*port*, *vn*) XOFF until *until_cycle* (stuck pause)."""
        if not 0 <= port < self.index.num_links:
            raise ValueError(f"force_pause needs a link port, got {port}")
        row = port * self.num_vns + vn
        if not self._xoff[row]:
            self._set_xoff(row, 1)
        self.pfc_forced += 1
        prev = self._pause_until.get(row, until_cycle)
        self._pause_until[row] = max(prev, until_cycle)

    def paused_rows(self) -> Dict[Tuple[int, int], Tuple]:
        """XOFF rows as ``(port, vn) -> occupied slots`` for the oracle.

        The deadlock wait-for graph uses this to treat a *free* slot in a
        paused row as unavailable: the waiter instead depends on the row's
        occupants, since only their departure can drop occupancy to the
        resume threshold and re-open the row.
        """
        out: Dict[Tuple[int, int], Tuple] = {}
        num_vns = self.num_vns
        flat = self._buf
        vcs = self.vcs_per_vn
        for row, flag in enumerate(self._xoff):
            if not flag:
                continue
            port, vn = divmod(row, num_vns)
            base = port * self._port_stride + vn * vcs
            out[(port, vn)] = tuple(
                (port, vn, vc) for vc in range(vcs)
                if flat[base + vc] is not None
            )
        return out

    def paused_row_count(self) -> int:
        return sum(self._xoff)

    def pfc_summary(self) -> Dict[str, int]:
        """PFC counters (kept out of the golden ``NetworkStats.as_dict``)."""
        return {
            "pauses_asserted": self.pfc_pauses,
            "resumes": self.pfc_resumes,
            "pause_stalls": self.pfc_stalls,
            "forced_pauses": self.pfc_forced,
            "rows_paused": self.paused_row_count(),
        }
