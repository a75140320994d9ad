"""The DRAIN runtime controller (Section III-C).

Three microarchitectural pieces from Figure 7 of the paper are modelled:

- the **epoch register**: a countdown shared by all routers that decides
  when to pre-drain and drain (values loaded at boot);
- the **credit freeze**: during the pre-drain and drain windows no new VC
  or switch allocations happen, so nothing is mid-link when packets are
  forced to move;
- the **turn-table**: per-router input-port -> output-port drain turns,
  i.e. the drain path restricted to the router. The controller keeps the
  drain path itself as per-cycle port lists, which hold every router's
  turns; ``repro-drain drainpath`` prints the per-router tables
  (:mod:`repro.drain.turntable`).

During each drain window every packet occupying an escape VC (VC 0 of each
virtual network) moves one hop along the drain path, in unison — the path
is a single cycle over all links, so the rotation is a permutation and
never needs a free buffer. Packets arriving at their destination router
during the drain eject immediately if their ejection queue has space.

Once every ``full_drain_period`` windows a **full drain** rotates the whole
path length, guaranteeing every escape packet visits every router and can
eject — the livelock/starvation backstop of Section III-D3.

Runtime faults (``repro.faults``) generalise the single boot-time path to a
*set* of covering cycles: when a permanent link death splits the surviving
dependency graph, the online recovery engine re-covers each connected
component with its own cycle and installs them all via
:meth:`DrainController.install_paths` — each drain window then rotates
every cycle, preserving the permutation property per cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.config import DrainConfig
from ..network.fabric import Fabric
from ..topology.graph import Topology
from .path import DrainPath

__all__ = ["DrainController"]


def _compile_paths(index, paths: Sequence[DrainPath]):
    """(*paths*, per-cycle port lists) of a covering cycle set; refuses
    cycles that share a link."""
    port_cycles: List[List[int]] = [
        [index.link_id[link] for link in path.links] for path in paths
    ]
    seen = set()
    for ports in port_cycles:
        for port in ports:
            if port in seen:
                raise ValueError("drain cycles share a link")
            seen.add(port)
    return paths, port_cycles


class DrainController:
    """Epoch-driven drain state machine attached to a fabric."""

    def __init__(
        self,
        fabric: Fabric,
        config: DrainConfig,
        path: Optional[DrainPath] = None,
    ) -> None:
        self.fabric = fabric
        self.config = config
        index = fabric.index
        topology: Topology = index.topology
        self._countdown = config.epoch
        self._state = "normal"  # normal | pre_drain | drain | full_drain
        self._window_left = 0
        self._windows_done = 0
        self._full_steps_left = 0
        #: Cycles the pre-drain freeze had to stretch beyond its window to
        #: let serialised (multi-flit) transfers land.
        self.pre_drain_extensions = 0
        #: Online drain-path reinstallations (fault recovery events).
        self.reinstalls = 0
        if path is None:
            # The default cycle, validated and compiled once per topology
            # content (the memo's "drain" part); read-only until a
            # recovery reinstall replaces both wholesale.
            net = index.compiled
            self._install(*net.part("drain", lambda: _compile_paths(
                index, [DrainPath(topology, net.drain_links(topology))]
            )))
        else:
            if path.topology is not topology:
                # Paths may be precomputed; they must describe the same
                # topology.
                path.validate()
            self.install_paths([path])

    # ------------------------------------------------------------------
    def install_paths(self, paths: Sequence[DrainPath]) -> None:
        """Install a covering cycle set (boot configuration or recovery).

        Each path must be a valid elementary covering cycle over its own
        (sub-)topology; together they must not share links. The first call
        happens at construction; later calls model the reconfiguration
        broadcast after the online recovery engine reruns the offline
        algorithm on the survivor graph. An empty set is legal only there:
        it means faults left no drainable links, and drain windows become
        no-ops.
        """
        self._install(*_compile_paths(self.fabric.index, paths))

    def _install(
        self,
        paths: Sequence[DrainPath],
        port_cycles: List[List[int]],
    ) -> None:
        self.paths: List[DrainPath] = list(paths)
        #: Per-cycle drain-path port lists, each in cycle order.
        self.path_port_cycles = port_cycles
        # Path (re)installation accompanies routing-table changes during
        # online recovery; drop any memoized candidate groups.
        self.fabric.invalidate_routing_cache()
        if self._state != "normal":
            # Reinstalling mid-window (a fault landed inside a drain): the
            # remaining rotations use the new cycles; clamp the full-drain
            # budget to the new longest cycle.
            self._full_steps_left = min(
                self._full_steps_left, self.max_cycle_length()
            )

    @property
    def path(self) -> DrainPath:
        """The primary drain path (the only one outside fault recovery)."""
        return self.paths[0]

    @property
    def path_ports(self) -> List[int]:
        """All drain-path ports, cycle by cycle (flat view for callers)."""
        return [p for ports in self.path_port_cycles for p in ports]

    def total_path_length(self) -> int:
        """Links covered across all installed cycles."""
        return sum(len(ports) for ports in self.path_port_cycles)

    def max_cycle_length(self) -> int:
        return max((len(ports) for ports in self.path_port_cycles), default=0)

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def step(self) -> None:
        """Advance the drain state machine by one cycle.

        Must be called once per fabric cycle *before* the fabric's own
        stages; it sets ``fabric.frozen`` for the cycles it owns.
        """
        fabric = self.fabric
        if self._state == "normal":
            self._countdown -= 1
            if self._countdown > 0:
                return
            fabric.frozen = True
            if self.config.pre_drain_window > 0 or fabric.transfers_in_flight():
                self._state = "pre_drain"
                self._window_left = self.config.pre_drain_window
            else:
                self._enter_drain()
            return

        if self._state == "pre_drain":
            self._window_left -= 1
            if self._window_left <= 0:
                if fabric.transfers_in_flight():
                    # The pre-drain window was sized below the maximum
                    # packet's serialisation latency; hold the freeze until
                    # every in-flight transfer has landed (Section III-C2).
                    self.pre_drain_extensions += 1
                    return
                self._enter_drain()
            return

        if self._state == "drain":
            if self._window_left == self.config.drain_window:
                # First cycle of the window: perform the forced movement.
                for _ in range(self.config.hops_per_drain):
                    self._rotate_once()
            self._window_left -= 1
            if self._window_left <= 0:
                self._finish_window()
            return

        # full_drain: one rotation per cycle until the whole path has cycled.
        self._rotate_once()
        self._full_steps_left -= 1
        if self._full_steps_left <= 0:
            self._finish_window()

    # ------------------------------------------------------------------
    # Event-horizon interface (Simulation's fast-forward engine)
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> int:
        """First cycle at which :meth:`step` does more than count down.

        In the normal state the controller's only per-cycle effect is the
        epoch decrement, which :meth:`skip_cycles` replays in O(1); the
        freeze fires on the step that takes the countdown to zero, i.e.
        ``countdown - 1`` cycles from now. Any in-window state needs dense
        stepping immediately (the fabric is frozen then, and a frozen
        fabric is never inert, so the fast-forward never actually asks).
        """
        if self._state != "normal":
            return now
        return now + self._countdown - 1

    def skip_cycles(self, count: int) -> None:
        """Replay *count* normal-state countdown decrements at once.

        The caller must stay strictly before :meth:`next_event_cycle`'s
        answer, so the countdown never reaches zero inside a skip — the
        freeze decision always happens in a dense :meth:`step`.
        """
        if count <= 0:
            return
        if self._state != "normal" or count >= self._countdown:
            raise RuntimeError(
                f"skip_cycles({count}) past the drain horizon "
                f"(state={self._state}, countdown={self._countdown})"
            )
        self._countdown -= count

    def force_drain(self) -> bool:
        """Collapse the epoch countdown so the next step opens a drain.

        The degradation ladder calls this when the watchdog confirms a
        CBD deadlock: instead of waiting out the remaining epoch, the
        freeze fires on the very next (dense) :meth:`step`.  Returns
        False — without touching anything — when a window is already in
        progress.  The :meth:`skip_cycles` contract is preserved: the
        countdown only shrinks, so a skip planned against the previous
        horizon still raises before it could cross the new one, and the
        ladder runs before the controller in the simulation step order,
        making the forced window fire in the same dense cycle.
        """
        if self._state != "normal":
            return False
        self._countdown = min(self._countdown, 1)
        return True

    # ------------------------------------------------------------------
    def _enter_drain(self) -> None:
        self._windows_done += 1
        self.fabric.stats.drain_windows += 1
        if self._windows_done % self.config.full_drain_period == 0:
            self._state = "full_drain"
            self._full_steps_left = self.max_cycle_length()
            self.fabric.stats.full_drains += 1
        else:
            self._state = "drain"
            self._window_left = self.config.drain_window

    def _finish_window(self) -> None:
        self._state = "normal"
        self._countdown = self.config.epoch
        self.fabric.frozen = False

    def _rotate_once(self) -> None:
        """Move every escape-VC packet one hop along its drain cycle.

        Delegates to the fabric, which knows its own buffer organisation
        (whole packets under virtual cut-through, flit FIFOs with packet
        truncation under wormhole — Section III-C3). After a fault split
        the survivor graph, each component's cycle rotates independently.
        """
        for ports in self.path_port_cycles:
            self.fabric.drain_rotate_escape(ports)
