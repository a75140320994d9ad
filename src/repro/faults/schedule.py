"""Deterministic, seed-derived fault schedules.

A :class:`FaultSchedule` is the declarative input to runtime fault
injection: an ordered list of :class:`FaultEvent` records saying *what*
dies (a bidirectional link or a whole router), *when* (a simulation
cycle), and whether the fault is transient (it heals after a fixed
duration) or permanent.

Schedules are plain data — JSON round-trippable, picklable, and hashable
through the harness's canonical-JSON trial digests — so a fault experiment
is exactly as cacheable and replayable as a fault-free one. Generation is
fully determined by ``(topology, seed, parameters)`` via
:func:`repro.core.rng.spawn`; no wall-clock anything.

Onset distributions (Section VI's lifetime framing):

- ``uniform`` — failures spread evenly over the fault window;
- ``wearout`` — failure density grows linearly with time (CDF ``x^2``),
  modelling electromigration-style aging where late life is riskier;
- ``burst`` — all failures cluster tightly around one uniformly drawn
  burst centre, modelling a localised event (voltage droop, particle
  strike cascade).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core import rng as rng_mod
from ..topology.graph import Topology

__all__ = ["FaultEvent", "FaultSchedule", "FAULT_POLICIES",
           "ONSET_DISTRIBUTIONS"]

ONSET_DISTRIBUTIONS = ("uniform", "wearout", "burst")

#: What happens to flits in flight on a dying wire (see
#: :mod:`repro.faults.injector`, which applies the policy).
FAULT_POLICIES = ("drop_retransmit", "source_reroute")


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One fault: a link or router that dies at *cycle*.

    ``target`` is a ``(a, b)`` router pair for ``kind="link"`` (the
    bidirectional link — both unidirectional links die together, per the
    paper's assumption 2) or ``(r, -1)`` for ``kind="router"``.
    Transient faults carry the cycle at which they heal.
    """

    cycle: int
    kind: str  # "link" | "router"
    target: Tuple[int, int]
    repair_cycle: Optional[int] = None  # None == permanent

    def __post_init__(self) -> None:
        if self.kind not in ("link", "router"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.repair_cycle is not None and self.repair_cycle <= self.cycle:
            raise ValueError("a transient fault must heal after it strikes")

    @property
    def transient(self) -> bool:
        return self.repair_cycle is not None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "target": list(self.target),
            "repair_cycle": self.repair_cycle,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultEvent":
        return FaultEvent(
            cycle=int(data["cycle"]),
            kind=str(data["kind"]),
            target=(int(data["target"][0]), int(data["target"][1])),
            repair_cycle=(
                None if data.get("repair_cycle") is None
                else int(data["repair_cycle"])
            ),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered batch of fault events plus its generation provenance."""

    events: Tuple[FaultEvent, ...]
    seed: Optional[int] = None
    onset: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def permanent_events(self) -> List[FaultEvent]:
        return [e for e in self.events if not e.transient]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events": [e.as_dict() for e in self.events],
            "seed": self.seed,
            "onset": self.onset,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultSchedule":
        return FaultSchedule(
            events=tuple(FaultEvent.from_dict(e) for e in data["events"]),
            seed=data.get("seed"),
            onset=data.get("onset"),
        )

    @staticmethod
    def from_json(text: str) -> "FaultSchedule":
        return FaultSchedule.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    @staticmethod
    def generate(
        topology: Topology,
        num_faults: int,
        seed: int,
        window: Tuple[int, int],
        onset: str = "uniform",
        transient_fraction: float = 0.0,
        transient_duration: int = 500,
        router_fraction: float = 0.0,
        ensure_connected: bool = True,
    ) -> "FaultSchedule":
        """Draw a deterministic schedule of *num_faults* events.

        Onset cycles fall in ``[window[0], window[1])`` following *onset*
        (see module docstring). A *transient_fraction* of events heal after
        *transient_duration* cycles; a *router_fraction* kill whole routers
        instead of links. With *ensure_connected* (the default), permanent
        link faults are drawn only among edges whose removal — given all
        earlier permanent faults — keeps the surviving graph connected,
        and permanent router faults are skipped entirely (a dead router
        always strands its own traffic); the schedule then never creates
        unreachable alive pairs, which the DRAIN recovery guarantees need.

        Raises :class:`ValueError` when the topology cannot absorb the
        requested number of permanent faults (e.g. a ring has exactly one
        removable edge; a 2-node network has none).
        """
        if num_faults < 0:
            raise ValueError("num_faults must be >= 0")
        if onset not in ONSET_DISTRIBUTIONS:
            raise ValueError(
                f"unknown onset distribution {onset!r}; "
                f"choose from {ONSET_DISTRIBUTIONS}"
            )
        start, end = window
        if not 0 <= start < end:
            raise ValueError(f"fault window {window} must satisfy 0 <= start < end")
        if not 0.0 <= transient_fraction <= 1.0:
            raise ValueError("transient_fraction must be in [0, 1]")
        if not 0.0 <= router_fraction <= 1.0:
            raise ValueError("router_fraction must be in [0, 1]")

        rng = rng_mod.spawn(seed, "fault-schedule", topology.name, num_faults)
        cycles = _draw_onsets(rng, num_faults, start, end, onset)

        # Permanent-fault budget check up front, so impossible requests
        # fail with a clear message instead of a mid-generation surprise.
        num_transient = round(num_faults * transient_fraction)
        num_permanent = num_faults - num_transient
        if ensure_connected:
            max_removable = topology.num_edges - (topology.num_nodes - 1)
            if num_permanent > max_removable:
                raise ValueError(
                    f"cannot schedule {num_permanent} permanent link faults on "
                    f"{topology.name!r}: only {max_removable} edges are "
                    f"removable while keeping the topology connected"
                )

        # Which event indices are transient: spread deterministically.
        transient_idx = set(
            rng.sample(range(num_faults), num_transient) if num_transient else []
        )

        survivor = topology.copy()
        events: List[FaultEvent] = []
        for i, cycle in enumerate(cycles):
            transient = i in transient_idx
            repair = cycle + transient_duration if transient else None
            want_router = (
                router_fraction > 0.0
                and rng.random() < router_fraction
                and (transient or not ensure_connected)
            )
            if want_router:
                alive = sorted(
                    n for n in survivor.nodes if survivor.degree(n) > 0
                )
                rng.shuffle(alive)
                chosen = -1
                for router in alive:
                    if ensure_connected and _is_cut_router(survivor, router):
                        continue
                    chosen = router
                    break
                if chosen >= 0:
                    events.append(
                        FaultEvent(cycle, "router", (chosen, -1), repair)
                    )
                    if not transient:
                        for m in survivor.neighbors(chosen):
                            survivor.remove_edge(chosen, m)
                    continue
            edge = _pick_edge(rng, survivor, ensure_connected)
            if edge is None:
                raise ValueError(
                    f"no removable edge left on {topology.name!r} after "
                    f"{len(events)} faults (requested {num_faults})"
                )
            events.append(FaultEvent(cycle, "link", edge, repair))
            if not transient:
                survivor.remove_edge(*edge)
        return FaultSchedule(tuple(events), seed=seed, onset=onset)


def _draw_onsets(
    rng, count: int, start: int, end: int, onset: str
) -> List[int]:
    span = end - start
    cycles: List[int] = []
    if onset == "burst":
        centre = start + rng.randrange(span)
        for _ in range(count):
            jitter = rng.randrange(-(span // 20) - 1, span // 20 + 2)
            cycles.append(min(end - 1, max(start, centre + jitter)))
    else:
        for _ in range(count):
            u = rng.random()
            if onset == "wearout":
                u = u ** 0.5  # CDF x^2: density grows linearly with time
            cycles.append(min(end - 1, start + int(u * span)))
    return sorted(cycles)


def _pick_edge(
    rng, survivor: Topology, keep_connected: bool
) -> Optional[Tuple[int, int]]:
    edges = survivor.bidirectional_links()
    rng.shuffle(edges)
    for a, b in edges:
        if keep_connected and survivor.is_critical_edge(a, b):
            continue
        return (a, b)
    return None


def _is_cut_router(survivor: Topology, router: int) -> bool:
    """True when killing *router* would disconnect the remaining routers."""
    neighbours = survivor.neighbors(router)
    for m in neighbours:
        survivor.remove_edge(router, m)
    try:
        remaining = [
            n for n in survivor.nodes
            if n != router and survivor.degree(n) > 0
        ]
        if not remaining:
            return True
        seen = {remaining[0]}
        frontier = [remaining[0]]
        while frontier:
            n = frontier.pop()
            for m in survivor.neighbors(n):
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        return len(seen) != len(remaining)
    finally:
        for m in neighbours:
            survivor.add_edge(router, m)
