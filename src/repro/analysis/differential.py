"""Differential validation of the pause-aware static certifier.

The certifier (:func:`repro.analysis.certify_pause_configuration`) and
the simulator's pause-aware deadlock oracle model the same object — the
buffer-dependency structure of a lossless (pause/resume) fabric — from
opposite ends. This module closes the loop between them in both
directions:

- **Refutation matching**: when the certifier REFUTES a configuration
  and a live run of the same (topology, scheme, pfc, flow-set) halts on
  the watchdog, the static counterexample and the dynamic halt payload
  must name the same buffer cycle. Both sides are canonicalised to the
  lexicographically-minimal rotation at emission time, so the comparison
  is plain equality on the ``links`` field.
- **Certified storm survival**: any configuration the certifier accepts
  must survive seeded pause-storm schedules (stuck-XOFF rows, resume
  jitter, victim bursts) without a watchdog halt and without losing
  packets. A CERTIFIED verdict that a storm can falsify would be a
  soundness bug, so the sweep is a standing adversarial check.

Schemes whose certificate rests on the escape-VC pause exemption and the
drain cover (``drain``) guarantee *eventual* progress — the oracle
legitimately reports transient wedges between drain epochs — so their
sweep runs under the degradation ladder and asserts lossless completion.
Schemes certified by an acyclic dependency graph (``updown``,
``escape_vc``) guarantee continuous progress and run with
``halt_on_deadlock`` armed: any watchdog halt fails the sweep outright.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.config import Scheme, SimConfig
from ..topology.graph import Topology
from .certificate import Certificate, canonical_rotation

__all__ = [
    "canonical_cycle_links",
    "refutation_matches",
    "storm_survival_sweep",
]

#: Schemes whose pause certificate guarantees continuous progress — a
#: watchdog halt under any storm falsifies the certificate directly.
_HALT_SCHEMES = frozenset({Scheme.UPDOWN, Scheme.ESCAPE_VC})


def canonical_cycle_links(
    payload: Optional[Mapping[str, Any]],
) -> List[List[int]]:
    """The ``links`` field of a buffer-cycle payload, canonicalised.

    Both the watchdog payload and the certifier counterexample already
    emit canonical rotations; re-canonicalising here makes the comparison
    robust to payloads produced by older runs (cached harness results
    predate the canonicalisation).
    """
    if payload is None:
        return []
    links = [list(pair) for pair in payload.get("links") or []
             if pair is not None]
    return canonical_rotation(links)


def refutation_matches(
    certificate: Certificate,
    payload: Optional[Mapping[str, Any]],
) -> bool:
    """True when static refutation and dynamic wedge name the same cycle.

    *certificate* is the static verdict for the configuration the halted
    run executed; *payload* the watchdog's ``cycle_payload``. Matching is
    rotation-invariant equality of the buffer cycle's link sequence.
    """
    if certificate.certified or payload is None:
        return False
    counter = certificate.counterexample or {}
    if counter.get("kind") != "buffer-cycle":
        return False
    if payload.get("kind") != "buffer-cycle":
        return False
    static_links = canonical_cycle_links(counter)
    return bool(static_links) and (
        static_links == canonical_cycle_links(payload)
    )


def storm_survival_sweep(
    topology: Topology,
    config: SimConfig,
    flows: Sequence[Any],
    *,
    seeds: Sequence[int],
    cycles: int,
    num_events: int = 6,
    window: Optional[Tuple[int, int]] = None,
) -> Dict[str, Any]:
    """Run a CERTIFIED config through seeded pause storms; report halts.

    One trial per seed in *seeds*: the seed parameterises both the storm
    schedule (:meth:`repro.faults.PauseStormSchedule.generate`) and the
    simulation seed, so the sweep covers independent schedules.  The
    result's ``survived`` is True iff no run halted on the watchdog, all
    closed flows completed, and no packet was lost — the dynamic
    obligations a pause certificate takes on.
    """
    from ..faults.storm import PauseStormSchedule
    from ..harness.trials import execute_trial, lossless_trial

    if config.flow_control != "pause_resume":
        raise ValueError(
            "storm survival sweeps exercise pause/resume configurations; "
            f"got flow_control={config.flow_control!r}"
        )
    scheme = config.scheme
    if scheme is not Scheme.DRAIN and scheme not in _HALT_SCHEMES:
        raise ValueError(
            f"scheme {scheme.value!r} has no pause certificate to validate"
        )
    if window is None:
        window = (200, max(400, cycles // 4))
    use_ladder = scheme is Scheme.DRAIN
    runs: List[Dict[str, Any]] = []
    for seed in seeds:
        storm = PauseStormSchedule.generate(
            topology, num_events, seed, window,
            num_vns=config.network.num_vns,
        )
        spec = lossless_trial(
            topology, config.with_seed(seed), flows, cycles,
            storm=storm,
            degradation_ladder=use_ladder,
            halt_on_deadlock=not use_ladder,
        )
        row = execute_trial(spec)
        runs.append({
            "seed": seed,
            "deadlocked": bool(row["deadlocked"]),
            "finished": bool(row["finished"]),
            "lost_forever": int(row["lost_forever"]),
            "recovery_ratio": float(row["recovery_ratio"]),
            "storm_events": len(storm),
        })
    halts = sum(1 for r in runs if r["deadlocked"])
    survived = all(
        not r["deadlocked"] and r["finished"] and r["lost_forever"] == 0
        for r in runs
    )
    return {
        "scheme": scheme.value,
        "mode": "degradation-ladder" if use_ladder else "halt-on-deadlock",
        "runs": runs,
        "halts": halts,
        "survived": survived,
    }
