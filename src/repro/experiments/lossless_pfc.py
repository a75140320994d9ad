"""Lossless-fabric study: PFC pause-threshold tuning vs DRAIN.

Priority Flow Control keeps an Ethernet fabric lossless by pausing
upstream transmitters, but pause propagation builds cyclic buffer
dependencies (CBD) that no pause/resume threshold tuning can break —
deadlock freedom is a *routing/drain* property, not a flow-control knob
(Section I of the paper, transplanted to the datacenter context of the
RoCE/PFC literature).

The pinned scenario makes that concrete.  An 8-leaf / 4-spine leaf-spine
fabric with a single uplink per leaf and an east-west leaf ring carries
eight flows ``leaf i -> leaf (i+2) % 8``: with one uplink per leaf the
spine detour is strictly longer, so every minimal route lies on the ring
and the eight flows close a cyclic dependency over the ring buffers.
Under ``scheme=NONE`` the fabric wedges for **every** pause threshold the
buffer depth admits — the watchdog confirms the CBD with a concrete
buffer cycle.  Under ``scheme=DRAIN`` with the staged degradation ladder,
forced drain epochs empty the escape channel regardless of pause state
and every packet is delivered (recovery ratio >= 0.9 required, zero
packets lost forever observed).

A final row runs a 1024-switch leaf-spine (1008 leaves x 16 spines,
2 uplinks) end-to-end through the sweep harness to pin the scale path.

Every row also carries the pause-aware static certifier's verdict
(``static_verdict``): the certifier REFUTES each scheme-NONE row with the
very ring buffer cycle the watchdog later confirms, and CERTIFIES each
DRAIN row via the escape-VC pause exemption — the static/dynamic
agreement the differential harness (:mod:`repro.analysis.differential`)
enforces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis import certify_configuration
from ..core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from ..harness import Harness, get_default_harness, lossless_trial
from ..topology.datacenter import make_leaf_spine
from ..traffic.flows import Flow
from .common import Scale, current_scale

__all__ = ["lossless_pfc_study", "run"]

#: Pause thresholds swept over the pinned scenario; with ``headroom=1``
#: and 4 VCs per VN these cover the whole feasible range (threshold +
#: headroom <= depth).
PAUSE_THRESHOLDS = (1, 2, 3)

#: Flow injection rate of the pinned scenario (post-saturation: the CBD
#: must close quickly and deterministically).
SCENARIO_RATE = 0.9

#: Per-flow packet budget for the closed (DRAIN) rows.
SCENARIO_PACKETS = 200


def _scenario_topology():
    return make_leaf_spine(8, 4, uplinks=1, east_west=True)


def _scenario_flows(packets: Optional[int]) -> List[Flow]:
    return [
        Flow(i, (i + 2) % 8, SCENARIO_RATE, packets=packets)
        for i in range(8)
    ]


def _scenario_config(scheme: Scheme, pause_threshold: int,
                     scale: Scale, seed: int) -> SimConfig:
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=scale.epoch),
        seed=seed,
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause_threshold,
                      resume_threshold=0, headroom=1),
    )


def lossless_pfc_study(
    scale: Optional[Scale] = None,
    thresholds=PAUSE_THRESHOLDS,
    seed: int = 11,
    harness: Optional[Harness] = None,
    include_scale_row: bool = True,
) -> List[Dict]:
    """Threshold x scheme sweep over the pinned CBD scenario."""
    scale = scale if scale is not None else current_scale()
    harness = harness if harness is not None else get_default_harness()
    topo = _scenario_topology()

    combos = []
    specs = []
    verdicts = []
    ring_pairs = [(f.src, f.dst) for f in _scenario_flows(None)]
    for pause in thresholds:
        for scheme in (Scheme.NONE, Scheme.DRAIN):
            config = _scenario_config(scheme, pause, scale, seed)
            verdicts.append(certify_configuration(
                topo, config, flows=ring_pairs).verdict)
            if scheme is Scheme.NONE:
                # Open-loop flows; the watchdog halts the run with the
                # concrete buffer cycle once the CBD closes.
                spec = lossless_trial(
                    topo, config, _scenario_flows(None),
                    cycles=scale.total_cycles,
                    halt_on_deadlock=True,
                )
            else:
                # Closed flows; the degradation ladder escalates through
                # forced drains until every packet is delivered.
                spec = lossless_trial(
                    topo, config, _scenario_flows(SCENARIO_PACKETS),
                    cycles=max(60_000, scale.total_cycles),
                    degradation_ladder=True,
                )
            combos.append((pause, scheme))
            specs.append(spec)

    if include_scale_row:
        big = make_leaf_spine(1008, 16, uplinks=2)
        big_config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=4),
            drain=DrainConfig(epoch=scale.epoch),
            seed=seed,
            flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=2, resume_threshold=1, headroom=1),
        )
        big_flows = [
            Flow(i, (i + 504) % 1008, 0.1, packets=10)
            for i in range(0, 1008, 16)
        ]
        specs.append(lossless_trial(
            big, big_config, big_flows,
            cycles=scale.total_cycles * 2,
            degradation_ladder=True,
        ))
        combos.append((2, Scheme.DRAIN))
        verdicts.append(certify_configuration(
            big, big_config, flows=[(f.src, f.dst) for f in big_flows],
        ).verdict)

    results = harness.run(specs, label="lossless-pfc")

    rows: List[Dict] = []
    for (pause, scheme), verdict, res in zip(combos, verdicts, results):
        payload = res.get("deadlock_cycle")
        ladder = res.get("ladder") or {}
        row: Dict = {
            "topology": res.get("topology", ""),
            "pause_threshold": pause,
            "scheme": scheme.value,
            "static_verdict": verdict,
            "deadlocked": bool(res["deadlocked"]),
            "cycle_confirmed": payload is not None,
            "cycle_length": payload["length"] if payload else 0,
            "generated": res["generated"],
            "delivered": res["delivered"],
            "recovery_ratio": round(res["recovery_ratio"], 4),
            "lost_forever": res["lost_forever"],
            "finished": bool(res["finished"]),
            "detections": ladder.get("detections", 0),
            "forced_drains": ladder.get("forced_drains", 0),
            "cycle_drops": ladder.get("cycle_drops", 0),
            "runtime": res["runtime"],
        }
        rows.append(row)
    # Label the trailing scale row so it is not mistaken for the sweep.
    if include_scale_row:
        rows[-1]["topology"] = "leafspine-1008x16-u2"
    for row in rows[:-1] if include_scale_row else rows:
        row["topology"] = "leafspine-8x4-u1-ew"
    return rows


def run(scale: Optional[Scale] = None,
        harness: Optional[Harness] = None) -> List[Dict]:
    return lossless_pfc_study(scale=scale, harness=harness)
