"""Pinned workload definitions of the host-time benchmark.

Four workloads, each stressing different layers of ``repro`` (see
README.md for the full rationale and the "moves" table):

- ``mesh_saturation`` — 8x8 DRAIN mesh far past the knee: per-packet
  movement work dominates the cycle.
- ``mesh_low_load`` — same network almost idle: per-cycle fixed cost and
  the event-horizon fast-forward dominate.
- ``lossless_1024`` — 1024-switch leaf-spine under pause/resume flow
  control: set-up bound (all-pairs BFS, routing compile, drain cover,
  pause certificate) plus the scalar fallback engine.
- ``sweep_cli`` — the ``repro-drain sweep`` command as a subprocess, cold
  and warm: interpreter start, imports, preflight, worker spawn and IPC,
  cache/journal/manifest writes.

Everything here derives from ``--seed``; the same seed gives the same
inputs. This module imports ``repro`` lazily so the benchmark's parent
process (which only launches children) never loads the package it times.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

DEFAULT_SEED = 1

IN_PROCESS = ("mesh_saturation", "mesh_low_load", "lossless_1024")
WORKLOADS = IN_PROCESS + ("sweep_cli",)

#: 8x8 mesh operating points. Cycle counts are sized so one timed unit is
#: ~2 s on the 2-core reference box: the run cap (see README) leaves
#: 26 s of measurement per invocation and min-of-N wants N >= 7.
MESH = {
    "mesh_saturation": {"rate": 0.30, "cycles": 3_000, "warmup": 300},
    "mesh_low_load": {"rate": 0.002, "cycles": 160_000, "warmup": 16_000},
}

#: The lossless experiment's 1024-switch scale row. Flows run at line
#: rate (1.0) with a finite packet budget: generation is then
#: deterministic, so the unit's simulated cycle count — the numerator of
#: ``cycles_per_s`` — is the same for every seed (at rate 0.1 it moved
#: 6 % seed to seed, which would have read as host-time noise).
LOSSLESS = {
    "leaves": 1008, "spines": 16, "uplinks": 2, "stride": 16,
    "rate": 1.0, "packets": 150, "max_cycles": 60_000,
}

#: ``repro-drain sweep`` arguments. ``base_rates`` are the CLI's own
#: defaults; each is jittered by a seed-derived multiple of 1e-4 so the
#: seed changes every trial's digest and traffic stream while the offered
#: load (and so the work) stays within 0.2 %.
SWEEP = {
    "topology": "mesh:8x8", "schemes": "escape_vc,spin,drain", "seeds": 1,
    "workers": 2, "base_rates": (0.03, 0.07, 0.11, 0.15, 0.19),
    "cycles_per_trial": 2_400,  # Scale.ci(): 600 warm-up + 1800 measured
}

#: ``--quick`` divides every size by this (tests only; not comparable).
QUICK_DIVISOR = 10


def mesh_params(name: str, quick: bool) -> Dict[str, Any]:
    p = dict(MESH[name])
    if quick:
        p["cycles"] //= QUICK_DIVISOR
        p["warmup"] //= QUICK_DIVISOR
    return p


def lossless_params(quick: bool) -> Dict[str, Any]:
    p = dict(LOSSLESS)
    if quick:
        # 112 leaves keep the stride-16 flow shape (7 flows) on a fabric
        # a ninth the size.
        p["leaves"] //= 9
        p["packets"] //= QUICK_DIVISOR
    return p


def sweep_rates(seed: int, quick: bool) -> List[float]:
    rng = random.Random(seed)
    rates = [round(r + rng.randrange(-9, 10) * 1e-4, 4)
             for r in SWEEP["base_rates"]]
    return rates[:1] if quick else rates


def sweep_trials(quick: bool) -> int:
    schemes = len(SWEEP["schemes"].split(","))
    return schemes * SWEEP["seeds"] * (1 if quick else len(SWEEP["base_rates"]))


def sweep_argv(seed: int, quick: bool, cache_dir: str, out_dir: str) -> List[str]:
    """Arguments after ``python -m repro.cli`` for one sweep run."""
    return [
        "sweep", "--topology", SWEEP["topology"],
        "--schemes", SWEEP["schemes"], "--seeds", str(SWEEP["seeds"]),
        "--rates", ",".join(str(r) for r in sweep_rates(seed, quick)),
        "--workers", str(SWEEP["workers"]),
        "--cache-dir", cache_dir, "--out-dir", out_dir,
    ]


def trial_spec(name: str, seed: int, quick: bool):
    """The :class:`repro.harness.TrialSpec` of an in-process workload.

    For ``sweep_cli`` this is the sweep's first DRAIN trial — the spec
    the traced pass uses to cost the set-up stages of one sweep member.
    """
    from repro.core.config import (
        DrainConfig, NetworkConfig, PfcConfig, Scheme, SimConfig,
    )
    from repro.experiments import common
    from repro.harness import lossless_trial, synthetic_trial
    from repro.topology.datacenter import make_leaf_spine
    from repro.topology.mesh import make_mesh
    from repro.traffic.flows import Flow

    scale = common.Scale.ci()
    if name == "lossless_1024":
        p = lossless_params(quick)
        leaves = p["leaves"]
        topology = make_leaf_spine(leaves, p["spines"], uplinks=p["uplinks"])
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=4),
            drain=DrainConfig(epoch=scale.epoch),
            seed=seed,
            flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=2, resume_threshold=1, headroom=1),
        )
        flows = [
            Flow(i, (i + leaves // 2) % leaves, p["rate"], packets=p["packets"])
            for i in range(0, leaves, p["stride"])
        ]
        return lossless_trial(topology, config, flows,
                              cycles=p["max_cycles"], degradation_ladder=True)
    if name == "sweep_cli":
        return common.synthetic_trial_for(
            make_mesh(8, 8), Scheme.DRAIN, sweep_rates(seed, quick)[0], scale,
            pattern="uniform_random", mesh_width=8, seed=1,
        )
    p = mesh_params(name, quick)
    config = common.scheme_config(Scheme.DRAIN, scale, seed=seed)
    return synthetic_trial(
        make_mesh(8, 8), config, p["rate"], cycles=p["cycles"],
        warmup=p["warmup"], pattern="uniform_random", mesh_width=8,
    )


def invariant_errors(name: str, quick: bool, result: Dict[str, Any],
                     verdict: str = "") -> List[str]:
    """Structural checks that hold for every seed (empty list = pass)."""
    errors = []
    if name == "lossless_1024":
        p = lossless_params(quick)
        flows = len(range(0, p["leaves"], p["stride"]))
        if result["generated"] != flows * p["packets"]:
            errors.append(f"generated {result['generated']}")
        if result["delivered"] != result["generated"]:
            errors.append(f"delivered {result['delivered']} != generated")
        if result["lost_forever"] != 0:
            errors.append(f"lost_forever {result['lost_forever']}")
        if not result["finished"] or result["deadlocked"]:
            errors.append("did not finish")
        if verdict != "CERTIFIED":
            errors.append(f"preflight verdict {verdict!r}")
    else:
        p = mesh_params(name, quick)
        if result["cycles"] != p["cycles"]:
            errors.append(f"cycles {result['cycles']}")
        if result["measured_cycles"] != p["cycles"] - p["warmup"]:
            errors.append(f"measured_cycles {result['measured_cycles']}")
        if result["ejected"] <= 0 or result["throughput"] <= 0:
            errors.append("no packet delivered")
        if result["ejected"] > result["packets_injected"]:
            errors.append("ejected more than injected")
    return errors
