"""Pinned trials: one spec digest and one result dict per runner kind.

A trial is its spec: the digest names it in the result cache, and the
runner rebuilds the whole simulation from its params alone. Each case
below builds one small spec with a public builder and records the spec's
digest together with a BLAKE2b digest of the full result dict, so a
change to how a spec is built or how a runner builds, runs and
summarises its simulation must reproduce both.

The cases cover a synthetic run, a surrogate application halted by the
watchdog on a faulted mesh, raw coherence traffic, a lossless fabric
under a pause storm with the degradation ladder, a lossless fabric
halted on its buffer cycle, and a synthetic run under a runtime fault
schedule.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.experiments.common import Scale, scheme_config
from repro.faults import PauseStormEvent, PauseStormSchedule
from repro.faults.schedule import FaultSchedule
from repro.harness import (
    coherence_trial,
    execute_trial,
    fault_recovery_trial,
    lossless_trial,
    synthetic_trial,
    workload_trial,
)
from repro.topology import make_leaf_spine
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh
from repro.traffic import Flow
from repro.traffic.workloads import PARSEC

PIN_SCALE = Scale(warmup=100, measure=500, epoch=256, spin_timeout=64)

#: case -> (spec digest, digest of the full result dict).
PINNED = {
    "synthetic": ("841bef454997edde72a237f64d6a04a4",
                  "100f831008e19ba21d9a4a7f1db31696"),
    "workload_halt": ("47cb8b42cbf55b66d1810c50e8900175",
                      "0d01fea26297d25c40f350f23fdea6e7"),
    "coherence": ("62236c2430775a5b774a3649d5ed847e",
                  "4b31dba052b79de8f2c96d084f43ba4d"),
    "lossless_storm_ladder": ("13ecd7f03346f90642a5918c0dd96031",
                              "3c3b7da4a13904bccc61d592feb8b65d"),
    "lossless_halt": ("7354bf4cee39b0cc64bb18dd15c68952",
                      "ea36c7aef2a01d4058612060e1a51110"),
    "fault_recovery": ("7b28e88e29487a90f84e86545f45d547",
                       "cf904764b45cac2fc5a6bf95e58bd705"),
}


def _pfc_config(scheme: Scheme) -> SimConfig:
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=512),
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=2, resume_threshold=0, headroom=1),
    )


def _ring_flows(packets=None):
    return [Flow(i, (i + 2) % 8, 0.9, packets=packets) for i in range(8)]


def _spec(case):
    if case == "synthetic":
        return synthetic_trial(
            make_mesh(4, 4), scheme_config(Scheme.SPIN, PIN_SCALE, seed=2),
            0.08, cycles=PIN_SCALE.total_cycles, warmup=PIN_SCALE.warmup,
            pattern="transpose", mesh_width=4,
        )
    if case == "workload_halt":
        config = SimConfig(
            scheme=Scheme.NONE,
            network=NetworkConfig(num_vns=3, vcs_per_vn=1),
            seed=2,
        )
        return workload_trial(
            inject_link_faults(make_mesh(4, 4), 6, random.Random(7)),
            config, PARSEC[2], max_cycles=3_000, intensity_scale=2.0,
            halt_on_deadlock=True,
        )
    if case == "coherence":
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=32),
            seed=3,
        )
        return coherence_trial(
            make_mesh(4, 4), config, 0.3, max_cycles=4_000,
            total_transactions=800, locality=0.25, mesh_width=4,
        )
    leaf_spine = make_leaf_spine(8, 4, uplinks=1, east_west=True)
    if case == "lossless_storm_ladder":
        storm = PauseStormSchedule((
            PauseStormEvent(20, "burst", (0, 5), value=12),
            PauseStormEvent(40, "stuck_xoff", (2, 0), duration=60),
        ))
        return lossless_trial(
            leaf_spine, _pfc_config(Scheme.DRAIN), _ring_flows(packets=12),
            cycles=20_000, storm=storm, degradation_ladder=True,
        )
    if case == "lossless_halt":
        return lossless_trial(
            leaf_spine, _pfc_config(Scheme.NONE), _ring_flows(),
            cycles=20_000, halt_on_deadlock=True,
        )
    assert case == "fault_recovery"
    mesh = make_mesh(4, 4)
    schedule = FaultSchedule.generate(
        mesh, 2, seed=3, window=(400, 800), onset="uniform",
        ensure_connected=True,
    )
    return fault_recovery_trial(
        mesh, scheme_config(Scheme.DRAIN, PIN_SCALE, seed=3), 0.05,
        cycles=1_200, warmup=PIN_SCALE.warmup, schedule=schedule,
        curve_window=100, mesh_width=4,
    )


def _digest(result) -> str:
    text = json.dumps(result, sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_trial_matches_its_pin(case):
    spec = _spec(case)
    result = execute_trial(spec)
    assert (spec.digest(), _digest(result)) == PINNED[case], case


def test_cases_exercise_what_they_pin():
    workload = execute_trial(_spec("workload_halt"))
    assert workload["deadlocked"] and not workload["finished"]
    coherence = execute_trial(_spec("coherence"))
    assert coherence["finished"] and coherence["drain_windows"] > 0
    storm = execute_trial(_spec("lossless_storm_ladder"))
    assert storm["finished"] and storm["storm_applied"] == 2
    assert storm["ladder"]["forced_drains"] >= 1
    halted = execute_trial(_spec("lossless_halt"))
    assert halted["deadlocked"] and halted["deadlock_cycle"] is not None
    faulted = execute_trial(_spec("fault_recovery"))
    assert faulted["faults"]["faults_applied"] >= 1
    assert faulted["drain_covered_links"] == faulted["links_alive"]
