"""Differential parity fuzzing across the engine matrix.

The fabric ships three movement engines — the dense reference sweep
(``dense=True``), the scalar active-set kernel and the vectorized
saturation kernel — that are contractually bit-identical (see DESIGN.md,
"Vectorized kernel"). The dense-parity suite pins hand-picked scenarios;
this layer sweeps a pinned-seed randomized configuration pool across
scheme x topology x load x fault schedule and asserts full
``NetworkStats.as_dict()`` equality between all three engines for every
configuration.

On the first divergence the test dumps a minimized repro — the full
serialized :class:`SimConfig`, the topology kind, rate, fault schedule
and seed — both into the assertion message and as JSON next to pytest's
tmp dir, so a failure can be replayed without re-running the sweep.

The pool is deterministic: a fixed master seed drives every per-config
seed draw, so CI and local runs fuzz the exact same configurations.

A second lane covers the compiled-structure memo (DESIGN.md, "Compiled
network structure"): over pinned groups of trials on one topology, each
member's row computed cold (``structcache.clear_memos()`` before the
trial) must equal its row warm in group order and warm in reverse order
— whatever earlier trials left in the memo — including a mixed group
(DRAIN, ESCAPE_VC, the stateful-routing UPDOWN and a ``fault_recovery``
member) and members carrying mid-run fault schedules. Divergences dump a
minimized repro the same way.

A third lane pins the traffic draw path itself: ``hotspot`` and
``nearest_neighbor`` draw their destinations from the same rng the
Bernoulli scan reads, so their results are compared cold fast-forward vs
stepped (``sim.dense = True``) vs warm, and against digests recorded on
the per-node draw loop.

A fourth lane covers PFC pause/resume (``flow_control="pause_resume"``):
the pinned 8x4 east-west CBD ring and a saturated 4x4 mesh, across
schemes, row depths and XOFF/XON thresholds, with and without a pause
storm — ``NetworkStats.as_dict()``, ``pfc_summary()`` and the final LCG
state must agree between the engines, and every configuration must
actually pause and stall.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tempfile
from pathlib import Path

from repro import structcache
from repro.core.config import PfcConfig, Scheme
from repro.core.configio import config_to_dict
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import (
    Scale,
    scheme_config,
    synthetic_trial_for,
)
from repro.faults import PauseStormEvent, PauseStormSchedule
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.trials import execute_trial, fault_recovery_trial
from repro.store import digest
from repro.topology.datacenter import make_leaf_spine
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus

from repro.traffic.flows import Flow, FlowTraffic
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

#: Tiny but non-trivial: saturates a 4x4 at the high rate, crosses two
#: drain epochs and several spin timeouts inside the measured window.
FUZZ_SCALE = Scale(
    warmup=80,
    measure=240,
    fault_patterns=1,
    sweep_rates=(0.05,),
    epoch=96,
    spin_timeout=48,
)

LOAD_POINTS = (0.02, 0.12, 0.30)  # low / near-saturation / saturation

#: Schemes whose routing stack survives a runtime link fault (the injector
#: rebuilds every routing function; DOR and up*/down* escape functions have
#: no rebuild story, so ESCAPE_VC/UPDOWN configs fuzz fault-free only).
FAULT_SAFE_SCHEMES = (Scheme.DRAIN, Scheme.NONE)

MASTER_SEED = 0xD5A1B


def _fault_schedule(seed: int) -> FaultSchedule:
    # Links (5,6) and (9,10) exist in both the 4x4 mesh and torus; both
    # events land inside the measured window, exercising the engines'
    # fault-epoch table invalidation mid-run.
    return FaultSchedule(
        events=(
            FaultEvent(cycle=120, kind="link", target=(5, 6)),
            FaultEvent(cycle=200, kind="link", target=(9, 10)),
        ),
        seed=seed,
        onset="uniform",
    )


def _build_pool():
    """The pinned fuzz pool: >= 25 deterministic configurations."""
    master = random.Random(MASTER_SEED)
    pool = []

    def add(scheme, topo, rate, faults, vcs=2):
        pool.append({
            "scheme": scheme,
            "topo": topo,
            "rate": rate,
            "faults": faults,
            "vcs": vcs,
            "seed": master.randrange(1, 2 ** 31),
        })

    # One load point per (scheme, topology), chosen by the master RNG.
    for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                   Scheme.STATIC_BUBBLE, Scheme.NONE):
        for topo in ("mesh", "torus", "irregular"):
            add(scheme, topo, master.choice(LOAD_POINTS), None)
    # Saturation sweep: every scheme on the mesh at the saturation point.
    for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                   Scheme.STATIC_BUBBLE, Scheme.NONE, Scheme.IDEAL,
                   Scheme.UPDOWN):
        add(scheme, "mesh", 0.30, None)
    # Mid-run link faults under load (engines must rebuild their tables).
    for scheme in FAULT_SAFE_SCHEMES:
        for topo in ("mesh", "torus"):
            for rate in (0.12, 0.30):
                add(scheme, topo, rate, "links")
    # Deeper VC rows under credit flow control (appended, so the draws
    # above keep their seeds): every VC discipline at 3 and 4 VCs per VN.
    for vcs in (3, 4):
        for scheme in (Scheme.DRAIN, Scheme.ESCAPE_VC, Scheme.NONE):
            add(scheme, "mesh", master.choice(LOAD_POINTS[1:]), None, vcs)
        add(Scheme.DRAIN, "torus", 0.30, "links", vcs)
    return pool


POOL = _build_pool()


def _topology(kind: str, seed: int):
    if kind == "mesh":
        return make_mesh(4, 4), 4
    if kind == "torus":
        return make_torus(4, 4), 4
    # Irregular: a 4x4 mesh with two pinned-seed link faults baked in.
    return inject_link_faults(make_mesh(4, 4), 2,
                              random.Random(seed % 97 + 1)), None


def _audit_sleep_every(sim, period, stale):
    """Append (cycle, router) to *stale* for every sleeping router that
    ``audit_sleep`` refutes, checked after every *period*-th fabric step."""
    fabric = sim.fabric
    engine = fabric._engine
    step = fabric.step

    def audited_step():
        step()
        if fabric.cycle % period == 0:
            stale.extend((fabric.cycle, r) for r in engine.audit_sleep())

    fabric.step = audited_step


def _run(entry, dense, engine, stale_sleepers=None):
    topology, width = _topology(entry["topo"], entry["seed"])
    config = scheme_config(entry["scheme"], FUZZ_SCALE, seed=entry["seed"],
                           vcs_per_vn=entry["vcs"])
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        entry["rate"],
        random.Random(derive_seed(entry["seed"], "traffic", "uniform_random",
                                  entry["rate"])),
    )
    schedule = None
    if entry["faults"] is not None:
        schedule = _fault_schedule(entry["seed"] & 0xFFFF)
    sim = Simulation(topology, config, traffic, dense=dense, engine=engine,
                     fault_schedule=schedule)
    if stale_sleepers is not None and sim.fabric._engine is not None:
        _audit_sleep_every(sim, 16, stale_sleepers)
    sim.run(FUZZ_SCALE.total_cycles, warmup=FUZZ_SCALE.warmup)
    return sim


def _repro_blob(entry, engines):
    topology, _ = _topology(entry["topo"], entry["seed"])
    config = scheme_config(entry["scheme"], FUZZ_SCALE, seed=entry["seed"],
                           vcs_per_vn=entry["vcs"])
    return {
        "config": config_to_dict(config),
        "topology": entry["topo"],
        "topology_name": topology.name,
        "rate": entry["rate"],
        "fault_schedule": entry["faults"],
        "seed": entry["seed"],
        "warmup": FUZZ_SCALE.warmup,
        "cycles": FUZZ_SCALE.total_cycles,
        "engines_compared": engines,
    }


class TestParityFuzz:
    def test_pool_is_pinned_and_large_enough(self):
        # The pool must never silently shrink or reorder: the master seed
        # pins both membership and per-config seeds.
        assert len(POOL) >= 25
        assert POOL == _build_pool()
        # Same (scheme, topo, rate) may legitimately recur with a fresh
        # seed; the seeded tuple must be unique.
        assert len({(e["scheme"], e["topo"], e["rate"], e["faults"],
                     e["vcs"], e["seed"]) for e in POOL}) == len(POOL)

    def test_differential_sweep(self):
        vectorized_hits = 0
        for i, entry in enumerate(POOL):
            dense = _run(entry, dense=True, engine=None)
            scalar = _run(entry, dense=False, engine="scalar")
            # The sleeping-router flags are audited where routers sleep
            # (saturation) and where their inputs change under them
            # (mid-run faults).
            audited = entry["rate"] == 0.30 or entry["faults"] is not None
            stale = [] if audited else None
            vector = _run(entry, dense=False, engine="vectorized",
                          stale_sleepers=stale)
            assert not stale, (
                f"pool entry {i}: stale sleeping routers (cycle, router) "
                f"{stale[:8]}")
            if vector.fabric.engine_name == "vectorized":
                vectorized_hits += 1
            results = {
                "dense": dense.stats.as_dict(),
                "scalar": scalar.stats.as_dict(),
                "vectorized": vector.stats.as_dict(),
            }
            if not (results["dense"] == results["scalar"]
                    == results["vectorized"]):
                blob = _repro_blob(entry, list(results))
                blob["resolved_engine"] = vector.fabric.engine_name
                blob["fallback_reason"] = vector.fabric.engine_fallback_reason
                path = Path(tempfile.gettempdir()) / (
                    f"parity_fuzz_repro_{i}.json"
                )
                path.write_text(json.dumps(blob, indent=2, sort_keys=True))
                diverging = [
                    key for key in results["dense"]
                    if not (results["dense"][key] == results["scalar"][key]
                            == results["vectorized"][key])
                ]
                raise AssertionError(
                    f"engine divergence on pool entry {i} "
                    f"(fields: {diverging}); repro written to {path}:\n"
                    + json.dumps(blob, indent=2, sort_keys=True)
                )
        # The sweep is vacuous if the vectorized engine never engaged.
        assert vectorized_hits >= len(POOL) // 2

    def test_fault_configs_apply_faults(self):
        # The fault entries must actually exercise the mid-run rebuild.
        entry = next(e for e in POOL if e["faults"] is not None)
        sim = _run(entry, dense=False, engine="vectorized")
        assert sim.stats.faults_applied >= 1
        assert sim.fabric.engine_name == "vectorized"
        assert sim.fabric._engine.rebuilds >= 3  # initial + one per epoch


# ----------------------------------------------------------------------
# Memo lane: rows are the same cold, warm, and warm in any order
# ----------------------------------------------------------------------
#: Smaller than FUZZ_SCALE (the memo lane runs every config three times)
#: but still crossing a drain epoch and a spin timeout inside the window.
BATCH_SCALE = Scale(warmup=40, measure=120, epoch=96, spin_timeout=48)
BATCH_SIZE = 8


def _build_batch_groups():
    """Pinned groups: >= 10 configs over two (scheme, topo) cells.

    Every group shares one topology, scheme and geometry — so one memo
    entry and one set of engine rows — while seeds and rates vary per
    member: exactly the shape of a sweep's seed x rate ladder.
    """
    master = random.Random(MASTER_SEED ^ 0xBA7C4)
    groups = []
    for scheme, topo in ((Scheme.DRAIN, "mesh"), (Scheme.SPIN, "torus")):
        topology = make_mesh(4, 4) if topo == "mesh" else make_torus(4, 4)
        groups.append([
            synthetic_trial_for(
                topology, scheme, master.choice(LOAD_POINTS), BATCH_SCALE,
                mesh_width=4, seed=master.randrange(1, 2 ** 31),
            )
            for _ in range(BATCH_SIZE)
        ])
    return groups


def _cold(spec):
    structcache.clear_memos()
    return execute_trial(spec)


def _assert_memo_invariant(group, group_index):
    """Each member: cold row == warm row in group order == in reverse."""
    cold = [_cold(spec) for spec in group]
    structcache.clear_memos()
    forward = [execute_trial(spec) for spec in group]
    structcache.clear_memos()
    backward = [execute_trial(spec) for spec in reversed(group)][::-1]
    for order, warm in (("group", forward), ("reverse", backward)):
        for i, (spec, expected, got) in enumerate(zip(group, cold, warm)):
            if got == expected:
                continue
            blob = {
                "runner": spec.runner,
                "params": dict(spec.params),
                "group": group_index,
                "index_in_group": i,
                "replay": "clear_memos(); execute_trial(spec) vs the same "
                          f"call after the group's earlier members in "
                          f"{order} order",
            }
            path = Path(tempfile.gettempdir()) / (
                f"parity_fuzz_memo_repro_{group_index}_{i}.json"
            )
            path.write_text(json.dumps(blob, indent=2, sort_keys=True))
            diverging = sorted(
                set(expected) ^ set(got)
                | {k for k in expected if k in got and expected[k] != got[k]}
            )
            raise AssertionError(
                f"warm trial diverged from its cold run (group "
                f"{group_index}, member {i}, {order} order, fields: "
                f"{diverging}); repro written to {path}:\n"
                + json.dumps(blob, indent=2, sort_keys=True)
            )
    return cold


class TestMemoParityFuzz:
    def test_memo_groups_are_pinned_and_share_one_structure(self):
        groups = _build_batch_groups()
        assert sum(len(g) for g in groups) >= 10
        assert [
            [s.digest() for s in g] for g in groups
        ] == [[s.digest() for s in g] for g in _build_batch_groups()]
        keys = [
            {digest(s.params["topology"]) for s in group}
            for group in groups
        ]
        assert all(len(k) == 1 for k in keys)
        # The two groups must never share an entry (different topology).
        assert keys[0] != keys[1]

    def test_warm_groups_match_cold(self):
        for gi, group in enumerate(_build_batch_groups()):
            _assert_memo_invariant(group, gi)

    def test_mixed_group_on_one_topology_matches_cold(self):
        # One memo entry serves four disciplines at once: DRAIN rows,
        # ESCAPE_VC rows, UPDOWN (stateful routing: scalar engine, reads
        # the numbering and distances only) and a fault_recovery member
        # whose faults must stay on its own index.
        topology = make_mesh(4, 4)
        drain = _build_batch_groups()[0][:2]
        others = [
            synthetic_trial_for(topology, scheme, 0.12, BATCH_SCALE,
                                mesh_width=4, seed=0xE71C7)
            for scheme in (Scheme.ESCAPE_VC, Scheme.UPDOWN)
        ]
        scale = Scale(warmup=40, measure=200, epoch=96, spin_timeout=48)
        faulted = fault_recovery_trial(
            topology, scheme_config(Scheme.DRAIN, scale, seed=0xFA017), 0.12,
            cycles=scale.total_cycles, warmup=scale.warmup,
            schedule=_fault_schedule(0xFA01), mesh_width=4,
        )
        group = [drain[0], others[0], faulted, others[1], drain[1]]
        rows = _assert_memo_invariant(group, "mixed")
        assert rows[2]["faults"]["faults_applied"] >= 2

    def test_warm_fault_recovery_matches_cold(self):
        # Mid-run faults stay per-trial over a shared structure: each
        # member owns its schedule, applies it to its own index at its own
        # cycles, and ends with the same recovery summary as its cold run.
        scale = Scale(warmup=40, measure=200, epoch=96, spin_timeout=48)
        master = random.Random(MASTER_SEED ^ 0xFA017)
        topology = make_mesh(4, 4)
        group = []
        for _ in range(4):
            seed = master.randrange(1, 2 ** 31)
            config = scheme_config(Scheme.DRAIN, scale, seed=seed)
            group.append(fault_recovery_trial(
                topology, config, master.choice(LOAD_POINTS),
                cycles=scale.total_cycles, warmup=scale.warmup,
                schedule=_fault_schedule(seed & 0xFFFF), mesh_width=4,
            ))
        # Both fault events (cycles 120 and 200) land inside the window.
        for result in _assert_memo_invariant(group, "faults"):
            assert result["faults"]["faults_applied"] >= 2


# ----------------------------------------------------------------------
# Stateful destination patterns: the traffic draw path, three ways
# ----------------------------------------------------------------------
#: Patterns whose destination draws interleave with the Bernoulli scan on
#: the one traffic rng: ``hotspot`` makes a ``random()`` plus one or two
#: ``randrange`` per hit, ``nearest_neighbor`` an ``rng.choice``.
STATEFUL_PATTERNS = ("hotspot", "nearest_neighbor")

#: blake2b-64 of each member's canonical result JSON, recorded on the
#: dense per-node draw loop before the traffic stream replaced it; the
#: lane must keep reproducing these, not only agree with itself.
STATEFUL_PINS = {
    "hotspot": ["ff30b9d85189a508", "072a900a935dd8ac",
                "c0f91a5243ed4d64", "6fc2f4e154d7bdef"],
    "nearest_neighbor": ["dc07a3d7e81423d3", "ba5be5ff9d639cfc",
                         "e6dfe2b67b905443", "36453d52274a1670"],
}


def _build_stateful_group(pattern):
    master = random.Random(MASTER_SEED ^ 0x57A7E)
    topology = make_mesh(4, 4)
    return [
        synthetic_trial_for(
            topology, Scheme.DRAIN, rate, BATCH_SCALE, pattern=pattern,
            mesh_width=4, seed=master.randrange(1, 2 ** 31),
        )
        for rate in (0.005, 0.02, 0.12, 0.30)
    ]


def _result_digest(result):
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class TestStatefulPatternParity:
    def test_fast_forward_stepped_and_warm_agree(self, monkeypatch):
        for pattern in STATEFUL_PATTERNS:
            group = _build_stateful_group(pattern)
            fast = [_cold(spec) for spec in group]
            assert [execute_trial(spec) for spec in group] == fast, pattern

            run = Simulation.run

            def stepped_run(sim, cycles, warmup=0):
                sim.dense = True  # the stepped-run switch: no fast-forward
                return run(sim, cycles, warmup)

            with monkeypatch.context() as patch:
                patch.setattr(Simulation, "run", stepped_run)
                stepped = [execute_trial(spec) for spec in group]
            assert stepped == fast, pattern
            assert all(r["packets_ejected"] > 0 for r in fast)
            assert [_result_digest(r) for r in fast] == STATEFUL_PINS[pattern]


# ----------------------------------------------------------------------
# PFC lane: pause/resume rows across XOFF/XON, with and without a storm
# ----------------------------------------------------------------------
#: (vcs_per_vn, XOFF threshold, XON threshold); headroom is one slot.
PFC_THRESHOLDS = ((2, 1, 0), (3, 2, 1), (4, 2, 1), (4, 3, 0))

#: The pinned CBD ring (tests/test_lossless.py) carries its ring flows;
#: the mesh runs uniform-random traffic past saturation so rows cross
#: XOFF and XON continuously. ESCAPE_VC needs DOR, hence the mesh only.
PFC_CELLS = (
    ("ring", Scheme.NONE), ("ring", Scheme.DRAIN), ("ring", Scheme.SPIN),
    ("mesh", Scheme.NONE), ("mesh", Scheme.DRAIN), ("mesh", Scheme.SPIN),
    ("mesh", Scheme.ESCAPE_VC),
)
PFC_SEEDS = (0x9FC1, 0x9FC2)
PFC_MESH_RATE = 0.30


def _pfc_storm():
    """Stuck pause frames (one re-pinned while still stuck) and a window of
    slow XON processing, all inside the run. Ports 3 and 20 exist on both
    topologies (32 and 48 link ports)."""
    return PauseStormSchedule(events=(
        PauseStormEvent(40, "stuck_xoff", (3, 0), duration=60),
        PauseStormEvent(70, "stuck_xoff", (3, 0), duration=50),
        PauseStormEvent(90, "resume_jitter", (0, 0), duration=90, value=5),
        PauseStormEvent(130, "stuck_xoff", (20, 0), duration=40),
    ), seed=0)


def _pfc_config(scheme, thresholds, seed, num_vns):
    vcs, pause, resume = thresholds
    config = scheme_config(scheme, FUZZ_SCALE, num_vns=num_vns,
                           vcs_per_vn=vcs, seed=seed)
    return dataclasses.replace(
        config, flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause, resume_threshold=resume,
                      headroom=1))


def _run_pfc(topo, scheme, thresholds, seed, storm, dense, engine,
             stale_sleepers=None):
    if topo == "ring":
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = _pfc_config(scheme, thresholds, seed, num_vns=1)
        traffic = FlowTraffic(
            [Flow(i, (i + 2) % 8, 0.9) for i in range(8)],
            random.Random(derive_seed(seed, "traffic", "ring")))
    else:
        topology = make_mesh(4, 4)
        config = _pfc_config(scheme, thresholds, seed, num_vns=3)
        traffic = SyntheticTraffic(
            pattern_by_name("uniform_random", 16, 4), PFC_MESH_RATE,
            random.Random(derive_seed(seed, "traffic", "uniform_random",
                                      PFC_MESH_RATE)))
    sim = Simulation(topology, config, traffic, dense=dense, engine=engine,
                     pause_storm=_pfc_storm() if storm else None)
    if stale_sleepers is not None:
        assert sim.fabric.engine_name == "vectorized"
        _audit_sleep_every(sim, 16, stale_sleepers)
    sim.run(FUZZ_SCALE.total_cycles, warmup=FUZZ_SCALE.warmup)
    if stale_sleepers is not None:
        assert sim.fabric._engine.audit_masks() == []
    return sim


def _pfc_observables(sim):
    return {"stats": sim.stats.as_dict(), "pfc": sim.fabric.pfc_summary(),
            "lcg": sim.fabric._lcg}


#: Engines compared on every PFC lane, as (dense flag, engine request).
PFC_ENGINES = {"dense": (True, None), "scalar": (False, "scalar"),
               "vectorized": (False, "vectorized")}


class TestPfcParityFuzz:
    def test_pause_lanes_agree_and_are_not_vacuous(self):
        lanes = [
            (topo, scheme, thresholds, seed, storm)
            for topo, scheme in PFC_CELLS
            for thresholds in PFC_THRESHOLDS
            for seed in PFC_SEEDS
            for storm in (False, True)
        ]
        assert len(lanes) == 112
        for lane in lanes:
            stale = []
            seen = {
                name: _pfc_observables(_run_pfc(
                    *lane, dense=dense, engine=engine,
                    stale_sleepers=stale if engine == "vectorized" else None))
                for name, (dense, engine) in PFC_ENGINES.items()
            }
            assert not stale, (
                f"PFC lane {lane}: stale sleeping routers (cycle, router) "
                f"{stale[:8]}")
            reference = seen["dense"]
            for name, observed in seen.items():
                assert observed == reference, (
                    f"{name} diverged from dense on PFC lane {lane}")
            pfc = reference["pfc"]
            assert pfc["pauses_asserted"] > 0 and pfc["pause_stalls"] > 0, (
                lane, pfc)
            if lane[-1]:
                assert pfc["forced_pauses"] == 3, lane
