"""Differential parity fuzzing of the movement engine against its oracle.

The fabric moves packets with one kernel, the vectorized engine, and keeps
the dense reference sweep (``dense=True``) as its oracle; the two are
contractually bit-identical (see DESIGN.md, "Vectorized kernel"). The
dense-parity suite pins hand-picked scenarios; this layer sweeps a
pinned-seed randomized configuration pool across scheme x topology x load
x fault schedule x fault policy x packet size x VC count x flow control
and asserts full ``NetworkStats.as_dict()`` equality between the two for
every configuration, plus a digest of each run pinned in ``POOL_PINS``.

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

A fifth lane covers up*/down*, the one routing function with per-packet
state (the phase bit): UPDOWN, and ESCAPE_VC escaping over up*/down*, on
an irregular mesh and a random-regular network, at low load and at
saturation, with and without mid-run link faults that force a relabel.
Stats, final LCG and watchdog payload must match dense and digests
recorded before up*/down* moved onto CSR tables; so must the certifier's
verdicts and Fig. 5's mean route lengths.
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
from repro.faults import FAULT_POLICIES, PauseStormEvent, PauseStormSchedule
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.trials import execute_trial, fault_recovery_trial
from repro.network.index import FabricIndex
from repro.store import digest
from repro.topology.datacenter import make_leaf_spine
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus
from repro.topology.randomized import make_random_regular

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

#: Schemes whose routing stack survives a runtime link fault on every pool
#: topology (the injector rebuilds every routing function; DOR, the
#: ESCAPE_VC escape function on the mesh, has no rebuild story, so the pool
#: fuzzes ESCAPE_VC fault-free; up*/down* rebuilds and has its own lane).
FAULT_SAFE_SCHEMES = (Scheme.DRAIN, Scheme.NONE)

#: Schemes of the pool's first multi-flit and single-VC entries.
STRUCTURAL_SCHEMES = (Scheme.DRAIN, Scheme.NONE, Scheme.SPIN)

MASTER_SEED = 0xD5A1B


def _fault_schedule(seed: int, kind: str = "links") -> FaultSchedule:
    # Links (5,6) and (9,10) exist in both the 4x4 mesh and torus; both
    # events land inside the measured window, exercising the engines'
    # fault-epoch table invalidation mid-run. The mixed schedule kills
    # router 10 in place of the second link.
    second = (FaultEvent(cycle=200, kind="link", target=(9, 10))
              if kind == "links"
              else FaultEvent(cycle=200, kind="router", target=(10, -1)))
    return FaultSchedule(
        events=(FaultEvent(cycle=120, kind="link", target=(5, 6)), second),
        seed=seed,
        onset="uniform",
    )


def _build_pool():
    """The pinned fuzz pool: >= 25 deterministic configurations."""
    master = random.Random(MASTER_SEED)
    pool = []

    def add(scheme, topo, rate, faults, vcs=2, flits=1,
            policy="drop_retransmit", flow="credit"):
        pool.append({
            "scheme": scheme,
            "topo": topo,
            "rate": rate,
            "faults": faults,
            "vcs": vcs,
            "flits": flits,
            "policy": policy,
            "flow": flow,
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
    # Serialised transfers and a single VC per VN (appended likewise): 2-
    # and 4-flit packets, and one VC per VN.
    for flits in (2, 4):
        for scheme in STRUCTURAL_SCHEMES:
            add(scheme, "mesh", master.choice(LOAD_POINTS), None, flits=flits)
    for scheme in STRUCTURAL_SCHEMES:
        add(scheme, "mesh", master.choice(LOAD_POINTS), None, vcs=1)
    # The rest of the multi-flit and single-VC configurations the shipped
    # experiments can build (appended likewise): the escape disciplines
    # at 2 and 4 flits, up*/down* and its escape use at one VC, multi-flit
    # transfers cut by mid-run link and router deaths under both fault
    # policies, and a 2-flit pause/resume fabric.
    for flits in (2, 4):
        for scheme in (Scheme.ESCAPE_VC, Scheme.STATIC_BUBBLE):
            add(scheme, "mesh", master.choice(LOAD_POINTS), None, flits=flits)
    for scheme in (Scheme.UPDOWN, Scheme.ESCAPE_VC):
        add(scheme, "irregular", master.choice(LOAD_POINTS), None, vcs=1)
    for scheme in FAULT_SAFE_SCHEMES:
        for policy in FAULT_POLICIES:
            add(scheme, "mesh", master.choice(LOAD_POINTS[1:]), "mixed",
                flits=4, policy=policy)
    add(Scheme.DRAIN, "mesh", 0.30, None, flits=2, flow="pause_resume")
    return pool


POOL = _build_pool()

#: ``_run_digest`` of each pool entry's fast run, in pool order. The
#: entries from the multi-flit and single-VC block on were recorded on the
#: scalar kernel, before those configurations moved onto the vectorized
#: engine.
POOL_PINS = [
    "76d9e7ac40028ea0", "9cddba024894e205", "a9a4f2a93e795cb2",
    "df3a87f0bf96bf02", "a4806f2cdf5184a3", "6a82127eea043b5b",
    "bad680fffc015d8f", "439977f9a413f0ba", "fc4925d0fb6d522e",
    "69f96413062ed2aa", "dbc5736f361b8b5e", "3d84088af883ea2a",
    "986b56915b77880a", "83e6a10bb20cf1d5", "2c0736124e50e11a",
    "4379f7909913f1fb", "b6de51cd8df0f13b", "e80627d0ce84fcf5",
    "4110f6c9b40fb711", "2cfd7c3b4bdbb5e7", "69adf1b1a703e18d",
    "07ab502efb1b9129", "52696d56696d5616", "e4d8a02b15788bab",
    "b25d64a038f49af7", "d123f7c34ae5a32a", "26ed49fe9d53d509",
    "65c7f904879e7dc1", "a2edcd5d6f1a0e03", "f834560fbd16a0c8",
    "e345da375d9ffb17", "d2c40c56fa8b5e12", "a9da2720935e949f",
    "edf66d6cdf12c030", "eee63a76b816b60a", "e2ada48b3fc6ed71",
    "9fb414aab3361399", "63c2503f5d059af5", "92a66701373d97f1",
    "08eb89650a4db49a", "190e01d61b95294c", "fb8b15612021c598",
    "391c26b5f77ed4b6", "f6d94b9ad61bb9c4", "0b2321921a04c046",
    "228443f7df77ccb6", "5c6b3f90fa7028af", "1790f8d72b7e86a3",
    "6d863d0672742805", "f76b900602d44678", "4cb4f04e06ebbb7a",
    "9a485f98154196de", "7d7d5ffdd26ab5a6", "bc79a3aec50ed770",
    "a927072b0394f90f", "47c1855098941227", "bb898e2a30c7d732",
    "f03d596adb0aca00",
]


def _topology(kind: str, seed: int):
    if kind == "mesh":
        return make_mesh(4, 4), 4
    if kind == "torus":
        return make_torus(4, 4), 4
    # Irregular: a 4x4 mesh with two pinned-seed link faults baked in.
    return inject_link_faults(make_mesh(4, 4), 2,
                              random.Random(seed % 97 + 1)), None


def _audit_sleep_every(sim, period, stale, masks=False):
    """Append (cycle, router) to *stale* for every sleeping router that
    ``audit_sleep`` refutes, checked after every *period*-th fabric step;
    with *masks*, (cycle, "mask", byte) for every availability byte
    ``audit_masks`` refutes too."""
    fabric = sim.fabric
    engine = fabric._engine
    step = fabric.step

    def audited_step():
        step()
        if fabric.cycle % period == 0:
            stale.extend((fabric.cycle, r) for r in engine.audit_sleep())
            if masks:
                stale.extend((fabric.cycle, "mask", ai)
                             for ai in engine.audit_masks())

    fabric.step = audited_step


def _config(entry):
    config = scheme_config(entry["scheme"], FUZZ_SCALE, seed=entry["seed"],
                           vcs_per_vn=entry["vcs"])
    config = dataclasses.replace(config, network=dataclasses.replace(
        config.network, packet_size_flits=entry["flits"]))
    if entry["flow"] == "pause_resume":
        config = dataclasses.replace(
            config, flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=1, resume_threshold=0, headroom=1))
    return config


def _structural(entry):
    """Serialised transfers or a single VC per VN: audited every cycle."""
    return entry["flits"] > 1 or entry["vcs"] == 1


def _run(entry, dense, stale_sleepers=None):
    topology, width = _topology(entry["topo"], entry["seed"])
    config = _config(entry)
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        entry["rate"],
        random.Random(derive_seed(entry["seed"], "traffic", "uniform_random",
                                  entry["rate"])),
    )
    schedule = None
    if entry["faults"] is not None:
        schedule = _fault_schedule(entry["seed"] & 0xFFFF, entry["faults"])
    sim = Simulation(topology, config, traffic, dense=dense,
                     fault_schedule=schedule, fault_policy=entry["policy"])
    if stale_sleepers is not None:
        structural = _structural(entry)
        _audit_sleep_every(sim, 1 if structural else 16, stale_sleepers,
                           masks=structural)
    sim.run(FUZZ_SCALE.total_cycles, warmup=FUZZ_SCALE.warmup)
    return sim


def _repro_blob(entry, engines):
    topology, _ = _topology(entry["topo"], entry["seed"])
    return {
        "config": config_to_dict(_config(entry)),
        "topology": entry["topo"],
        "topology_name": topology.name,
        "rate": entry["rate"],
        "fault_schedule": entry["faults"],
        "fault_policy": entry["policy"],
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
        assert len({tuple(e.values()) for e in POOL}) == len(POOL)
        assert len(POOL_PINS) == len(POOL)

    def test_differential_sweep(self):
        engines = []
        digests = []
        for i, entry in enumerate(POOL):
            dense = _run(entry, dense=True)
            # The sleeping-router flags are audited where routers sleep
            # (saturation), where their inputs change under them (mid-run
            # faults), and — every cycle, masks too — wherever transfers
            # serialise or a row holds one VC.
            audited = (entry["rate"] == 0.30 or entry["faults"] is not None
                       or _structural(entry))
            stale = [] if audited else None
            fast = _run(entry, dense=False, stale_sleepers=stale)
            assert not stale, (
                f"pool entry {i}: stale sleeping routers or masks "
                f"{stale[:8]}")
            engine = fast.fabric.engine_name
            engines.append(engine)
            digests.append(_run_digest(fast))
            results = {"dense": dense.stats.as_dict(),
                       engine: fast.stats.as_dict()}
            if results["dense"] != results[engine]:
                blob = _repro_blob(entry, list(results))
                blob["resolved_engine"] = engine
                path = Path(tempfile.gettempdir()) / (
                    f"parity_fuzz_repro_{i}.json"
                )
                path.write_text(json.dumps(blob, indent=2, sort_keys=True))
                diverging = [
                    key for key in results["dense"]
                    if results["dense"][key] != results[engine][key]
                ]
                raise AssertionError(
                    f"engine divergence on pool entry {i} "
                    f"(fields: {diverging}); repro written to {path}:\n"
                    + json.dumps(blob, indent=2, sort_keys=True)
                )
        # One kernel moves every configuration.
        assert engines == ["vectorized"] * len(POOL)
        assert digests == POOL_PINS

    def test_fault_configs_apply_faults(self):
        # The fault entries must actually exercise the mid-run rebuild.
        entry = next(e for e in POOL if e["faults"] is not None)
        sim = _run(entry, dense=False)
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
    entry and one set of routing tables — while seeds and rates vary per
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
        # One memo entry serves four disciplines at once: DRAIN, ESCAPE_VC
        # (its merged engine table a part too), UPDOWN (the up*/down*
        # tables part) and a fault_recovery member whose faults must stay
        # on its own index.
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


def _run_pfc(topo, scheme, thresholds, seed, storm, dense,
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
    sim = Simulation(topology, config, traffic, dense=dense,
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
            reference = _pfc_observables(_run_pfc(*lane, dense=True))
            observed = _pfc_observables(_run_pfc(*lane, dense=False,
                                                 stale_sleepers=stale))
            assert not stale, (
                f"PFC lane {lane}: stale sleeping routers (cycle, router) "
                f"{stale[:8]}")
            assert observed == reference, (
                f"vectorized diverged from dense on PFC lane {lane}")
            pfc = reference["pfc"]
            assert pfc["pauses_asserted"] > 0 and pfc["pause_stalls"] > 0, (
                lane, pfc)
            if lane[-1]:
                assert pfc["forced_pauses"] == 3, lane


# ----------------------------------------------------------------------
# Up*/down* lane: the phase-stateful routing, as main and as escape
# ----------------------------------------------------------------------
#: The lane's two networks: a 4x4 mesh with two links baked out (ESCAPE_VC
#: cannot use DOR there) and a pinned random 4-regular graph.
UPDOWN_TOPOLOGIES = ("irregular", "random_regular")


def _updown_topology(kind):
    if kind == "irregular":
        return inject_link_faults(make_mesh(4, 4), 2, random.Random(5))
    return make_random_regular(16, 4, random.Random(7))


def _build_updown_lane():
    """(scheme, topology kind, rate, faulted, seed) per lane member."""
    master = random.Random(MASTER_SEED ^ 0x0D0A1)
    return [
        (scheme, kind, rate, faulted, master.randrange(1, 2 ** 31))
        for scheme in (Scheme.UPDOWN, Scheme.ESCAPE_VC)
        for kind in UPDOWN_TOPOLOGIES
        for rate in (0.02, 0.30)
        for faulted in (False, True)
    ]


def _run_updown(member, dense, stale_sleepers=None):
    scheme, kind, rate, faulted, seed = member
    topology = _updown_topology(kind)
    config = scheme_config(scheme, FUZZ_SCALE, seed=seed)
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, None), rate,
        random.Random(derive_seed(seed, "traffic", "uniform_random", rate)))
    schedule = None
    if faulted:
        # Two live links die inside the measured window: each one forces
        # an up*/down* relabel and table rebuild mid-run.
        links = topology.bidirectional_links()
        schedule = FaultSchedule(events=(
            FaultEvent(cycle=120, kind="link", target=links[3]),
            FaultEvent(cycle=200, kind="link", target=links[-3]),
        ), seed=seed & 0xFFFF, onset="uniform")
    sim = Simulation(topology, config, traffic, dense=dense,
                     halt_on_deadlock=True, fault_schedule=schedule)
    if stale_sleepers is not None:
        _audit_sleep_every(sim, 16, stale_sleepers)
    sim.run(FUZZ_SCALE.total_cycles, warmup=FUZZ_SCALE.warmup)
    return sim


def _run_digest(sim):
    """blake2b-64 of the run's stats, final LCG and watchdog payload."""
    watchdog = sim.watchdog
    return _result_digest({"stats": sim.stats.as_dict(),
                           "lcg": sim.fabric._lcg,
                           "watchdog": (watchdog.cycle_payload
                                        if watchdog is not None else None)})


#: blake2b-64 of each lane member's digest payload, recorded on the scalar
#: kernel with up*/down* held as an n x 2n list of (link, phase) choices;
#: the vectorized engine over the CSR phase tables must reproduce them.
UPDOWN_PINS = [
    "aed36f0699bd47d1", "a3264d5060fda477", "8a2f284cd24247f1",
    "befea276e0522180", "aaf01ae10d1ca53e", "7f262581e109a433",
    "25e6c81ed57f10e9", "dcb786814d82b13a", "2e6ed33b2eabed4c",
    "5712960a7e37e399", "67b1f1c366027df9", "66374d0280a6529d",
    "278d9d86575154ac", "723356395e118d88", "37f76ac388441d8c",
    "84dd83a3256fb477",
]

#: Fig. 5's input: mean legal up*/down* route length, by fault count on the
#: 8x8 mesh (faults drawn from ``random.Random(faults)``).
ROUTE_LENGTH_PINS = {0: 5.333333333333333, 4: 5.493055555555555,
                     12: 5.926587301587301}

#: blake2b-64 of the certificate each configuration gets.
CERTIFICATE_PINS = {
    "irregular/updown": "54423969f4af49d1",
    "irregular/escape_vc": "d8e3fb60c5ae6e4a",
    "random_regular/updown": "b12ea6f42166b1a0",
    "random_regular/escape_vc": "d8fbddc8a9c0e6a1",
    "mesh8x8-f4/updown": "abe95c464274dc51",
    "mesh8x8-f4/escape_vc": "a9686f7efae165dc",
}


def _fig5_mesh(faults):
    mesh = make_mesh(8, 8)
    if not faults:
        return mesh
    return inject_link_faults(mesh, faults, random.Random(faults))


class TestUpDownParityFuzz:
    def test_lane_is_pinned(self):
        lane = _build_updown_lane()
        assert lane == _build_updown_lane() and len(lane) == 16

    def test_runs_match_dense_and_their_pins(self):
        digests = []
        for member in _build_updown_lane():
            stale = []
            fast = _run_updown(member, dense=False, stale_sleepers=stale)
            dense = _run_updown(member, dense=True)
            assert fast.fabric.engine_name == "vectorized", member
            assert not stale and fast.fabric._engine.audit_masks() == [], (
                member, stale[:8])
            assert fast.stats.as_dict() == dense.stats.as_dict(), member
            assert fast.fabric._lcg == dense.fabric._lcg, member
            assert not fast.deadlocked, member
            if member[3]:
                assert fast.stats.faults_applied == 2, member
            digests.append(_run_digest(fast))
        assert digests == UPDOWN_PINS

    def test_fig5_route_lengths(self):
        from repro.routing.updown import UpDownRouting

        for faults, expected in ROUTE_LENGTH_PINS.items():
            index = FabricIndex(_fig5_mesh(faults))
            for deterministic in (True, False):
                routing = UpDownRouting(index, deterministic=deterministic)
                assert routing.average_route_length() == expected, faults

    def test_certificates(self):
        from repro.analysis.certifier import certify_configuration

        topologies = {
            "irregular": _updown_topology("irregular"),
            "random_regular": _updown_topology("random_regular"),
            "mesh8x8-f4": _fig5_mesh(4),
        }
        seen = {}
        for name, topology in topologies.items():
            for scheme in (Scheme.UPDOWN, Scheme.ESCAPE_VC):
                cert = certify_configuration(topology, scheme)
                assert cert.certified, (name, scheme)
                seen[f"{name}/{scheme.value}"] = _result_digest(
                    cert.as_dict())
        assert seen == CERTIFICATE_PINS
