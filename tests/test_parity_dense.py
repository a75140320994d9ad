"""Fast-path vs dense-reference parity: the vectorized engine's contract.

The fabric's skip-idle scheduling, flat VC buffers, routing memo caches
and reusable wait-for graphs are pure performance work — ``dense=True``
retains the pre-optimisation behaviour (full scans, no memoisation,
per-pass graph rebuilds) over the same storage. These tests pin the two
modes to bit-identical ``NetworkStats.as_dict()`` across every scheme,
topology family and load point, including mid-run fault recovery, so any
future fast-path shortcut that changes semantics (rather than just
skipping provably-idle work) fails loudly instead of drifting goldens.

The last class audits the scratch-state discipline directly: the kernel
files carry no ``# det: allow`` pragmas, the determinism lint is clean
over the whole tree, and per-instance scratch cannot leak between
fabrics or across back-to-back trials in one process.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.lint import lint_paths
from repro.core.config import Scheme
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name
from tests.conftest import on_wormhole

TINY = Scale(
    warmup=100,
    measure=300,
    fault_patterns=1,
    sweep_rates=(0.05,),
    epoch=128,
    spin_timeout=64,
)

LOW_RATE = 0.02
SATURATION_RATE = 0.30


def _topology(kind: str):
    if kind == "mesh":
        return make_mesh(4, 4), 4
    if kind == "torus":
        return make_torus(4, 4), 4
    if kind == "irregular":
        return inject_link_faults(make_mesh(4, 4), 2, random.Random(5)), None
    raise ValueError(kind)


def _summary(scheme: Scheme, topo_kind: str, rate: float, dense: bool,
             wormhole: bool = False, fault_schedule=None):
    topology, width = _topology(topo_kind)
    config = scheme_config(scheme, TINY, seed=1)
    if wormhole:
        config = on_wormhole(config)
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        rate,
        random.Random(derive_seed(1, "traffic", "uniform_random", rate)),
    )
    sim = Simulation(
        topology, config, traffic,
        fault_schedule=fault_schedule,
        dense=dense,
    )
    sim.run(TINY.total_cycles, warmup=TINY.warmup)
    return sim.stats


class TestDenseParity:
    """dense=True (reference) and dense=False (fast) are bit-identical."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("topo_kind", ["mesh", "torus", "irregular"])
    @pytest.mark.parametrize("rate", [LOW_RATE, SATURATION_RATE])
    def test_all_schemes_topologies_loads(self, scheme, topo_kind, rate):
        fast = _summary(scheme, topo_kind, rate, dense=False)
        dense = _summary(scheme, topo_kind, rate, dense=True)
        assert fast.as_dict() == dense.as_dict()

    def test_fast_forward_engages_at_idle_rate(self):
        # At a near-idle rate the event-horizon engine must actually skip
        # (not just trivially match dense because it never fired) and the
        # stats must still be bit-identical.
        topology, width = _topology("mesh")
        results = {}
        for dense in (False, True):
            config = scheme_config(Scheme.DRAIN, TINY, seed=1)
            traffic = SyntheticTraffic(
                pattern_by_name("uniform_random", topology.num_nodes, width),
                0.0005,
                random.Random(derive_seed(1, "traffic", "uniform_random",
                                          0.0005)),
            )
            sim = Simulation(topology, config, traffic, dense=dense)
            sim.run(TINY.total_cycles, warmup=TINY.warmup)
            results[dense] = sim.stats.as_dict()
            if not dense:
                assert sim.ff_spans > 0
                assert sim.ff_cycles > TINY.total_cycles // 2
            else:
                assert sim.ff_cycles == 0
        assert results[False] == results[True]

    def test_wormhole_fabric(self):
        fast = _summary(Scheme.DRAIN, "mesh", 0.10, dense=False,
                        wormhole=True)
        dense = _summary(Scheme.DRAIN, "mesh", 0.10, dense=True,
                         wormhole=True)
        assert fast.as_dict() == dense.as_dict()

    def test_mid_run_fault_recovery(self):
        # Faults land mid-measurement: the injector drops slots, rebuilds
        # routing/escape state and invalidates the memo caches. Parity
        # here proves the invalidation hooks are sufficient — a stale
        # candidate-group cache would steer the fast path differently.
        events = (
            FaultEvent(cycle=150, kind="link", target=(5, 6)),
            FaultEvent(cycle=250, kind="link", target=(9, 10)),
        )
        schedule = FaultSchedule(events=events, seed=7, onset="uniform")
        fast = _summary(Scheme.DRAIN, "mesh", 0.10, dense=False,
                        fault_schedule=schedule)
        dense = _summary(Scheme.DRAIN, "mesh", 0.10, dense=True,
                         fault_schedule=schedule)
        assert fast.as_dict() == dense.as_dict()
        assert fast.faults_applied >= 1
        assert fast.faults_applied == dense.faults_applied
        assert fast.packets_lost == dense.packets_lost


class TestScratchDiscipline:
    """Reusable scratch must stay per-instance and per-trial."""

    def test_kernel_files_carry_no_lint_pragmas(self):
        # The active-set kernel must pass the determinism lint on its own
        # merits: an audited-exception pragma in these files would hide
        # exactly the class of scratch-state bug this suite polices.
        kernel = [
            "src/repro/network/fabric.py",
            "src/repro/network/vectorized.py",
            "src/repro/network/index.py",
            "src/repro/network/wormhole.py",
            "src/repro/network/deadlock.py",
        ]
        for path in kernel:
            with open(path, "r", encoding="utf-8") as handle:
                assert "# det: allow" not in handle.read(), path
        assert lint_paths(kernel) == []

    def test_lint_clean_repo_wide(self):
        assert lint_paths(["src/repro"]) == []

    def test_no_shared_scratch_between_instances(self):
        from repro.network.fabric import Fabric
        from repro.network.index import FabricIndex
        from repro.routing.adaptive import AdaptiveMinimalRouting

        def build():
            index = FabricIndex(make_mesh(4, 4))
            config = scheme_config(Scheme.DRAIN, TINY, seed=1)
            return Fabric(index, config, AdaptiveMinimalRouting(index),
                          escape_mode="drain")

        a, b = build(), build()
        assert a._buf is not b._buf
        assert a._port_occ is not b._port_occ
        assert a._router_occ is not b._router_occ

    def test_back_to_back_trials_bit_identical_in_process(self):
        # Two identical trials in one interpreter: any scratch leaking
        # across runs (module-level caches, class attributes) would make
        # the second differ from the first.
        first = _summary(Scheme.DRAIN, "irregular", 0.10, dense=False)
        second = _summary(Scheme.DRAIN, "irregular", 0.10, dense=False)
        assert first.as_dict() == second.as_dict()


def _sim(scheme: Scheme, topo_kind: str, rate: float, *, config=None,
         fault_schedule=None):
    """Like :func:`_summary` but returns the whole Simulation object."""
    topology, width = _topology(topo_kind)
    if config is None:
        config = scheme_config(scheme, TINY, seed=1)
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        rate,
        random.Random(derive_seed(1, "traffic", "uniform_random", rate)),
    )
    sim = Simulation(topology, config, traffic, fault_schedule=fault_schedule)
    sim.run(TINY.total_cycles, warmup=TINY.warmup)
    return sim


class TestEngineMatrix:
    """The vectorized engine's reach and invalidation rules."""

    def test_vectorized_engages_and_matches_dense(self):
        sim = _sim(Scheme.DRAIN, "mesh", SATURATION_RATE)
        assert sim.fabric.engine_name == "vectorized"
        dense = _summary(Scheme.DRAIN, "mesh", SATURATION_RATE, dense=True)
        assert sim.stats.as_dict() == dense.as_dict()
        # Incremental availability masks must end the run exact.
        assert sim.fabric._engine.audit_masks() == []
        assert sim.fabric._engine.audit_sleep() == []

    def test_vectorized_mid_run_fault_recovery(self):
        # Faults land mid-measurement: the engine must rebuild its dense
        # candidate tables on each fault-epoch bump and stay bit-identical
        # to the reference sweep throughout.
        events = (
            FaultEvent(cycle=150, kind="link", target=(5, 6)),
            FaultEvent(cycle=250, kind="link", target=(9, 10)),
        )
        schedule = FaultSchedule(events=events, seed=7, onset="uniform")
        sim = _sim(Scheme.DRAIN, "mesh", 0.10, fault_schedule=schedule)
        dense = _summary(Scheme.DRAIN, "mesh", 0.10, dense=True,
                         fault_schedule=schedule)
        assert sim.fabric.engine_name == "vectorized"
        assert sim.stats.as_dict() == dense.as_dict()
        assert sim.stats.faults_applied >= 1
        engine = sim.fabric._engine
        # Initial build plus one rebuild per fault epoch.
        assert engine.rebuilds >= 1 + sim.stats.faults_applied
        assert engine.tables.epoch == sim.index.fault_epoch
        assert engine.audit_masks() == []
        assert engine.audit_sleep() == []

    def test_updown_engages_vectorized(self):
        # UPDOWN's routing function is stateful (per-packet phase bit): the
        # engine picks each packet's row by that bit.
        for topo_kind in ("mesh", "irregular"):
            sim = _sim(Scheme.UPDOWN, topo_kind, 0.10)
            assert sim.fabric.engine_name == "vectorized"
            assert sim.fabric._engine.audit_masks() == []
            assert sim.fabric._engine.audit_sleep() == []
            dense = _summary(Scheme.UPDOWN, topo_kind, 0.10, dense=True)
            assert sim.stats.as_dict() == dense.as_dict()

    def test_escape_vc_on_irregular_engages_vectorized(self):
        # ESCAPE_VC on an irregular topology escapes over up*/down*: the
        # escape rows come in phase pairs, and the run stays vectorized.
        sim = _sim(Scheme.ESCAPE_VC, "irregular", 0.10)
        assert sim.fabric.engine_name == "vectorized"
        assert sim.fabric._engine.audit_masks() == []
        assert sim.fabric._engine.audit_sleep() == []
        dense = _summary(Scheme.ESCAPE_VC, "irregular", 0.10, dense=True)
        assert sim.stats.as_dict() == dense.as_dict()

    @pytest.mark.parametrize("scheme,misroutes", [
        (Scheme.UPDOWN, 40), (Scheme.ESCAPE_VC, 29)])
    def test_apply_counts_detours_of_non_minimal_routes(self, scheme,
                                                        misroutes):
        # Up*/down* takes non-minimal legal routes on the irregular mesh
        # (bipartite, so every non-minimal route has a hop away from its
        # destination). No drain window or forced hop runs under either
        # scheme: every misroute here is counted by the engine's apply
        # pass, and equals the reference sweep's.
        sim = _sim(scheme, "irregular", 0.10)
        assert sim.fabric.engine_name == "vectorized"
        assert sim.drain_controller is None and sim.spin_controller is None
        assert sim.stats.misroutes == misroutes
        dense = _summary(scheme, "irregular", 0.10, dense=True)
        assert sim.stats.as_dict() == dense.as_dict()

    @pytest.mark.parametrize("scheme,topo_kind,detours", [
        (Scheme.DRAIN, "mesh", False),
        (Scheme.SPIN, "mesh", False),
        (Scheme.ESCAPE_VC, "mesh", False),  # escapes over DOR
        (Scheme.ESCAPE_VC, "torus", True),  # DOR ignores the wrap links
        (Scheme.ESCAPE_VC, "irregular", True),  # escapes over up*/down*
        (Scheme.UPDOWN, "mesh", True),
    ])
    def test_detour_flag(self, scheme, topo_kind, detours):
        # The apply pass reads distance rows only when some table a plan
        # reads may detour.
        topology, width = _topology(topo_kind)
        traffic = SyntheticTraffic(
            pattern_by_name("uniform_random", topology.num_nodes, width),
            0.0, random.Random(1))
        sim = Simulation(topology, scheme_config(scheme, TINY, seed=1),
                         traffic)
        engine = sim.fabric._engine
        engine._build_tables()
        assert engine._detours is detours

    def test_detour_flag_follows_the_fault_epoch(self):
        sim = _sim(Scheme.DRAIN, "mesh", 0.10)
        engine, index = sim.fabric._engine, sim.index
        assert not engine._detours
        # Faulted, not yet rebuilt: the tables predate the live distances.
        index.apply_faults({0, index.link_reverse[0]}, set())
        engine._build_tables()
        assert engine._detours
        sim.fabric.routing.rebuild()
        sim.fabric.invalidate_routing_cache()
        engine._build_tables()
        assert not engine._detours

    def test_every_structure_engages_vectorized(self):
        import dataclasses

        base = scheme_config(Scheme.DRAIN, TINY, seed=1)
        # Every VC count an availability byte holds, at every packet size.
        for vcs in range(1, 9):
            for flits in (1, 2, 4):
                cfg = dataclasses.replace(base, network=dataclasses.replace(
                    base.network, vcs_per_vn=vcs, packet_size_flits=flits))
                sim = _sim(Scheme.DRAIN, "mesh", 0.10, config=cfg)
                assert sim.fabric.engine_name == "vectorized", (vcs, flits)
                assert sim.fabric._engine.audit_masks() == []
                assert sim.fabric._engine.audit_sleep() == []
        # More than a byte's worth of VCs is not a network this builds.
        with pytest.raises(ValueError, match="at most 8 VCs"):
            dataclasses.replace(base.network, vcs_per_vn=9)

    def test_wormhole_reports_wormhole(self):
        # The wormhole fabric is a standalone flit pipeline; it says so
        # through the same attribute.
        sim = _sim(Scheme.DRAIN, "mesh", 0.10,
                   config=on_wormhole(scheme_config(Scheme.DRAIN, TINY,
                                                    seed=1)))
        assert sim.fabric.engine_name == "wormhole"

    def test_archived_engine_key_is_rejected(self):
        # The engine is chosen by the fabric's structure alone; a config
        # archived while it was a knob fails like any unknown key.
        from repro.core.configio import config_from_dict, config_to_dict

        payload = config_to_dict(scheme_config(Scheme.DRAIN, TINY, seed=1))
        payload["engine"] = "auto"
        with pytest.raises(ValueError, match=r"top-level keys: \['engine'\]"):
            config_from_dict(payload)
