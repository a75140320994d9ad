"""Tests for compiled network structure: the memo and its on-disk codec.

Covers digest stability across processes, the one in-process memo
(compile once per process with the store off, isolation of per-simulation
fault state, staleness, LRU eviction), warm-vs-cold bit-identical trial
rows, corruption-detect-and-recompute, fault-epoch invalidation of
memoised tables, and the compile-once warm-start protocol under
concurrent workers.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import structcache
from repro.analysis.preflight import clear_preflight_cache, validate_spec
from repro.core.config import Scheme
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config, synthetic_trial_for
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness import Harness, execute_trial, trials
from repro.harness.trials import (
    fault_recovery_trial,
    structural_params,
    topology_from_spec,
)
from repro.network.index import FabricIndex
from repro.network.vectorized import VectorizedEngine
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.store import ARRAY_FORMAT
from repro.structcache import memo
from repro.topology.datacenter import make_leaf_spine
from repro.topology.graph import Topology
from repro.topology.mesh import make_mesh, make_ring
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

TINY = Scale(warmup=60, measure=200, fault_patterns=1,
             sweep_rates=(0.04,), epoch=256, spin_timeout=64)


@pytest.fixture()
def store(tmp_path):
    """A fresh active store for one test; deactivated afterwards."""
    structcache.clear_memos()
    st = structcache.activate(tmp_path / "structs")
    yield st
    structcache.deactivate()
    structcache.clear_memos()


@pytest.fixture(autouse=True)
def _inactive_by_default():
    """Tests not using the ``store`` fixture run store-less (the library
    default); whatever a test did, the next one starts clean."""
    yield
    structcache.deactivate()
    structcache.clear_memos()


def tiny_spec(seed=1, scheme=Scheme.DRAIN, rate=0.05):
    return synthetic_trial_for(
        make_mesh(4, 4), scheme, rate, TINY, mesh_width=4, seed=seed
    )


def dist_rows(topology):
    """The memoised distance matrix of *topology*, as nested lists."""
    return structcache.distance_matrix(topology).tolist()


def csr(net):
    """The CSR arrays of a memo entry's routing tables."""
    tables = net.parts["tables"]
    return tables.offsets, tables.links


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_digest_stable_across_processes(self):
        code = (
            "from repro.structcache import structure_digest, "
            "topology_digest, topology_payload\n"
            "from repro.core.configio import config_to_dict\n"
            "from repro.experiments.common import scheme_config, Scale\n"
            "from repro.core.config import Scheme\n"
            "from repro.topology.mesh import make_mesh\n"
            "t = make_mesh(4, 4)\n"
            "c = config_to_dict(scheme_config("
            "Scheme.DRAIN, Scale.ci(), seed=5))\n"
            "print(topology_digest(t))\n"
            "print(structure_digest(topology_payload(t), c))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        topology = make_mesh(4, 4)
        config = config_to_dict(scheme_config(Scheme.DRAIN, Scale.ci(), seed=5))
        assert out[0] == structcache.topology_digest(topology)
        assert out[1] == structcache.structure_digest(
            structcache.topology_payload(topology), config
        )

    def test_structure_digest_ignores_seed_only(self):
        topology = structcache.topology_payload(make_mesh(4, 4))
        base = config_to_dict(scheme_config(Scheme.DRAIN, TINY, seed=1))
        reseeded = dict(base, seed=99)
        rescheme = dict(base, scheme="spin")
        assert (structcache.structure_digest(topology, base)
                == structcache.structure_digest(topology, reseeded))
        assert (structcache.structure_digest(topology, base)
                != structcache.structure_digest(topology, rescheme))

    def test_structural_params_of_specs(self):
        spec = tiny_spec()
        topo, config = structural_params(spec)
        assert topo == spec.params["topology"]
        assert config == spec.params["config"]


# ----------------------------------------------------------------------
# Store round-trips and corruption
# ----------------------------------------------------------------------
class TestStoreArtifacts:
    def test_distances_roundtrip_and_counters(self, store):
        topology = make_mesh(4, 4)
        cold = dist_rows(topology)
        assert store.compiles == 1 and store.misses == 1
        structcache.clear_memos()
        warm = dist_rows(topology)
        assert warm == cold == [topology.bfs_distances(r)
                                for r in topology.nodes]
        assert store.hits == 1 and store.compiles == 1

    def test_distance_matrix_is_read_only(self, store):
        # Every caller shares the one matrix; a write would poison every
        # later consumer, so it is refused, cold or loaded from the store.
        topology = make_mesh(4, 4)
        for _ in range(2):
            with pytest.raises(ValueError):
                structcache.distance_matrix(topology)[0, 1] = -77
            assert structcache.distance_matrix(topology)[0, 1] == 1
            structcache.clear_memos()
        assert store.hits == 1

    def test_truncated_array_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = dist_rows(topology)
        [npy] = list(store.root.glob("dist/*/*/dist.npy"))
        npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        structcache.clear_memos()
        assert dist_rows(topology) == reference
        assert store.corrupt == 1
        # The corrupt entry was replaced by a fresh, loadable one.
        structcache.clear_memos()
        assert dist_rows(topology) == reference
        assert store.corrupt == 1

    def test_garbage_meta_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = dist_rows(topology)
        [meta] = list(store.root.glob("dist/*/*/meta.json"))
        meta.write_text("{not json")
        structcache.clear_memos()
        assert dist_rows(topology) == reference
        assert store.corrupt == 1

    def test_entry_without_meta_is_repaired(self, store):
        # What a killed rmtree leaves: the arrays without their meta.json.
        topology = make_mesh(4, 4)
        reference = dist_rows(topology)
        [meta] = list(store.root.glob("dist/*/*/meta.json"))
        meta.unlink()
        structcache.clear_memos()
        assert dist_rows(topology) == reference
        assert (store.corrupt, store.compiles) == (1, 2)
        assert meta.exists()
        structcache.clear_memos()
        hits = store.hits
        assert dist_rows(topology) == reference
        assert (store.hits, store.corrupt, store.compiles) == (hits + 1, 1, 2)

    def test_parts_roundtrip(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = structcache.parts_for(topology, config)
        assert {"dist", "numbering", "tables", "drain_links"} <= set(cold.parts)
        compiled = store.compiles
        structcache.clear_memos()
        warm = structcache.parts_for(topology, config)
        assert warm is not cold
        assert store.compiles == compiled  # pure load, no recompile
        for a, b in zip(csr(cold), csr(warm)):
            assert a.tolist() == b.tolist()
        assert warm.parts["drain_links"] == cold.parts["drain_links"]

    def test_parts_fill_the_memo_with_the_store_off(self):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        net = structcache.parts_for(topology, config)
        assert structcache.stats() is None
        assert net is structcache.compiled(make_mesh(4, 4))
        assert {"dist", "numbering", "tables", "drain_links"} <= set(net.parts)
        # Up*/down* boots from its own tables, not the adaptive ones, and
        # from no drain cycle.
        structcache.clear_memos()
        updown = scheme_config(Scheme.UPDOWN, TINY, seed=1)
        assert set(structcache.parts_for(topology, updown).parts) == {
            "dist", "numbering", ("updown", 0)}

    def test_truncated_routing_recomputes(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = csr(structcache.parts_for(topology, config))
        [npy] = list(store.root.glob("routing/*/*/links.npy"))
        npy.write_bytes(npy.read_bytes()[:64])
        structcache.clear_memos()
        hits, misses = store.hits, store.misses
        warm = csr(structcache.parts_for(topology, config))
        assert store.corrupt == 1
        # dist and drain loaded; the truncated routing artefact is a miss.
        assert (store.hits, store.misses) == (hits + 2, misses + 1)
        for a, b in zip(cold, warm):
            assert a.tolist() == b.tolist()

    def test_wrong_shape_artefacts_are_misses_not_hits(self, store):
        # Well-formed artefacts of a *smaller* topology planted under this
        # topology's key: each matches its own metadata, none matches the
        # live topology, so each is corrupt + a miss (never a hit),
        # deleted, and recompiled.
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        reference = structcache.parts_for(topology, config)
        small = structcache.parts_for(make_ring(5), config)
        structcache.clear_memos()
        for kind, arrays in (
            ("dist", {"dist": small.parts["dist"]}),
            ("routing", dict(zip(("offsets", "links"), csr(small)))),
            ("drain", {end: np.array(
                [getattr(link, end) for link in small.parts["drain_links"]],
                dtype=np.int32) for end in ("src", "dst")}),
        ):
            store.clear(structcache.KINDS)
            store.put_arrays(kind, reference.digest, arrays)
            structcache.clear_memos()
            before = store.stats()
            again = structcache.parts_for(topology, config)
            after = store.stats()
            assert after["corrupt"] == before["corrupt"] + 1, kind
            assert after["hits"] == before["hits"], kind
            assert after["misses"] == before["misses"] + 3, kind
            assert after["compiles"] == before["compiles"] + 3, kind
            assert again.parts["dist"].tolist() == reference.parts[
                "dist"].tolist()
            assert again.parts["drain_links"] == reference.parts["drain_links"]
            for a, b in zip(csr(again), csr(reference)):
                assert a.tolist() == b.tolist()
            assert store.counts(structcache.KINDS)[kind] == 1

    def test_format_1_artefact_is_discarded_not_read(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        reference = csr(structcache.parts_for(topology, config))
        [meta] = list(store.root.glob("routing/*/*/meta.json"))
        payload = json.loads(meta.read_text())
        assert payload["format"] == ARRAY_FORMAT == 2
        meta.write_text(json.dumps(dict(payload, format=1)))
        structcache.clear_memos()
        compiles = store.compiles
        again = csr(structcache.parts_for(topology, config))
        assert store.corrupt == 1 and store.compiles == compiles + 1
        assert not any(isinstance(arr.base, np.memmap) for arr in again)
        for a, b in zip(again, reference):
            assert a.tolist() == b.tolist()
        [meta] = list(store.root.glob("routing/*/*/meta.json"))
        assert json.loads(meta.read_text())["format"] == 2


# ----------------------------------------------------------------------
# The in-process memo (store off unless a test says otherwise)
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCompiledNetworkMemo:
    def test_one_process_compiles_one_topology_once(self, monkeypatch):
        bfs = _count_calls(monkeypatch, Topology, "_all_pairs_numpy")
        routing = _count_calls(monkeypatch, AdaptiveMinimalRouting, "_compile")
        merged = _count_calls(monkeypatch, VectorizedEngine, "_merge_tables")
        structcache.clear_memos()
        assert structcache.active_store() is None
        specs = [tiny_spec(seed=1), tiny_spec(seed=2),
                 tiny_spec(seed=3, scheme=Scheme.ESCAPE_VC),
                 tiny_spec(seed=4, scheme=Scheme.SPIN),
                 tiny_spec(seed=5, scheme=Scheme.ESCAPE_VC)]
        first = [execute_trial(spec) for spec in specs]
        assert len(bfs) == 1 and len(routing) == 1
        # The engine compiles one table of its own, ESCAPE_VC's merged
        # one: once per topology, however many ESCAPE_VC trials read it.
        assert [e.fabric.escape_mode for e in merged] == ["escape_vc"]
        # ... and the memoised table changes nothing.
        structcache.clear_memos()
        assert [execute_trial(spec) for spec in reversed(specs)] == first[::-1]

    def test_fault_state_is_private_to_each_simulation(self):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=5)
        schedule = FaultSchedule(
            events=(FaultEvent(cycle=100, kind="link", target=(5, 6)),),
            seed=3, onset="uniform",
        )
        faulted = fault_recovery_trial(
            topology, config, 0.08, cycles=TINY.total_cycles,
            warmup=TINY.warmup, schedule=schedule, mesh_width=4,
        )
        clean = tiny_spec(seed=5, rate=0.08)
        reference = []
        for spec in (faulted, clean):
            structcache.clear_memos()
            reference.append(execute_trial(spec))
        assert reference[0]["faults"]["faults_applied"] == 1
        structcache.clear_memos()
        assert [execute_trial(faulted), execute_trial(clean),
                execute_trial(faulted)] == reference + reference[:1]

        # Faults land on one simulation's index, never on the memo entry.
        index = FabricIndex(topology)
        net = index.compiled
        boot = net.parts["dist"].tolist()
        tables = AdaptiveMinimalRouting(index).compiled_tables
        index.apply_faults({0, index.link_reverse[0]}, set())
        assert [list(r) for r in index.dist] != boot
        fresh = FabricIndex(make_mesh(4, 4))
        assert fresh.compiled is net
        assert (fresh.fault_epoch, fresh.dead_links, fresh.dead_routers) == (
            0, set(), set())
        assert [list(r) for r in fresh.dist] == boot == net.parts[
            "dist"].tolist()
        assert fresh.dist is not index.dist and fresh.in_ports is index.in_ports
        assert net.parts["tables"] is tables and tables.epoch == 0
        assert not net.parts["dist"].flags.writeable

    def test_boot_rows_are_views_of_the_memo_matrix(self):
        # At epoch 0 an index holds no copy of the boot matrix: its rows
        # are read-only views of the memo's array.
        topology = make_mesh(4, 4)
        index = FabricIndex(topology)
        matrix = index.compiled.parts["dist"]
        boot = matrix.tolist()
        assert boot == [topology.bfs_distances(r) for r in topology.nodes]
        for row, values in zip(index.dist, boot):
            assert isinstance(row, memoryview) and row.readonly
            assert np.shares_memory(np.asarray(row), matrix)
            assert list(row) == values
        with pytest.raises(TypeError):
            index.dist[0][1] = 7
        # A fault installs read-only views of its own matrix, in the same
        # list, and leaves the memo's matrix untouched.
        rows = index.dist
        index.apply_faults({0, index.link_reverse[0]}, set())
        live = index.dist_matrix()
        assert index.dist is rows
        assert live is not matrix and not live.flags.writeable
        for row in rows:
            assert isinstance(row, memoryview) and row.readonly
            assert np.shares_memory(np.asarray(row), live)
        survivor = index.surviving_topology()
        assert [list(row) for row in rows] == live.tolist() == [
            survivor.bfs_distances(r) for r in survivor.nodes] != boot
        with pytest.raises(TypeError):
            rows[0][1] = 7
        assert matrix.tolist() == boot and not matrix.flags.writeable

    def test_faulted_or_rerouted_fabrics_never_read_memoised_rows(self):
        def sim_for(seed):
            traffic = SyntheticTraffic(
                pattern_by_name("uniform_random", 16, 4), 0.2,
                random.Random(seed))
            return Simulation(make_mesh(4, 4),
                              scheme_config(Scheme.DRAIN, TINY, seed=seed),
                              traffic)

        def reads(engine, tables):
            """True when both plans scan exactly *tables*' arrays."""
            return all(plan[0] is tables.offsets_view
                       and plan[1] is tables.links_view
                       for plan in (engine._plan, engine._esc_plan))

        donor = sim_for(1)
        donor.run(40)
        net = donor.index.compiled
        boot = net.parts["tables"]
        assert reads(donor.fabric._engine, boot)

        # A second simulation shares them ...
        twin = sim_for(2)
        twin.run(40)
        assert reads(twin.fabric._engine, boot)
        assert twin.fabric._engine.rebuilds == 1

        # ... until its fault epoch moves: plans over the epoch-1 tables.
        index = twin.index
        index.apply_faults({0, index.link_reverse[0]}, set())
        twin.fabric.routing.rebuild()
        twin.run(40)
        engine = twin.fabric._engine
        assert engine.rebuilds == 2 and engine._used0[0] == 1
        assert engine.tables.epoch == 1 and engine.tables is not boot
        assert reads(engine, twin.fabric.routing.compiled_tables)
        assert net.parts["tables"] is boot and boot.epoch == 0

        # A replaced routing function at epoch 0 is read as well.
        other = sim_for(3)
        fabric = other.fabric
        fabric.routing = AdaptiveMinimalRouting(
            other.index, tables=fabric.routing._compile(strict=True))
        fabric.invalidate_routing_cache()
        other.run(40)
        own = fabric.routing.compiled_tables
        assert own is not boot and reads(fabric._engine, own)

    def test_memo_evicts_least_recently_used(self):
        limit = memo._MEMO_LIMIT
        specs = [
            synthetic_trial_for(make_ring(5 + i), Scheme.DRAIN, 0.05, TINY,
                                seed=1)
            for i in range(limit + 1)
        ]
        structcache.clear_memos()
        first = execute_trial(specs[0])
        head = structcache.compiled(make_ring(5))
        assert "tables" in head.parts
        for spec in specs[1:]:
            execute_trial(spec)
        assert len(memo._MEMO) == limit
        assert head.digest not in memo._MEMO
        # Recompiled from scratch, the evicted structure gives the same row.
        assert execute_trial(specs[0]) == first
        assert structcache.compiled(make_ring(5)) is not head
        # A hit refreshes recency: ring 6 was the oldest, touch it, add one.
        structcache.compiled(make_ring(6))
        structcache.compiled(make_ring(5 + limit))
        structcache.compiled(make_ring(4))
        assert structcache.topology_digest(make_ring(6)) in memo._MEMO


# ----------------------------------------------------------------------
# Simulator adoption + fault-epoch invalidation
# ----------------------------------------------------------------------
class TestAdoption:
    def test_sim_results_identical_with_store(self, store, tmp_path):
        spec = tiny_spec()
        topology = make_mesh(4, 4)
        config = config_from_dict(spec.params["config"])
        cold = json.loads(json.dumps(execute_trial(spec)))
        # The memo the trial just filled: compiled by this process ...
        cold_csr = csr(structcache.parts_for(topology, config))
        assert store.counts(structcache.KINDS)["routing"] == 1
        structcache.clear_memos()
        warm = json.loads(json.dumps(execute_trial(spec)))
        # ... and here memory-mapped back from the store.
        warm_csr = csr(structcache.parts_for(topology, config))
        assert all(isinstance(arr.base, np.memmap) for arr in warm_csr)
        structcache.deactivate()
        structcache.clear_memos()
        bare = json.loads(json.dumps(execute_trial(spec)))
        assert cold == warm == bare
        scratch = AdaptiveMinimalRouting(FabricIndex(topology)).compiled_tables
        for c, w, s in zip(cold_csr, warm_csr,
                           (scratch.offsets, scratch.links)):
            assert c.dtype == w.dtype == s.dtype
            assert np.array_equal(c, s) and np.array_equal(w, s)
            assert not w.flags.writeable and not s.flags.writeable

    def test_fault_epoch_invalidates_adopted_tables(self, store):
        topology = make_mesh(4, 4)
        index = FabricIndex(topology)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        tables = structcache.parts_for(topology, config).parts["tables"]
        routing = AdaptiveMinimalRouting(index)
        assert routing.compiled_tables is tables
        reference = {
            (s, d): routing.raw_candidates(s, d)
            for s in range(4) for d in range(4) if s != d
        }

        # Kill one bidirectional link mid-run: the epoch advances and the
        # pre-fault tables must not survive the rebuild.
        dead = 0
        index.apply_faults({dead, index.link_reverse[dead]}, set())
        assert index.fault_epoch == 1
        routing.rebuild()

        # Stale tables (epoch 0) offered to a faulted index are refused.
        refused = AdaptiveMinimalRouting(index, tables=tables)

        # Both hold tables of the live epoch that equal a from-scratch
        # build on the faulted index (the dead link is gone from them).
        scratch = AdaptiveMinimalRouting(index)
        n = topology.num_nodes
        for held in (routing, refused):
            assert held.compiled_tables is not tables
            assert held.compiled_tables.epoch == index.fault_epoch
            for s in range(n):
                for d in range(n):
                    cands = held.raw_candidates(s, d)
                    assert cands == scratch.raw_candidates(s, d)
                    assert dead not in cands
        assert routing.raw_candidates(0, 1) != reference[(0, 1)]

        # A fresh index at epoch 0 adopts again and agrees with scratch.
        fresh = AdaptiveMinimalRouting(FabricIndex(topology))
        assert fresh.compiled_tables is tables
        for (s, d), cands in reference.items():
            assert fresh.raw_candidates(s, d) == cands

    def test_boot_adoption_matches_scratch_build(self, store):
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        structcache.parts_for(topology, config)
        structcache.clear_memos()
        adopted = AdaptiveMinimalRouting(FabricIndex(topology))
        assert isinstance(adopted.compiled_tables.links.base, np.memmap)
        scratch = adopted._compile(strict=True)
        n = topology.num_nodes
        for s in range(n):
            for d in range(n):
                if s != d:
                    assert adopted.raw_candidates(s, d) == scratch.row(s, d)


# ----------------------------------------------------------------------
# Harness warm start
# ----------------------------------------------------------------------
class TestHarnessWarmStart:
    def test_warm_vs_cold_rows_bit_identical(self, store):
        specs = [tiny_spec(seed=s) for s in (1, 2, 3)]
        cold = Harness(workers=1, cache=None).run(specs)
        structcache.clear_memos()
        warm = Harness(workers=1, cache=None).run(specs)
        structcache.deactivate()
        structcache.clear_memos()
        bare = Harness(workers=1, cache=None).run(specs)
        dump = lambda rows: json.dumps(rows, sort_keys=True)  # noqa: E731
        assert dump(cold) == dump(warm) == dump(bare)

    def test_concurrent_workers_compile_once(self, store):
        # Four trials over ONE structure, two workers: the parent's warm
        # start compiles each artefact exactly once; workers only load.
        specs = [tiny_spec(seed=s) for s in (1, 2, 3, 4)]
        results = Harness(workers=2, cache=None).run(specs)
        assert len(results) == 4
        counts = store.counts(structcache.KINDS)
        assert counts["dist"] == 1, counts
        assert counts["routing"] == 1, counts
        assert counts["drain"] == 1, counts
        # dist + routing + drain compiled once each, never again.
        assert store.compiles == 3, store.stats()
        assert store.corrupt == 0

    def test_three_schemes_one_topology_one_routing_artefact(self, store):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2, scheme=Scheme.SPIN),
                 tiny_spec(seed=3, scheme=Scheme.ESCAPE_VC)]
        Harness(workers=1, cache=None).run(specs)
        # Every artefact is a function of the topology alone; the drain
        # cycle only exists because one of the schemes is DRAIN.
        counts = store.counts(structcache.KINDS)
        assert (counts["dist"], counts["routing"], counts["drain"]) == (
            1, 1, 1), counts
        assert store.compiles == 3, store.stats()


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
def _benchmark_workloads():
    """``benchmarks/perf/workloads.py``, the benchmark's spec builders."""
    path = Path(__file__).parents[1] / "benchmarks" / "perf" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location(
        "_perf_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


class TestCertificates:
    def test_preflight_certificate_persists(self, store):
        spec = tiny_spec()
        clear_preflight_cache()
        first = validate_spec(spec)
        assert first is not None and store.counts(structcache.KINDS)["certs"] == 1
        clear_preflight_cache()
        second = validate_spec(spec)
        assert second.as_dict() == first.as_dict()
        assert store.counts(structcache.KINDS)["certs"] == 1

    def test_store_activated_after_the_memo_answered_gets_the_certificate(
            self, tmp_path):
        spec = synthetic_trial_for(make_mesh(3, 3), Scheme.DRAIN, 0.05, TINY,
                                   mesh_width=3, seed=1)
        first = validate_spec(spec)
        store = structcache.activate(tmp_path / "later")
        assert validate_spec(spec) is first
        assert store.counts(structcache.KINDS)["certs"] == 1

    @pytest.mark.parametrize("entry", [
        "{not json",
        json.dumps({"format": structcache.STRUCT_FORMAT_VERSION,
                    "certificate": {"verdict": "CERTIFIED", "witness": []}}),
        json.dumps({"format": structcache.STRUCT_FORMAT_VERSION,
                    "certificate": {"verdict": "CERTIFIED", "subject": {},
                                    "proof": None}}),
    ], ids=["unparsable", "wrong-shape", "proofless"])
    def test_corrupt_certificate_is_recertified_and_replaced(
            self, store, monkeypatch, entry):
        import repro.analysis.certifier as certifier

        spec = tiny_spec()
        first = validate_spec(spec)
        [path] = store.root.glob("certs/*/*.json")
        path.write_text(entry)
        calls = []
        real = certifier.certify_configuration
        monkeypatch.setattr(certifier, "certify_configuration",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        clear_preflight_cache()
        assert validate_spec(spec).as_dict() == first.as_dict()
        assert len(calls) == 1
        assert store.corrupt == 1
        assert json.loads(path.read_text())["certificate"] == first.as_dict()

    def test_preflight_and_the_1024_switch_trial_share_one_entry(self):
        # Preflight finds its entry from the spec's topology payload; the
        # trial's fabric index from the built topology. Both are one digest,
        # so the benchmark's 1024-switch unit holds one entry, not two.
        workloads = _benchmark_workloads()
        spec = workloads.trial_spec("lossless_1024", 1, False)
        structcache.clear_memos()
        assert validate_spec(spec).certified
        topology = topology_from_spec(spec.params["topology"])
        config = config_from_dict(spec.params["config"])
        traffic, kwargs = trials._lossless_source(spec.params, topology,
                                                  config)
        sim = Simulation(topology, config, traffic, **kwargs)
        assert list(memo._MEMO) == [structcache.topology_digest(topology)]
        # DRAIN over adaptive-minimal tables: the engine reads no distance
        # rows on this unit's move path, and the rows are no copy.
        engine = sim.fabric._engine
        engine._build_tables()
        assert not engine._detours
        assert isinstance(sim.index.dist[0], memoryview)
