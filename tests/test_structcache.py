"""Tests for the content-addressed compiled-structure store.

Covers the tentpole guarantees: digest stability across processes,
warm-vs-cold bit-identical trial rows, corruption-detect-and-recompute,
fault-epoch invalidation of adopted tables, and the compile-once
warm-start protocol under concurrent workers.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import structcache
from repro.core.config import Scheme
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config, synthetic_trial_for
from repro.harness import Harness, execute_trial
from repro.harness.trials import structural_params, topology_to_spec
from repro.network.index import DenseCandidateTables, FabricIndex
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.datacenter import make_leaf_spine
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus

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


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_topology_payload_matches_trial_spec(self):
        # The store's digest payload deliberately mirrors the harness's
        # topology serialisation field for field (duplicated to avoid an
        # import cycle). If this drifts, trial caching and structure
        # caching would key the same topology differently.
        for topology in (
            make_mesh(4, 4),
            make_torus(3, 3),
            make_leaf_spine(8, 4, uplinks=1, east_west=True),
            inject_link_faults(make_mesh(4, 4), 3, random.Random(7)),
        ):
            assert (
                structcache.topology_payload(topology)
                == topology_to_spec(topology)
            ), topology.name

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
        cold = structcache.distances(topology)
        assert store.compiles == 1 and store.misses == 1
        structcache.clear_memos()
        warm = structcache.distances(topology)
        assert warm == cold == topology.all_pairs_distances(scalar=True)
        assert store.hits == 1 and store.compiles == 1

    def test_distances_rows_are_fresh_copies(self, store):
        # FabricIndex.apply_faults overwrites rows in place; a shared
        # cached list would poison every later consumer.
        topology = make_mesh(4, 4)
        first = structcache.distances(topology)
        first[0][1] = -77
        assert structcache.distances(topology)[0][1] == 1

    def test_truncated_array_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = structcache.distances(topology)
        [npy] = list(store.root.glob("dist/*/*/dist.npy"))
        npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1
        # The corrupt entry was replaced by a fresh, loadable one.
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1

    def test_garbage_meta_recomputes(self, store):
        topology = make_mesh(4, 4)
        reference = structcache.distances(topology)
        [meta] = list(store.root.glob("dist/*/*/meta.json"))
        meta.write_text("{not json")
        structcache.clear_memos()
        assert structcache.distances(topology) == reference
        assert store.corrupt == 1

    def test_parts_roundtrip(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = structcache.parts_for(topology, config)
        assert cold.routing is not None and cold.drain_links is not None
        compiled = store.compiles
        structcache.clear_memos()
        warm = structcache.parts_for(topology, config)
        assert store.compiles == compiled  # pure load, no recompile
        for a, b in zip(cold.routing, warm.routing):
            assert a.tolist() == b.tolist()
        assert warm.drain_links == cold.drain_links

    def test_parts_inactive_store_is_none(self):
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        assert structcache.parts_for(make_mesh(4, 4), config) is None

    def test_truncated_routing_recomputes(self, store):
        topology = make_mesh(4, 4)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        cold = structcache.parts_for(topology, config)
        [npy] = list(store.root.glob("routing/*/*/links.npy"))
        npy.write_bytes(npy.read_bytes()[:64])
        structcache.clear_memos()
        warm = structcache.parts_for(topology, config)
        assert store.corrupt == 1
        for a, b in zip(cold.routing, warm.routing):
            assert a.tolist() == b.tolist()


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
        cold_triple = structcache.parts_for(topology, config).routing
        assert store.entry_counts()["routing"] == 1
        structcache.clear_memos()
        warm = json.loads(json.dumps(execute_trial(spec)))
        # ... and here memory-mapped back from the store.
        warm_triple = structcache.parts_for(topology, config).routing
        assert all(isinstance(arr, np.memmap) for arr in warm_triple)
        structcache.deactivate()
        structcache.clear_memos()
        bare = json.loads(json.dumps(execute_trial(spec)))
        assert cold == warm == bare
        scratch = AdaptiveMinimalRouting(FabricIndex(topology)).compiled_tables
        for c, w, s in zip(cold_triple, warm_triple,
                           (scratch.offsets, scratch.counts, scratch.links)):
            assert c.dtype == w.dtype == s.dtype
            assert np.array_equal(c, s) and np.array_equal(w, s)
            assert not w.flags.writeable and not s.flags.writeable

    def test_fault_epoch_invalidates_adopted_tables(self, store):
        topology = make_mesh(4, 4)
        index = FabricIndex(topology)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        parts = structcache.parts_for(topology, config)
        tables = DenseCandidateTables.from_arrays(index, *parts.routing)
        routing = AdaptiveMinimalRouting(index, tables=tables)
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
        fresh = AdaptiveMinimalRouting(
            FabricIndex(topology),
            tables=DenseCandidateTables.from_arrays(
                FabricIndex(topology), *parts.routing
            ),
        )
        for (s, d), cands in reference.items():
            assert fresh.raw_candidates(s, d) == cands

    def test_boot_adoption_matches_scratch_build(self, store):
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        parts = structcache.parts_for(topology, config)
        index = FabricIndex(topology)
        adopted = AdaptiveMinimalRouting(
            index, tables=DenseCandidateTables.from_arrays(
                index, *parts.routing
            ),
        )
        scratch = AdaptiveMinimalRouting(FabricIndex(topology))
        n = topology.num_nodes
        for s in range(n):
            for d in range(n):
                if s != d:
                    assert (adopted.raw_candidates(s, d)
                            == scratch.raw_candidates(s, d))


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
        counts = store.entry_counts()
        assert counts["dist"] == 1, counts
        assert counts["routing"] == 1, counts
        assert counts["drain"] == 1, counts
        # dist + routing + drain compiled once each, never again.
        assert store.compiles == 3, store.stats()
        assert store.corrupt == 0

    def test_two_structures_two_compiles(self, store):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2, scheme=Scheme.SPIN)]
        Harness(workers=1, cache=None).run(specs)
        counts = store.entry_counts()
        # One topology (shared dist/) but two (topology, config) routing
        # structures; drain tables only exist for the DRAIN scheme.
        assert counts["dist"] == 1, counts
        assert counts["routing"] == 2, counts
        assert counts["drain"] == 1, counts


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
class TestCertificates:
    def test_preflight_certificate_persists(self, store):
        from repro.analysis.preflight import (
            clear_preflight_cache,
            validate_spec,
        )

        spec = tiny_spec()
        clear_preflight_cache()
        first = validate_spec(spec)
        assert first is not None and store.entry_counts()["certs"] == 1
        clear_preflight_cache()
        second = validate_spec(spec)
        assert second.as_dict() == first.as_dict()
        assert store.entry_counts()["certs"] == 1
