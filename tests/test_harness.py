"""Unit tests for the parallel sweep harness (specs, cache, pool, manifest)."""

from __future__ import annotations

import json

import pytest

from repro.core.config import Scheme, SimConfig
from repro.experiments.common import Scale, synthetic_trial_for
from repro.harness import (
    Harness,
    ResultCache,
    TrialSpec,
    build_manifest,
    execute_trial,
    git_revision,
    run_trials,
    synthetic_trial,
    topology_from_spec,
    topology_to_spec,
    write_manifest,
)
from repro.harness.pool import get_default_harness, set_default_harness
from repro.harness.trials import batch_payload
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus

import random

TINY = Scale(warmup=100, measure=300, fault_patterns=1,
             sweep_rates=(0.04,), epoch=256, spin_timeout=64)


def tiny_spec(rate=0.05, seed=1, scheme=Scheme.DRAIN):
    return synthetic_trial_for(
        make_mesh(4, 4), scheme, rate, TINY, mesh_width=4, seed=seed
    )


class TestTopologySpec:
    @pytest.mark.parametrize(
        "topology",
        [
            make_mesh(4, 4),
            make_torus(3, 3),
            inject_link_faults(make_mesh(4, 4), 4, random.Random(3)),
        ],
        ids=lambda t: t.name,
    )
    def test_roundtrip_exact(self, topology):
        rebuilt = topology_from_spec(topology_to_spec(topology))
        assert rebuilt.name == topology.name
        assert rebuilt.num_nodes == topology.num_nodes
        assert rebuilt.bidirectional_links() == topology.bidirectional_links()
        assert rebuilt.coordinates == topology.coordinates

    def test_spec_is_json_able(self):
        spec = topology_to_spec(make_mesh(3, 3))
        assert json.loads(json.dumps(spec)) == spec


class TestTrialSpec:
    def test_digest_stable_across_param_order(self):
        a = TrialSpec("synthetic", {"x": 1, "y": 2})
        b = TrialSpec("synthetic", {"y": 2, "x": 1})
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_values(self):
        assert tiny_spec(seed=1).digest() != tiny_spec(seed=2).digest()
        assert tiny_spec(rate=0.04).digest() != tiny_spec(rate=0.05).digest()
        assert (
            tiny_spec(scheme=Scheme.DRAIN).digest()
            != tiny_spec(scheme=Scheme.SPIN).digest()
        )

    def test_same_parameters_same_digest(self):
        assert tiny_spec().digest() == tiny_spec().digest()

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown trial runner"):
            execute_trial(TrialSpec("nope", {}))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = tiny_spec().digest()
        assert cache.get(digest) is None
        cache.put(digest, {"result": {"v": 1.5}, "elapsed": 0.1})
        assert cache.get(digest)["result"] == {"v": 1.5}
        assert cache.hits == 1 and cache.misses == 1
        assert digest in cache and len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = tiny_spec().digest()
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(digest) is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(tiny_spec(seed=i + 1).digest(), {"result": {}})
        assert cache.clear() == 3
        assert len(cache) == 0


class TestHarness:
    def test_empty_batch(self):
        assert Harness(workers=1).run([]) == []

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            Harness(workers=0)

    def test_results_in_submission_order(self):
        specs = [tiny_spec(rate=r) for r in (0.08, 0.04, 0.06)]
        results = Harness(workers=2).run(specs)
        assert [r["rate"] for r in results] == [0.08, 0.04, 0.06]

    def test_records_and_timing(self, tmp_path):
        harness = Harness(workers=1, cache=ResultCache(tmp_path))
        harness.run([tiny_spec()], label="unit")
        harness.run([tiny_spec()], label="unit")
        assert len(harness.records) == 2
        fresh, cached = harness.records
        assert not fresh.cached and cached.cached
        assert fresh.elapsed > 0
        assert fresh.label == "unit"
        assert harness.trials_executed == 1
        assert harness.simulated_seconds == fresh.elapsed

    def test_run_trials_convenience(self):
        (res,) = run_trials([tiny_spec()])
        assert res["throughput"] > 0

    def test_batch_lockstep_is_each_members_own_trial(self):
        # The wrapper benchmarks/perf times: members of any structure, in
        # order, each through execute_trial — errors included.
        group = [tiny_spec(seed=1), tiny_spec(seed=2, scheme=Scheme.UPDOWN),
                 synthetic_trial_for(make_mesh(3, 3), Scheme.DRAIN, 0.05,
                                     TINY, mesh_width=3, seed=3)]
        envelope = execute_trial(batch_payload(group))
        assert envelope == {"results": [execute_trial(s) for s in group]}
        bad = TrialSpec(group[0].runner, {
            **group[0].params, "warmup": group[0].params["cycles"]})
        with pytest.raises(ValueError, match="warmup must be shorter"):
            execute_trial(batch_payload([group[0], bad]))

    def test_default_harness_is_process_wide(self):
        set_default_harness(None)
        try:
            assert get_default_harness() is get_default_harness()
            override = Harness(workers=1)
            set_default_harness(override)
            assert get_default_harness() is override
        finally:
            set_default_harness(None)


class TestManifest:
    def test_git_revision_reports_something(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev

    def test_build_and_write(self, tmp_path):
        harness = Harness(workers=2, cache=ResultCache(tmp_path / "c"))
        harness.run([tiny_spec(), tiny_spec(seed=2)], label="m")
        manifest = build_manifest("unit_artefact", harness, scale=TINY)
        path = write_manifest(manifest, tmp_path / "results")
        data = json.loads(path.read_text())
        assert path.name == "unit_artefact.manifest.json"
        assert data["workers"] == 2
        assert data["num_trials"] == 2
        assert data["cache_misses"] == 2
        assert data["scale"]["warmup"] == TINY.warmup
        assert data["scale"]["sweep_rates"] == list(TINY.sweep_rates)
        assert all(t["digest"] for t in data["trials"])
        assert data["total_trial_seconds"] > 0

    def test_manifest_records_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        Harness(workers=1, cache=cache).run([tiny_spec()])
        harness = Harness(workers=1, cache=cache)
        harness.run([tiny_spec()])
        data = build_manifest("warm", harness).as_dict()
        assert data["cache_hits"] == 1
        assert data["trials"][0]["cached"] is True
