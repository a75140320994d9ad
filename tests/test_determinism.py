"""Determinism suite: seeds, schemes, and the parallel sweep harness.

Reactive deadlock schemes (SPIN, static bubble) and the Figure 3
deadlock-likelihood study hinge on exact reproducibility of rare events,
and the harness caches results on disk across interpreter restarts — so
reproducibility must hold bit-for-bit across runs, processes and worker
counts. This suite pins all three:

- ``derive_seed`` is salt-free: exact outputs are pinned, and a subprocess
  with a different ``PYTHONHASHSEED`` derives identical seeds (regression
  for the old ``hash(str(label))`` implementation, which Python salts
  per-process);
- every ``Scheme`` run twice from the same seed yields a bit-identical
  trial result;
- harness results are identical for workers=1 vs workers=4 and for cold
  vs warm cache.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.config import Scheme
from repro.core.rng import derive_seed, spawn, stable_hash
from repro.experiments.common import Scale, synthetic_trial_for
from repro.harness import Harness, ResultCache, execute_trial
from repro.topology.mesh import make_mesh

TINY = Scale(
    warmup=100,
    measure=400,
    fault_patterns=1,
    sweep_rates=(0.04, 0.08),
    epoch=256,
    spin_timeout=64,
)


class TestDeriveSeed:
    # Pinned outputs: these exact values are part of the cache contract —
    # changing them silently invalidates every stored trial and golden
    # snapshot, so drift must be deliberate.
    PINNED = [
        ((1, ()), 1),
        ((1, ("fabric",)), 2022376378812598436),
        ((1, ("traffic", "uniform_random", 0.05)), 11197032861281542074),
        ((42, (7, "node")), 3365717602964133290),
        ((0, ("workload", "canneal")), 840846729228443383),
    ]

    def test_pinned_outputs(self):
        for (seed, labels), expected in self.PINNED:
            assert derive_seed(seed, *labels) == expected

    def test_stable_hash_pinned(self):
        assert stable_hash("fabric") == 10747187716285485759

    def test_labels_distinguish_types(self):
        assert derive_seed(1, "7") != derive_seed(1, 7)

    def test_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_spawn_streams_reproducible(self):
        a = spawn(5, "traffic", 3)
        b = spawn(5, "traffic", 3)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_stable_across_interpreters_and_hash_salts(self, hashseed):
        """A fresh interpreter with a different hash salt derives the same
        seeds — the exact failure mode of the old hash()-based version."""
        code = (
            "from repro.core.rng import derive_seed;"
            "print(derive_seed(1, 'fabric'),"
            " derive_seed(42, 7, 'node'),"
            " derive_seed(3, 'traffic', 'transpose', 0.07))"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        got = [int(v) for v in out.stdout.split()]
        assert got == [
            derive_seed(1, "fabric"),
            derive_seed(42, 7, "node"),
            derive_seed(3, "traffic", "transpose", 0.07),
        ]


class TestSchemeDeterminism:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_same_seed_same_stats(self, scheme):
        """Same seed => bit-identical results for every scheme on a 4x4 mesh."""
        def one_run():
            return execute_trial(synthetic_trial_for(
                make_mesh(4, 4), scheme, 0.05, TINY, seed=3, mesh_width=4
            ))

        assert one_run() == one_run()


class TestHarnessDeterminism:
    def _specs(self):
        mesh = make_mesh(4, 4)
        return [
            synthetic_trial_for(
                mesh, scheme, rate, TINY, mesh_width=4, seed=seed
            )
            for scheme in (Scheme.DRAIN, Scheme.SPIN)
            for rate in TINY.sweep_rates
            for seed in (1, 2)
        ]

    def test_workers_1_vs_4_identical(self):
        serial = Harness(workers=1).run(self._specs())
        parallel = Harness(workers=4).run(self._specs())
        assert serial == parallel

    def test_cold_vs_warm_cache_identical(self, tmp_path):
        harness = Harness(workers=1, cache=ResultCache(tmp_path / "cache"))
        cold = harness.run(self._specs())
        assert harness.cache_hits == 0
        assert harness.cache_misses == len(cold)
        warm = harness.run(self._specs())
        assert harness.cache_hits == len(cold)
        assert cold == warm

    def test_warm_cache_matches_uncached_parallel(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        Harness(workers=4, cache=cache).run(self._specs())
        warm = Harness(workers=1, cache=cache).run(self._specs())
        uncached = Harness(workers=1).run(self._specs())
        assert warm == uncached
