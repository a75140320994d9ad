"""Unit tests for the cross-trial batching layer.

Covers the pieces below the end-to-end parity lane (which lives in
``test_parity_fuzz.py``): the traffic word stream every synthetic source
draws through, solo or batched, and its ``random.Random`` facade (kept
here, where they were first pinned), the harness-side grouping key and dispatch
planner, the ``batch`` knob's validation and — load-bearing for the
warm-cache identity guarantee — the knob's exclusion from the serialised
config digest, and the runner itself: members are sequential
``Simulation.run()`` calls over one shared construction.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.config import Scheme, SimConfig
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, synthetic_trial_for
from repro.harness.cache import ResultCache
from repro.harness.pool import BATCH_AUTO_SIZE, BATCH_MIN_AUTO, Harness
from repro.harness.trials import (
    TrialSpec,
    batch_group_key,
    batch_payload,
    coherence_trial,
    execute_trial,
)
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import MirroredRandom, WordStream

SCALE = Scale(warmup=8, measure=24, epoch=96, spin_timeout=48)


def _specs(n, scheme=Scheme.DRAIN, rate=0.05, width=4):
    topology = make_mesh(width, width)
    return [
        synthetic_trial_for(topology, scheme, rate, SCALE,
                            mesh_width=width, seed=100 + i)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# WordStream / MirroredRandom: exact against random.Random itself
# ----------------------------------------------------------------------
def _reference_hits(seed, rate, consumed, count):
    """Word positions (from *consumed*) at which ``random()`` is below
    *rate*, drawn one position at a time from ``random.Random`` itself."""
    hits = []
    for offset in range(count):
        rng = random.Random(seed)
        if consumed + offset:
            rng.getrandbits(32 * (consumed + offset))
        if rng.random() < rate:
            hits.append(offset)
    return hits


def _classified_hits(stream):
    assert stream.hits[-1] > stream.size  # the terminator
    return stream.hits[:-1]


class TestWordStream:
    @pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, 2 ** 62 + 11])
    def test_interleaved_draws_match_reference(self, seed):
        reference = random.Random(seed)
        mirror = MirroredRandom(WordStream(random.Random(seed)))
        # Interleave every primitive and the derived methods the traffic
        # layer uses; any cursor slip desynchronises everything after it.
        script = random.Random(0xC0FFEE ^ seed)
        for _ in range(400):
            op = script.randrange(6)
            if op == 0:
                assert mirror.random() == reference.random()
            elif op == 1:
                k = script.choice((1, 5, 32, 33, 64, 100))
                assert mirror.getrandbits(k) == reference.getrandbits(k)
            elif op == 2:
                n = script.randrange(2, 5000)
                assert mirror.randrange(n) == reference.randrange(n)
            elif op == 3:
                items = list(range(script.randrange(1, 40)))
                assert mirror.choice(items) == reference.choice(items)
            elif op == 4:
                a = list(range(script.randrange(2, 30)))
                b = list(a)
                mirror.shuffle(a)
                reference.shuffle(b)
                assert a == b
            else:
                assert mirror.uniform(-3.0, 7.0) == reference.uniform(-3.0, 7.0)

    def test_facade_methods_word_for_word_over_refills(self):
        # randrange / choice / shuffle / random, long enough to cross
        # several refills of a deliberately tiny read-ahead.
        reference = random.Random(23)
        stream = WordStream(random.Random(23))
        stream._block = 16
        mirror = MirroredRandom(stream)
        refills, buffer = 0, stream.words
        for i in range(3000):
            op = i % 4
            if op == 0:
                assert mirror.randrange(63) == reference.randrange(63)
            elif op == 1:
                assert mirror.choice(range(5)) == reference.choice(range(5))
            elif op == 2:
                a, b = list(range(7)), list(range(7))
                mirror.shuffle(a)
                reference.shuffle(b)
                assert a == b
            else:
                assert mirror.random() == reference.random()
            if stream.words is not buffer:
                refills, buffer = refills + 1, stream.words
        assert refills > 3

    def test_long_stream_crosses_refills(self):
        # The first block buys 2k doubles; 20000 forces several doubling
        # refills, and the doubles must stay exact across every boundary.
        reference = random.Random(7)
        stream = WordStream(random.Random(7))
        for _ in range(20000):
            assert stream.take_double() == reference.random()

    def test_word_and_double_views_share_one_cursor(self):
        reference = random.Random(3)
        stream = WordStream(random.Random(3))
        assert stream.take_double() == reference.random()
        assert stream.take_word() == reference.getrandbits(32)
        # The word draw flipped the cursor's parity; doubles must follow.
        assert stream.take_double() == reference.random()

    def test_stream_starts_where_the_generator_is(self):
        # An odd number of words already consumed: the stream's word 0 is
        # the generator's next word, whatever its alignment.
        rng, reference = random.Random(19), random.Random(19)
        for r in (rng, reference):
            r.random()
            r.getrandbits(32)  # 3 words in
        stream = WordStream(rng)
        stream.set_scan_rate(0.25)
        stream.ensure(300)
        assert _classified_hits(stream)[:60] == _reference_hits(
            19, 0.25, 3, 300)[:60]
        assert stream.take_double() == reference.random()

    def test_scan_hits_are_the_sub_rate_doubles(self):
        rate = 0.1
        stream = WordStream(random.Random(11))
        stream.set_scan_rate(rate)
        stream.ensure(400)
        count = stream.size - 1  # the last word has no partner yet
        assert _classified_hits(stream) == _reference_hits(11, rate, 0, count)
        # A refill drops the consumed words and lists the new buffer.
        stream.pos = consumed = 100
        stream.ensure(stream.size + 10)
        assert stream.pos == 0
        assert _classified_hits(stream)[:20] == _reference_hits(
            11, rate, consumed, 600)[:20]

    def test_hit_whose_second_word_is_in_the_next_block(self):
        rate = 0.2
        target = _reference_hits(31, rate, 0, 64)[3]
        stream = WordStream(random.Random(31))
        stream._block = 1
        stream.set_scan_rate(rate)
        stream._refill(target + 1)  # words 0 .. target, and no further
        assert stream.size == target + 1
        assert target not in _classified_hits(stream)  # no partner word yet
        stream.ensure(target + 1)
        assert target in _classified_hits(stream)
        assert _classified_hits(stream) == _reference_hits(
            31, rate, 0, stream.size - 1)

    @pytest.mark.parametrize("rate, expected", [(0.0, 0), (1.0, 1)])
    def test_extreme_rates(self, rate, expected):
        # At 1.0 the uint32 candidate bound would pass 2**32 unclamped.
        stream = WordStream(random.Random(2))
        stream.set_scan_rate(rate)
        stream.ensure(2000)
        assert stream._coarse <= 0xFFFFFFFF
        assert len(_classified_hits(stream)) == expected * (stream.size - 1)

    def test_facade_seed_is_inert_and_state_is_refused(self):
        stream = WordStream(random.Random(5))
        mirror = MirroredRandom(stream)  # Random.__init__ calls seed()
        assert stream.pos == 0 and stream.size == 0
        mirror.seed(123)
        assert stream.size == 0
        with pytest.raises(NotImplementedError):
            mirror.getstate()
        with pytest.raises(NotImplementedError):
            mirror.setstate(None)
        with pytest.raises(ValueError):
            mirror.getrandbits(0)


# ----------------------------------------------------------------------
# Grouping key and dispatch planning
# ----------------------------------------------------------------------
class TestBatchGroupKey:
    def test_seed_and_rate_vary_within_a_group(self):
        a = _specs(1, rate=0.02)[0]
        b = _specs(2, rate=0.30)[1]
        assert batch_group_key(a) == batch_group_key(b) is not None

    def test_structural_differences_split_groups(self):
        drain = batch_group_key(_specs(1)[0])
        assert batch_group_key(_specs(1, scheme=Scheme.SPIN)[0]) != drain
        assert batch_group_key(_specs(1, width=3)[0]) != drain

    def test_unbatchable_runners_and_shapes_are_none(self):
        spec = _specs(1)[0]
        assert batch_group_key(
            coherence_trial(make_mesh(4, 4),
                            SimConfig(scheme=Scheme.DRAIN, seed=1),
                            issue_probability=0.1, max_cycles=32)
        ) is None
        for mutate in (
            lambda c: c.__setitem__("flow_control", "pause_resume"),
            lambda c: c["network"].__setitem__("packet_size_flits", 2),
            lambda c: c["network"].__setitem__("vcs_per_vn", 4),
        ):
            params = {**spec.params, "config": {
                k: dict(v) if isinstance(v, dict) else v
                for k, v in spec.params["config"].items()
            }}
            mutate(params["config"])
            assert batch_group_key(TrialSpec("synthetic", params)) is None


class TestPlanUnits:
    def _plan(self, specs, batch):
        h = Harness(workers=1, batch=batch, preflight=False)
        return h._plan_units(specs, list(range(len(specs))))

    def test_off_is_all_solo(self):
        units = self._plan(_specs(6), "off")
        assert all(kind == "solo" for kind, _ in units)
        assert [m for _, ms in units for m in ms] == list(range(6))

    def test_auto_needs_min_group(self):
        units = self._plan(_specs(BATCH_MIN_AUTO - 1), "auto")
        assert all(kind == "solo" for kind, _ in units)
        units = self._plan(_specs(BATCH_MIN_AUTO), "auto")
        assert units == [("batch", list(range(BATCH_MIN_AUTO)))]

    def test_auto_chunks_and_leftover(self):
        units = self._plan(_specs(BATCH_AUTO_SIZE + 1), "auto")
        assert units == [
            ("batch", list(range(BATCH_AUTO_SIZE))),
            ("solo", [BATCH_AUTO_SIZE]),
        ]

    def test_explicit_size_batches_small_groups(self):
        units = self._plan(_specs(5), "2")
        assert units == [
            ("batch", [0, 1]), ("batch", [2, 3]), ("solo", [4]),
        ]

    def test_incompatible_specs_stay_solo(self):
        specs = _specs(4) + _specs(4, scheme=Scheme.SPIN)
        specs.insert(2, coherence_trial(
            make_mesh(4, 4), SimConfig(scheme=Scheme.DRAIN, seed=9),
            issue_probability=0.1, max_cycles=32,
        ))
        units = self._plan(specs, "auto")
        kinds = {kind for kind, _ in units}
        assert ("solo", [2]) in units
        assert kinds == {"solo", "batch"}
        batches = [ms for kind, ms in units if kind == "batch"]
        assert sorted(map(sorted, batches)) == [[0, 1, 3, 4], [5, 6, 7, 8]]

    def test_plan_ignores_worker_count(self):
        specs = _specs(9)
        assert self._plan(specs, "auto") == Harness(
            workers=7, batch="auto", preflight=False
        )._plan_units(specs, list(range(len(specs))))


# ----------------------------------------------------------------------
# The batch knob: validation and digest neutrality
# ----------------------------------------------------------------------
class TestBatchKnob:
    def test_harness_validation(self):
        for bad in ("nope", "1", "0", "-3"):
            with pytest.raises(ValueError):
                Harness(workers=1, batch=bad)
        for ok in ("off", "auto", "2", "16"):
            assert Harness(workers=1, batch=ok).batch == ok

    def test_harness_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "auto")
        assert Harness(workers=1).batch == "auto"
        monkeypatch.delenv("REPRO_BATCH")
        assert Harness(workers=1).batch == "off"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scheme=Scheme.DRAIN, batch="1")
        assert SimConfig(scheme=Scheme.DRAIN, batch="8").batch == "8"

    def test_batch_never_enters_the_digest(self):
        # The warm-cache identity check in CI rests on this: a batched
        # sweep and a solo sweep must resolve to the same cache entries.
        for value in ("off", "auto", "8"):
            config = SimConfig(scheme=Scheme.DRAIN, seed=4, batch=value)
            payload = config_to_dict(config)
            assert "batch" not in payload
            assert config_from_dict(payload).batch == "off"
        digests = {
            synthetic_trial_for(
                make_mesh(4, 4), Scheme.DRAIN, 0.05, SCALE,
                mesh_width=4, seed=17,
            ).digest()
        }
        assert len(digests) == 1  # guard: helper itself is deterministic


# ----------------------------------------------------------------------
# Harness end-to-end: batched sweep == solo sweep, records annotated
# ----------------------------------------------------------------------
class TestHarnessBatching:
    def test_batched_run_matches_solo_and_caches_per_trial(self, tmp_path):
        specs = _specs(BATCH_MIN_AUTO)
        solo = Harness(workers=1, batch="off").run(specs)

        cache = ResultCache(tmp_path / "cache")
        batched_harness = Harness(workers=1, batch="auto", cache=cache)
        batched = batched_harness.run(specs, label="fig11")
        assert batched == solo
        assert batched_harness.cache_misses == len(specs)
        for record in batched_harness.records:
            assert record.batched is True
            assert record.batch_fallback is None
            assert record.as_dict()["batched"] is True

        # Cache entries are per-trial: a solo harness over the same cache
        # must serve every spec without executing anything.
        warm = Harness(workers=1, batch="off", cache=cache)
        assert warm.run(specs) == solo
        assert warm.cache_misses == 0
        assert warm.trials_executed == 0

    def test_eviction_is_recorded_on_the_member_record(self):
        # Mixed groups cannot arise from _plan_units (the key separates
        # them); drive the runner's envelope through Harness bookkeeping
        # by hand via batch_payload to pin the fallback plumbing.
        from repro.harness.trials import execute_trial

        drain = _specs(2)
        intruder = _specs(1, scheme=Scheme.UPDOWN)[0]
        envelope = execute_trial(batch_payload(drain + [intruder]))
        assert [e["index"] for e in envelope["evictions"]] == [2]
        assert "stateful" in envelope["evictions"][0]["reason"]
        assert envelope["results"][2] == execute_trial(intruder)


# ----------------------------------------------------------------------
# The runner: sequential Simulation.run() over one shared construction
# ----------------------------------------------------------------------
class TestBatchIsTheSoloPath:
    def test_members_run_through_simulation_run_and_fast_forward(
            self, monkeypatch):
        ran = []
        run = Simulation.run

        def spy(sim, cycles, warmup=0):
            ran.append(sim)
            return run(sim, cycles, warmup)

        monkeypatch.setattr(Simulation, "run", spy)
        specs = _specs(3, rate=0.002)
        envelope = execute_trial(batch_payload(specs))
        assert envelope["evictions"] == []
        assert len(ran) == len(specs)
        # Low load: the run loop's event-horizon spans, not stepped cycles.
        assert all(sim.ff_spans > 0 for sim in ran)

    def test_a_batch_holds_the_donor_and_one_live_member(self, monkeypatch):
        built, alive_during_run = [], []
        init, run = Simulation.__init__, Simulation.run

        def tracking_init(sim, *args, **kwargs):
            built.append(weakref.ref(sim))
            init(sim, *args, **kwargs)

        def counting_run(sim, cycles, warmup=0):
            gc.collect()
            alive_during_run.append(
                sum(ref() is not None for ref in built))
            return run(sim, cycles, warmup)

        monkeypatch.setattr(Simulation, "__init__", tracking_init)
        monkeypatch.setattr(Simulation, "run", counting_run)
        intruder = _specs(1, scheme=Scheme.UPDOWN)[0]
        group = _specs(3) + [intruder] + _specs(5)[3:]
        envelope = execute_trial(batch_payload(group))
        assert [e["index"] for e in envelope["evictions"]] == [3]
        # One run() per member (the intruder's is its solo rerun), each
        # with at most the donor and itself alive.
        assert len(alive_during_run) == len(group)
        assert max(alive_during_run) <= 2

    def test_warmup_not_shorter_than_the_run_raises_as_solo(self):
        good = _specs(2)
        bad = TrialSpec(good[1].runner, {
            **good[1].params, "warmup": good[1].params["cycles"],
        })
        for spec in (bad, batch_payload([good[0], bad])):
            with pytest.raises(ValueError, match="warmup must be shorter"):
                execute_trial(spec)

    def test_member_of_another_structure_is_evicted_to_its_solo_row(self):
        # Only a hand-built payload mixes structures (the planner keys
        # them apart); the stranger must not be built on the batch's
        # topology.
        group = _specs(2) + _specs(1, width=3)
        envelope = execute_trial(batch_payload(group))
        assert envelope["evictions"] == [
            {"index": 2, "reason": "structure differs from the batch's"},
        ]
        assert envelope["results"] == [execute_trial(s) for s in group]
