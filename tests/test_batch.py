"""Unit tests for the traffic word stream.

The stream every synthetic source draws through and its ``random.Random``
facade, exact against ``random.Random`` itself. (The file keeps the name
it had when cross-trial batching first pinned these; the batch tests went
with the batch — see CHANGES.md, PR 23.)
"""

from __future__ import annotations

import random

import pytest

from repro.traffic.synthetic import MirroredRandom, WordStream


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
