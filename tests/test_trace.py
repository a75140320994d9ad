"""Tests for trace recording and replay."""

import io
import random

import pytest

from repro.core.config import Scheme
from repro.core.simulator import Simulation
from repro.traffic.synthetic import UniformRandom
from repro.traffic.trace import (
    TraceRecord,
    TraceRecorder,
    TraceTraffic,
    load_trace,
    record_synthetic,
    save_trace,
)
from tests.conftest import make_config


class TestTraceRecord:
    def test_roundtrip(self):
        record = TraceRecord(10, 3, 7, 2)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord.from_line("1 2 3")

    def test_ordering_by_cycle(self):
        records = [TraceRecord(5, 0, 1), TraceRecord(2, 1, 0)]
        assert sorted(records)[0].cycle == 2


class TestSaveLoad:
    def test_stream_roundtrip(self):
        records = record_synthetic(UniformRandom(8), 0.2, 50, seed=3)
        buf = io.StringIO()
        save_trace(records, buf)
        buf.seek(0)
        assert load_trace(buf) == sorted(records)

    def test_file_roundtrip(self, tmp_path):
        records = record_synthetic(UniformRandom(8), 0.2, 30, seed=4)
        path = tmp_path / "trace.txt"
        save_trace(records, path)
        assert load_trace(path) == sorted(records)

    def test_comments_and_blanks_skipped(self):
        buf = io.StringIO("# header\n\n3 0 1 0\n")
        assert load_trace(buf) == [TraceRecord(3, 0, 1, 0)]


class TestRecordSynthetic:
    def test_rate_approximated(self):
        records = record_synthetic(UniformRandom(16), 0.1, 1000, seed=5)
        expected = 0.1 * 16 * 1000
        assert abs(len(records) - expected) / expected < 0.1

    def test_deterministic(self):
        a = record_synthetic(UniformRandom(8), 0.1, 100, seed=6)
        b = record_synthetic(UniformRandom(8), 0.1, 100, seed=6)
        assert a == b


class TestReplay:
    def test_replay_delivers_everything(self, mesh4):
        records = record_synthetic(UniformRandom(16), 0.05, 300, seed=7)
        traffic = TraceTraffic(records, 16)
        sim = Simulation(mesh4, make_config(Scheme.DRAIN, epoch=512), traffic)
        sim.run(3000)
        assert traffic.done()
        assert sim.stats.packets_ejected == len(records)

    def test_out_of_range_records_rejected(self):
        with pytest.raises(ValueError):
            TraceTraffic([TraceRecord(0, 0, 99)], 16)

    @pytest.mark.parametrize("line, problem", [
        ("5 3 3 0", "addressed to its own source"),
        ("5 3 4 9", "unknown message class"),
        ("-4 1 2 0", "negative cycle"),
    ])
    def test_malformed_records_rejected_at_construction(self, line, problem):
        # Rejected when the source is built, naming the record, not when
        # (or if) the replay reaches it.
        records = [TraceRecord(0, 0, 1), TraceRecord.from_line(line)]
        with pytest.raises(ValueError, match=problem) as caught:
            TraceTraffic(records, 16)
        assert repr(line) in str(caught.value)
        assert "\n" not in str(caught.value)

    def test_replay_matches_recorder(self, mesh4):
        """Recording a run and replaying it injects the same stream."""
        recorder = TraceRecorder(UniformRandom(16), 0.05, random.Random(8))
        sim = Simulation(mesh4, make_config(Scheme.DRAIN, epoch=512), recorder)
        sim.run(500)
        replay = TraceTraffic(recorder.records, 16)
        sim2 = Simulation(mesh4, make_config(Scheme.DRAIN, epoch=512), replay)
        sim2.run(3000)
        assert replay.done()
        assert sim2.stats.packets_ejected == len(recorder.records)

    def test_same_trace_different_schemes_same_delivery(self, mesh4):
        """The point of traces: identical offered load across schemes."""
        records = record_synthetic(UniformRandom(16), 0.04, 300, seed=9)
        delivered = {}
        for scheme in (Scheme.DRAIN, Scheme.ESCAPE_VC):
            traffic = TraceTraffic(records, 16)
            sim = Simulation(
                mesh4,
                make_config(scheme, num_vns=1 if scheme is Scheme.DRAIN else 3),
                traffic,
            )
            sim.run(4000)
            delivered[scheme] = sim.stats.packets_ejected
        assert delivered[Scheme.DRAIN] == delivered[Scheme.ESCAPE_VC] == len(records)
