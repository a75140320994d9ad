"""Unit tests for synthetic traffic patterns and the Bernoulli injector."""

import gc
import random

import pytest

from repro.core.config import Scheme
from repro.core.simulator import Simulation
from repro.router.packet import MessageClass, Packet
from repro.topology.mesh import make_mesh, node_at
from repro.traffic.synthetic import (
    BitComplement,
    BitShuffle,
    Hotspot,
    SyntheticTraffic,
    Transpose,
    UniformRandom,
    pattern_by_name,
)
from repro.core.config import ProtocolConfig
from repro.protocol import CoherenceTraffic, MoesiTraffic
from repro.traffic import Flow, FlowTraffic
from repro.traffic.backlog import Backlog
from repro.traffic.trace import TraceRecorder, TraceTraffic, record_synthetic
from tests.conftest import OfferLog, make_config


class TestPatterns:
    def test_uniform_random_never_self(self):
        pattern = UniformRandom(16)
        rng = random.Random(1)
        for _ in range(500):
            dst = pattern.destination(3, rng)
            assert dst is not None and dst != 3 and 0 <= dst < 16

    def test_uniform_random_covers_all_destinations(self):
        pattern = UniformRandom(8)
        rng = random.Random(2)
        seen = {pattern.destination(0, rng) for _ in range(500)}
        assert seen == {1, 2, 3, 4, 5, 6, 7}

    def test_transpose_mapping(self):
        pattern = Transpose(16, 4)
        rng = random.Random(3)
        assert pattern.destination(node_at(1, 3, 4), rng) == node_at(3, 1, 4)

    def test_transpose_diagonal_silent(self):
        pattern = Transpose(16, 4)
        rng = random.Random(4)
        for d in range(4):
            assert pattern.destination(node_at(d, d, 4), rng) is None

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            Transpose(12, 4)
        with pytest.raises(ValueError):
            Transpose(16, None)

    def test_bit_complement(self):
        pattern = BitComplement(16)
        rng = random.Random(5)
        assert pattern.destination(0b0101, rng) == 0b1010
        assert pattern.destination(0, rng) == 15

    def test_bit_complement_power_of_two_only(self):
        with pytest.raises(ValueError):
            BitComplement(12)

    def test_shuffle_rotates_bits(self):
        pattern = BitShuffle(8)
        rng = random.Random(6)
        assert pattern.destination(0b001, rng) == 0b010
        assert pattern.destination(0b100, rng) == 0b001

    def test_shuffle_fixed_points_silent(self):
        pattern = BitShuffle(8)
        rng = random.Random(7)
        assert pattern.destination(0, rng) is None
        assert pattern.destination(7, rng) is None

    def test_hotspot_concentrates_traffic(self):
        pattern = Hotspot(16, hotspots=[5], hotspot_fraction=0.5)
        rng = random.Random(8)
        hits = sum(1 for _ in range(2000) if pattern.destination(0, rng) == 5)
        assert hits > 600  # ~50% + uniform share

    def test_pattern_by_name(self):
        assert isinstance(pattern_by_name("uniform_random", 16), UniformRandom)
        assert isinstance(pattern_by_name("transpose", 16, 4), Transpose)
        with pytest.raises(ValueError):
            pattern_by_name("nope", 16)


class TestSyntheticTraffic:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraffic(UniformRandom(16), 1.5, random.Random(1))

    def test_generation_rate_close_to_nominal(self, mesh4):
        traffic = SyntheticTraffic(UniformRandom(16), 0.1, random.Random(2))
        sim = Simulation(mesh4, make_config(Scheme.NONE), traffic)
        sim.run(2000)
        expected = 0.1 * 16 * 2000
        assert abs(traffic.generated - expected) / expected < 0.1

    def test_open_loop_records_source_queueing(self, mesh4):
        """At overload the backlog grows and latencies include queueing."""
        traffic = SyntheticTraffic(UniformRandom(16), 0.9, random.Random(3))
        sim = Simulation(mesh4, make_config(Scheme.DRAIN, epoch=400), traffic)
        sim.run(800)
        assert traffic.backlog_size() > 0

    def test_consume_empties_ejection_queues(self, mesh4):
        traffic = SyntheticTraffic(UniformRandom(16), 0.05, random.Random(4))
        sim = Simulation(mesh4, make_config(Scheme.NONE), traffic)
        sim.run(1000)
        for node in range(16):
            for cls in MessageClass:
                assert sim.fabric.peek_ejection(node, cls) is None

    def test_never_done(self):
        traffic = SyntheticTraffic(UniformRandom(16), 0.1, random.Random(5))
        assert not traffic.done()


class TestAdditionalPatterns:
    def test_bit_reverse(self):
        from repro.traffic.synthetic import BitReverse

        pattern = BitReverse(8)
        rng = random.Random(1)
        assert pattern.destination(0b001, rng) == 0b100
        assert pattern.destination(0b110, rng) == 0b011
        assert pattern.destination(0b000, rng) is None  # palindrome

    def test_bit_reverse_power_of_two_only(self):
        from repro.traffic.synthetic import BitReverse

        with pytest.raises(ValueError):
            BitReverse(12)

    def test_tornado_half_row_shift(self):
        from repro.traffic.synthetic import Tornado

        pattern = Tornado(16, 4)
        rng = random.Random(2)
        assert pattern.destination(node_at(0, 2, 4), rng) == node_at(1, 2, 4)
        assert pattern.destination(node_at(3, 0, 4), rng) == node_at(0, 0, 4)

    def test_tornado_stays_in_row(self):
        from repro.traffic.synthetic import Tornado

        pattern = Tornado(64, 8)
        rng = random.Random(3)
        for src in range(64):
            dst = pattern.destination(src, rng)
            assert dst is not None
            assert dst // 8 == src // 8

    def test_nearest_neighbor_adjacent(self):
        from repro.topology.mesh import make_mesh
        from repro.traffic.synthetic import NearestNeighbor

        mesh = make_mesh(4, 4)
        pattern = NearestNeighbor(16, 4)
        rng = random.Random(4)
        for _ in range(200):
            src = rng.randrange(16)
            dst = pattern.destination(src, rng)
            assert mesh.has_edge(src, dst)

    def test_new_patterns_registered(self):
        for name in ("bit_reverse", "tornado", "nearest_neighbor"):
            assert pattern_by_name(name, 16, 4) is not None


# ----------------------------------------------------------------------
# The traffic stream: hit-list generation against the per-node draw loop
# ----------------------------------------------------------------------
class _Sink:
    """An NI that takes (or refuses) every packet, or holds *capacity*
    packets per source node and refuses that node while it is full."""

    def __init__(self, accept=True, capacity=None):
        self.accept = accept
        self.capacity = capacity
        self.offered = []
        self.queued = {}

    def offer_packet(self, packet):
        if self.capacity is not None:
            held = self.queued.get(packet.src, 0)
            if held >= self.capacity:
                return False
            self.queued[packet.src] = held + 1
        if self.accept:
            self.offered.append(packet)
        return self.accept

    def release(self):
        """Every node's queue injects one packet (frees one place)."""
        for src, held in self.queued.items():
            self.queued[src] = max(0, held - 1)


def _draw_loop(pattern, seed, cycles, rate_at):
    """The contract, spelled out on ``random.Random`` itself: one
    ``random()`` per node per cycle in node order, destination draws
    right after a hit. *rate_at(cycle)* is the rate in force."""
    rng = random.Random(seed)
    packets = []
    for cycle in range(cycles):
        rate = rate_at(cycle)
        for node in range(pattern.num_nodes):
            if rng.random() < rate:
                dst = pattern.destination(node, rng)
                if dst is not None:
                    packets.append((cycle, node, dst))
    return packets


def _generated(traffic):
    log = []
    traffic._record_hook = (
        lambda pid, src, dst, msg_class, gen_cycle:
        log.append((gen_cycle, src, dst)))
    return log


def _depths(backlog):
    """Packets waiting per node (the refused head included)."""
    return {node: len(backlog._records[node]) + (node in backlog._heads)
            for node in backlog.waiting}


def _low_load_source(kind):
    """A source of *kind* that offers a packet every few hundred cycles."""
    rng = random.Random(12)
    if kind == "synthetic":
        return SyntheticTraffic(UniformRandom(16), 0.003, rng)
    if kind == "flow":
        return FlowTraffic([Flow(0, 5, 0.004), Flow(3, 12, 0.003),
                            Flow(9, 2, 0.004, packets=40)], rng)
    if kind == "trace":
        records = record_synthetic(UniformRandom(16), 0.001, 30_000, seed=12)
        return TraceTraffic(records, 16)
    # Enough MSHRs that no node ever stops drawing: nothing completes here.
    config = ProtocolConfig(mshrs_per_node=10_000)
    if kind == "coherence":
        return CoherenceTraffic(16, config, 0.001, rng)
    return MoesiTraffic(16, config, 0.001, rng)


class TestTrafficStream:
    @pytest.mark.parametrize("name, nodes, width", [
        ("uniform_random", 64, 8),
        ("uniform_random", 9, 3),    # randrange(8) of 4 bits: many rejections
        ("uniform_random", 2, None),
        ("hotspot", 16, 4),          # random() + one or two randrange per hit
        ("nearest_neighbor", 16, 4),  # rng.choice
        ("transpose", 16, 4),        # diagonal nodes hit and send nothing
    ])
    @pytest.mark.parametrize("rate", [0.004, 0.3, 1.0])
    def test_generate_is_the_draw_loop(self, name, nodes, width, rate):
        pattern = pattern_by_name(name, nodes, width)
        cycles = 40_000 // nodes  # several refills of the read-ahead
        traffic = SyntheticTraffic(pattern, rate, random.Random(77))
        log = _generated(traffic)
        sink = _Sink()
        for cycle in range(cycles):
            traffic.generate(sink, cycle)
        assert log == _draw_loop(pattern, 77, cycles, lambda c: rate)
        assert traffic.generated == len(log) == len(sink.offered)

    @pytest.mark.parametrize("kind", ["synthetic", "flow", "trace",
                                      "coherence", "moesi"])
    def test_skipping_to_the_next_event_is_stepping(self, kind):
        stepped, skipped = _low_load_source(kind), _low_load_source(kind)
        expected, got = OfferLog(), OfferLog()
        cycles = 30_000
        for cycle in range(cycles):
            stepped.generate(expected, cycle)
        cycle = stepped_cycles = 0
        while cycle < cycles:
            arrival = skipped.next_event_cycle(cycle, cycles)
            if arrival > cycle:
                skipped.skip_cycles(got, cycle, arrival - cycle)
                cycle = arrival
            else:
                skipped.generate(got, cycle)
                stepped_cycles += 1
                cycle += 1
        assert got.offered == expected.offered and len(got.offered) > 200
        if kind != "trace":
            assert skipped.rng.random() == stepped.rng.random()
        # The source woke for its hits and little else.
        assert stepped_cycles < 1.2 * len(got.offered)

    def test_injection_rate_is_assignable_mid_run(self):
        pattern = UniformRandom(16)
        traffic = SyntheticTraffic(pattern, 0.2, random.Random(5))
        log = _generated(traffic)
        sink = _Sink()

        def rate_at(cycle):
            return 0.0 if 300 <= cycle < 900 else 0.2

        for cycle in range(1500):
            if cycle in (300, 900):
                traffic.injection_rate = rate_at(cycle)
            traffic.generate(sink, cycle)
        # Silent while the rate is 0, and the cursor kept moving two words
        # per node per cycle: the stream resumes where the draw loop does.
        assert not [p for p in log if 300 <= p[0] < 900]
        assert log == _draw_loop(pattern, 5, 1500, rate_at)
        assert traffic.injection_rate == 0.2
        with pytest.raises(ValueError):
            traffic.injection_rate = 1.5
        with pytest.raises(ValueError):
            SyntheticTraffic(pattern, -0.1, random.Random(5))

    def test_backlog_emptied_behind_the_source_is_tolerated(self):
        traffic = SyntheticTraffic(UniformRandom(16), 0.5, random.Random(6))
        full = _Sink(accept=False)
        for cycle in range(4):
            traffic.generate(full, cycle)
        assert traffic.backlog_size() > 0
        assert traffic.next_event_cycle(4, 10) == 4  # a backlog pins it
        traffic.injection_rate = 0.0
        traffic.backlog.clear()
        traffic.generate(full, 4)
        assert not traffic.backlog.waiting
        assert traffic.backlog_size() == 0
        assert traffic.next_event_cycle(5, 10**6) > 5

    @pytest.mark.parametrize("name, nodes, width", [
        ("uniform_random", 64, 8),
        ("uniform_random", 9, 3),
        ("hotspot", 16, 4),
    ])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.3])
    def test_skip_walks_the_hits_across_refills(self, name, nodes, width,
                                                  rate):
        # A skip is generate over a span: the same packets with the same
        # pids, destinations and gen cycles, through however many
        # read-ahead refills, and the same backlogs behind NI queues that
        # do not drain inside the span (its contract) but may have between
        # spans.
        pattern = pattern_by_name(name, nodes, width)
        stepped = SyntheticTraffic(pattern, rate, random.Random(31))
        skipped = SyntheticTraffic(pattern, rate, random.Random(31))
        expected, got = _generated(stepped), _generated(skipped)
        sinks = (_Sink(capacity=3), _Sink(capacity=3))
        lengths = random.Random(5)
        cycle = 0
        while cycle < 60_000 // nodes:
            count = lengths.choice((1, 2, 7, 300, 3_000))
            for c in range(cycle, cycle + count):
                stepped.generate(sinks[0], c)
            skipped.skip_cycles(sinks[1], cycle, count)
            cycle += count
            for sink in sinks:
                sink.release()
            assert got == expected
            assert (stepped._stream.offset + stepped._stream.pos
                    == skipped._stream.offset + skipped._stream.pos)
            assert _depths(stepped.backlog) == _depths(skipped.backlog)
            assert stepped.backlog.waiting == skipped.backlog.waiting
        assert [p.pid for p in sinks[0].offered] == [
            p.pid for p in sinks[1].offered]
        assert skipped._stream._block == skipped._stream.MAX_BLOCK  # refilled
        assert (len(got) > 300) == (rate > 0)
        # Both cursors sit on the same word: a burst of hits agrees too.
        for traffic in (stepped, skipped):
            traffic.injection_rate = 0.5
            for c in range(cycle, cycle + 20):
                traffic.generate(_Sink(), c)
        assert got == expected

    def test_one_draw_path(self, monkeypatch):
        # uniform_random at low load never touches the facade's random():
        # Bernoulli draws are read off the hit list, and there is no
        # replay loop beside generate.
        from repro.traffic.synthetic import MirroredRandom

        calls = []
        real = MirroredRandom.random
        monkeypatch.setattr(
            MirroredRandom, "random",
            lambda self: calls.append(1) or real(self))
        traffic = SyntheticTraffic(UniformRandom(64, 8), 0.002,
                                   random.Random(8))
        sim = Simulation(make_mesh(8, 8), make_config(Scheme.DRAIN), traffic)
        sim.run(20_000)
        assert traffic.generated > 1000 and sim.ff_cycles > 0
        assert calls == []

    @pytest.mark.parametrize("source", [
        SyntheticTraffic, TraceRecorder, FlowTraffic, TraceTraffic,
        CoherenceTraffic, MoesiTraffic])
    def test_one_fast_forward_contract(self, source):
        # Every source skips through next_event_cycle and skip_cycles,
        # and has no second generate path beside generate.
        assert callable(source.next_event_cycle)
        assert callable(source.skip_cycles)
        assert [name for name in dir(source)
                if name.endswith("generate")] == ["generate"]


class TestBacklog:
    """Backlogged packets are records; a Packet exists only once offered."""

    def test_records_round_trip_in_fifo_order(self):
        backlog = Backlog()
        fields = [(0, 7, 0, MessageClass.REQ),
                  (2**40 - 1, 2**20 - 1, 2**70 + 3, MessageClass.UNBLOCK),
                  (5, 1, 123_456_789, MessageClass.RESP)]
        for pid, dst, cycle, cls in fields:
            backlog.push(3, pid, dst, cycle, cls)
        assert backlog.size == 3 and backlog.waiting == {3}
        sink = _Sink()
        backlog.sweep(sink.offer_packet, backlog.waiting)
        assert [(p.pid, p.src, p.dst, p.gen_cycle, p.msg_class)
                for p in sink.offered] == [
            (pid, 3, dst, cycle, cls) for pid, dst, cycle, cls in fields]
        assert all(type(p.msg_class) is MessageClass for p in sink.offered)
        assert backlog.size == 0 and not backlog.waiting
        with pytest.raises(OverflowError):
            backlog.push(3, 2**40, 1, 0, 0)
        with pytest.raises(OverflowError):
            backlog.push(3, 0, 2**20, 0, 0)

    def test_a_refused_head_stays_built(self):
        backlog = Backlog()
        for pid in range(4):
            backlog.push(1, pid, 2, 10 + pid, 0)
        sink = _Sink(capacity=1)
        backlog.sweep(sink.offer_packet, backlog.waiting)
        head = backlog._heads[1]
        assert head.pid == 1 and backlog.size == 3
        backlog.sweep(sink.offer_packet, backlog.waiting)
        assert backlog._heads[1] is head  # offered again, not rebuilt
        sink.release()
        backlog.sweep(sink.offer_packet, backlog.waiting)
        assert [p.pid for p in sink.offered] == [0, 1]
        assert backlog.size == 2 and backlog.waiting == {1}
        backlog.clear()
        assert backlog.size == 0 and not backlog.waiting

    def test_saturated_run_holds_at_most_one_packet_per_waiting_node(self):
        # A wedged 8x8 DRAIN run at 0.30 leaves thousands of packets
        # backlogged. Every live Packet is in the network, an NI queue, an
        # ejection queue or a waiting node's head, at most one each.
        traffic = SyntheticTraffic(UniformRandom(64, 8), 0.30,
                                   random.Random(11))
        sim = Simulation(make_mesh(8, 8),
                         make_config(Scheme.DRAIN, epoch=384), traffic)
        sim.run(800, warmup=100)
        fabric = sim.fabric
        gc.collect()
        live = sum(1 for obj in gc.get_objects() if type(obj) is Packet)
        queued = sum(len(q) for queues in fabric.inj_queues for q in queues)
        ejecting = sum(len(q) for queues in fabric.ej_queues for q in queues)
        placed = fabric.packets_in_network + queued + ejecting
        waiting = len(traffic.backlog.waiting)
        assert traffic.backlog_size() > 5 * (placed + waiting)
        assert placed <= live <= placed + waiting
