"""Sleeping-router scan: the invariance the vectorized kernel leans on.

A router whose full scan granted nothing goes to sleep with the number of
LCG draws that scan consumed; while asleep, ``VectorizedEngine.movement``
replaces its walk by one affine LCG jump (DESIGN.md, "Sleeping routers").
That is exact only if (1) a grant-less scan's draw count depends on the
router's slots alone and (2) every state change that could let a sleeping
router grant, or change its draw count, wakes it. The parity suites pin
the end results; these tests pin the two properties directly:

- a twin simulation whose routers are all woken before every step (so it
  never jumps) must stay LCG-identical cycle by cycle — and, on a
  pause/resume fabric, stall-count-identical: a sleeping router replays
  the PFC stalls of its skipped scan beside its draws;
- the mechanism engages on a wedged mesh and stays out of the way at low
  load (an exact, time-free pin of the perf claim);
- each wake source, exercised on a hand-built wedge;
- stuck spans: when every occupied router sleeps and no node can inject,
  the fast-forward jumps to the next event; each span end must match a
  ``dense`` twin, and no span may cover an event.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import NetworkConfig, PfcConfig, Scheme, SimConfig
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.faults.storm import PauseStormEvent, PauseStormSchedule
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.network.pause import PauseResumeFabric
from repro.router.packet import Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.datacenter import make_leaf_spine
from repro.topology.mesh import make_mesh, make_torus
from repro.traffic.flows import Flow, FlowTraffic
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

#: Crosses two drain epochs and several spin timeouts inside 240 cycles —
#: long enough for an 8x8 at 0.30 to wedge (a 4x4 barely sleeps there).
TWIN_SCALE = Scale(warmup=40, measure=200, epoch=96, spin_timeout=48)
TWIN_RATE = 0.30
TWIN_SEEDS = range(1, 41)


def _sim(topology, width, scheme, scale, rate, seed, fault_schedule=None):
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, width),
        rate,
        random.Random(derive_seed(seed, "traffic", "uniform_random", rate)),
    )
    sim = Simulation(topology, scheme_config(scheme, scale, seed=seed),
                     traffic, fault_schedule=fault_schedule)
    assert sim.fabric.engine_name == "vectorized"
    return sim


def _twin_case(kind, seed):
    """(topology, width, scheme, fault schedule) for one twin run."""
    if kind == "faulted_mesh":
        # Both events land mid-run, on routers that are asleep by then.
        schedule = FaultSchedule(
            events=(FaultEvent(cycle=100, kind="link", target=(5, 6)),
                    FaultEvent(cycle=170, kind="link", target=(9, 10))),
            seed=seed, onset="uniform")
        scheme = (Scheme.DRAIN, Scheme.NONE)[seed % 2]
        return make_mesh(8, 8), 8, scheme, schedule
    topology = make_mesh(8, 8) if kind == "mesh" else make_torus(8, 8)
    scheme = (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
              Scheme.NONE)[seed % 4]
    return topology, 8, scheme, None


class TestDrawCountInvariance:
    @pytest.mark.parametrize("kind", ["mesh", "torus", "faulted_mesh"])
    def test_jump_matches_never_sleeping_twin(self, kind):
        slept_draws = []
        jumped_router_cycles = 0
        for seed in TWIN_SEEDS:
            topology, width, scheme, schedule = _twin_case(kind, seed)
            sim = _sim(topology, width, scheme, TWIN_SCALE, TWIN_RATE, seed,
                       schedule)
            twin = _sim(topology, width, scheme, TWIN_SCALE, TWIN_RATE, seed,
                        schedule)
            engine = sim.fabric._engine
            for cycle in range(TWIN_SCALE.total_cycles):
                before = bytes(engine.asleep)
                if not sim.fabric.frozen:
                    jumped_router_cycles += sum(before)
                sim.step()
                twin.fabric._engine.wake_all()
                twin.step()
                assert sim.fabric._lcg == twin.fabric._lcg, (
                    f"{kind} seed {seed}: LCG diverged at cycle {cycle}")
                slept_draws.extend(
                    engine.sleep_draws[r]
                    for r in range(topology.num_nodes)
                    if engine.asleep[r] and not before[r])
            assert sim.stats.as_dict() == twin.stats.as_dict(), (kind, seed)
            assert engine.audit_sleep() == []
        # Not vacuous: routers slept, with non-trivial draw counts, and
        # their walks really were replaced by jumps.
        assert max(slept_draws) >= 4
        assert jumped_router_cycles > 40 * len(TWIN_SEEDS)


    def test_pause_wedge_sleeps_and_keeps_stalling(self):
        # The pinned CBD scenario (tests/test_lossless.py) under NONE: PFC
        # pause closes a buffer cycle over the east-west ring and nothing
        # moves again. Every stuck packet then faces XOFF rows, so each
        # scan it would have had counts stalls — which the sleeping
        # routers must keep replaying, cycle for cycle.
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = SimConfig(
            scheme=Scheme.NONE,
            network=NetworkConfig(num_vns=1, vcs_per_vn=4),
            flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=2, resume_threshold=0, headroom=1))

        def build(dense=False):
            traffic = FlowTraffic(
                [Flow(i, (i + 2) % 8, 0.9) for i in range(8)],
                random.Random(7))
            return Simulation(topology, config, traffic, dense=dense)

        sim, twin = build(), build()
        dense = build(dense=True)
        fabric, engine = sim.fabric, sim.fabric._engine
        assert engine is not None and dense.fabric._engine is None
        stalls_asleep = 0
        for cycle in range(2_000):
            occupied = [r for r in range(topology.num_nodes)
                        if fabric._router_occ[r]]
            wedged = bool(occupied) and all(engine.asleep[r]
                                            for r in occupied)
            before = fabric.pfc_stalls
            sim.step()
            twin.fabric._engine.wake_all()
            twin.step()
            dense.step()
            assert (fabric._lcg == twin.fabric._lcg == dense.fabric._lcg
                    ), f"LCG diverged at cycle {cycle}"
            assert (fabric.pfc_stalls == twin.fabric.pfc_stalls
                    == dense.fabric.pfc_stalls
                    ), f"stall count diverged at cycle {cycle}"
            if wedged:
                stalls_asleep += fabric.pfc_stalls - before
        assert sim.watchdog.deadlocked and dense.watchdog.deadlocked
        assert sim.watchdog.cycle_payload == dense.watchdog.cycle_payload
        assert sim.watchdog.cycle_payload["kind"] == "buffer-cycle"
        assert wedged and engine.audit_sleep() == []
        assert any(engine.sleep_stalls[r] for r in occupied)
        # Replayed, not recounted: most of the run's stalls accrue while
        # every occupied router sleeps.
        assert stalls_asleep > fabric.pfc_stalls // 2 > 0
        assert (sim.stats.as_dict() == twin.stats.as_dict()
                == dense.stats.as_dict())
        assert (fabric.pfc_summary() == twin.fabric.pfc_summary()
                == dense.fabric.pfc_summary())


class TestEngagement:
    @staticmethod
    def _mean_asleep(rate):
        scale = Scale.ci()
        sim = _sim(make_mesh(8, 8), 8, Scheme.DRAIN, scale, rate, seed=1)
        engine = sim.fabric._engine
        samples = []
        for cycle in range(900):
            sim.step()
            if cycle >= 300 and not sim.fabric.frozen:
                samples.append(sum(engine.asleep))
        assert engine.audit_sleep() == []
        return sum(samples) / len(samples)

    def test_wedged_mesh_sleeps(self):
        # Past the knee almost every router is wedged between drain
        # windows (measured 61.7-63.8 of 64 across seeds)...
        assert self._mean_asleep(0.30) >= 48
        # ...and at low load a router holding a packet grants it.
        assert self._mean_asleep(0.002) <= 1


# ----------------------------------------------------------------------
# Wake sources, one by one, on a hand-built two-router wedge
# ----------------------------------------------------------------------
def _wedge():
    """Router 0 holds a packet for node 1 behind a full link port whose
    two occupants are destined to node 1, whose ejection queue is full.

    After two steps router 1 sleeps with 0 draws and router 0 with 1.
    Returns (fabric, engine, link 0->1, the waiting packet).
    """
    index = FabricIndex(make_mesh(4, 4))
    config = SimConfig(scheme=Scheme.NONE,
                       network=NetworkConfig(num_vns=1, vcs_per_vn=2))
    fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                    rng=random.Random(1))
    engine = fabric._engine
    assert engine is not None
    link = next(i for i in range(index.num_links)
                if index.link_src[i] == 0 and index.link_dst[i] == 1)
    for pid in range(fabric._ej_depth):
        fabric.packets_in_network += 1
        fabric._eject(1, Packet(100 + pid, 0, 1))
    for vc in (0, 1):
        fabric.packets_in_network += 1
        fabric.set_slot(link, 0, vc, Packet(200 + vc, 0, 1))
    waiting = Packet(1, 0, 1)
    assert fabric.offer_packet(waiting)
    for _ in range(3):
        fabric.step()
    assert fabric.slot(index.injection_port(0), 0, 0) is waiting
    assert list(engine.asleep[:2]) == [1, 1]
    assert engine.sleep_draws[0] == 1 and engine.sleep_draws[1] == 0
    assert engine.audit_sleep() == []
    return fabric, engine, link, waiting


class TestWakeSources:
    def test_sleeping_scan_draws_like_a_full_scan(self):
        fabric, engine, _, _ = _wedge()
        lcg = fabric._lcg
        fabric.step()
        assert fabric._lcg == (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        assert list(engine.asleep[:2]) == [1, 1]

    def test_pop_ejection_on_full_queue(self):
        fabric, engine, link, waiting = _wedge()
        fabric.pop_ejection(1, waiting.msg_class)
        assert engine.asleep[1] == 0 and engine.audit_sleep() == []
        fabric.step()  # router 1 ejects a blocker: its feeder wakes
        assert engine.asleep[0] == 0 and engine.audit_sleep() == []
        fabric.step()
        assert waiting in (fabric.slot(link, 0, 0), fabric.slot(link, 0, 1))

    def test_fault_drop_slot(self):
        fabric, engine, link, waiting = _wedge()
        fabric.fault_drop_slot(link, 0, 0)
        assert list(engine.asleep[:2]) == [0, 0]
        assert engine.audit_sleep() == []
        fabric.step()
        assert fabric.slot(link, 0, 0) is waiting

    def test_drain_rotate_escape(self):
        fabric, engine, link, waiting = _wedge()
        back = fabric.index.link_reverse[link]
        rotated = fabric.slot(link, 0, 0)
        fabric.drain_rotate_escape([link, back])
        # VC 0's occupant rotated to router 0; both routers changed.
        assert fabric.slot(back, 0, 0) is rotated
        assert list(engine.asleep[:2]) == [0, 0]
        assert engine.audit_sleep() == []
        fabric.step()  # router 0 refills the freed VC with either packet
        assert fabric.slot(link, 0, 0) in (waiting, rotated)

    def test_arrival_wakes_destination_router(self):
        fabric, engine, link, _ = _wedge()
        # A packet two hops out reaches sleeping router 0 on its way to 1.
        fabric.offer_packet(Packet(2, 4, 1))
        fabric.step()
        fabric.step()
        assert engine.audit_sleep() == []

    def test_xoff_and_xon_flips(self):
        # A lone packet whose only minimal output is XOFF: its router
        # sleeps on one draw and one stall per cycle until the pause frame
        # expires; both flips wake the router feeding the row.
        index = FabricIndex(make_mesh(4, 4))
        config = SimConfig(
            scheme=Scheme.NONE,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=1, resume_threshold=0, headroom=1))
        fabric = PauseResumeFabric(index, config,
                                   AdaptiveMinimalRouting(index),
                                   rng=random.Random(1))
        engine = fabric._engine
        assert fabric.engine_name == "vectorized"
        link = next(i for i in range(index.num_links)
                    if index.link_src[i] == 0 and index.link_dst[i] == 1)
        fabric.force_pause(link, 0, until_cycle=6)
        waiting = Packet(1, 0, 1)
        assert fabric.offer_packet(waiting)
        fabric.step()  # injected
        fabric.step()  # scanned: stalled, asleep
        assert engine.asleep[0] == 1
        assert (engine.sleep_draws[0], engine.sleep_stalls[0]) == (1, 1)
        assert fabric.pfc_stalls == 1 and engine.audit_sleep() == []
        fabric.step()  # replayed, not rescanned
        assert engine.asleep[0] == 1 and fabric.pfc_stalls == 2
        # A second pause frame on an already-XOFF row is no flip; one on
        # another row out of router 0 is, and wakes it.
        fabric.force_pause(link, 0, until_cycle=6)
        assert engine.asleep[0] == 1
        other = next(i for i in range(index.num_links)
                     if index.link_src[i] == 0 and i != link)
        fabric.force_pause(other, 0, until_cycle=6)
        assert engine.asleep[0] == 0 and engine.audit_sleep() == []
        while fabric.cycle < 6:
            fabric.step()
        assert engine.asleep[0] == 1 and fabric.pfc_stalls == 5
        fabric.step()  # cycle 6: the frames expire, XON wakes router 0
        assert fabric.slot(link, 0, 0) is waiting
        assert fabric.pfc_stalls == 5 and engine.audit_sleep() == []

    def test_invalidate_routing_cache(self):
        fabric, engine, _, _ = _wedge()
        fabric.invalidate_routing_cache()
        assert sum(engine.asleep) == 0
        rebuilds = engine.rebuilds
        fabric.step()
        assert engine.rebuilds == rebuilds + 1
        assert list(engine.asleep[:2]) == [1, 1]  # still wedged: asleep again
        assert engine.audit_sleep() == []

    def test_apply_faults_mid_sleep(self):
        fabric, engine, link, waiting = _wedge()
        index = fabric.index
        # The only minimal route dies; the rebuilt tables detour via 4.
        index.apply_faults({link, index.link_reverse[link]}, set())
        fabric.routing.rebuild()
        assert engine.audit_sleep() == []  # stale epoch: flags are void
        fabric.step()
        assert engine._used0[link] == 1
        assert fabric.slot(index.injection_port(0), 0, 0) is None
        assert waiting.hops == 1
        assert engine.audit_sleep() == []

    def test_link_freed_by_a_transfer_keeps_its_router_awake(self):
        # Two 4-flit packets at node 0, for nodes 2 and 1, share the one
        # minimal link 0->1. The first is granted at cycle 1 and lands at
        # router 1 at cycle 4, holding the link through cycle 4 and its
        # slot there while it moves on to node 2 (cycles 4-7). Router 0
        # scans the second against the busy link on cycles 2-4 and grants
        # it on cycle 5: the link frees with no slot write, so a router
        # that slept on it would wait for the next write, on cycle 7.
        def build(dense):
            index = FabricIndex(make_mesh(4, 4))
            config = SimConfig(scheme=Scheme.NONE, network=NetworkConfig(
                num_vns=1, vcs_per_vn=2, packet_size_flits=4))
            return Fabric(index, config, AdaptiveMinimalRouting(index),
                          rng=random.Random(1), dense=dense)

        grants = {}
        for dense in (False, True):
            fabric = build(dense)
            first, second = Packet(1, 0, 2), Packet(2, 0, 1)
            assert fabric.offer_packet(first) and fabric.offer_packet(second)
            for _ in range(6):
                fabric.step()
                if not dense:
                    assert fabric._engine.audit_sleep() == []
            grants[dense] = [(done, pkt.pid)
                             for done, *_, pkt in fabric._in_flight]
        assert grants[False] == grants[True] == [(7, 1), (8, 2)]


# ----------------------------------------------------------------------
# Stuck-network spans: the fast-forward across a wedge, against a twin
# ----------------------------------------------------------------------
#: Two drain windows, eight SPIN / watchdog ticks and a measurement
#: boundary in 1 200 cycles; an 8x8 at 0.30 wedges between all of them.
SPAN_SCALE = Scale(warmup=150, measure=1050, epoch=400, spin_timeout=64)
SPAN_CASES = ("drain", "spin", "none", "faults", "router_fault", "pfc",
              "pfc_storm")


def _span_sim(case, seed):
    """One span-twin case. Every scheme runs one VN: synthetic traffic
    rides VN 0 only, and with one VN a full injection port is a node that
    cannot inject."""
    schedule = storm = None
    rate = 0.30
    if case.startswith("pfc"):
        # The CBD leaf-spine of the pause-wedge test under synthetic
        # traffic: the wedge's sleeping routers replay XOFF stalls. The
        # storm pins rows XOFF and delays every XON for a while: timers
        # inside the fabric that a stuck span must not run past.
        topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        if case == "pfc_storm":
            # Every link row pinned at cycle 20 (the empty ones too, whose
            # release is an XON), each released on its own later cycle.
            links = 2 * topology.num_edges
            storm = PauseStormSchedule(events=tuple(
                PauseStormEvent(20, "stuck_xoff", (port, 0),
                                duration=200 + 29 * (port % 13))
                for port in range(links)) + (
                PauseStormEvent(700, "resume_jitter", (0, 0), duration=200,
                                value=23),))
        config = SimConfig(
            scheme=Scheme.NONE,
            network=NetworkConfig(num_vns=1, vcs_per_vn=4),
            flow_control="pause_resume", seed=seed,
            pfc=PfcConfig(pause_threshold=2, resume_threshold=0, headroom=1))
        rate = 0.6
    else:
        topology = make_mesh(8, 8)
        scheme = {"spin": Scheme.SPIN, "none": Scheme.NONE}.get(
            case, Scheme.DRAIN)
        config = scheme_config(scheme, SPAN_SCALE, num_vns=1, seed=seed)
        if case == "faults":
            schedule = FaultSchedule(
                events=(FaultEvent(cycle=333, kind="link", target=(27, 28)),
                        FaultEvent(cycle=701, kind="link", target=(35, 43))),
                seed=seed, onset="uniform")
        elif case == "router_fault":
            schedule = FaultSchedule(
                events=(FaultEvent(cycle=457, kind="router",
                                   target=(36, -1)),),
                seed=seed, onset="uniform")
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, None), rate,
        random.Random(derive_seed(seed, "traffic", "uniform_random", rate)))
    return Simulation(topology, config, traffic, fault_schedule=schedule,
                      pause_storm=storm)


def _span_state(sim):
    """Everything a span replays, in comparable form."""
    fabric, traffic = sim.fabric, sim.traffic
    stream, backlog = traffic._stream, traffic.backlog
    drain = sim.drain_controller
    return {
        "lcg": fabric._lcg, "cycle": fabric.cycle, "inj_rr": fabric._inj_rr,
        "stats": sim.stats.as_dict(),
        "unroutable": sim.stats.packets_unroutable,
        "cursor": stream.offset + stream.pos,
        "generated": traffic.generated,
        "backlogs": {node: len(backlog._records[node])
                     + (node in backlog._heads) for node in backlog.waiting},
        "ni": [len(q) for queues in fabric.inj_queues for q in queues],
        "drain": None if drain is None else (drain.state, drain._countdown),
        "stalls": getattr(fabric, "pfc_stalls", None),
    }


class _SpanTwin:
    """Runs a case fast; at every span end, steps a ``dense`` twin up to
    the same cycle and compares. The twin also records the cycles at which
    a side component acted (freeze, SPIN probe fire), which no span may
    cover."""

    def __init__(self, case, seed):
        self.sim = sim = _span_sim(case, seed)
        self.twin = twin = _span_sim(case, seed)
        twin.dense = True
        #: (start, count, stuck, stream refilled, unroutable swallowed)
        self.spans = []
        self.events = set()
        skip = sim._skip

        def recording(cycles):
            start = sim.fabric.cycle
            stuck = not sim.fabric.quiescent
            offset = sim.traffic._stream.offset
            unroutable = sim.stats.packets_unroutable
            skip(cycles)
            self.spans.append((start, cycles, stuck,
                               sim.traffic._stream.offset != offset,
                               sim.stats.packets_unroutable - unroutable))
            self.check()

        sim._skip = recording

    def check(self):
        sim, twin = self.sim, self.twin
        while twin.fabric.cycle < sim.fabric.cycle:
            cycle = twin.fabric.cycle
            frozen = twin.fabric.frozen
            twin.step()
            if twin.fabric.frozen and not frozen:
                self.events.add(cycle)
            if twin.spin_controller is not None:
                self.events.update(f for f, _ in twin.spin_controller._pending)
        assert _span_state(sim) == _span_state(twin), sim.fabric.cycle
        engine = sim.fabric._engine
        assert engine.audit_sleep() == [] and engine.audit_masks() == []

    def run(self):
        scale = SPAN_SCALE
        self.twin.fabric.measure_from = scale.warmup
        self.sim.run(scale.total_cycles, warmup=scale.warmup)
        self.check()
        ticks = [c.check_interval for c in (self.sim.watchdog,
                                            self.sim.spin_controller)
                 if c is not None]
        for interval in ticks:
            self.events.update(range(0, scale.total_cycles, interval))
        injector = self.sim.fault_injector
        if injector is not None:
            self.events.update(e.cycle for e in injector.schedule)
        return self


class TestStuckSpans:
    @pytest.mark.parametrize("case", SPAN_CASES)
    def test_every_span_end_matches_the_dense_twin(self, case):
        stuck_spans = stuck_cycles = 0
        for seed in (1, 2):
            run = _SpanTwin(case, seed).run()
            end = SPAN_SCALE.total_cycles
            for start, count, stuck, _, _ in run.spans:
                assert start + count <= end
                # A span may start on the measurement boundary, not
                # straddle it.
                assert not start < SPAN_SCALE.warmup < start + count
                hit = [e for e in run.events if start <= e < start + count]
                assert not hit, f"{case} seed {seed}: span at {start} " \
                    f"covers event cycles {hit}"
                if stuck:
                    stuck_spans += 1
                    stuck_cycles += count
            # Spans run up to the events they may not cross.
            assert any(start + count in run.events
                       for start, count, _, _, _ in run.spans)
        assert stuck_spans >= 2 and stuck_cycles >= 500, (
            case, stuck_spans, stuck_cycles)

    def test_a_span_crosses_a_stream_refill(self):
        run = _SpanTwin("drain", 1).run()
        assert any(stuck and refilled
                   for _, _, stuck, refilled, _ in run.spans)

    def test_doomed_backlog_inside_a_span(self):
        # After a router dies, packets generated for it are doomed: an
        # offer swallows them as unroutable even into a full NI queue, so
        # the source's offers inside a wedge are not all refused. The span
        # replays them: some span swallows packets, and every span end
        # still matches the dense twin (checked as the run goes).
        swallowed = 0
        for seed in (1, 2, 3):
            run = _SpanTwin("router_fault", seed).run()
            assert run.sim.index.dead_routers == {36}
            swallowed += sum(lost for start, _, stuck, _, lost in run.spans
                             if stuck and start > 457)
        assert swallowed > 0

    def test_halt_on_deadlock_matches_dense(self):
        halts = {}
        for dense in (False, True):
            topology = make_mesh(8, 8)
            config = scheme_config(Scheme.NONE, SPAN_SCALE, num_vns=1, seed=4)
            traffic = SyntheticTraffic(
                pattern_by_name("uniform_random", 64, 8), 0.30,
                random.Random(derive_seed(4, "traffic", "uniform_random",
                                          0.30)))
            sim = Simulation(topology, config, traffic, dense=dense,
                             halt_on_deadlock=True)
            sim.run(SPAN_SCALE.total_cycles, warmup=SPAN_SCALE.warmup)
            assert sim.deadlocked
            halts[dense] = (sim.fabric.cycle, sim.watchdog.cycle_payload,
                            sim.stats.as_dict(), sim.fabric._lcg)
            if not dense:
                assert sim.ff_cycles > 0
        assert halts[False] == halts[True]
        assert halts[False][0] < SPAN_SCALE.total_cycles


class TestSpanEngagement:
    @staticmethod
    def _run(rate, seed):
        topology = make_mesh(8, 8)
        traffic = SyntheticTraffic(
            pattern_by_name("uniform_random", 64, 8), rate,
            random.Random(derive_seed(seed, "traffic", "uniform_random",
                                      rate)))
        sim = Simulation(topology,
                         scheme_config(Scheme.DRAIN, Scale.ci(), seed=seed),
                         traffic)
        sim.run(3_000, warmup=300)
        return sim

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wedged_mesh_is_skipped(self, seed):
        # Between its drain windows the saturated mesh is wedged for
        # 85-94 % of the run (the stuck predicate, counted cycle by cycle).
        sim = self._run(0.30, seed)
        assert sim.ff_cycles >= 0.75 * sim.stats.cycles

    def test_low_load_spans_unchanged(self):
        # Low load never wedges: the same empty-fabric spans as before the
        # stuck case existed, span for span.
        spans = [(s.ff_spans, s.ff_cycles)
                 for s in (self._run(0.002, seed) for seed in (1, 2, 3))]
        assert spans == [(159, 1199), (144, 1216), (147, 1058)]


class TestJumpAndGuards:
    @staticmethod
    def _steps(lcg, k):
        for _ in range(k):
            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        return lcg

    def test_jump_is_repeated_steps(self):
        from repro.network.vectorized import lcg_jump

        sim = _span_sim("drain", 1)
        fabric = sim.fabric
        while not fabric.inert or fabric.quiescent:
            sim.step()
        engine = fabric._engine
        draws = sum(engine.sleep_draws[r] for r in range(64)
                    if fabric._router_occ[r])
        assert draws > 0
        for lcg in (0, 1, fabric._lcg, 0x7FFFFFFF):
            for k in (0, 1, 2, 2 ** 20 + 3, 1_801 * draws):
                assert lcg_jump(lcg, k) == self._steps(lcg, k), (lcg, k)

    def test_stuck_fabric_skip_is_stepping(self):
        sim, twin = _span_sim("drain", 2), _span_sim("drain", 2)
        while not sim.fabric.inert or sim.fabric.quiescent:
            sim.step()
            twin.step()
        sim.fabric.skip_cycles(37)
        for _ in range(37):
            twin.fabric.step()
        assert (sim.fabric._lcg, sim.fabric.cycle, sim.fabric._inj_rr) == (
            twin.fabric._lcg, twin.fabric.cycle, twin.fabric._inj_rr)
        assert sim.fabric.inert
