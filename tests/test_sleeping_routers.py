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
- each wake source, exercised on a hand-built wedge.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import NetworkConfig, PfcConfig, Scheme, SimConfig
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
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
                     traffic, engine="vectorized",
                     fault_schedule=fault_schedule)
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

        def build(engine):
            traffic = FlowTraffic(
                [Flow(i, (i + 2) % 8, 0.9) for i in range(8)],
                random.Random(7))
            return Simulation(topology, config, traffic, engine=engine)

        sim, twin = build("vectorized"), build("vectorized")
        scalar = build("scalar")
        fabric, engine = sim.fabric, sim.fabric._engine
        assert engine is not None and scalar.fabric._engine is None
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
            scalar.step()
            assert (fabric._lcg == twin.fabric._lcg == scalar.fabric._lcg
                    ), f"LCG diverged at cycle {cycle}"
            assert (fabric.pfc_stalls == twin.fabric.pfc_stalls
                    == scalar.fabric.pfc_stalls
                    ), f"stall count diverged at cycle {cycle}"
            if wedged:
                stalls_asleep += fabric.pfc_stalls - before
        assert sim.watchdog.deadlocked and scalar.watchdog.deadlocked
        assert sim.watchdog.cycle_payload == scalar.watchdog.cycle_payload
        assert sim.watchdog.cycle_payload["kind"] == "buffer-cycle"
        assert wedged and engine.audit_sleep() == []
        assert any(engine.sleep_stalls[r] for r in occupied)
        # Replayed, not recounted: most of the run's stalls accrue while
        # every occupied router sleeps.
        assert stalls_asleep > fabric.pfc_stalls // 2 > 0
        assert (sim.stats.as_dict() == twin.stats.as_dict()
                == scalar.stats.as_dict())
        assert (fabric.pfc_summary() == twin.fabric.pfc_summary()
                == scalar.fabric.pfc_summary())


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
        fabric.buf[link][0][vc] = Packet(200 + vc, 0, 1)
    waiting = Packet(1, 0, 1)
    assert fabric.offer_packet(waiting)
    for _ in range(3):
        fabric.step()
    assert fabric.buf[index.injection_port(0)][0][0] is waiting
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
        assert waiting in (fabric.buf[link][0][0], fabric.buf[link][0][1])

    def test_force_move(self):
        fabric, engine, link, waiting = _wedge()
        spare = fabric.index.injection_port(5)
        fabric.force_move((link, 0, 1), (spare, 0, 1))
        assert list(engine.asleep[:2]) == [0, 0]
        assert engine.audit_sleep() == []
        fabric.step()
        assert fabric.buf[link][0][1] is waiting

    def test_fault_drop_slot(self):
        fabric, engine, link, waiting = _wedge()
        fabric.fault_drop_slot(link, 0, 0)
        assert list(engine.asleep[:2]) == [0, 0]
        assert engine.audit_sleep() == []
        fabric.step()
        assert fabric.buf[link][0][0] is waiting

    def test_drain_rotate_escape(self):
        fabric, engine, link, waiting = _wedge()
        back = fabric.index.link_reverse[link]
        rotated = fabric.buf[link][0][0]
        fabric.drain_rotate_escape([link, back])
        # VC 0's occupant rotated to router 0; both routers changed.
        assert fabric.buf[back][0][0] is rotated
        assert list(engine.asleep[:2]) == [0, 0]
        assert engine.audit_sleep() == []
        fabric.step()  # router 0 refills the freed VC with either packet
        assert fabric.buf[link][0][0] in (waiting, rotated)

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
        assert fabric.buf[link][0][0] is waiting
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
        assert fabric.buf[index.injection_port(0)][0][0] is None
        assert waiting.hops == 1
        assert engine.audit_sleep() == []
