"""Lossless-fabric robustness: PFC pause/resume, CBD deadlock, ladder.

Covers the datacenter topology builders, the ``PfcConfig`` validation
surface, :class:`repro.network.PauseResumeFabric` hysteresis and the
escape-VC pause exemption, the pause-aware deadlock oracle payload,
pause-storm schedules and their injector pipeline, flow-level traffic,
the staged :class:`repro.drain.DegradationLadder`, retransmission under
pause-frozen sources, the ``lossless`` harness runner, and the CLI
surface (topology specs, ``--flow-control pause_resume`` with the
``--pfc-*`` thresholds, ``--halt-on-deadlock``).
"""

import hashlib
import json
import random

import pytest

from repro.cli import main, parse_topology
from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.drain import DegradationLadder
from repro.faults import FaultInjector, PauseStormEvent, PauseStormSchedule
from repro.harness import execute_trial, lossless_trial
from repro.network import find_deadlocked_slots
from repro.network.deadlock import WaitForGraph
from repro.network.pause import PauseResumeFabric
from repro.network.retransmit import ATTEMPTS
from repro.router.packet import MessageClass, Packet
from repro.topology import make_fat_tree, make_leaf_spine
from repro.traffic import Flow, FlowTraffic
from tests.conftest import OfferLog, drive_source


def pfc_config(scheme=Scheme.NONE, pause=2, resume=0, headroom=1, **kwargs):
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=2048),
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause, resume_threshold=resume,
                      headroom=headroom),
        **kwargs,
    )


def ring_flows(rate=0.9, packets=None):
    return [Flow(i, (i + 2) % 8, rate, packets=packets) for i in range(8)]


def build_sim(scheme=Scheme.NONE, flows=None, seed=7, **sim_kwargs):
    """The pinned CBD scenario: 8x4 leaf-spine with an east-west ring."""
    topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
    traffic = FlowTraffic(flows or ring_flows(), random.Random(seed))
    return Simulation(topo, pfc_config(scheme), traffic, **sim_kwargs)


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------
class TestLeafSpine:
    def test_full_bipartite_default(self):
        topo = make_leaf_spine(4, 3)
        assert topo.num_nodes == 7
        assert topo.num_edges == 12
        assert topo.name == "leafspine-4x3"
        assert topo.is_connected()

    def test_striped_uplinks(self):
        topo = make_leaf_spine(8, 4, uplinks=2)
        assert topo.num_edges == 16
        assert topo.name == "leafspine-8x4-u2"
        # Leaf 0 stripes onto spines 8 and 9.
        assert {n for n in topo.neighbors(0)} == {8, 9}

    def test_east_west_ring(self):
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        assert topo.name == "leafspine-8x4-u1-ew"
        # 8 uplinks + 8 ring edges.
        assert topo.num_edges == 16
        assert 1 in topo.neighbors(0) and 7 in topo.neighbors(0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two leaves"):
            make_leaf_spine(1, 2)
        with pytest.raises(ValueError, match="at least one spine"):
            make_leaf_spine(4, 0)
        with pytest.raises(ValueError, match="uplinks"):
            make_leaf_spine(4, 2, uplinks=3)
        with pytest.raises(ValueError, match="at least three leaves"):
            make_leaf_spine(2, 2, east_west=True)

    def test_disconnected_rejected(self):
        # 2 leaves striping one uplink each onto different spines.
        with pytest.raises(ValueError, match="disconnected"):
            make_leaf_spine(2, 2, uplinks=1)


class TestFatTree:
    def test_k4_shape(self):
        topo = make_fat_tree(4)
        assert topo.num_nodes == 20  # 5k^2/4
        # k*(k/2)^2 edge-agg + k*(k/2)*(k/2) agg-core = 16 + 16.
        assert topo.num_edges == 32
        assert topo.name == "fattree-k4"
        assert topo.is_connected()

    def test_reduced_uplinks(self):
        topo = make_fat_tree(8, uplinks=2)
        assert topo.name == "fattree-k8-u2"
        # k*(k/2)^2 edge-agg + k*(k/2)*uplinks agg-core.
        assert topo.num_edges == 128 + 64
        assert topo.is_connected()

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            make_fat_tree(3)
        with pytest.raises(ValueError, match="uplinks"):
            make_fat_tree(4, uplinks=3)
        # One uplink splits the pod-core graph into parity classes.
        with pytest.raises(ValueError, match="disconnected"):
            make_fat_tree(4, uplinks=1)


# ---------------------------------------------------------------------------
# PfcConfig / SimConfig / configio
# ---------------------------------------------------------------------------
class TestPfcConfig:
    def test_defaults_valid(self):
        pfc = PfcConfig()
        assert (pfc.pause_threshold, pfc.resume_threshold, pfc.headroom) == (
            1, 0, 1)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(pause_threshold=0), "at least 1"),
        (dict(resume_threshold=-1), "non-negative"),
        (dict(pause_threshold=2, resume_threshold=2), "strictly below"),
        (dict(headroom=-1), "non-negative"),
    ])
    def test_field_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PfcConfig(**kwargs)

    def test_simconfig_feasibility(self):
        with pytest.raises(ValueError, match="exceeds the buffer depth"):
            pfc_config(pause=4, headroom=1)
        with pytest.raises(ValueError, match="headroom"):
            pfc_config(pause=1, headroom=5)
        # Credit mode never checks PFC feasibility.
        SimConfig(network=NetworkConfig(num_vns=1, vcs_per_vn=4),
                  pfc=PfcConfig(pause_threshold=4, headroom=4))

    def test_unknown_flow_control(self):
        with pytest.raises(ValueError, match="flow_control"):
            SimConfig(flow_control="store_and_forward")

    def test_configio_round_trip(self):
        config = pfc_config(pause=3, resume=1, headroom=1, seed=9)
        data = config_to_dict(config)
        assert data["flow_control"] == "pause_resume"
        assert data["pfc"] == {"pause_threshold": 3, "resume_threshold": 1,
                               "headroom": 1}
        assert config_from_dict(data) == config

    def test_configio_default_is_credit(self):
        data = config_to_dict(SimConfig())
        del data["flow_control"]
        assert config_from_dict(data).flow_control == "credit"

    def test_configio_rejects_unknown_pfc_key(self):
        data = config_to_dict(pfc_config())
        data["pfc"]["xon_delay"] = 3
        with pytest.raises(ValueError, match=r"\[pfc\]"):
            config_from_dict(data)


# ---------------------------------------------------------------------------
# PauseResumeFabric
# ---------------------------------------------------------------------------
def row_packet(pid, src=0, dst=4):
    return Packet(pid, src, dst, MessageClass.REQ, gen_cycle=0)


class TestPauseResumeFabric:
    def test_fabric_class_selected_by_config(self):
        sim = build_sim()
        assert isinstance(sim.fabric, PauseResumeFabric)
        credit = Simulation(
            make_leaf_spine(8, 4, uplinks=1, east_west=True),
            SimConfig(scheme=Scheme.NONE,
                      network=NetworkConfig(num_vns=1, vcs_per_vn=4)),
            FlowTraffic(ring_flows(), random.Random(1)),
        )
        assert not isinstance(credit.fabric, PauseResumeFabric)

    def test_hysteresis(self):
        fabric = build_sim().fabric  # pause=2, resume=0
        row = 0  # port 0, vn 0
        fabric.set_slot(0, 0, 0, row_packet(0))
        assert not fabric._xoff[row]
        fabric.set_slot(0, 0, 1, row_packet(1))
        assert fabric._xoff[row] and fabric.pfc_pauses == 1
        # Occupancy 1 > resume_threshold 0: still XOFF.
        fabric.set_slot(0, 0, 1, None)
        assert fabric._xoff[row] and fabric.pfc_resumes == 0
        fabric.set_slot(0, 0, 0, None)
        assert not fabric._xoff[row] and fabric.pfc_resumes == 1

    def test_resume_jitter_defers_xon(self):
        fabric = build_sim().fabric
        fabric.resume_jitter = 5
        fabric.set_slot(0, 0, 0, row_packet(0))
        fabric.set_slot(0, 0, 1, row_packet(1))
        fabric.set_slot(0, 0, 0, None)
        fabric.set_slot(0, 0, 1, None)
        # Row is empty but XON is parked until cycle + jitter.
        assert fabric._xoff[0] and fabric._pause_until[0] == fabric.cycle + 5
        fabric.cycle += 5
        fabric.movement_stage()
        assert not fabric._xoff[0] and fabric.pfc_resumes == 1

    def test_force_pause_pins_row(self):
        fabric = build_sim().fabric
        fabric.force_pause(3, 0, until_cycle=50)
        assert fabric._xoff[3] and fabric.pfc_forced == 1
        assert fabric.paused_row_count() == 1
        assert (3, 0) in fabric.paused_rows()
        # Empty row stays XOFF until the pin expires.
        fabric.movement_stage()
        assert fabric._xoff[3]
        fabric.cycle = 50
        fabric.movement_stage()
        assert not fabric._xoff[3]

    def test_force_pause_rejects_non_link_port(self):
        fabric = build_sim().fabric
        with pytest.raises(ValueError, match="link port"):
            fabric.force_pause(fabric.index.num_links, 0, 10)

    def test_xoff_blocks_allocation_without_escape(self):
        fabric = build_sim().fabric  # Scheme.NONE: no escape discipline
        assert not fabric.pause_exempt_escape
        fabric.force_pause(0, 0, 1000)
        assert fabric._pick_vc(0, 0, 0, set()) == -1
        assert fabric.pfc_stalls == 1

    def test_escape_vc_exempt_under_drain(self):
        fabric = build_sim(scheme=Scheme.DRAIN).fabric
        assert fabric.pause_exempt_escape
        fabric.force_pause(0, 0, 1000)
        # Adaptive-only requests stall; escape-capable ones land on VC 0.
        assert fabric._pick_vc(0, 0, 3, set()) == -1
        assert fabric._pick_vc(0, 0, 0, set()) == 0
        # With VC 0 occupied the exemption has nothing to offer.
        fabric.set_slot(0, 0, 0, row_packet(0))
        assert fabric._pick_vc(0, 0, 0, set()) == -1

    def test_pfc_summary_keys(self):
        summary = build_sim().fabric.pfc_summary()
        assert set(summary) == {"pauses_asserted", "resumes", "pause_stalls",
                                "forced_pauses", "rows_paused"}

    def test_vectorized_engine_models_pause(self):
        fabric = build_sim().fabric
        assert fabric.engine_name == "vectorized"
        assert fabric._engine._xoff is fabric._xoff
        # The dense sweep stays selectable as the oracle.
        dense = build_sim(dense=True).fabric
        assert dense.engine_name == "dense" and dense._engine is None


# ---------------------------------------------------------------------------
# Pause-aware deadlock oracle + payload
# ---------------------------------------------------------------------------
class TestPauseDeadlock:
    def test_pinned_scenario_wedges_and_names_cycle(self):
        sim = build_sim(halt_on_deadlock=True)
        sim.run(cycles=20_000)
        assert sim.deadlocked
        payload = sim.watchdog.cycle_payload
        assert payload is not None
        assert payload["kind"] == "buffer-cycle"
        assert payload["length"] == len(payload["cycle"]) >= 3
        assert sorted(set(payload["routers"])) == sorted(payload["routers"])
        for hop in payload["cycle"]:
            assert set(hop) == {"router", "port", "vn", "vc", "link",
                                "packet"}
            assert set(hop["packet"]) == {"pid", "src", "dst", "msg_class",
                                          "hops"}

    def test_paused_free_slots_are_not_an_exit(self):
        # The wedge is *pause-induced*: buffer rows pause at occupancy 2
        # of 4, so every stuck packet still sees free slots downstream.
        # The pause-aware oracle must not treat them as exits — and with
        # the pause model removed the very same state is no deadlock at
        # all under credit semantics.
        sim = build_sim(halt_on_deadlock=True)
        sim.run(cycles=20_000)
        assert sim.deadlocked
        graph = WaitForGraph(sim.fabric, assume_ejection_drains=False)
        stuck = graph.deadlocked()
        assert stuck
        assert any(
            t not in graph.occupant and graph.paused.get((t[0], t[1]))
            for slot in stuck for t in graph.targets[slot]
        )
        graph.paused = None
        assert graph.deadlocked() == set()

    def test_escape_exemption_mirrored_in_oracle(self):
        # Flipping the escape exemption on over the wedged state makes
        # every free escape slot claimable again: the oracle must agree
        # that the DRAIN escape channel dissolves the pause-induced CBD.
        sim = build_sim(halt_on_deadlock=True)
        sim.run(cycles=20_000)
        assert sim.deadlocked
        fabric = sim.fabric
        assert find_deadlocked_slots(fabric, assume_ejection_drains=False)
        fabric.pause_exempt_escape = True
        assert not find_deadlocked_slots(fabric,
                                         assume_ejection_drains=False)


# ---------------------------------------------------------------------------
# Pause-storm schedules + injector pipeline
# ---------------------------------------------------------------------------
class TestStormSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PauseStormEvent(0, "flood", (0, 0))
        with pytest.raises(ValueError, match="cycle 0"):
            PauseStormEvent(-1, "burst", (0, 1), value=2)
        with pytest.raises(ValueError, match="duration"):
            PauseStormEvent(0, "stuck_xoff", (0, 0), duration=0)
        with pytest.raises(ValueError, match="packet count"):
            PauseStormEvent(0, "burst", (0, 1), value=0)

    def test_round_trip_and_ordering(self):
        storm = PauseStormSchedule((
            PauseStormEvent(50, "burst", (0, 3), value=4),
            PauseStormEvent(10, "stuck_xoff", (2, 0), duration=100),
        ), seed=5)
        assert [e.cycle for e in storm] == [10, 50]
        assert PauseStormSchedule.from_json(storm.to_json()) == storm
        assert PauseStormSchedule.from_dict(storm.as_dict()) == storm

    def test_generate_deterministic(self):
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        a = PauseStormSchedule.generate(topo, 12, seed=3, window=(0, 500))
        b = PauseStormSchedule.generate(topo, 12, seed=3, window=(0, 500))
        c = PauseStormSchedule.generate(topo, 12, seed=4, window=(0, 500))
        assert a == b and a != c
        assert len(a) == 12
        assert all(0 <= e.cycle < 500 for e in a)
        num_links = 2 * topo.num_edges
        for e in a:
            if e.kind == "stuck_xoff":
                assert 0 <= e.target[0] < num_links
            elif e.kind == "burst":
                assert e.target[0] != e.target[1]

    def test_generate_validation(self):
        topo = make_leaf_spine(4, 2)
        with pytest.raises(ValueError, match="window"):
            PauseStormSchedule.generate(topo, 4, seed=1, window=(5, 5))
        with pytest.raises(ValueError, match="num_events"):
            PauseStormSchedule.generate(topo, -1, seed=1, window=(0, 10))
        with pytest.raises(ValueError, match="fraction"):
            PauseStormSchedule.generate(topo, 4, seed=1, window=(0, 10),
                                        stuck_fraction=0.9,
                                        jitter_fraction=0.9)


class TestInjectorStorm:
    def test_storm_steps_through_injector(self):
        storm = PauseStormSchedule((
            PauseStormEvent(5, "stuck_xoff", (0, 0), duration=40),
            PauseStormEvent(6, "resume_jitter", (0, 0), duration=30,
                            value=4),
            PauseStormEvent(8, "burst", (0, 5), value=6),
        ))
        sim = build_sim(flows=[Flow(0, 4, 0.0)], pause_storm=storm)
        assert sim.fault_injector is not None
        sim.run(cycles=20)
        assert sim.fault_injector.storm_applied == 3
        assert sim.fabric.pfc_forced == 1
        assert sim.traffic.generated >= 6  # the burst packets
        summary = sim.fault_injector.summary()
        assert summary["storm_applied"] == 3
        assert summary["storm_events_remaining"] == 0
        # Jitter window expires and the fabric setting is restored.
        sim.run(cycles=60)
        assert sim.fabric.resume_jitter == 0

    def test_storm_requires_pause_fabric(self):
        storm = PauseStormSchedule((
            PauseStormEvent(5, "stuck_xoff", (0, 0), duration=40),
        ))
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        config = SimConfig(scheme=Scheme.NONE,
                           network=NetworkConfig(num_vns=1, vcs_per_vn=4))
        traffic = FlowTraffic(ring_flows(), random.Random(1))
        with pytest.raises(ValueError, match="pause/resume fabric"):
            Simulation(topo, config, traffic, pause_storm=storm)


# ---------------------------------------------------------------------------
# Flow-level traffic
# ---------------------------------------------------------------------------
class TestFlowTraffic:
    def test_flow_validation(self):
        with pytest.raises(ValueError, match="differ"):
            Flow(1, 1, 0.5)
        with pytest.raises(ValueError, match="rate"):
            Flow(0, 1, 1.5)
        with pytest.raises(ValueError, match="at least one packet"):
            Flow(0, 1, 0.5, packets=0)
        assert Flow(0, 1, 0.5, packets=3).as_tuple() == (0, 1, 0.5, 3)

    def test_finite_flows_terminate(self):
        traffic = FlowTraffic([Flow(0, 1, 1.0, packets=2)], random.Random(1))
        fabric = OfferLog()
        assert not traffic.done()
        for cycle in range(4):
            traffic.generate(fabric, cycle)
        assert traffic.generated == 2
        assert not traffic.done()  # generated but not yet delivered
        traffic.delivered = 2
        assert traffic.done()

    def test_queue_burst(self):
        traffic = FlowTraffic([Flow(0, 1, 0.0)], random.Random(1))
        traffic.queue_burst(2, 3, 5, cycle=7)
        assert traffic.generated == 5
        assert traffic.backlog_size() == 5
        with pytest.raises(ValueError, match="differ"):
            traffic.queue_burst(2, 2, 1, cycle=7)

    def test_read_ahead_replays_draw_order(self):
        # Reading ahead to random limits offers what stepping offers and
        # leaves the generator on the same draw, across a finite flow's
        # exhaustion and storm bursts between idle spans.
        flows = [Flow(0, 4, 0.03), Flow(1, 5, 0.02, packets=3),
                 Flow(6, 2, 0.01)]
        runs = []
        for limits in (None, random.Random(3).choice):
            traffic = FlowTraffic(flows, random.Random(42))
            fabric = OfferLog()
            drive_source(
                traffic, fabric, 3_000,
                None if limits is None else lambda: limits((1, 2, 9, 400)),
                every=700,
                event=lambda t, cycle: t.queue_burst(3, 7, 2, cycle))
            runs.append((fabric.offered, traffic.rng.random()))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 100

    def test_read_ahead_without_a_hit_stops_at_its_limit(self):
        flows = [Flow(0, 4, 0.0), Flow(1, 5, 0.0, packets=3)]
        stepped = FlowTraffic(flows, random.Random(42))
        ahead = FlowTraffic(flows, random.Random(42))
        fabric = OfferLog()
        for cycle in range(37):
            stepped.generate(fabric, cycle)
        assert ahead.next_event_cycle(0, 37) == 37
        assert ahead.rng.getstate() == stepped.rng.getstate()
        ahead.skip_cycles(fabric, 0, 37)  # drawn already: no draw
        assert ahead.rng.getstate() == stepped.rng.getstate()


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_requires_drain_controller(self):
        with pytest.raises(ValueError, match="scheme=DRAIN"):
            build_sim(scheme=Scheme.NONE, degradation_ladder=True)

    def test_constructor_validation(self):
        # A bad check interval is rejected by SimConfig (test_config.py).
        sim = build_sim(scheme=Scheme.DRAIN)
        with pytest.raises(ValueError, match="retry"):
            DegradationLadder(sim.fabric, sim.drain_controller,
                              drain_retries=0)

    def test_ladder_rescues_pinned_scenario(self):
        sim = build_sim(scheme=Scheme.DRAIN,
                        flows=ring_flows(packets=50),
                        degradation_ladder=True)
        sim.run(cycles=120_000)
        assert sim.traffic.done()
        summary = sim.degradation_ladder.summary()
        assert summary["detections"] >= 1
        assert summary["forced_drains"] >= 1
        assert summary["packets_lost_forever"] == 0
        # The run may end mid-episode (done() halts before the ladder's
        # confirming re-check), so recoveries only bound detections.
        assert summary["recoveries"] <= summary["detections"]
        assert len(summary["recovery_cycles"]) == summary["recoveries"]
        assert all(c >= 0 for c in summary["recovery_cycles"])
        payload = summary["deadlock_cycle"]
        assert payload is not None and payload["kind"] == "buffer-cycle"
        # Ladder counters never leak into the golden stats dict.
        assert "forced_drains" not in sim.stats.as_dict()

    @staticmethod
    def _storm_run(dense):
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        storm = PauseStormSchedule.generate(
            topo, 8, 1, (200, 3000), stuck_fraction=0.8,
            jitter_fraction=0.1, stuck_duration=400,
        )
        sim = build_sim(scheme=Scheme.DRAIN, flows=ring_flows(packets=30),
                        degradation_ladder=True, pause_storm=storm,
                        dense=dense)
        sim.run(cycles=40_000)
        return sim

    def test_ladder_recovers_under_pause_storm(self):
        # A storm of stuck XOFF rows wedges the ring twice; forced drains
        # clear it and the ladder confirms one recovery before the
        # traffic completes. The degrade (drop-and-retransmit) stage is
        # not reached.
        sim = self._storm_run(dense=False)
        assert sim.traffic.done()
        assert sim.fabric.cycle == 1009
        summary = sim.degradation_ladder.summary()
        payload = summary.pop("deadlock_cycle")
        assert summary == {
            "detections": 2,
            "forced_drains": 6,
            "cycle_drops": 0,
            "packets_dropped": 0,
            "packets_retransmitted": 0,
            "packets_lost_forever": 0,
            "recoveries": 1,
            "recovery_cycles": [640],
            "pending_retransmits": 0,
        }
        assert payload["links"] == [[i, (i + 1) % 8] for i in range(8)]
        assert payload["routers"] == [1, 2, 3, 4, 5, 6, 7, 0]
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.blake2b(
            text.encode("utf-8"), digest_size=16
        ).hexdigest() == "6423a749a09302dded019175979c626a"

        twin = self._storm_run(dense=True)
        assert twin.degradation_ladder.summary() == (
            sim.degradation_ladder.summary()
        )
        assert twin.stats.as_dict() == sim.stats.as_dict()

    @staticmethod
    def _undrainable_run(dense):
        # The pinned ring wedge under Scheme.NONE, given a ladder whose
        # forced drains go to another simulation's controller: no drain
        # ever moves this fabric, so every episode climbs to the drop
        # stage.
        sim = build_sim(flows=ring_flows(packets=10), dense=dense)
        ladder = DegradationLadder(
            sim.fabric, build_sim(scheme=Scheme.DRAIN).drain_controller,
            check_interval=sim.config.deadlock_check_interval,
            grace=sim.config.deadlock_grace,
        )
        sim._post_generate.insert(0, ladder)
        sim._horizon_hooks.append(ladder.next_event_cycle)
        sim.run(cycles=40_000)
        return sim, ladder

    def test_ladder_degrades_an_undrainable_wedge(self):
        sim, ladder = self._undrainable_run(dense=False)
        assert sim.traffic.done()
        assert sim.fabric.cycle == 8213
        summary = ladder.summary()
        payload = summary.pop("deadlock_cycle")
        assert summary == {
            "detections": 1,
            "forced_drains": 24,
            "cycle_drops": 8,
            "packets_dropped": 64,
            "packets_retransmitted": 64,
            "packets_lost_forever": 0,
            "recoveries": 0,
            "recovery_cycles": [],
            "pending_retransmits": 0,
        }
        assert sim.stats.packets_lost == sim.stats.packets_retransmitted == 64
        assert payload["links"] == [[i, (i + 1) % 8] for i in range(8)]
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.blake2b(
            text.encode("utf-8"), digest_size=16
        ).hexdigest() == "a06eb012cf4952ce9afa2a9fd8b86e2b"

        twin, twin_ladder = self._undrainable_run(dense=True)
        assert twin_ladder.summary() == ladder.summary()
        assert twin.stats.as_dict() == sim.stats.as_dict()

    def test_next_event_cycle(self):
        sim = build_sim(scheme=Scheme.DRAIN)
        ladder = DegradationLadder(sim.fabric, sim.drain_controller,
                                   check_interval=128)
        assert ladder.next_event_cycle(0) == 0
        assert ladder.next_event_cycle(1) == 128
        assert ladder.next_event_cycle(128) == 128
        ladder._state = "waiting"
        ladder._deadline = 500
        assert ladder.next_event_cycle(130) == 500
        ladder.retransmits.push(192, row_packet(0))  # ready at 192 + 8
        assert ladder.next_event_cycle(130) == 200

    def test_escalation_backoff_doubles(self):
        sim = build_sim(scheme=Scheme.DRAIN)
        ladder = DegradationLadder(sim.fabric, sim.drain_controller,
                                   check_interval=100)
        ladder._escalate(1000)
        assert ladder._deadline == 1100
        ladder._escalate(1100)
        assert ladder._deadline == 1300  # 100 << 1
        assert ladder.forced_drains >= 1


class TestRetransmitUnderPause:
    """Satellite: retransmission backoff when the source NI is frozen."""

    def _frozen_source_sim(self):
        # Pin every outbound row of node 0 XOFF under Scheme.NONE (no
        # escape exemption), then saturate its NI queue: offers fail and
        # retransmissions must back off instead of being lost.
        sim = build_sim(flows=[Flow(0, 4, 0.0)])
        fabric = sim.fabric
        for link in fabric.index.out_links[0]:
            fabric.force_pause(link, 0, 10_000_000)
        pid = 100
        while fabric.offer_packet(row_packet(pid, src=0, dst=4)):
            pid += 1
        assert fabric.injection_space(0, 0) == 0
        return sim

    @staticmethod
    def _pump_until_empty(queue):
        """Pump at each earliest-ready cycle; returns the cycles pumped."""
        cycles = []
        while len(queue):
            cycles.append(queue.earliest())
            queue.pump(cycles[-1])
        return cycles

    def test_ladder_pump_backs_off_and_bounds_loss(self):
        sim = self._frozen_source_sim()
        drain_sim = build_sim(scheme=Scheme.DRAIN)
        ladder = DegradationLadder(sim.fabric, drain_sim.drain_controller)
        queue = ladder.retransmits
        packet = row_packet(999, src=0, dst=4)
        queue.push(0, packet)
        assert queue.earliest() == 8  # 8 << 0
        queue.pump(8)
        # Offer failed: rescheduled with doubled backoff, nothing lost.
        assert queue.retransmitted == 0
        (ready, _, attempt, same) = queue._entries[0]
        assert (ready, attempt, same) == (8 + 16, 1, packet)
        queue.pump(24)
        assert queue.earliest() == 24 + 32
        # Attempts 2..7 back off 32..1024; the eighth refusal gives up.
        assert self._pump_until_empty(queue) == [
            sum(8 << a for a in range(n)) for n in range(3, ATTEMPTS + 1)
        ]
        assert queue.abandoned == 1
        summary = ladder.summary()
        assert summary["pending_retransmits"] == 0
        assert summary["packets_lost_forever"] == 1
        assert summary["packets_retransmitted"] == 0

    def test_injector_pump_backs_off_under_pause(self):
        sim = self._frozen_source_sim()
        queue = FaultInjector(sim).retransmits
        queue.push(0, row_packet(999, src=0, dst=4))
        queue.pump(8)
        assert sim.stats.packets_retransmitted == 0
        assert queue._entries[0][2] == 1  # attempt bumped
        assert len(self._pump_until_empty(queue)) == ATTEMPTS - 1
        # Attempt budget exhausted: queue drains without a retransmit.
        assert sim.stats.packets_retransmitted == 0
        assert queue.abandoned == 1

    def test_pump_succeeds_once_pause_clears(self):
        sim = self._frozen_source_sim()
        fabric = sim.fabric
        drain_sim = build_sim(scheme=Scheme.DRAIN)
        ladder = DegradationLadder(fabric, drain_sim.drain_controller)
        ladder.retransmits.push(0, row_packet(999, src=0, dst=4))
        # Unfreeze: run the sim so the NI queue drains into the fabric.
        for row in list(fabric._pause_until):
            fabric._pause_until[row] = 0
        sim.run(cycles=30)
        ladder.retransmits.pump(fabric.cycle)
        summary = ladder.summary()
        assert summary["packets_retransmitted"] == 1
        assert summary["packets_lost_forever"] == 0


# ---------------------------------------------------------------------------
# Harness runner
# ---------------------------------------------------------------------------
class TestLosslessTrial:
    def _spec(self, **kwargs):
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        return lossless_trial(topo, pfc_config(), ring_flows(), cycles=20_000,
                              **kwargs)

    def test_digest_stable_and_param_sensitive(self):
        assert self._spec().digest() == self._spec().digest()
        assert (self._spec().digest()
                != self._spec(halt_on_deadlock=True).digest())

    def test_none_row_reports_deadlock(self):
        result = execute_trial(self._spec(halt_on_deadlock=True))
        assert result["deadlocked"] and not result["finished"]
        assert result["deadlock_cycle"]["kind"] == "buffer-cycle"
        assert result["recovery_ratio"] < 1.0
        assert set(result["pfc"]) >= {"pauses_asserted", "pause_stalls"}

    def test_drain_row_recovers(self):
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        spec = lossless_trial(topo, pfc_config(scheme=Scheme.DRAIN),
                              ring_flows(packets=20), cycles=120_000,
                              degradation_ladder=True)
        result = execute_trial(spec)
        assert result["finished"] and not result["deadlocked"]
        assert result["recovery_ratio"] == 1.0
        assert result["lost_forever"] == 0
        assert result["ladder"]["forced_drains"] >= 1

    def test_storm_round_trips_through_params(self):
        storm = PauseStormSchedule((
            PauseStormEvent(5, "stuck_xoff", (0, 0), duration=40),
        ), seed=2)
        topo = make_leaf_spine(8, 4, uplinks=1, east_west=True)
        spec = lossless_trial(topo, pfc_config(),
                              [Flow(0, 4, 0.05, packets=5)], cycles=2_000,
                              storm=storm.as_dict())
        result = execute_trial(spec)
        assert result["storm_applied"] == 1
        assert result["pfc"]["forced_pauses"] == 1


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCliLossless:
    def test_parse_leafspine(self):
        assert parse_topology("leafspine:8x4").num_nodes == 12
        topo = parse_topology("leafspine:8x4u1ew")
        assert topo.name == "leafspine-8x4-u1-ew"
        assert parse_topology("leafspine:8x4u2").num_edges == 16

    def test_parse_fattree(self):
        assert parse_topology("fattree:4").num_nodes == 20
        assert parse_topology("fattree:8u2").name == "fattree-k8-u2"

    def test_parse_errors(self):
        for spec in ("leafspine:8", "leafspine:abc", "fattree:x",
                     "leafspine:8x4uXew"):
            with pytest.raises(ValueError, match="bad spec"):
                parse_topology(spec)

    def test_run_pfc_halts_with_cycle(self, capsys):
        rc = main(["run", "--topology", "leafspine:8x4u1ew",
                   "--scheme", "none", "--flow-control", "pause_resume",
                   "--pfc-threshold", "1", "--pfc-resume", "0",
                   "--rate", "0.5",
                   "--cycles", "20000", "--halt-on-deadlock", "--seed", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "pfc:" in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: deadlock detected at cycle")
        assert "buffer-cycle" in err[0]

    def test_run_rejects_infeasible_pfc(self, capsys):
        rc = main(["run", "--topology", "leafspine:4x2",
                   "--flow-control", "pause_resume",
                   "--pfc-threshold", "9", "--cycles", "100"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "exceeds the buffer depth" in err

    def test_run_pfc_completes_without_halt(self, capsys):
        rc = main(["run", "--topology", "leafspine:4x4",
                   "--flow-control", "pause_resume",
                   "--pfc-threshold", "1", "--cycles", "2000",
                   "--rate", "0.05", "--seed", "2"])
        assert rc == 0
        assert "pfc:" in capsys.readouterr().out

    def test_experiment_registered(self):
        from repro.cli import EXPERIMENTS
        assert "lossless-pfc" in EXPERIMENTS
