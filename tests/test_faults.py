"""Tests for the runtime fault subsystem (schedule, recovery, injector)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.drain.path import DrainPath, DrainPathError, euler_drain_path
from repro.faults import (
    FAULT_POLICIES,
    ONSET_DISTRIBUTIONS,
    FaultEvent,
    FaultSchedule,
    recover_drain_paths,
)
from repro.network.index import FabricIndex
from repro.topology.graph import Topology
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_ring
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name


def drain_sim(topo, schedule=None, policy="drop_retransmit", rate=0.05,
              curve_window=0, seed=1, mesh_width=None, packet_flits=1):
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=2,
                              packet_size_flits=packet_flits),
        drain=DrainConfig(epoch=256),
        seed=seed,
    )
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topo.num_nodes, mesh_width),
        rate,
        random.Random(seed),
    )
    return Simulation(
        topo, config, traffic,
        fault_schedule=schedule, fault_policy=policy,
        fault_curve_window=curve_window,
    )


def barbell() -> Topology:
    """Two triangles joined by a bridge edge (2, 3)."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    return Topology(6, edges, name="barbell")


class TestFaultSchedule:
    def test_events_sorted_and_json_roundtrip(self):
        events = (
            FaultEvent(cycle=900, kind="link", target=(1, 2)),
            FaultEvent(cycle=100, kind="router", target=(3, -1),
                       repair_cycle=600),
        )
        schedule = FaultSchedule(events=events, seed=7, onset="uniform")
        assert [e.cycle for e in schedule.events] == [100, 900]
        again = FaultSchedule.from_json(schedule.to_json())
        assert again == schedule
        assert json.loads(schedule.to_json())["seed"] == 7

    def test_generate_is_deterministic(self):
        topo = make_mesh(4, 4)
        a = FaultSchedule.generate(topo, 4, seed=9, window=(100, 900))
        b = FaultSchedule.generate(topo, 4, seed=9, window=(100, 900))
        c = FaultSchedule.generate(topo, 4, seed=10, window=(100, 900))
        assert a == b
        assert a != c

    @pytest.mark.parametrize("onset", ONSET_DISTRIBUTIONS)
    def test_onsets_fall_inside_window(self, onset):
        topo = make_mesh(4, 4)
        schedule = FaultSchedule.generate(
            topo, 6, seed=3, window=(500, 2000), onset=onset,
        )
        assert len(schedule.events) == 6
        for event in schedule.events:
            assert 500 <= event.cycle < 2000

    def test_unknown_onset_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(
                make_mesh(4, 4), 1, seed=1, window=(0, 100), onset="bogus",
            )

    def test_too_many_permanent_faults_rejected(self):
        # mesh 2x2: 4 edges, spanning tree needs 3 -> only 1 removable.
        with pytest.raises(ValueError, match="removable"):
            FaultSchedule.generate(
                make_mesh(2, 2), 2, seed=1, window=(0, 100),
            )

    def test_transient_fraction_sets_repair_cycles(self):
        schedule = FaultSchedule.generate(
            make_mesh(4, 4), 4, seed=5, window=(100, 400),
            transient_fraction=1.0, transient_duration=250,
        )
        for event in schedule.events:
            assert event.transient
            assert event.repair_cycle == event.cycle + 250

    def test_router_fraction_targets_routers(self):
        # Permanent router kills always strand traffic, so with
        # ensure_connected they only happen transiently.
        schedule = FaultSchedule.generate(
            make_mesh(4, 4), 2, seed=5, window=(100, 400),
            router_fraction=1.0, transient_fraction=1.0,
        )
        assert all(e.kind == "router" for e in schedule.events)
        assert all(e.target[1] == -1 for e in schedule.events)

    def test_permanent_router_kills_suppressed_when_connected(self):
        schedule = FaultSchedule.generate(
            make_mesh(4, 4), 3, seed=5, window=(100, 400),
            router_fraction=1.0, ensure_connected=True,
        )
        assert all(e.kind == "link" for e in schedule.events)

    def test_permanent_picks_keep_survivor_connected(self):
        topo = make_mesh(4, 4)
        schedule = FaultSchedule.generate(
            topo, 8, seed=11, window=(0, 1000), ensure_connected=True,
        )
        survivor = topo.copy()
        for event in schedule.permanent_events():
            if event.kind == "link":
                survivor.remove_edge(*event.target)
        assert survivor.is_connected()


class TestRecovery:
    def test_recovers_mesh_after_link_death(self):
        index = FabricIndex(make_mesh(4, 4))
        link = index.links[0]
        dead = {index.link_id[link], index.link_id[link.reverse]}
        index.apply_faults(dead, set())
        result = recover_drain_paths(index)
        assert result.covered_links == index.num_links - 2
        assert result.components == 1
        covered = {l for path in result.paths for l in path.links}
        alive = {l for i, l in enumerate(index.links) if i not in dead}
        assert covered == alive

    def test_split_components_each_get_a_cycle(self):
        index = FabricIndex(barbell())
        bridge = next(l for l in index.links if (l.src, l.dst) == (2, 3))
        dead = {index.link_id[bridge], index.link_id[bridge.reverse]}
        index.apply_faults(dead, set())
        result = recover_drain_paths(index)
        assert result.components == 2
        assert result.covered_links == index.num_links - 2
        # Cycles must not share links across components.
        seen = set()
        for path in result.paths:
            for link in path.links:
                assert link not in seen
                seen.add(link)

    def test_no_surviving_links_raises(self):
        index = FabricIndex(Topology(2, [(0, 1)], name="pair"))
        index.apply_faults({0, 1}, set())
        with pytest.raises(DrainPathError):
            recover_drain_paths(index)

    def test_drain_path_error_carries_link_sets(self):
        ring = make_ring(4)
        path = euler_drain_path(ring)
        with pytest.raises(DrainPathError) as info:
            DrainPath(ring, path.links[:-1])
        assert info.value.missing  # the dropped link is reported
        assert not info.value.extra


class TestFaultInjector:
    def make_schedule(self, events, seed=1):
        return FaultSchedule(events=tuple(events), seed=seed, onset="uniform")

    def test_link_fault_triggers_drain_recompute(self):
        topo = make_mesh(4, 4)
        schedule = self.make_schedule(
            [FaultEvent(cycle=300, kind="link", target=(5, 6))]
        )
        sim = drain_sim(topo, schedule, mesh_width=4)
        sim.run(1200, warmup=100)
        index = sim.index
        assert sim.stats.drain_recomputes == 1
        assert len(index.dead_links) == 2
        controller = sim.drain_controller
        assert controller.total_path_length() == index.num_links - 2
        assert controller.reinstalls == 1
        summary = sim.fault_injector.summary()
        assert summary["faults_applied"] == 1
        assert summary["events_remaining"] == 0
        assert summary["unreachable_pairs"] == 0
        assert summary["recomputes"][0]["covered_links"] == index.num_links - 2

    def test_policies_handle_inflight_flits(self):
        # Multi-flit packets at moderate load guarantee flits are on the
        # wire when a whole router dies.
        topo = make_mesh(4, 4)
        events = [FaultEvent(cycle=400, kind="router", target=(5, -1))]
        results = {}
        for policy in FAULT_POLICIES:
            sim = drain_sim(topo, self.make_schedule(events), policy=policy,
                            rate=0.20, mesh_width=4, packet_flits=4)
            sim.run(1200, warmup=100)
            results[policy] = sim.stats
        assert results["drop_retransmit"].packets_lost > 0
        assert results["drop_retransmit"].packets_retransmitted > 0
        assert results["source_reroute"].packets_retransmitted == 0

    def test_unroutable_drop_cancels_its_transfer(self):
        # A packet bound for a router that dies while it is mid-transfer on
        # a live link is dropped as unroutable; its transfer must go with
        # it, or it lands a few cycles later in a buffer after being
        # counted lost (more packets buffered than in the network).
        topo = make_mesh(4, 4)
        events = [FaultEvent(cycle=150, kind="router", target=(5, -1))]
        for dense in (True, False):
            for seed in (3, 4, 5, 8):
                config = SimConfig(
                    scheme=Scheme.NONE,
                    network=NetworkConfig(num_vns=3, vcs_per_vn=2,
                                          packet_size_flits=4),
                    seed=seed,
                )
                traffic = SyntheticTraffic(
                    pattern_by_name("uniform_random", 16, 4), 0.15,
                    random.Random(derive_seed(seed, "traffic", 0.15)))
                sim = Simulation(topo, config, traffic, dense=dense,
                                 fault_schedule=self.make_schedule(events))
                fabric = sim.fabric
                for _ in range(170):
                    sim.step()
                    assert fabric.count_packets() == fabric.packets_in_network, (
                        dense, seed, fabric.cycle)
                    if fabric.cycle > 150:
                        assert all(p.dst != 5 for _, _, _, p
                                   in fabric.occupied_slots()), (
                            dense, seed, fabric.cycle)
                assert sim.stats.faults_applied == 1

    def test_transient_fault_heals(self):
        topo = make_mesh(4, 4)
        schedule = self.make_schedule(
            [FaultEvent(cycle=200, kind="link", target=(1, 2),
                        repair_cycle=500)]
        )
        sim = drain_sim(topo, schedule, mesh_width=4)
        sim.run(900, warmup=100)
        assert sim.stats.faults_applied == 1
        assert sim.stats.faults_revived == 1
        assert not sim.index.dead_links
        # Once healed, the recomputed drain path covers the full graph.
        assert sim.drain_controller.total_path_length() == sim.index.num_links
        assert sim.stats.drain_recomputes == 2  # death + revival

    def test_ring_survives_becoming_a_line(self):
        topo = make_ring(6)
        schedule = self.make_schedule(
            [FaultEvent(cycle=250, kind="link", target=(0, 1))]
        )
        sim = drain_sim(topo, schedule)
        sim.run(1000, warmup=100)
        assert sim.drain_controller.total_path_length() == 2 * 5
        assert sim.index.unreachable_pairs() == 0
        assert sim.stats.packets_ejected > 0

    def test_recovery_curve_sampling(self):
        topo = make_mesh(4, 4)
        schedule = self.make_schedule(
            [FaultEvent(cycle=300, kind="link", target=(9, 10))]
        )
        sim = drain_sim(topo, schedule, curve_window=100, mesh_width=4)
        sim.run(800, warmup=100)
        curve = sim.fault_injector.curve
        assert [s["cycle"] for s in curve] == [100, 200, 300, 400, 500, 600, 700]
        for sample in curve:
            assert set(sample) >= {
                "cycle", "throughput", "avg_latency", "ejected", "lost",
                "retransmitted", "in_network", "faults_active",
            }
        assert curve[0]["faults_active"] == 0
        assert curve[-1]["faults_active"] == 1

    def test_wormhole_fabric_rejected(self):
        topo = make_mesh(4, 4)
        schedule = self.make_schedule(
            [FaultEvent(cycle=100, kind="link", target=(0, 1))]
        )
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2,
                                  packet_size_flits=4),
            drain=DrainConfig(epoch=256),
            seed=1,
            flow_control="wormhole",
        )
        traffic = SyntheticTraffic(
            pattern_by_name("uniform_random", 16, 4), 0.05, random.Random(1)
        )
        with pytest.raises(ValueError, match="wormhole"):
            Simulation(topo, config, traffic, fault_schedule=schedule)

    def test_two_node_network_link_death_isolates(self):
        # Smallest possible network: losing its only edge leaves two
        # single-router components with no drainable links.
        topo = Topology(2, [(0, 1)], name="pair")
        schedule = self.make_schedule(
            [FaultEvent(cycle=200, kind="link", target=(0, 1))],
        )
        sim = drain_sim(topo, schedule, rate=0.10)
        sim.run(600, warmup=50)
        assert sim.index.unreachable_pairs() == 2
        assert sim.fault_injector.summary()["faults_applied"] == 1

    def test_retransmit_restarts_in_the_updown_up_phase(self):
        # ESCAPE_VC on an irregular mesh escapes over up*/down*; a packet
        # that went down-phase in escape and then died on a wire must come
        # back as a fresh packet: out of escape *and* in the up phase, or
        # the escape candidates it is offered come from the down-phase
        # table. Four-flit packets put transfers on the dying wires.
        topo = inject_link_faults(make_mesh(4, 4), 2, random.Random(5))
        schedule = self.make_schedule([
            FaultEvent(cycle=150, kind="link", target=(5, 6)),
            FaultEvent(cycle=200, kind="link", target=(9, 10)),
            FaultEvent(cycle=250, kind="link", target=(6, 10)),
        ])
        dropped_down = 0
        for seed in (1, 2, 4):
            config = SimConfig(
                scheme=Scheme.ESCAPE_VC,
                network=NetworkConfig(num_vns=3, vcs_per_vn=2,
                                      packet_size_flits=4),
                seed=seed,
            )
            traffic = SyntheticTraffic(
                pattern_by_name("uniform_random", 16, None), 0.05,
                random.Random(derive_seed(seed, "t", 0.05)))
            sim = Simulation(topo, config, traffic, fault_schedule=schedule,
                             fault_policy="drop_retransmit")
            queue = sim.fault_injector.retransmits
            push = queue.push

            def record(cycle, packet, attempt=0):
                nonlocal dropped_down
                dropped_down += not packet.updown_up_phase
                push(cycle, packet, attempt)

            queue.push = record
            for _ in range(440):
                sim.step()
                fabric = sim.fabric
                queued = [p for node in fabric.inj_queues
                          for queue in node for p in queue]
                buffered = [p for _, _, _, p in fabric.occupied_slots()
                            if not p.in_escape]
                assert all(p.updown_up_phase for p in queued + buffered), (
                    seed, fabric.cycle)
            assert sim.stats.packets_retransmitted > 0
        assert dropped_down > 0
