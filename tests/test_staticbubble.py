"""Tests for the Static-Bubble-style reactive baseline."""

import random

from repro.core.config import NetworkConfig, Scheme, SimConfig, SpinConfig
from repro.core.simulator import Simulation
from repro.network.deadlock import find_deadlocked_slots
from repro.network.staticbubble import StaticBubbleController
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom
from repro.topology.mesh import make_mesh, make_ring

from tests.test_spin import wedged_spin_setup


def bubble_sim(topo, rate, timeout=64, vcs=1, seed=3):
    from dataclasses import replace

    config = replace(
        SimConfig(
            scheme=Scheme.STATIC_BUBBLE,
            network=NetworkConfig(num_vns=1, vcs_per_vn=vcs),
        ),
        spin=SpinConfig(timeout=timeout),
    )
    traffic = SyntheticTraffic(
        UniformRandom(topo.num_nodes), rate, random.Random(seed)
    )
    return Simulation(topo, config, traffic), traffic


class TestStaticBubble:
    def test_resolves_planted_wedge(self):
        fabric, _spin = wedged_spin_setup(timeout=8)
        controller = StaticBubbleController(
            fabric, SpinConfig(timeout=8), check_interval=4
        )
        from repro.router.packet import MessageClass

        for _ in range(500):
            controller.step()
            fabric.step()
            for node in range(4):
                for cls in MessageClass:
                    while fabric.peek_ejection(node, cls):
                        fabric.pop_ejection(node, cls)
            if (
                fabric.count_packets() == 0
                and controller.occupied_bubbles() == 0
            ):
                break
        assert fabric.stats.packets_ejected == 8
        assert controller.activations >= 1
        assert not find_deadlocked_slots(fabric)

    def test_sustained_load_keeps_flowing(self):
        sim, traffic = bubble_sim(make_mesh(4, 4), 0.25, timeout=48)
        stats = sim.run(4000, warmup=500)
        assert sim.bubble_controller.activations > 0
        assert stats.packets_ejected > 1500

    def test_healthy_network_never_activates(self):
        sim, traffic = bubble_sim(make_mesh(4, 4), 0.03, timeout=64, vcs=2)
        sim.run(2000)
        assert sim.bubble_controller.activations == 0

    def test_bubble_packets_reach_destination(self):
        sim, traffic = bubble_sim(make_mesh(4, 4), 0.25, timeout=48)
        sim.run(4000, warmup=500)
        assert sim.bubble_controller.activations > 0
        # No packet may be stranded in a bubble forever once load stops:
        # cut injection, clear the source backlog, and drain out.
        traffic.injection_rate = 0.0
        traffic.backlog.clear()
        for _ in range(8000):
            sim.step()
        assert sim.bubble_controller.occupied_bubbles() == 0
        assert sim.fabric.packets_in_network == 0
