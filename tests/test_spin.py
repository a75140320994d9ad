"""Unit tests for the SPIN reactive baseline."""

import random

from repro.core.config import NetworkConfig, Scheme, SimConfig, SpinConfig
from repro.network.deadlock import find_deadlocked_slots
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.network.spin import SpinController
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.mesh import make_ring


def wedged_spin_setup(timeout=8, check_interval=4):
    """4-ring with both directions fully wedged and a SPIN controller."""
    topo = make_ring(4)
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.SPIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=1),
        spin=SpinConfig(timeout=timeout, probe_hop_latency=1, spin_interval=1),
    )
    fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                    rng=random.Random(1))
    pid = 0
    for i in range(4):
        for direction in (+1, -1):
            dst_router = (i + direction) % 4
            link = index.link_id[[l for l in index.topology.links_out_of(i)
                                  if l.dst == dst_router][0]]
            packet = Packet(pid, i, (i + 2) % 4, MessageClass.REQ)
            packet.blocked_since = 0
            fabric.set_slot(link, 0, 0, packet)
            fabric.packets_in_network += 1
            pid += 1
    controller = SpinController(fabric, config.spin, check_interval=check_interval)
    return fabric, controller


def run_with_spin(fabric, controller, cycles):
    for _ in range(cycles):
        controller.step()
        fabric.step()
        for node in range(fabric.index.num_nodes):
            for cls in MessageClass:
                while fabric.peek_ejection(node, cls):
                    fabric.pop_ejection(node, cls)


class TestSpinController:
    def test_detects_and_counts_deadlock(self):
        fabric, controller = wedged_spin_setup()
        run_with_spin(fabric, controller, 30)
        assert fabric.stats.deadlock_events >= 1
        assert fabric.stats.probes_sent > 0

    def test_spin_resolves_wedge(self):
        fabric, controller = wedged_spin_setup()
        run_with_spin(fabric, controller, 200)
        assert not find_deadlocked_slots(fabric)
        assert fabric.stats.spins_performed >= 1

    def test_all_packets_eventually_delivered(self):
        fabric, controller = wedged_spin_setup()
        run_with_spin(fabric, controller, 400)
        assert fabric.packets_in_network == 0
        assert fabric.stats.packets_ejected == 8

    def test_no_probe_before_timeout(self):
        fabric, controller = wedged_spin_setup(timeout=10_000)
        run_with_spin(fabric, controller, 50)
        assert fabric.stats.probes_sent == 0

    def test_probe_latency_delays_resolution(self):
        fast_fabric, fast = wedged_spin_setup(timeout=8)
        run_with_spin(fast_fabric, fast, 12)
        spins_early_fast = fast_fabric.stats.spins_performed

        slow_topo_fabric, slow = wedged_spin_setup(timeout=8)
        slow.config = SpinConfig(timeout=8, probe_hop_latency=50, spin_interval=1)
        run_with_spin(slow_topo_fabric, slow, 12)
        assert slow_topo_fabric.stats.spins_performed <= spins_early_fast

    def test_healthy_network_untouched(self):
        topo = make_ring(4)
        index = FabricIndex(topo)
        config = SimConfig(scheme=Scheme.SPIN,
                           network=NetworkConfig(num_vns=1, vcs_per_vn=2),
                           spin=SpinConfig(timeout=8))
        fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                        rng=random.Random(2))
        controller = SpinController(fabric, config.spin, check_interval=4)
        fabric.offer_packet(Packet(0, 0, 2))
        run_with_spin(fabric, controller, 60)
        assert fabric.stats.spins_performed == 0
        assert fabric.stats.probes_sent == 0
        assert fabric.stats.packets_ejected == 1
