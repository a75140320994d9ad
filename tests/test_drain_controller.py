"""Unit tests for the DRAIN runtime controller (epoch, freeze, rotation)."""

import random

import pytest

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.simulator import Simulation
from repro.drain.controller import DrainController
from repro.drain.path import euler_drain_path
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.mesh import make_mesh, make_ring
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom


def drain_setup(topo=None, epoch=50, pre=2, window=3, full_period=1000, vns=1, vcs=2):
    topo = topo if topo is not None else make_mesh(4, 4)
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=vns, vcs_per_vn=vcs),
        drain=DrainConfig(
            epoch=epoch,
            pre_drain_window=pre,
            drain_window=window,
            full_drain_period=full_period,
        ),
    )
    fabric = Fabric(
        index, config, AdaptiveMinimalRouting(index),
        escape_mode="drain", rng=random.Random(1),
    )
    controller = DrainController(fabric, config.drain)
    return fabric, controller


def tick(fabric, controller):
    controller.step()
    fabric.step()


class TestEpochTiming:
    def test_no_drain_before_epoch_expires(self):
        fabric, controller = drain_setup(epoch=50)
        for _ in range(49):
            tick(fabric, controller)
        assert fabric.stats.drain_windows == 0
        assert controller.state in ("normal", "pre_drain")

    def test_drain_window_fires_each_epoch(self):
        fabric, controller = drain_setup(epoch=20, pre=2, window=3)
        for _ in range(3 * (20 + 2 + 3) + 5):
            tick(fabric, controller)
        assert fabric.stats.drain_windows == 3

    def test_freeze_during_pre_drain_and_drain(self):
        fabric, controller = drain_setup(epoch=10, pre=2, window=3)
        states = []
        for _ in range(40):
            tick(fabric, controller)
            states.append((controller.state, fabric.frozen))
        for state, frozen in states:
            if state in ("pre_drain", "drain", "full_drain"):
                assert frozen
            if state == "normal":
                assert not frozen

    def test_zero_pre_drain_window_allowed(self):
        fabric, controller = drain_setup(epoch=10, pre=0, window=2)
        for _ in range(30):
            tick(fabric, controller)
        assert fabric.stats.drain_windows >= 2


class TestRotation:
    def test_rotation_moves_escape_packets_one_hop(self):
        fabric, controller = drain_setup(epoch=5, pre=1, window=2)
        path = controller.path
        # Plant one packet in the escape VC of the first path link.
        first_port = controller.path_ports[0]
        dst = (fabric.index.link_dst[first_port] + 2) % 16
        if dst == fabric.index.link_dst[first_port]:
            dst = (dst + 1) % 16
        packet = Packet(0, 0, dst, MessageClass.REQ)
        packet.gen_cycle = 0
        fabric.set_slot(first_port, 0, 0, packet)
        fabric.packets_in_network += 1
        fabric.frozen = True  # isolate the drain from normal movement
        controller._rotate_once()
        second_port = controller.path_ports[1]
        assert fabric.slot(second_port, 0, 0) is packet
        assert packet.hops == 1
        assert packet.drain_moves == 1
        assert path.next_link(path.links[0]) == path.links[1]

    def test_rotation_preserves_all_packets(self):
        fabric, controller = drain_setup(epoch=1000)
        rng = random.Random(3)
        planted = 0
        for port in controller.path_ports:
            if rng.random() < 0.5:
                dst = rng.randrange(16)
                router = fabric.index.link_dst[port]
                if dst == router:
                    dst = (dst + 1) % 16
                fabric.set_slot(port, 0, 0, Packet(planted, router, dst))
                fabric.packets_in_network += 1
                planted += 1
        # Fill ejection queues so no packet can leave during the rotation.
        for node in range(16):
            for _ in range(fabric._ej_depth):
                fabric.ej_queues[node][MessageClass.REQ].append(
                    Packet(900 + node, (node + 1) % 16, node)
                )
        controller._rotate_once()
        assert fabric.count_packets() == planted
        assert fabric.stats.drained_packets == planted

    def test_rotation_ejects_at_destination(self):
        fabric, controller = drain_setup(epoch=1000)
        port0 = controller.path_ports[0]
        port1 = controller.path_ports[1]
        dest_router = fabric.index.link_dst[port1]
        src = (dest_router + 1) % 16
        packet = Packet(0, src, dest_router)
        fabric.set_slot(port0, 0, 0, packet)
        fabric.packets_in_network += 1
        controller._rotate_once()
        assert packet.eject_cycle is not None
        assert fabric.peek_ejection(dest_router, MessageClass.REQ) is packet

    def test_rotation_counts_misroutes(self):
        fabric, controller = drain_setup(epoch=1000)
        index = fabric.index
        # Find a path position whose next hop moves AWAY from some dst.
        for i, port in enumerate(controller.path_ports):
            nxt = controller.path_ports[(i + 1) % len(controller.path_ports)]
            here = index.link_dst[port]
            there = index.link_dst[nxt]
            for dst in range(16):
                if dst != here and index.dist[there][dst] > index.dist[here][dst]:
                    packet = Packet(0, (dst + 1) % 16 if (dst + 1) % 16 != dst else dst - 1, dst)
                    fabric.set_slot(port, 0, 0, packet)
                    fabric.packets_in_network += 1
                    controller._rotate_once()
                    assert packet.misroutes == 1
                    return
        pytest.fail("no misrouting position found on the drain path")

    def test_multi_vn_drain_rotates_each_vn(self):
        fabric, controller = drain_setup(vns=3, epoch=1000)
        port0 = controller.path_ports[0]
        packets = []
        for vn in range(3):
            router = fabric.index.link_dst[port0]
            packet = Packet(vn, (router + 1) % 16, (router + 2) % 16
                            if (router + 2) % 16 != router else (router + 3) % 16)
            packet.vn = vn
            fabric.set_slot(port0, vn, 0, packet)
            fabric.packets_in_network += 1
            packets.append(packet)
        controller._rotate_once()
        port1 = controller.path_ports[1]
        for vn, packet in enumerate(packets):
            assert fabric.slot(port1, vn, 0) is packet

    def test_non_escape_vcs_untouched_by_drain(self):
        fabric, controller = drain_setup(vcs=2, epoch=1000)
        port0 = controller.path_ports[0]
        router = fabric.index.link_dst[port0]
        packet = Packet(0, (router + 1) % 16, (router + 2) % 16
                        if (router + 2) % 16 != router else (router + 3) % 16)
        fabric.set_slot(port0, 0, 1, packet)  # non-escape VC 1
        fabric.packets_in_network += 1
        controller._rotate_once()
        assert fabric.slot(port0, 0, 1) is packet
        assert packet.hops == 0

    @pytest.mark.parametrize("dense", [False, True])
    def test_forced_hop_counts_every_flit(self, dense):
        # A drained 4-flit packet crosses its link as 4 flits, like a
        # normal hop: 4 x 14 516 normal hops + 4 x 1 281 drained ones.
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2,
                                  packet_size_flits=4),
            drain=DrainConfig(epoch=64),
            seed=1,
        )
        traffic = SyntheticTraffic(UniformRandom(16), 0.2, random.Random(1))
        sim = Simulation(make_mesh(4, 4), config, traffic, dense=dense)
        stats = sim.run(3000)
        assert stats.drained_packets == 1281
        assert stats.flits_traversed == 63188


class TestFullDrain:
    def test_full_drain_fires_on_period(self):
        fabric, controller = drain_setup(epoch=10, pre=1, window=2, full_period=3)
        for _ in range(400):
            tick(fabric, controller)
        assert fabric.stats.full_drains >= 1
        assert fabric.stats.drain_windows >= 3

    def test_full_drain_empties_escape_vcs(self):
        fabric, controller = drain_setup(epoch=10**9, full_period=1)
        rng = random.Random(5)
        for port in controller.path_ports:
            router = fabric.index.link_dst[port]
            dst = rng.randrange(16)
            if dst == router:
                dst = (dst + 1) % 16
            fabric.set_slot(port, 0, 0, Packet(port, router, dst))
            fabric.packets_in_network += 1
        # Trigger a full drain directly.
        controller._windows_done = 0
        controller.config = controller.config  # unchanged; call machinery:
        controller._enter_drain()  # windows_done=1, period=1 -> full drain
        assert controller.state == "full_drain"
        for _ in range(len(controller.path_ports) + 2):
            controller.step()
            fabric.cycle += 1
            # NI consumption keeps ejection queues drained.
            for node in range(16):
                for cls in MessageClass:
                    while fabric.peek_ejection(node, cls):
                        fabric.pop_ejection(node, cls)
        # Every escape packet visited every router, so all must have ejected.
        for port in controller.path_ports:
            assert fabric.slot(port, 0, 0) is None


class TestDrainPathReuse:
    def test_precomputed_path_accepted(self):
        topo = make_ring(6)
        path = euler_drain_path(topo)
        index = FabricIndex(topo)
        config = SimConfig(scheme=Scheme.DRAIN,
                           network=NetworkConfig(num_vns=1, vcs_per_vn=2))
        fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                        escape_mode="drain", rng=random.Random(1))
        controller = DrainController(fabric, config.drain, path=path)
        assert len(controller.path_ports) == len(path)
