"""Deep tests of the escape-VC disciplines (baseline and DRAIN variants)."""

import random

import pytest

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.simulator import Simulation
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.routing.dor import DimensionOrderRouting
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom


def escape_fabric(topo, escape_cls=DimensionOrderRouting, vcs=2, sticky=True):
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.ESCAPE_VC,
        network=NetworkConfig(num_vns=1, vcs_per_vn=vcs),
        drain=DrainConfig(escape_sticky=sticky),
    )
    return Fabric(
        index, config, AdaptiveMinimalRouting(index),
        escape_mode="escape_vc", escape_routing=escape_cls(index),
        rng=random.Random(3),
    )


class TestEscapeVcDiscipline:
    def test_escape_entry_is_sticky(self, mesh4):
        """Once a packet lands in VC 0 it must stay in VC 0s until ejection."""
        fabric = escape_fabric(mesh4)
        rng = random.Random(5)
        pid = 0
        escaped = set()
        for cycle in range(400):
            for node in range(16):
                dst = rng.randrange(16)
                if dst != node:
                    if fabric.offer_packet(Packet(pid, node, dst,
                                                  gen_cycle=cycle)):
                        pid += 1
            fabric.step()
            for port, _vn, vc, packet in fabric.occupied_slots():
                if fabric.index.is_injection_port(port):
                    continue
                if packet.in_escape:
                    escaped.add(packet.pid)
                    assert vc == 0, (
                        f"escape packet {packet.pid} found in VC {vc}"
                    )
            for node in range(16):
                for cls in MessageClass:
                    while fabric.peek_ejection(node, cls):
                        fabric.pop_ejection(node, cls)
        assert escaped, "load never pushed any packet into the escape VC"

    def test_escape_packets_follow_restricted_route(self, mesh4):
        """Escape packets must take the DOR next hop, nothing else."""
        fabric = escape_fabric(mesh4)
        dor = fabric.escape_routing
        packet = Packet(0, 0, 15)
        packet.in_escape = True
        groups = fabric.candidate_links(5, packet)
        assert len(groups) == 1
        links = [l for l, _mode in groups[0]]
        assert links == [dor.next_link(5, 15)]
        assert all(mode == 2 for _l, mode in groups[0])

    def test_updown_escape_on_faulty_topology(self):
        topo = inject_link_faults(make_mesh(4, 4), 4, random.Random(9))
        fabric = escape_fabric(topo, escape_cls=UpDownRouting)
        packet = Packet(0, 0, 15)
        packet.in_escape = True
        packet.updown_up_phase = True
        groups = fabric.candidate_links(5, packet)
        for link, mode in groups[0]:
            assert mode == 2

    def test_single_vc_config_is_pure_escape(self, mesh4):
        """With 1 VC/VN the only VC is the escape VC: all candidates are
        restricted-route, escape-mode claims."""
        fabric = escape_fabric(mesh4, vcs=1)
        packet = Packet(0, 0, 15)
        groups = fabric.candidate_links(0, packet)
        assert all(mode == 2 for group in groups for _l, mode in group)

    def test_conservative_allocation_blocks_last_free_vc(self, mesh4):
        """Mode-4 claims need two free VCs at the target port (Duato)."""
        fabric = escape_fabric(mesh4, vcs=2)
        target_link = fabric.index.out_links[0][0]
        # Occupy the escape VC downstream: only one free VC remains.
        blocker = Packet(99, 2, 5)
        fabric.set_slot(target_link, 0, 0, blocker)
        assert fabric._pick_vc(target_link, 0, 4, claimed=set()) == -1
        # With both free, the adaptive VC is claimable.
        fabric.set_slot(target_link, 0, 0, None)
        assert fabric._pick_vc(target_link, 0, 4, claimed=set()) == 1


class TestDrainEscapeDiscipline:
    def test_drain_prefers_non_escape_strictly(self, mesh4):
        index = FabricIndex(mesh4)
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
        )
        fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                        escape_mode="drain", rng=random.Random(1))
        packet = Packet(0, 0, 15)
        groups = fabric.candidate_links(0, packet)
        assert len(groups) == 2
        assert all(mode == 3 for _l, mode in groups[0])  # non-escape first
        assert all(mode == 2 for _l, mode in groups[1])  # escape fallback

    def test_sticky_variant_restricts_escaped_packets(self, mesh4):
        index = FabricIndex(mesh4)
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(escape_sticky=True),
        )
        fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                        escape_mode="drain", rng=random.Random(1))
        packet = Packet(0, 0, 15)
        packet.in_escape = True
        groups = fabric.candidate_links(0, packet)
        assert len(groups) == 1
        assert all(mode == 2 for _l, mode in groups[0])

    def test_relaxed_variant_never_sets_in_escape(self, mesh8):
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=256, escape_sticky=False),
        )
        traffic = SyntheticTraffic(UniformRandom(64), 0.1, random.Random(2))
        sim = Simulation(mesh8, config, traffic)
        sim.run(1200)
        assert all(
            not p.in_escape for *_ , p in sim.fabric.occupied_slots()
        )

    def test_escape_vc_still_reachable_under_load(self, mesh8):
        """The liveness precondition: blocked packets can claim VC 0."""
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=10**9),
        )
        traffic = SyntheticTraffic(UniformRandom(64), 0.3, random.Random(4))
        sim = Simulation(mesh8, config, traffic)
        sim.run(800)
        escape_occupied = sum(
            1 for port, _vn, vc, _p in sim.fabric.occupied_slots()
            if vc == 0 and not sim.fabric.index.is_injection_port(port)
        )
        assert escape_occupied > 0
