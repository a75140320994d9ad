"""Cross-module integration tests: the paper's correctness guarantees
exercised end-to-end on wedged networks."""

import random

import pytest

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    Scheme,
    SimConfig,
)
from repro.core.simulator import Simulation
from repro.router.packet import MessageClass, Packet
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom


class BurstTraffic(SyntheticTraffic):
    """Bernoulli traffic that stops generating after ``stop_at`` cycles.

    Used to test eventual delivery: after the burst, the network must
    empty completely even if the burst wedged it.
    """

    def __init__(self, *args, stop_at=200, **kwargs):
        super().__init__(*args, **kwargs)
        self.stop_at = stop_at

    def generate(self, fabric, cycle):
        if cycle < self.stop_at:
            super().generate(fabric, cycle)
        else:
            self.backlog.sweep(fabric.offer_packet, self.backlog.waiting)

    def fully_drained(self, fabric) -> bool:
        if self.backlog_size():
            return False
        if fabric.packets_in_network:
            return False
        return all(
            not q for queues in fabric.inj_queues for q in queues
        )


def run_until_drained(sim, traffic, max_cycles):
    for _ in range(max_cycles):
        sim.step()
        if sim.fabric.cycle > traffic.stop_at and traffic.fully_drained(sim.fabric):
            return True
    return False


class TestEventualDelivery:
    """Section III-D: every packet is eventually delivered under DRAIN."""

    @pytest.mark.parametrize("sticky", [False, True], ids=["relaxed", "sticky"])
    def test_drain_empties_wedged_network(self, faulty8, sticky):
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=256, full_drain_period=8,
                              escape_sticky=sticky),
        )
        traffic = BurstTraffic(
            UniformRandom(64), 0.5, random.Random(5), stop_at=200
        )
        sim = Simulation(faulty8, config, traffic)
        assert run_until_drained(sim, traffic, 80_000)
        assert sim.stats.packets_ejected == traffic.generated

    def test_drain_single_vc_still_delivers(self, faulty4):
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=1),
            drain=DrainConfig(epoch=128, full_drain_period=8),
        )
        traffic = BurstTraffic(
            UniformRandom(16), 0.4, random.Random(7), stop_at=150
        )
        sim = Simulation(faulty4, config, traffic)
        assert run_until_drained(sim, traffic, 80_000)
        assert sim.stats.packets_ejected == traffic.generated

    def test_without_drain_wedge_persists(self, faulty8):
        """Control experiment: the same burst with scheme NONE leaves
        packets stuck forever (this is what DRAIN is fixing)."""
        config = SimConfig(
            scheme=Scheme.NONE,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
        )
        traffic = BurstTraffic(
            UniformRandom(64), 0.5, random.Random(5), stop_at=200
        )
        sim = Simulation(faulty8, config, traffic)
        drained = run_until_drained(sim, traffic, 20_000)
        assert not drained
        assert sim.fabric.packets_in_network > 0

    def test_spin_also_empties_wedged_network(self, faulty8):
        from repro.core.config import SpinConfig

        config = SimConfig(
            scheme=Scheme.SPIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            spin=SpinConfig(timeout=64, spin_interval=8),
        )
        traffic = BurstTraffic(
            UniformRandom(64), 0.5, random.Random(5), stop_at=200
        )
        sim = Simulation(faulty8, config, traffic)
        assert run_until_drained(sim, traffic, 80_000)


class TestMisrouteAccounting:
    def test_drain_misroutes_recover(self, mesh8):
        """Misrouted packets still reach their destinations."""
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=100),
        )
        traffic = BurstTraffic(
            UniformRandom(64), 0.1, random.Random(9), stop_at=400
        )
        sim = Simulation(mesh8, config, traffic)
        assert run_until_drained(sim, traffic, 40_000)
        assert sim.stats.misroutes > 0  # drains happened mid-flight
        assert sim.stats.packets_ejected == traffic.generated


class TestFaultSweepStability:
    @pytest.mark.parametrize("faults", [0, 4, 8, 12])
    def test_drain_works_across_fault_counts(self, faults):
        base = make_mesh(8, 8)
        topo = (
            inject_link_faults(base, faults, random.Random(faults + 1))
            if faults
            else base
        )
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            drain=DrainConfig(epoch=512),
        )
        traffic = SyntheticTraffic(UniformRandom(64), 0.05, random.Random(3))
        sim = Simulation(topo, config, traffic)
        stats = sim.run(2000, warmup=400)
        assert stats.packets_ejected > 2000
        assert sim.throughput() == pytest.approx(0.05, rel=0.2)
