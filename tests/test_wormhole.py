"""Tests for the wormhole (flit-based) fabric and DRAIN packet truncation."""

import random

import pytest

from repro.analysis.preflight import PreflightError, validate_spec
from repro.cli import main
from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.harness import synthetic_trial
from repro.drain.controller import DrainController
from repro.network.index import FabricIndex
from repro.network.wormhole import WormholeFabric
from repro.router.flit import Flit, FlitType, make_flits
from repro.router.packet import Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom


def make_wormhole(topo=None, vcs=2, flits=4, depth=4, escape_mode="drain",
                  epoch=10**9):
    topo = topo if topo is not None else make_mesh(4, 4)
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=vcs,
                              packet_size_flits=flits),
        drain=DrainConfig(epoch=epoch),
        flow_control="wormhole",
    )
    fabric = WormholeFabric(
        index, config, AdaptiveMinimalRouting(index),
        escape_mode=escape_mode, vc_depth_flits=depth, rng=random.Random(1),
    )
    return fabric


class TestFlits:
    def test_make_flits_single(self):
        flits = make_flits(Packet(0, 0, 1), 1)
        assert len(flits) == 1
        assert flits[0].kind is FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_make_flits_multi(self):
        flits = make_flits(Packet(0, 0, 1), 4)
        kinds = [f.kind for f in flits]
        assert kinds == [FlitType.HEAD, FlitType.BODY, FlitType.BODY,
                         FlitType.TAIL]
        assert [f.index for f in flits] == [0, 1, 2, 3]

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            make_flits(Packet(0, 0, 1), 0)


class TestWormholeBasics:
    def test_single_packet_delivery(self):
        fabric = make_wormhole()
        packet = Packet(0, 0, 5, gen_cycle=0)
        fabric.offer_packet(packet)
        for _ in range(40):
            fabric.step()
        assert packet.eject_cycle is not None
        assert fabric.count_flits() == 0
        assert fabric.stats.packets_ejected == 1

    def test_flit_count_matches_packet_size(self):
        fabric = make_wormhole(flits=6, depth=6)
        packet = Packet(0, 0, 5, gen_cycle=0)
        fabric.offer_packet(packet)
        fabric.step()  # injection writes all flits
        assert fabric.count_flits() == 6

    def test_longer_packets_take_longer(self):
        def latency(flits):
            fabric = make_wormhole(flits=flits, depth=flits)
            packet = Packet(0, 0, 15, gen_cycle=0)
            fabric.offer_packet(packet)
            for _ in range(100):
                fabric.step()
                if packet.eject_cycle is not None:
                    return packet.eject_cycle
            raise AssertionError("packet never delivered")

        assert latency(8) > latency(2)

    def test_many_packets_all_delivered(self):
        topo = make_mesh(4, 4)
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2, packet_size_flits=4),
            drain=DrainConfig(epoch=500),
            flow_control="wormhole",
        )
        traffic = SyntheticTraffic(UniformRandom(16), 0.06, random.Random(2))
        sim = Simulation(topo, config, traffic)
        stats = sim.run(3000, warmup=500)
        assert stats.packets_ejected > 1500
        # conservation: injected = delivered + in flight
        assert (
            stats.packets_injected
            == stats.packets_ejected + sim.fabric.packets_in_flight
        )

    def test_vc_holds_single_segment(self):
        """Atomic VC reuse: flits of two packets never interleave in a VC."""
        fabric = make_wormhole(flits=3, depth=6)
        rng = random.Random(4)
        pid = 0
        for cycle in range(200):
            for node in range(16):
                if rng.random() < 0.4:
                    dst = rng.randrange(16)
                    if dst != node:
                        fabric.offer_packet(Packet(pid, node, dst,
                                                   gen_cycle=cycle))
                        pid += 1
            fabric.step()
            for port in range(fabric.index.num_ports):
                for vn in range(fabric.num_vns):
                    for state in fabric.vcs[port][vn]:
                        owners = {
                            (f.packet.pid, f.segment) for f in state.flits
                        }
                        assert len(owners) <= 1

    def test_baseline_scheme_restriction(self):
        # The SimConfig refuses what the fabric does not model, so a
        # config file and a trial spec are refused too, before any run.
        for scheme in Scheme:
            if scheme in (Scheme.DRAIN, Scheme.NONE):
                SimConfig(scheme=scheme, flow_control="wormhole")
                continue
            with pytest.raises(ValueError, match="DRAIN and NONE"):
                SimConfig(scheme=scheme, flow_control="wormhole")
        payload = config_to_dict(SimConfig(flow_control="wormhole"))
        payload["scheme"] = Scheme.ESCAPE_VC.value
        with pytest.raises(ValueError, match="DRAIN and NONE"):
            config_from_dict(payload)

    def test_preflight_refuses_unmodelled_scheme(self):
        spec = synthetic_trial(
            make_mesh(4, 4), SimConfig(flow_control="wormhole"),
            rate=0.05, cycles=50, warmup=10,
        )
        spec.params["config"]["scheme"] = Scheme.ESCAPE_VC.value
        with pytest.raises(PreflightError, match="DRAIN and NONE"):
            validate_spec(spec)

    def test_check_certifies_wormhole_through_the_credit_path(self, capsys):
        # The channel-dependency argument is Dally-Seitz's, stated for
        # wormhole: the certificate is the credit fabric's.
        certs = []
        for flow_control in ("credit", "wormhole"):
            assert main(["check", "--topology", "mesh:4x4", "--scheme",
                         "drain", "--flow-control", flow_control,
                         "--json"]) == 0
            certs.append(capsys.readouterr().out)
        assert certs[0] == certs[1]

    def test_check_refuses_unmodelled_scheme(self, capsys):
        # check builds the SimConfig that run and preflight build, so it
        # refuses what they refuse instead of certifying it.
        assert main(["check", "--topology", "mesh:4x4", "--scheme",
                     "escape_vc", "--flow-control", "wormhole"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "models the DRAIN and NONE schemes only" in captured.err


class TestTruncation:
    def _fabric_with_inflight_packet(self):
        """Stretch an 8-flit packet across several VCs with tiny buffers."""
        fabric = make_wormhole(flits=8, depth=2)
        packet = Packet(0, 0, 15, gen_cycle=0)
        # Give the injection VC enough room for the whole packet.
        fabric.vc_depth = 2
        inj_port = fabric.index.num_links + 0
        fabric.seed_flits(inj_port, 0, 0, make_flits(packet, 8))
        fabric._packet_sizes[0] = 8
        fabric.packets_in_flight += 1
        for _ in range(4):
            fabric.step()  # the worm stretches over 2-3 VCs
        return fabric, packet

    def test_worm_spans_multiple_vcs(self):
        fabric, _packet = self._fabric_with_inflight_packet()
        occupied = [
            (port, vn, vc)
            for port in range(fabric.index.num_ports)
            for vn in range(fabric.num_vns)
            for vc, state in enumerate(fabric.vcs[port][vn])
            if state.flits
        ]
        assert len(occupied) >= 2

    def test_truncation_retags_segments(self):
        fabric, _packet = self._fabric_with_inflight_packet()
        fabric._drain_generation += 1
        fabric._truncate_all()
        for port in range(fabric.index.num_ports):
            for vn in range(fabric.num_vns):
                for state in fabric.vcs[port][vn]:
                    if not state.flits:
                        continue
                    flits = list(state.flits)
                    assert flits[0].is_head
                    assert flits[-1].is_tail
                    for mid in flits[1:-1]:
                        assert mid.kind is FlitType.BODY
                    assert state.out_link is None

    def test_truncated_packet_fully_reassembles(self):
        fabric, packet = self._fabric_with_inflight_packet()
        controller = DrainController(fabric, fabric.config.drain)
        fabric.frozen = True
        controller._rotate_once()  # truncates the worm
        fabric.frozen = False
        for _ in range(300):
            fabric.step()
            if packet.eject_cycle is not None:
                break
        assert packet.eject_cycle is not None, "truncated packet lost"
        assert fabric.count_flits() == 0
        assert fabric.stats.packets_ejected == 1

    def test_no_flit_duplication_across_drains(self):
        """Exactly-once flit delivery even with frequent truncation."""
        topo = make_mesh(4, 4)
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2, packet_size_flits=4),
            drain=DrainConfig(epoch=40),  # truncate often
            flow_control="wormhole",
        )
        traffic = SyntheticTraffic(UniformRandom(16), 0.08, random.Random(3))
        sim = Simulation(topo, config, traffic)
        stats = sim.run(4000)  # _eject_flit raises on duplicate delivery
        assert stats.drain_windows > 10
        assert stats.packets_ejected > 500


class TestWormholeDrainCorrectness:
    def test_wedged_wormhole_drains_out(self):
        """Burst-overload the network, stop traffic, and require full
        delivery — eventual delivery under truncation."""
        topo = make_mesh(4, 4)
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2, packet_size_flits=4),
            drain=DrainConfig(epoch=128, full_drain_period=8),
            flow_control="wormhole",
        )

        class Burst(SyntheticTraffic):
            def generate(self, fabric, cycle):
                if cycle < 150:
                    super().generate(fabric, cycle)
                else:
                    self.backlog.sweep(fabric.offer_packet,
                                       self.backlog.waiting)

        traffic = Burst(UniformRandom(16), 0.5, random.Random(5))
        sim = Simulation(topo, config, traffic)
        for _ in range(60_000):
            sim.step()
            if (
                sim.fabric.cycle > 200
                and traffic.backlog_size() == 0
                and sim.fabric.count_flits() == 0
                and all(not q for qs in sim.fabric.inj_queues for q in qs)
            ):
                break
        assert sim.fabric.count_flits() == 0
        assert sim.stats.packets_ejected == traffic.generated
