"""Unit + integration tests for the coherence-protocol traffic model."""

import random

import pytest

from repro.core.config import NetworkConfig, ProtocolConfig, Scheme, SimConfig
from repro.core.simulator import Simulation
from repro.protocol import CoherenceTraffic, MoesiTraffic
from repro.router.packet import MessageClass
from repro.topology.mesh import make_mesh
from tests.conftest import OfferLog, drive_source, make_config


def run_protocol(scheme, vns, vcs, topo, issue=0.08, txns_per_node=20,
                 cycles=30_000, fwd=0.5, epoch=400, halt=False, seed=5,
                 ejection_depth=2):
    config = SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=vns, vcs_per_vn=vcs,
                              ejection_queue_depth=ejection_depth),
        drain=make_config(Scheme.DRAIN, epoch=epoch).drain,
        seed=seed,
    )
    traffic = CoherenceTraffic(
        topo.num_nodes,
        ProtocolConfig(mshrs_per_node=8, forward_probability=fwd),
        issue,
        random.Random(seed),
        total_transactions=txns_per_node * topo.num_nodes,
    )
    sim = Simulation(topo, config, traffic, halt_on_deadlock=halt)
    sim.run(cycles)
    return sim, traffic


class TestTransactionMechanics:
    def test_transactions_complete(self, mesh4):
        sim, traffic = run_protocol(Scheme.ESCAPE_VC, 3, 2, mesh4)
        assert traffic.done()
        assert traffic.completed == 20 * 16

    def test_every_completion_consumes_a_response(self, mesh4):
        sim, traffic = run_protocol(Scheme.ESCAPE_VC, 3, 2, mesh4)
        assert sim.stats.transactions_completed == traffic.completed

    def test_mshr_bound_respected(self, mesh4):
        config = ProtocolConfig(mshrs_per_node=4)
        traffic = CoherenceTraffic(16, config, 1.0, random.Random(1))
        sim = Simulation(mesh4, make_config(Scheme.ESCAPE_VC, num_vns=3), traffic)
        for _ in range(500):
            sim.step()
            assert all(0 <= o <= 4 for o in traffic.outstanding)

    def test_outstanding_returns_to_zero(self, mesh4):
        sim, traffic = run_protocol(Scheme.ESCAPE_VC, 3, 2, mesh4)
        assert all(o == 0 for o in traffic.outstanding)
        assert traffic.in_flight() == 0

    def test_forward_probability_zero_gives_two_hop_only(self, mesh4):
        sim, traffic = run_protocol(Scheme.ESCAPE_VC, 3, 2, mesh4, fwd=0.0)
        # With no forwards, FWD packets never appear.
        assert traffic.done()
        fwd_ejections = sum(
            len(qs[MessageClass.FWD]) for qs in sim.fabric.ej_queues
        )
        assert fwd_ejections == 0

    def test_three_hop_chain_produces_forwards(self, mesh4):
        config = ProtocolConfig(mshrs_per_node=8, forward_probability=1.0)
        traffic = CoherenceTraffic(16, config, 0.05, random.Random(2),
                                   total_transactions=50)
        sim = Simulation(mesh4, make_config(Scheme.ESCAPE_VC, num_vns=3), traffic)
        sim.run(20_000)
        assert traffic.done()
        # 3-hop transactions inject 3 packets each: REQ + FWD + RESP.
        assert sim.stats.packets_injected == 3 * 50

    def test_issue_probability_validated(self):
        with pytest.raises(ValueError):
            CoherenceTraffic(16, ProtocolConfig(), 1.5, random.Random(1))

    def test_small_networks_rejected(self):
        with pytest.raises(ValueError):
            CoherenceTraffic(2, ProtocolConfig(), 0.1, random.Random(1))

    def test_locality_biases_homes_nearby(self):
        rng = random.Random(3)
        traffic = CoherenceTraffic(
            16, ProtocolConfig(), 0.1, rng, locality=1.0, mesh_width=4
        )
        mesh = make_mesh(4, 4)
        for _ in range(100):
            home = traffic._pick_home(5)
            assert mesh.has_edge(5, home)


class TestProtocolDeadlockStory:
    """The paper's core protocol claim (Figure 2, Section III-D2)."""

    def test_single_vn_without_protection_wedges(self, faulty4):
        sim, traffic = run_protocol(
            Scheme.NONE, 1, 1, faulty4, issue=0.15, cycles=15_000, halt=True
        )
        assert sim.deadlocked
        assert not traffic.done()

    def test_virtual_networks_prevent_protocol_deadlock(self, faulty4):
        sim, traffic = run_protocol(Scheme.ESCAPE_VC, 3, 2, faulty4, issue=0.15)
        assert traffic.done()

    def test_drain_single_vn_completes(self, faulty4):
        sim, traffic = run_protocol(Scheme.DRAIN, 1, 2, faulty4, issue=0.15)
        assert traffic.done()

    def test_drain_single_vn_single_vc_completes(self, faulty4):
        sim, traffic = run_protocol(
            Scheme.DRAIN, 1, 1, faulty4, issue=0.12, txns_per_node=10,
            cycles=60_000, epoch=200,
        )
        assert traffic.done()

    def test_spin_needs_virtual_networks(self, faulty4):
        """SPIN with 3 VNs completes its quota (routing-level recovery +
        proactive protocol protection)."""
        sim, traffic = run_protocol(Scheme.SPIN, 3, 2, faulty4, issue=0.15)
        assert traffic.done()


@pytest.mark.parametrize("source", [CoherenceTraffic, MoesiTraffic])
class TestClosedLoopReadAhead:
    """The read-ahead of the closed-loop base is the per-cycle loop."""

    def test_read_ahead_replays_draw_order(self, source):
        # Two MSHRs fill fast; every 500 cycles all transactions complete
        # (what ends an idle span), so the drawing set keeps changing.
        def complete_all(traffic, cycle):
            traffic.completed += traffic.in_flight()
            traffic.outstanding = [0] * traffic.num_nodes

        runs = []
        for limits in (None, random.Random(4).choice):
            traffic = source(16, ProtocolConfig(mshrs_per_node=2), 0.004,
                             random.Random(9), total_transactions=300)
            fabric = OfferLog()
            drive_source(
                traffic, fabric, 6_000,
                None if limits is None else lambda: limits((1, 2, 9, 400)),
                every=500, event=complete_all)
            runs.append((fabric.offered, traffic.issued, traffic.rng.random()))
        assert runs[0] == runs[1]
        assert 100 < runs[0][1] <= 300

    def test_read_ahead_without_a_hit_stops_at_its_limit(self, source):
        stepped = source(16, ProtocolConfig(), 0.0, random.Random(9))
        ahead = source(16, ProtocolConfig(), 0.0, random.Random(9))
        fabric = OfferLog()
        for cycle in range(37):
            stepped.generate(fabric, cycle)
        assert ahead.next_event_cycle(0, 37) == 37
        assert ahead.rng.getstate() == stepped.rng.getstate()
        ahead.skip_cycles(fabric, 0, 37)  # drawn already: no draw
        assert ahead.rng.getstate() == stepped.rng.getstate()
