"""End-to-end tests for the Simulation facade."""

import random

import pytest

from repro.core.config import Scheme
from repro.core.simulator import Simulation
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom
from tests.conftest import make_config


def make_sim(topo, scheme, rate=0.05, seed=3, **cfg_kwargs):
    config = make_config(scheme, **cfg_kwargs).with_seed(seed)
    traffic = SyntheticTraffic(
        UniformRandom(topo.num_nodes), rate, random.Random(seed)
    )
    return Simulation(topo, config, traffic)


class TestSchemeWiring:
    def test_drain_gets_controller(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        assert sim.drain_controller is not None
        assert sim.spin_controller is None

    def test_spin_gets_controller(self, mesh4):
        sim = make_sim(mesh4, Scheme.SPIN, num_vns=3)
        assert sim.spin_controller is not None
        assert sim.drain_controller is None

    def test_ideal_gets_resolver(self, mesh4):
        sim = make_sim(mesh4, Scheme.IDEAL)
        assert sim.ideal_resolver is not None

    def test_none_gets_watchdog(self, mesh4):
        sim = make_sim(mesh4, Scheme.NONE)
        assert sim.watchdog is not None

    def test_escape_vc_uses_dor_on_fault_free_mesh(self, mesh4):
        from repro.routing.dor import DimensionOrderRouting

        sim = make_sim(mesh4, Scheme.ESCAPE_VC, num_vns=3)
        assert isinstance(sim.fabric.escape_routing, DimensionOrderRouting)

    def test_escape_vc_uses_updown_on_faulty_mesh(self, faulty8):
        from repro.routing.updown import UpDownRouting

        sim = make_sim(faulty8, Scheme.ESCAPE_VC, num_vns=3)
        assert isinstance(sim.fabric.escape_routing, UpDownRouting)

    def test_updown_scheme_routes_everything_updown(self, faulty8):
        from repro.routing.updown import UpDownRouting

        sim = make_sim(faulty8, Scheme.UPDOWN)
        assert isinstance(sim.fabric.routing, UpDownRouting)


class TestRunSemantics:
    def test_warmup_must_be_shorter_than_run(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        with pytest.raises(ValueError):
            sim.run(100, warmup=100)

    def test_measured_cycles_recorded(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN)
        stats = sim.run(500, warmup=100)
        assert stats.measured_cycles == 400
        assert stats.cycles == 500

    def test_all_schemes_deliver_at_low_load(self, faulty8):
        for scheme in (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC,
                       Scheme.UPDOWN, Scheme.IDEAL):
            sim = make_sim(
                faulty8, scheme, rate=0.03,
                num_vns=3 if scheme in (Scheme.SPIN, Scheme.ESCAPE_VC) else 1,
            )
            stats = sim.run(1500, warmup=300)
            assert stats.packets_ejected > 500, scheme
            assert stats.avg_latency > 0, scheme

    def test_throughput_tracks_offered_load_at_low_rate(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN, rate=0.05)
        sim.run(2000, warmup=500)
        assert sim.throughput() == pytest.approx(0.05, rel=0.15)

    def test_deterministic_given_seed(self, faulty8):
        a = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        b = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        sa = a.run(1000, warmup=200)
        sb = b.run(1000, warmup=200)
        assert sa.packets_ejected == sb.packets_ejected
        assert sa.avg_latency == sb.avg_latency
        assert sa.misroutes == sb.misroutes

    def test_different_seeds_differ(self, faulty8):
        a = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=11)
        b = make_sim(faulty8, Scheme.DRAIN, rate=0.08, seed=12)
        sa = a.run(1000, warmup=200)
        sb = b.run(1000, warmup=200)
        assert sa.packets_ejected != sb.packets_ejected


class TestSchemeBehaviour:
    def test_drain_windows_happen(self, mesh4):
        sim = make_sim(mesh4, Scheme.DRAIN, epoch=200)
        stats = sim.run(1500)
        assert stats.drain_windows >= 5

    def test_short_epoch_causes_misroutes(self, mesh8):
        sim = make_sim(mesh8, Scheme.DRAIN, rate=0.08, epoch=64)
        stats = sim.run(1500)
        assert stats.misroutes > 0

    def test_long_epoch_low_load_no_misroutes(self, mesh8):
        sim = make_sim(mesh8, Scheme.DRAIN, rate=0.02, epoch=10**6)
        stats = sim.run(1500)
        assert stats.misroutes == 0
        assert stats.drain_windows == 0

    def test_updown_latency_worse_than_adaptive(self, faulty8):
        adaptive = make_sim(faulty8, Scheme.IDEAL, rate=0.02, seed=4)
        updown = make_sim(faulty8, Scheme.UPDOWN, rate=0.02, seed=4)
        la = adaptive.run(2500, warmup=500).avg_latency
        lu = updown.run(2500, warmup=500).avg_latency
        assert lu > la

    def test_halt_on_deadlock_stops_early(self, faulty8):
        config = make_config(Scheme.NONE, num_vns=1, vcs_per_vn=1)
        traffic = SyntheticTraffic(UniformRandom(64), 0.4, random.Random(5))
        sim = Simulation(faulty8, config, traffic, halt_on_deadlock=True)
        stats = sim.run(20_000)
        assert sim.deadlocked
        assert stats.cycles < 20_000

    def test_ideal_rotations_refresh_the_wait_for_graph(self, mesh4,
                                                        monkeypatch):
        # One VC per VN at 0.4 wedges a 4x4 mesh within cycles; the ideal
        # oracle rotates each wedge away and re-derives only the rotated
        # slots. Rotations permute slots behind the kernel's back, so the
        # kernel's masks and sleep state must still be exact afterwards.
        from repro.network.deadlock import WaitForGraph

        refreshed = []
        refresh = WaitForGraph.refresh_slots

        def counted(self, slots):
            refreshed.append(len(slots))
            return refresh(self, slots)

        monkeypatch.setattr(WaitForGraph, "refresh_slots", counted)

        def run(dense):
            config = make_config(Scheme.IDEAL, num_vns=1,
                                 vcs_per_vn=1).with_seed(1)
            traffic = SyntheticTraffic(UniformRandom(16), 0.4,
                                       random.Random(1))
            sim = Simulation(mesh4, config, traffic, dense=dense)
            sim.run(2000)
            return sim

        sim = run(dense=False)
        assert sim.stats.deadlock_events == 77
        assert len(refreshed) == 77 and all(refreshed)
        engine = sim.fabric._engine
        assert engine.audit_sleep() == [] and engine.audit_masks() == []
        twin = run(dense=True)
        assert twin.stats.as_dict() == sim.stats.as_dict()
        assert twin.fabric._lcg == sim.fabric._lcg


class TestDetectionTick:
    """Every online responder checks on the multiples of its interval."""

    @staticmethod
    def _responder(kind, fabric, drain_controller, interval):
        from repro.core.config import SpinConfig
        from repro.core.simulator import DeadlockWatchdog, IdealResolver
        from repro.drain.ladder import DegradationLadder
        from repro.network.spin import SpinController
        from repro.network.staticbubble import StaticBubbleController

        return {
            "ideal": lambda: IdealResolver(fabric, interval),
            "watchdog": lambda: DeadlockWatchdog(fabric, interval, 0),
            "spin": lambda: SpinController(fabric, SpinConfig(), interval),
            "static_bubble": lambda: StaticBubbleController(
                fabric, SpinConfig(), interval),
            "ladder": lambda: DegradationLadder(
                fabric, drain_controller, check_interval=interval),
        }[kind]()

    @pytest.mark.parametrize("interval", [1, 2, 7, 128])
    @pytest.mark.parametrize(
        "kind", ["ideal", "watchdog", "spin", "static_bubble", "ladder"])
    def test_idle_horizon_is_the_next_multiple(self, mesh4, kind, interval):
        sim = make_sim(mesh4, Scheme.DRAIN)
        responder = self._responder(kind, sim.fabric, sim.drain_controller,
                                    interval)
        ticks = range(0, 4 * interval, interval)
        for now in range(3 * interval + 1):
            expected = min(t for t in ticks if t >= now)
            assert responder.next_event_cycle(now) == expected, now
