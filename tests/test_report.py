"""Tests for the run-report renderer."""

import random

from repro.core.config import Scheme
from repro.core.report import run_report
from repro.core.simulator import Simulation
from repro.cli import main
from repro.network import wormhole
from repro.router.packet import Packet
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom
from tests.conftest import make_config, on_wormhole


def finished_sim(mesh4, scheme=Scheme.DRAIN, rate=0.05, cycles=900):
    traffic = SyntheticTraffic(UniformRandom(16), rate, random.Random(2))
    sim = Simulation(mesh4, make_config(scheme, epoch=300), traffic)
    sim.run(cycles, warmup=200)
    return sim


class TestRunReport:
    def test_contains_all_sections(self, mesh4):
        report = run_report(finished_sim(mesh4))
        for heading in ("configuration", "traffic", "latency",
                        "deadlock handling", "router load"):
            assert heading in report

    def test_headline_numbers_present(self, mesh4):
        sim = finished_sim(mesh4)
        report = run_report(sim)
        assert f"packets delivered : {sim.stats.packets_ejected}" in report
        assert "latency histogram" in report

    def test_spin_scheme_reports_probes(self, mesh4):
        report = run_report(finished_sim(mesh4, scheme=Scheme.SPIN))
        assert "probes sent" in report
        assert "pre-drain stretch" not in report  # no drain controller

    def test_empty_run_handled(self, mesh4):
        traffic = SyntheticTraffic(UniformRandom(16), 0.0, random.Random(1))
        sim = Simulation(mesh4, make_config(Scheme.DRAIN), traffic)
        sim.run(50)
        assert "(no measured packets)" in run_report(sim)

    def test_flow_control_is_the_configs(self, mesh4):
        traffic = SyntheticTraffic(UniformRandom(16), 0.05, random.Random(2))
        config = make_config(Scheme.DRAIN, vcs_per_vn=4, epoch=300,
                             flow_control="pause_resume")
        sim = Simulation(mesh4, config, traffic)
        sim.run(300)
        assert "flow control      : pause_resume" in run_report(sim)

    def test_wormhole_packet_line_matches_the_flits_made(self, mesh4):
        traffic = SyntheticTraffic(UniformRandom(16), 0.0, random.Random(2))
        config = on_wormhole(make_config(Scheme.DRAIN, epoch=300), flits=8)
        sim = Simulation(mesh4, config, traffic)
        assert sim.fabric.offer_packet(Packet(0, 0, 5, gen_cycle=0))
        sim.step()  # injection writes every flit of the packet
        report = run_report(sim)
        assert f"packet={sim.fabric.count_flits()} flit(s)" in report
        assert "packet=8 flit(s)" in report
        assert "flow control      : wormhole" in report

    def test_cli_wormhole_report_runs_the_packet_flits(self, capsys,
                                                       monkeypatch):
        made = set()
        real = wormhole.make_flits

        def spy(packet, count):
            made.add(count)
            return real(packet, count)

        monkeypatch.setattr(wormhole, "make_flits", spy)
        code = main([
            "run", "--topology", "mesh:4x4", "--flow-control", "wormhole",
            "--packet-flits", "8", "--cycles", "300", "--warmup", "50",
            "--rate", "0.03", "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "packet=8 flit(s)" in out
        assert "flow control      : wormhole" in out
        assert made == {8}

    def test_cli_report_flag(self, capsys):
        code = main([
            "run", "--topology", "mesh:4x4", "--cycles", "600",
            "--warmup", "150", "--rate", "0.05", "--epoch", "200",
            "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run report: mesh-4x4" in out
        assert "latency histogram" in out
