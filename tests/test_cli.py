"""Tests for the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, parse_topology

REPO = Path(__file__).resolve().parent.parent


def _cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, cwd=cwd,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin",
            # The CLI activates the compiled-structure store at its default
            # (user-level) location when this var is absent; the suite must
            # never write outside its tmp dirs.
            "REPRO_STRUCT_CACHE": "off",
        },
    )


class TestParseTopology:
    def test_mesh(self):
        topo = parse_topology("mesh:4x4")
        assert topo.num_nodes == 16

    def test_torus(self):
        assert parse_topology("torus:4x4").num_edges == 32

    def test_ring(self):
        assert parse_topology("ring:8").num_nodes == 8

    def test_smallworld(self):
        topo = parse_topology("smallworld:16+4", seed=3)
        assert topo.num_nodes == 16
        assert topo.num_edges == 20

    def test_randomregular(self):
        topo = parse_topology("randomregular:12d3", seed=3)
        assert all(topo.degree(n) == 3 for n in topo.nodes)

    def test_chiplet(self):
        topo = parse_topology("chiplet:4x2x2")
        assert topo.is_connected()

    def test_faults_applied(self):
        topo = parse_topology("mesh:4x4", faults=3, seed=1)
        assert topo.num_edges == 21
        assert topo.is_connected()

    def test_bad_specs_rejected(self):
        for spec in ("mesh:4", "cube:3x3", "smallworld:16", "randomregular:12"):
            with pytest.raises(ValueError):
                parse_topology(spec)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_analytical_experiment_runs(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "drain" in out and "escape_vc" in out

    def test_table_experiment_runs(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "subactive" in capsys.readouterr().out

    def test_run_command(self, capsys):
        code = main([
            "run", "--topology", "mesh:4x4", "--scheme", "drain",
            "--cycles", "800", "--warmup", "200", "--rate", "0.04",
            "--epoch", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "drain windows" in out

    def test_run_wormhole(self, capsys):
        code = main([
            "run", "--topology", "mesh:4x4", "--flow-control", "wormhole",
            "--cycles", "800", "--warmup", "200", "--rate", "0.03",
        ])
        assert code == 0

    def test_drainpath_command(self, capsys):
        assert main(["drainpath", "--topology", "ring:6", "--show-path"]) == 0
        out = capsys.readouterr().out
        assert "drain path: 12 links" in out
        assert "->" in out

    def test_drainpath_hawick_james(self, capsys):
        assert main([
            "drainpath", "--topology", "ring:4", "--method", "hawick-james",
        ]) == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_recovery_experiment_registered(self):
        assert "fault-recovery" in EXPERIMENTS


class TestErrorPaths:
    def test_bad_topology_is_one_line_error(self, capsys):
        assert main(["run", "--topology", "mesh:oops"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_unknown_scheme_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "nonsense"])

    def test_batch_flag_is_gone(self, capsys):
        # Every trial shares its process's compiled structure; there is
        # nothing left for a knob to select.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--topology", "mesh:4x4", "--batch", "auto"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err

    def test_sweep_unknown_scheme_exits_nonzero(self, capsys):
        assert main([
            "sweep", "--topology", "mesh:4x4", "--schemes", "nonsense",
            "--no-cache",
        ]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_unsatisfiable_fault_schedule_exits_nonzero(self, capsys):
        code = main([
            "faults", "--topology", "mesh:2x2", "--num-faults", "5",
            "--no-cache",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "removable" in captured.err


class TestFaultsCommand:
    def test_faults_run_and_artefact(self, tmp_path, capsys):
        code = main([
            "faults", "--topology", "mesh:4x4", "--num-faults", "1",
            "--cycles", "1200", "--no-cache",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "drain recovery:" in out
        assert "recovery curve" in out
        artefacts = list(tmp_path.glob("faults_*.json"))
        artefacts = [p for p in artefacts if "manifest" not in p.name]
        assert len(artefacts) == 1
        payload = json.loads(artefacts[0].read_text())
        assert payload["curve"], "recovery curve missing from artefact"
        assert payload["schedule"]["events"]
        assert payload["summary"]["drain_recomputes"] >= 1

    def test_timeout_flag_accepted(self, capsys):
        code = main([
            "faults", "--topology", "mesh:4x4", "--num-faults", "1",
            "--cycles", "1200", "--no-cache", "--timeout", "120",
            "--workers", "2",
        ])
        assert code == 0


class TestProfile:
    def test_run_profile_writes_artifacts(self, tmp_path):
        proc = _cli("run", "--topo", "mesh:3x3", "--scheme", "drain",
                    "--rate", "0.05", "--cycles", "200", "--warmup", "50",
                    "--profile", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        profs = list(tmp_path.glob("run_*.prof"))
        texts = list(tmp_path.glob("run_*.profile.txt"))
        assert len(profs) == 1 and len(texts) == 1
        assert "cumulative" in texts[0].read_text()

    def test_sweep_profile_lands_next_to_manifest(self, tmp_path):
        out_dir = tmp_path / "sweep"
        proc = _cli("sweep", "--topo", "mesh:3x3", "--schemes", "drain",
                    "--rates", "0.05", "--out-dir", str(out_dir),
                    "--profile")
        assert proc.returncode == 0, proc.stderr
        assert list(out_dir.glob("sweep_*.prof"))
        assert list(out_dir.glob("sweep_*.profile.txt"))
        assert list(out_dir.glob("sweep_*.manifest.json"))
