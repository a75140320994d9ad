"""Tests for the command-line interface."""

import importlib
import inspect
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
            "--packet-flits", "4",
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

    def test_experiment_flags_reach_every_harness_backed_experiment(
            self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "experiment", "section6",
             "--workers", "1", "--cache-dir", "c", "--out-dir", "r"],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
                 "REPRO_SCALE": "ci", "REPRO_STRUCT_CACHE": "off"},
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(
            (tmp_path / "r" / "section6.manifest.json").read_text())
        assert len(manifest["trials"]) > 0
        assert list((tmp_path / "c" / "results").rglob("*.json"))
        # Every experiment that runs trials through the harness takes the
        # one the CLI builds from --workers/--no-cache/--cache-dir.
        for name in ("fig5", "fig14", "section6"):
            module, _, function = EXPERIMENTS[name].partition(":")
            fn = getattr(importlib.import_module(
                f"repro.experiments.{module}"), function)
            assert "harness" in inspect.signature(fn).parameters, name


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


# ----------------------------------------------------------------------
# What a run imports, and the public surface the lazy packages keep
# ----------------------------------------------------------------------
LIST_STDOUT = "".join(f"{line}\n" for line in [
    "available experiments:",
    "  fault-recovery", "  fig1-fig2", "  fig10", "  fig11", "  fig12",
    "  fig13", "  fig14", "  fig15", "  fig3", "  fig4", "  fig5", "  fig9",
    "  fig9-moesi", "  lifetime", "  lossless-pfc", "  path-quality",
    "  section6", "  sensitivity", "  table1", "  table2",
])

#: Runs ``argv[1]``, then prints, as JSON, which of numpy and the
#: ``repro`` modules the interpreter has loaded.
_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(
    m for m in sys.modules
    if m == "numpy" or m == "repro" or m.startswith("repro.")
)))
"""


def _probe(code: str, cwd) -> list:
    """The ``repro`` modules and numpy loaded after running *code*."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, code], capture_output=True, text=True,
        cwd=cwd, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportClosure:
    def test_cached_sweep_stays_out_of_the_engine(self, tmp_path):
        # The structure store is on, as in the CLI default, so preflight
        # answers from the certificates the cold run stored.
        argv = ["sweep", "--topology", "mesh:3x3", "--schemes",
                "drain,escape_vc,spin", "--rates", "0.05,0.1",
                "--cache-dir", str(tmp_path / "cache")]
        cold = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv,
             "--out-dir", str(tmp_path / "cold")],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert cold.returncode == 0, cold.stderr
        warm_argv = argv + ["--out-dir", str(tmp_path / "warm")]
        loaded = _probe(
            f"from repro.cli import main\nassert main({warm_argv!r}) == 0",
            tmp_path,
        )
        for engine in ("numpy", "repro.core.simulator", "repro.network"):
            assert engine not in loaded
        name = "sweep_mesh-3x3_uniform_random"
        rows = (tmp_path / "cold" / f"{name}.json").read_bytes()
        assert (tmp_path / "warm" / f"{name}.json").read_bytes() == rows
        manifest = json.loads(
            (tmp_path / "warm" / f"{name}.manifest.json").read_text())
        assert manifest["cache_misses"] == 0
        assert manifest["struct_cache"]["compiles"] == 0

    def test_cycle_vocabulary_imports_nothing_heavy(self, tmp_path):
        loaded = _probe(
            "from repro.analysis.certificate import canonical_rotation, "
            "buffer_cycle_payload", tmp_path,
        )
        assert "numpy" not in loaded
        assert not [m for m in loaded if m.startswith("repro.network")]

    def test_store_and_list_import_nothing_heavy(self, tmp_path):
        assert _probe("import repro.store", tmp_path) == ["repro", "repro.store"]
        loaded = _probe("from repro.cli import main\nmain(['list'])", tmp_path)
        assert not [m for m in loaded if m.startswith("repro.experiments.")]
        assert "numpy" not in loaded


#: Constants carry no ``__module__``: where each is defined.
_CONSTANT_HOMES = {
    ("repro", "__version__"): "repro",
    ("repro.analysis", "CERTIFIED"): "repro.analysis.certificate",
    ("repro.analysis", "REFUTED"): "repro.analysis.certificate",
    ("repro.analysis", "ROUTING_NAMES"): "repro.analysis.certificate",
    ("repro.faults", "FAULT_POLICIES"): "repro.faults.schedule",
    ("repro.faults", "ONSET_DISTRIBUTIONS"): "repro.faults.schedule",
    ("repro.faults", "STORM_EVENT_KINDS"): "repro.faults.storm",
    ("repro.harness", "RUNNERS"): "repro.harness.trials",
    ("repro.structcache", "KINDS"): "repro.structcache.memo",
    ("repro.structcache", "STRUCT_FORMAT_VERSION"): "repro.structcache.digest",
}


class TestPublicSurface:
    @pytest.mark.parametrize("package", [
        "repro", "repro.core", "repro.analysis", "repro.harness",
        "repro.structcache", "repro.experiments", "repro.faults",
    ])
    def test_every_public_name_is_its_defining_object(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            if inspect.ismodule(value):
                assert value is sys.modules[f"{package}.{name}"]
                continue
            home = _CONSTANT_HOMES.get((package, name))
            if home is None:
                home, name = value.__module__, value.__name__
            assert getattr(importlib.import_module(home), name) is value
        assert not hasattr(pkg, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name

    def test_experiment_table_and_list_output(self, capsys):
        assert sorted(EXPERIMENTS) == sorted(
            line.strip() for line in LIST_STDOUT.splitlines()[1:])
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_STDOUT

    def test_drain_path_error_prints_its_payload(self, capsys):
        # Omitting two links splits the ring, so no drain cover exists.
        assert main(["check", "--topology", "ring:4", "--omit-link", "0-1",
                     "--omit-link", "2-3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: drain path requires a connected topology",
            '{"extra": [], "message": "drain path requires a connected '
            'topology", "missing": []}',
        ]
