"""Tests of the benchmark itself (not of ``repro``), via ``--quick``.

    python -m pytest benchmarks/perf/tests -q

``--quick`` runs one round of ~1/10-size units, so the whole file takes
well under a minute; its numbers are not comparable with a real run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
RUN = str(PERF / "run.py")
sys.path.insert(0, str(PERF))

import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *argv], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """All four workloads, untraced then traced, at ``--quick`` size."""
    out = tmp_path_factory.mktemp("bench_out")
    proc = run_bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    return out, proc.stdout, summary


def test_contract_file_is_within_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])


def test_every_declared_metric_is_printed_with_its_unit(quick_run):
    _, stdout, summary = quick_run
    assert summary["comparable"] is False
    assert "QUICK: not comparable" in stdout
    for name in workloads.WORKLOADS:
        result = summary["workloads"][name]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        for block in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[block]}
            got = {k: v["unit"] for k, v in result[block].items()}
            assert got == declared
            assert all(isinstance(v["value"], (int, float))
                       for v in result[block].values())
        assert all(v["value"] > 0 for v in result["end_to_end"].values())
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        line = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            re.M)
        assert len(line.findall(stdout)) == len(workloads.WORKLOADS)


def test_layers_not_on_a_workloads_path_read_zero(quick_run):
    _, _, summary = quick_run
    mesh = summary["workloads"]["mesh_low_load"]["per_layer"]
    sweep = summary["workloads"]["sweep_cli"]["per_layer"]
    assert mesh["harness.spawn_s"]["value"] == 0
    assert mesh["core.ff_cycle_frac"]["value"] > 0.3
    assert sweep["network.fabric_step_s"]["value"] == 0
    assert sweep["harness.cache_hits"]["value"] == workloads.sweep_trials(True)
    assert sweep["structcache.compiles"]["value"] > 0


def test_spans_resolve_and_self_times_are_non_negative(quick_run):
    out, _, _ = quick_run
    for name in workloads.WORKLOADS:
        spans = json.loads((out / f"{name}.seed1.trace.json").read_text())
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans) > 10
        for span in spans:
            assert span["workload"] == name and span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
        own = tracing.self_times(spans)
        assert all(value >= 0 for value in own.values())
        assert all(span["self"] == own[span["id"]] for span in spans)


def test_hand_loop_children_are_aggregated(quick_run):
    out, _, _ = quick_run
    spans = json.loads((out / "lossless_1024.seed1.trace.json").read_text())
    (loop,) = [s for s in spans if s["name"] == "core.hand_loop"]
    children = [s for s in spans if s["parent"] == loop["id"]]
    assert [c["name"] for c in children] == [
        "traffic.generate", "drain.ladder", "drain.controller",
        "network.fabric_step", "traffic.consume",
    ]
    assert all(c["aggregated"] and c["count"] > 0 for c in children)


def test_corrupted_pinned_digest_is_a_failed_operation(tmp_path):
    pinned = json.loads((PERF / "expected.json").read_text())
    pinned["quick"]["mesh_saturation"] = "0" * 32
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(pinned))
    proc = run_bench("--workload", "mesh_saturation", "--quick",
                     "--out", str(tmp_path / "out"), "--expected", str(bad))
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert "result digest" in proc.stderr


def test_other_seeds_pass_on_invariants_alone(tmp_path):
    proc = run_bench("--workload", "lossless_1024", "--seed", "7", "--quick",
                     "--trace", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert not list(tmp_path.glob("tmp-*"))  # temp dirs removed on exit


def test_seed_changes_the_inputs_and_only_the_seed_does():
    assert workloads.sweep_rates(1, False) == workloads.sweep_rates(1, False)
    assert workloads.sweep_rates(1, False) != workloads.sweep_rates(2, False)


def test_host_gate_waits_out_a_slow_phase_within_its_budget(tmp_path):
    import run

    state = tmp_path / "host.json"
    slept = []

    def gate(*probes):
        values = iter(probes)
        return run.wait_for_quiet_host(state, probe=lambda: next(values),
                                       sleep=slept.append)

    # Nothing to compare with until three runs are on record.
    for first in (0.30, 0.10, 0.11):
        assert gate(first)["waited_s"] == 0
    # Slow against the usual 0.11: the four accruals banked buy five
    # steps; the phase outlasts them, so the run measures anyway.
    banked = 4 * run.WAIT_ACCRUAL_S
    steps = int(banked // run.WAIT_STEP_S)
    out = gate(*[0.15] * (steps + 1))
    assert out["waited_s"] == steps * run.WAIT_STEP_S
    assert slept == [run.WAIT_STEP_S] * steps
    # The phase ends mid-wait: it stops waiting at the first quiet probe.
    for _ in range(3):
        assert gate(0.10)["waited_s"] == 0
    out = gate(0.2, 0.2, 0.12)
    assert out["waited_s"] == 2 * run.WAIT_STEP_S and out["probe_s"] == 0.12
    saved = json.loads(state.read_text())
    assert saved["probes"][-1] == 0.12 and saved["wait_budget_s"] >= 0
    # Never more than the per-run cap, however much is banked; the
    # history stays bounded.
    state.write_text(json.dumps({"probes": [0.1] * 40, "wait_budget_s": 1e6}))
    out = run.wait_for_quiet_host(state, probe=lambda: 0.2, sleep=slept.append)
    assert out["waited_s"] <= run.WAIT_PER_RUN_S < out["waited_s"] + run.WAIT_STEP_S
    assert len(json.loads(state.read_text())["probes"]) == run.PROBE_HISTORY


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "mesh_saturation", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == "" and "no repro package" in proc.stderr
