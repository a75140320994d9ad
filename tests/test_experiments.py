"""Smoke + shape tests for the experiment modules (tiny scale).

Full-shape assertions (who wins, orderings) live in the benchmark harness;
here we verify each experiment runs end-to-end and produces well-formed
rows with the structurally guaranteed properties.
"""

import pytest

from repro.core.config import Scheme
from repro.experiments import (
    fig3_deadlock_likelihood,
    fig9_area_power,
    fig14_epoch,
    table1_comparison,
    table2_parameters,
)
from repro.experiments.common import (
    Scale,
    current_scale,
    format_table,
    low_load_latency,
    saturation_throughput,
    scheme_config,
    sweep_injection,
    synthetic_trial_for,
)
from repro.harness import execute_trial
from repro.topology.mesh import make_mesh
from repro.traffic.workloads import PARSEC


class TestScale:
    def test_ci_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() == Scale.ci()

    def test_full_selected_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        scale = current_scale()
        assert scale.epoch == 65_536
        assert scale.fault_patterns == 10

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            current_scale()


class TestSchemeConfig:
    def test_drain_defaults_to_one_vn(self, tiny_scale):
        cfg = scheme_config(Scheme.DRAIN, tiny_scale)
        assert cfg.network.num_vns == 1

    def test_baselines_keep_three_vns(self, tiny_scale):
        for scheme in (Scheme.SPIN, Scheme.ESCAPE_VC):
            assert scheme_config(scheme, tiny_scale).network.num_vns == 3

    def test_scaled_epoch_and_timeout(self, tiny_scale):
        cfg = scheme_config(Scheme.DRAIN, tiny_scale)
        assert cfg.drain.epoch == tiny_scale.epoch
        assert cfg.spin.timeout == tiny_scale.spin_timeout


class TestCommonRunners:
    def test_synthetic_trial_produces_stats(self, tiny_scale, mesh4):
        result = execute_trial(
            synthetic_trial_for(mesh4, Scheme.DRAIN, 0.05, tiny_scale))
        assert result["ejected"] > 0

    def test_sweep_rows_structure(self, tiny_scale, mesh4):
        rows = sweep_injection(mesh4, Scheme.DRAIN, tiny_scale)
        assert len(rows) == len(tiny_scale.sweep_rates)
        for row in rows:
            assert {"rate", "throughput", "latency", "ejected"} <= set(row)

    def test_saturation_is_max(self):
        rows = [{"throughput": 0.1}, {"throughput": 0.3}, {"throughput": 0.2}]
        assert saturation_throughput(rows) == 0.3

    def test_low_load_latency_positive(self, tiny_scale, mesh4):
        assert low_load_latency(mesh4, Scheme.DRAIN, tiny_scale) > 0

    def test_format_table(self):
        text = format_table(
            [{"a": 1, "b": 2.5}], columns=("a", "b"), title="T"
        )
        assert "T" in text and "2.5000" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], columns=("a",))


class TestFig3:
    def test_rows_and_zero_fault_baseline(self, tiny_scale):
        rows = fig3_deadlock_likelihood.deadlock_likelihood(
            workloads=[PARSEC[2]],  # canneal
            links_removed=(0, 10),
            vcs_options=(1,),
            runs=2,
            scale=tiny_scale,
        )
        assert len(rows) == 2
        baseline = next(r for r in rows if r["links_removed"] == 0)
        assert baseline["deadlock_pct"] == 0.0  # paper: fault-free is safe

    def test_faults_increase_deadlocks_for_canneal(self, tiny_scale):
        rows = fig3_deadlock_likelihood.deadlock_likelihood(
            workloads=[PARSEC[2]],
            links_removed=(12,),
            vcs_options=(1,),
            runs=3,
            scale=tiny_scale,
        )
        assert rows[0]["deadlock_pct"] > 0.0


class TestFig9:
    def test_rows_complete(self):
        rows = fig9_area_power.run()
        assert {r["scheme"] for r in rows} == {"escape_vc", "spin", "drain"}

    def test_normalisation_anchor(self):
        rows = {r["scheme"]: r for r in fig9_area_power.run()}
        assert rows["escape_vc"]["norm_area"] == 1.0
        assert rows["escape_vc"]["norm_power"] == 1.0

    def test_drain_cheapest(self):
        rows = {r["scheme"]: r for r in fig9_area_power.run()}
        assert rows["drain"]["norm_area"] < rows["spin"]["norm_area"] < 1.0
        assert rows["drain"]["norm_power"] < rows["spin"]["norm_power"] < 1.0


class TestFig14:
    def test_extreme_epoch_hurts(self, tiny_scale):
        rows = fig14_epoch.epoch_sensitivity(epochs=(16, 2048), scale=tiny_scale)
        by_epoch = {r["epoch"]: r for r in rows}
        assert by_epoch[16]["latency"] > by_epoch[2048]["latency"]
        assert by_epoch[16]["misroutes"] > by_epoch[2048]["misroutes"]


class TestTables:
    def test_table1_rows(self):
        rows = table1_comparison.run()
        assert len(rows) == 5
        drain = next(r for r in rows if r["solution"] == "drain")
        assert drain["type"] == "subactive"
        assert drain["protocol_dl"] == "yes"
        spin = next(r for r in rows if r["solution"] == "spin")
        assert spin["protocol_dl"] == "no"

    def test_table1_only_drain_has_all_yes(self):
        rows = table1_comparison.run()
        full_marks = [
            r["solution"]
            for r in rows
            if all(
                r[k] == "yes"
                for k in ("high_perf", "low_area_power", "low_complexity",
                          "routing_dl", "protocol_dl")
            )
        ]
        assert full_marks == ["drain"]

    def test_table2_echoes_defaults(self):
        rows = table2_parameters.run()
        assert all(r["match"] for r in rows)
        params = {r["parameter"] for r in rows}
        assert "DRAIN epoch" in params and "SPIN timeout" in params
