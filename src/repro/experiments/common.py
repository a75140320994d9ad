"""Shared infrastructure for the per-figure experiment modules.

Every experiment in this package regenerates one table or figure of the
paper. Because a pure-Python cycle simulator is orders of magnitude slower
than gem5/Garnet, each experiment honours a :class:`Scale`:

- ``Scale.ci()`` (default) — short warm-up/measurement windows, few fault
  patterns, coarse injection sweeps; minutes of wall clock, shape-stable;
- ``Scale.full()`` — paper-like sweep sizes (10 fault patterns, longer
  windows); hours of wall clock. Selected with ``REPRO_SCALE=full``.

A sweep runs no simulation inline: it builds trial specs
(:func:`synthetic_trial_for` for synthetic traffic) and submits them to
the harness (:func:`repro.harness.get_default_harness`) as one batch.
Results are returned as lists of plain dicts (one per figure series point)
so benchmarks and examples can print them uniformly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from ..harness import Harness, get_default_harness, synthetic_trial
from ..harness.trials import TrialSpec
from ..topology.graph import Topology
from ..topology.irregular import random_fault_patterns

__all__ = [
    "Scale",
    "current_scale",
    "scheme_config",
    "synthetic_trial_for",
    "fault_topologies",
    "sweep_injection",
    "saturation_throughput",
    "low_load_latency",
    "averaged_over_faults",
    "format_table",
]


@dataclass(frozen=True)
class Scale:
    """Knobs controlling how much work each experiment does."""

    warmup: int = 600
    measure: int = 1_800
    fault_patterns: int = 2
    sweep_rates: Sequence[float] = (0.03, 0.07, 0.11, 0.15, 0.19)
    low_load_rate: float = 0.02
    epoch: int = 2_048  # scaled stand-in for the paper's 64K epochs
    spin_timeout: int = 256  # scaled stand-in for SPIN's 1024-cycle timeout
    app_transactions_per_node: int = 40
    app_max_cycles: int = 40_000
    seeds: int = 2

    @classmethod
    def ci(cls) -> "Scale":
        return cls()

    @classmethod
    def full(cls) -> "Scale":
        return cls(
            warmup=5_000,
            measure=20_000,
            fault_patterns=10,
            sweep_rates=tuple(r / 100 for r in range(2, 32, 2)),
            low_load_rate=0.02,
            epoch=65_536,
            spin_timeout=1_024,
            app_transactions_per_node=400,
            app_max_cycles=2_000_000,
            seeds=5,
        )

    @property
    def total_cycles(self) -> int:
        return self.warmup + self.measure


def current_scale() -> Scale:
    """Scale selected by the ``REPRO_SCALE`` environment variable."""
    mode = os.environ.get("REPRO_SCALE", "ci").lower()
    if mode == "full":
        return Scale.full()
    if mode in ("ci", "fast", ""):
        return Scale.ci()
    raise ValueError(f"unknown REPRO_SCALE={mode!r} (use 'ci' or 'full')")


def scheme_config(
    scheme: Scheme,
    scale: Scale,
    num_vns: int = 3,
    vcs_per_vn: int = 2,
    seed: int = 1,
) -> SimConfig:
    """Build a :class:`SimConfig` for *scheme* with paper-default shapes.

    The baselines (escape-VC, SPIN) get 3 virtual networks; DRAIN defaults
    to a single VN (Section IV). Epoch and timeout come from the scale.
    """
    if scheme is Scheme.DRAIN and num_vns == 3:
        num_vns = 1
    cfg = SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=num_vns, vcs_per_vn=vcs_per_vn),
        drain=DrainConfig(epoch=scale.epoch),
        seed=seed,
    )
    return replace(cfg, spin=replace(cfg.spin, timeout=scale.spin_timeout))


def synthetic_trial_for(
    topology: Topology,
    scheme: Scheme,
    rate: float,
    scale: Scale,
    pattern: str = "uniform_random",
    mesh_width: Optional[int] = None,
    seed: int = 1,
    num_vns: int = 3,
    vcs_per_vn: int = 2,
) -> TrialSpec:
    """Harness spec for one synthetic run of *scheme* at *rate* under *scale*."""
    config = scheme_config(scheme, scale, num_vns=num_vns, vcs_per_vn=vcs_per_vn, seed=seed)
    return synthetic_trial(
        topology,
        config,
        rate,
        cycles=scale.total_cycles,
        warmup=scale.warmup,
        pattern=pattern,
        mesh_width=mesh_width,
    )


def fault_topologies(
    base_topology: Topology,
    num_faults: int,
    scale: Scale,
    seed: int = 99,
) -> List[Topology]:
    """The trial topologies for one fault count (paper methodology).

    ``num_faults == 0`` is a single trial on the pristine topology; any
    other count yields ``scale.fault_patterns`` random fault patterns —
    the same ones :func:`averaged_over_faults` iterates, exposed as a list
    so experiments can submit every (pattern, rate, scheme) combination to
    the harness as one flat batch.
    """
    if num_faults == 0:
        return [base_topology]
    return random_fault_patterns(
        base_topology, num_faults, scale.fault_patterns, seed
    )


def sweep_injection(
    topology: Topology,
    scheme: Scheme,
    scale: Scale,
    pattern: str = "uniform_random",
    mesh_width: Optional[int] = None,
    seed: int = 1,
    rates: Optional[Sequence[float]] = None,
    harness: Optional[Harness] = None,
) -> List[Dict[str, float]]:
    """Latency/throughput across an injection-rate sweep (one topology).

    Each rate is an independent trial submitted through the harness, so
    the sweep parallelises across workers and memoizes per rate.
    """
    rates = list(rates if rates is not None else scale.sweep_rates)
    specs = [
        synthetic_trial_for(
            topology, scheme, rate, scale, pattern, mesh_width, seed=seed
        )
        for rate in rates
    ]
    harness = harness if harness is not None else get_default_harness()
    results = harness.run(specs, label=f"sweep:{scheme.value}")
    return [
        {
            "rate": rate,
            "throughput": res["throughput"],
            "latency": res["avg_latency"],
            "ejected": res["ejected"],
        }
        for rate, res in zip(rates, results)
    ]


def saturation_throughput(rows: Iterable[Dict[str, float]]) -> float:
    """Saturation throughput from a sweep: the peak received rate.

    Received throughput tracks offered load until the knee and then
    flattens (or collapses for schemes that wedge); its maximum over the
    sweep is the standard received-throughput estimate of saturation.
    """
    return max(row["throughput"] for row in rows)


def low_load_latency(
    topology: Topology,
    scheme: Scheme,
    scale: Scale,
    pattern: str = "uniform_random",
    mesh_width: Optional[int] = None,
    seed: int = 1,
    harness: Optional[Harness] = None,
) -> float:
    """Average packet latency at the scale's low-load injection rate."""
    spec = synthetic_trial_for(
        topology, scheme, scale.low_load_rate, scale, pattern, mesh_width,
        seed=seed,
    )
    harness = harness if harness is not None else get_default_harness()
    (result,) = harness.run([spec], label=f"lowload:{scheme.value}")
    return result["avg_latency"]


def averaged_over_faults(
    base_topology: Topology,
    num_faults: int,
    scale: Scale,
    fn: Callable[[Topology, int], float],
    seed: int = 99,
) -> float:
    """Average ``fn(topology, trial)`` over random fault patterns.

    Mirrors the paper's methodology: each fault count is averaged across
    randomly selected fault patterns (10 in the paper, ``scale.fault_patterns``
    here).
    """
    if num_faults == 0:
        return fn(base_topology, 0)
    patterns = fault_topologies(base_topology, num_faults, scale, seed)
    values = [fn(topo, trial) for trial, topo in enumerate(patterns)]
    return sum(values) / len(values)


def format_table(rows: List[Dict], columns: Sequence[str], title: str = "") -> str:
    """Render result rows as an aligned text table (bench/report output)."""
    if not rows:
        return f"{title}\n(no rows)"
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)

