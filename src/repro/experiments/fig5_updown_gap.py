"""Figure 5: up*/down* routing vs ideal deadlock-free fully adaptive routing.

The paper quantifies what turn restrictions cost: on an 8x8 mesh with
increasing faults, up*/down* (the standard proactive scheme for irregular
topologies) is compared against an *ideal* fully adaptive network whose
deadlocks are resolved instantly at zero cost.

Expected shape: up*/down*'s non-minimal routes inflate low-load latency at
every fault count (paper: up to 24%, ~22% on average) and sharply reduce
saturation throughput at low fault counts; as faults increase, both
converge because the topology itself loses bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.config import Scheme
from ..harness import Harness
from ..topology.mesh import make_mesh
from .common import (
    Scale,
    averaged_over_faults,
    current_scale,
    low_load_latency,
    saturation_throughput,
    sweep_injection,
)

__all__ = ["updown_gap", "run"]

DEFAULT_FAULTS: Sequence[int] = (0, 1, 4, 8, 12)


def updown_gap(
    faults: Sequence[int] = DEFAULT_FAULTS,
    scale: Optional[Scale] = None,
    mesh_width: int = 8,
    harness: Optional[Harness] = None,
) -> List[Dict]:
    """Latency and saturation throughput of UPDOWN vs IDEAL per fault count."""
    scale = scale if scale is not None else current_scale()
    base = make_mesh(mesh_width, mesh_width)
    rows: List[Dict] = []
    for num_faults in faults:
        row: Dict = {"faults": num_faults}
        for scheme in (Scheme.UPDOWN, Scheme.IDEAL):
            latency = averaged_over_faults(
                base,
                num_faults,
                scale,
                lambda topo, trial: low_load_latency(
                    topo, scheme, scale, mesh_width=mesh_width,
                    seed=trial + 1, harness=harness,
                ),
            )
            # The up*/down* gap only shows beyond the nominal sweep's knee,
            # so Figure 5 sweeps further up than the shared rate list.
            fig5_rates = tuple(scale.sweep_rates) + (0.26, 0.34)
            saturation = averaged_over_faults(
                base,
                num_faults,
                scale,
                lambda topo, trial: saturation_throughput(
                    sweep_injection(
                        topo, scheme, scale, mesh_width=mesh_width,
                        seed=trial + 1, rates=fig5_rates, harness=harness,
                    )
                ),
            )
            key = "updown" if scheme is Scheme.UPDOWN else "ideal"
            row[f"{key}_latency"] = latency
            row[f"{key}_saturation"] = saturation
        row["latency_gap_pct"] = (
            100.0 * (row["updown_latency"] - row["ideal_latency"]) / row["ideal_latency"]
        )
        row["saturation_ratio"] = (
            row["updown_saturation"] / row["ideal_saturation"]
            if row["ideal_saturation"]
            else 0.0
        )
        rows.append(row)
    return rows


def run(scale: Optional[Scale] = None, harness: Optional[Harness] = None) -> List[Dict]:
    """Regenerate Figure 5."""
    return updown_gap(scale=scale, harness=harness)
