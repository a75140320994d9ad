"""Figure 14: sensitivity of DRAIN to the drain epoch (16 .. 64K cycles).

Uniform random traffic on the 8x8 mesh. Expected shape: a 16-cycle epoch
continuously flushes the drain path — frequent misrouting wrecks both
low-load latency and saturation throughput; both improve monotonically
(then flatten) as the epoch grows, because deadlocks are too rare to need
frequent draining.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.config import Scheme
from ..harness import Harness, get_default_harness
from ..topology.mesh import make_mesh
from .common import (
    Scale,
    current_scale,
    saturation_throughput,
    synthetic_trial_for,
)

__all__ = ["epoch_sensitivity", "run"]

DEFAULT_EPOCHS: Sequence[int] = (16, 64, 256, 1024, 4096, 16384, 65536)


def epoch_sensitivity(
    epochs: Sequence[int] = DEFAULT_EPOCHS,
    scale: Optional[Scale] = None,
    mesh_width: int = 8,
    seed: int = 1,
    harness: Optional[Harness] = None,
) -> List[Dict]:
    """Low-load latency and saturation throughput per epoch value."""
    scale = scale if scale is not None else current_scale()
    topo = make_mesh(mesh_width, mesh_width)
    rates = [scale.low_load_rate, *scale.sweep_rates]
    specs = [
        synthetic_trial_for(
            topo, Scheme.DRAIN, rate, replace(scale, epoch=epoch),
            mesh_width=mesh_width, seed=seed,
        )
        for epoch in epochs
        for rate in rates
    ]
    harness = harness if harness is not None else get_default_harness()
    results = harness.run(specs, label="fig14")
    rows: List[Dict] = []
    for i, epoch in enumerate(epochs):
        low, *sweep = results[i * len(rates):(i + 1) * len(rates)]
        rows.append(
            {
                "epoch": epoch,
                "latency": low["avg_latency"],
                "saturation": saturation_throughput(sweep),
                "misroutes": low["misroutes"],
                "drain_windows": low["drain_windows"],
            }
        )
    return rows


def run(scale: Optional[Scale] = None, harness: Optional[Harness] = None) -> List[Dict]:
    """Regenerate Figure 14."""
    return epoch_sensitivity(scale=scale, harness=harness)
