"""Section VI: DRAIN on heterogeneous (chiplet) and random topologies.

Not a numbered figure — the paper's Discussion section argues DRAIN would
let arbitrary vendor chiplet networks compose deadlock-free without
boundary turn restrictions, and would spare random topologies their escape
VCs. This experiment quantifies both claims on our substrate by comparing
DRAIN (fully adaptive, 1 VN) against the turn-restricted up*/down*
alternative on composed and random topologies.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.config import Scheme
from ..harness import Harness, get_default_harness
from ..topology.chiplet import make_chiplet_system, make_dual_chiplet
from ..topology.graph import Topology
from ..topology.randomized import make_random_regular, make_small_world
from .common import Scale, current_scale, synthetic_trial_for

__all__ = ["heterogeneous_study", "run"]

def _topologies(seed: int) -> List[Topology]:
    rng = random.Random(seed)
    return [
        make_chiplet_system(2, 2, num_chiplets=4, interposer_width=2).topology,
        make_dual_chiplet(3, 3, bridges=2).topology,
        make_small_world(32, 16, rng),
        make_random_regular(16, 3, rng),
    ]


def heterogeneous_study(
    scale: Optional[Scale] = None, seed: int = 5,
    harness: Optional[Harness] = None,
) -> List[Dict]:
    """Low-load latency + hop counts: DRAIN vs up*/down*, per topology."""
    scale = scale if scale is not None else current_scale()
    topologies = _topologies(seed)
    schemes = {"drain": Scheme.DRAIN, "updown": Scheme.UPDOWN}
    harness = harness if harness is not None else get_default_harness()
    results = iter(harness.run([
        synthetic_trial_for(topo, scheme, scale.low_load_rate, scale,
                            seed=seed)
        for topo in topologies for scheme in schemes.values()
    ], label="heterogeneous"))
    rows: List[Dict] = []
    for topo in topologies:
        row: Dict = {
            "topology": topo.name,
            "nodes": topo.num_nodes,
            "diameter": topo.diameter(),
        }
        for key in schemes:
            result = next(results)
            row[f"{key}_latency"] = result["avg_latency"]
            row[f"{key}_hops"] = result["avg_hops"]
        row["latency_gain_pct"] = 100.0 * (
            row["updown_latency"] - row["drain_latency"]
        ) / row["updown_latency"]
        rows.append(row)
    return rows


def run(scale: Optional[Scale] = None, harness: Optional[Harness] = None) -> List[Dict]:
    return heterogeneous_study(scale=scale, harness=harness)
