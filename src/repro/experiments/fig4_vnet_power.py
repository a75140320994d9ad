"""Figure 4: virtual-network power is dominated by *wasted* power.

The paper measures the total power of the virtual networks in the 3-VN
baseline and splits it into active power (moving packets) and wasted power
(keeping idle VN buffers powered/clocked). The observation motivating
DRAIN: the vast majority of VN power is wasted.

We run each application workload on the escape-VC baseline (the de facto
VN solution), count per-VN packet-hop events, and attribute power via the
analytical router model.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.config import Scheme
from ..core.simulator import Simulation
from ..power.accounting import per_vn_power
from ..power.dsent import scheme_router_params
from ..topology.mesh import make_mesh
from ..traffic.workloads import PARSEC, WorkloadProfile, make_workload_traffic
from .common import Scale, current_scale, scheme_config

__all__ = ["vnet_power_split", "run"]


def vnet_power_split(
    workloads: Optional[List[WorkloadProfile]] = None,
    scale: Optional[Scale] = None,
    mesh_width: int = 4,
) -> List[Dict]:
    """Active vs wasted VN power per workload (escape-VC baseline)."""
    scale = scale if scale is not None else current_scale()
    workloads = workloads if workloads is not None else PARSEC
    topo = make_mesh(mesh_width, mesh_width)
    rows: List[Dict] = []
    for workload in workloads:
        config = scheme_config(Scheme.ESCAPE_VC, scale, seed=7)
        traffic = make_workload_traffic(
            workload, topo.num_nodes, random.Random(1234), mesh_width=mesh_width
        )
        sim = Simulation(topo, config, traffic)
        stats = sim.run(scale.total_cycles, warmup=scale.warmup)

        # Hop events per VN, measured directly by the fabric. Classes map
        # 1:1 onto VNs in the 3-VN baseline. vn_hops counts allocated
        # moves only; the ESCAPE_VC baseline makes no forced moves (no
        # drain, SPIN or bubble rotation), so none are missing here.
        vn_counts = {vn: stats.vn_hops.get(vn, 0) for vn in range(3)}
        if not any(vn_counts.values()):
            vn_counts = _vn_hop_estimate(sim)
        params = scheme_router_params(
            "escape_vc", ports=5, vcs_per_vn=config.network.vcs_per_vn
        )
        splits = per_vn_power(vn_counts, stats, params, topo.num_nodes)
        total_active = sum(s.active_power for s in splits)
        total_wasted = sum(s.wasted_power for s in splits)
        rows.append(
            {
                "workload": workload.name,
                "active_power": total_active,
                "wasted_power": total_wasted,
                "wasted_fraction": total_wasted / (total_active + total_wasted),
                "per_vn": splits,
            }
        )
    return rows


def _vn_hop_estimate(sim: Simulation) -> Dict[int, int]:
    """Approximate per-VN hop-event counts from the traffic's class mix.

    2-hop transactions contribute REQ+RESP traffic; 3-hop add FWD. The
    forward probability of the generator gives the expected class split.
    """
    traffic = sim.traffic
    fwd_prob = getattr(traffic.config, "forward_probability", 0.3)
    total = sim.stats.flits_traversed
    # Per transaction: 1 REQ, fwd_prob FWD, 1 RESP (hop counts comparable).
    weights = {0: 1.0, 1: fwd_prob, 2: 1.0}
    norm = sum(weights.values())
    return {vn: int(total * w / norm) for vn, w in weights.items()}


def run(scale: Optional[Scale] = None) -> List[Dict]:
    """Regenerate Figure 4."""
    return vnet_power_split(scale=scale)
