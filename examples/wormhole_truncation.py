#!/usr/bin/env python3
"""Wormhole flow control with DRAIN packet truncation (Section III-C3).

Multi-flit packets snake across several routers at once; when a drain
window fires mid-flight, the forced turns split packets into independent
segments that are re-tagged (truncation) and reassembled at the
destination MSHRs. This demo runs an aggressive drain epoch so truncation
is frequent, and shows that delivery stays exactly-once and complete.

Run:  python examples/wormhole_truncation.py
"""

import random

from repro import (
    DrainConfig,
    NetworkConfig,
    Scheme,
    SimConfig,
    Simulation,
    make_mesh,
)
from repro.experiments.common import format_table
from repro.traffic import SyntheticTraffic, UniformRandom


def main() -> None:
    topo = make_mesh(8, 8)
    rows = []
    for label, flits, epoch in (
        ("VCT single-flit (paper config)", 1, 512),
        ("wormhole, 4-flit packets", 4, 512),
        ("wormhole, 4-flit, drain 8x more", 4, 64),
        ("wormhole, 8-flit packets", 8, 512),
    ):
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2,
                                  packet_size_flits=flits),
            drain=DrainConfig(epoch=epoch),
            flow_control="wormhole" if flits > 1 else "credit",
        )
        traffic = SyntheticTraffic(UniformRandom(64), 0.03, random.Random(5))
        sim = Simulation(topo, config, traffic)
        stats = sim.run(6_000, warmup=1_000)
        rows.append(
            {
                "configuration": label,
                "delivered": stats.packets_ejected,
                "generated": traffic.generated,
                "avg_latency": stats.avg_latency,
                "drains": stats.drain_windows,
                "misroutes": stats.misroutes,
            }
        )
    print(
        format_table(
            rows,
            columns=("configuration", "delivered", "generated",
                     "avg_latency", "drains", "misroutes"),
            title="DRAIN under flit-based flow control (8x8 mesh, UR @ 0.03)",
        )
    )
    print(
        "\nEvery flit of every truncated packet arrives exactly once (the "
        "fabric asserts it); draining 8x more often only adds misroutes — "
        "correctness is untouched."
    )


if __name__ == "__main__":
    main()
