"""Flit-based flow control bench (Section III-C3: truncation support).

Not a paper figure — the paper evaluates VCT and *describes* the wormhole
mechanism; this bench demonstrates it end-to-end: DRAIN on a wormhole
network delivers everything, truncates only around drain windows, and its
latency scales with packet length as expected.
"""

import random

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.simulator import Simulation
from repro.experiments.common import current_scale, format_table
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom

from .conftest import run_once


def _run(flow_control, epoch, flits, rate=0.04, seed=3):
    scale = current_scale()
    topo = make_mesh(8, 8)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=2,
                              packet_size_flits=flits),
        drain=DrainConfig(epoch=epoch),
        seed=seed,
        flow_control=flow_control,
    )
    traffic = SyntheticTraffic(UniformRandom(64), rate, random.Random(seed))
    sim = Simulation(topo, config, traffic)
    sim.run(scale.total_cycles, warmup=scale.warmup)
    return sim


def test_wormhole_truncation(benchmark, record_rows):
    def sweep():
        rows = []
        for label, fc, flits, epoch in (
            ("vct (paper config)", "credit", 1, 2048),
            ("wormhole 4-flit", "wormhole", 4, 2048),
            ("wormhole 8-flit", "wormhole", 8, 2048),
            ("wormhole 4-flit, 256-epoch", "wormhole", 4, 256),
        ):
            sim = _run(fc, epoch, flits)
            rows.append(
                {
                    "config": label,
                    "latency": sim.stats.avg_latency,
                    "throughput": sim.throughput(),
                    "drain_windows": sim.stats.drain_windows,
                    "misroutes": sim.stats.misroutes,
                    "delivered": sim.stats.packets_ejected,
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    record_rows(
        "wormhole_truncation",
        format_table(
            rows,
            columns=("config", "latency", "throughput", "drain_windows",
                     "misroutes", "delivered"),
            title="Section III-C3: DRAIN under flit-based flow control",
        ),
    )
    by = {r["config"]: r for r in rows}
    # Everything delivers under every configuration.
    assert all(r["delivered"] > 1000 for r in rows)
    # Longer packets cost serialisation latency.
    assert (
        by["wormhole 8-flit"]["latency"]
        > by["wormhole 4-flit"]["latency"]
        > by["vct (paper config)"]["latency"]
    )
    # Frequent draining truncates and misroutes more.
    assert (
        by["wormhole 4-flit, 256-epoch"]["misroutes"]
        >= by["wormhole 4-flit"]["misroutes"]
    )
