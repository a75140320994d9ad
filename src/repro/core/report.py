"""Human-readable run reports (gem5 stats.txt flavour).

``run_report(sim)`` renders everything a reader needs to interpret one
finished simulation: the configuration, headline metrics, drain/SPIN
activity, latency distribution and the per-router load heat map. Used by
``repro-drain run --report`` and handy in notebooks and bug reports.
"""

from __future__ import annotations

from typing import List

from ..viz import render_heat, render_histogram
from .configio import config_to_dict
from .simulator import Simulation

__all__ = ["run_report"]


def _section(title: str) -> List[str]:
    return ["", title, "-" * len(title)]


def run_report(sim: Simulation, histogram_bins: int = 10) -> str:
    """Render a full text report of a finished simulation."""
    stats = sim.stats
    lines: List[str] = [f"run report: {sim.topology.name}"]

    lines += _section("configuration")
    flat = config_to_dict(sim.config)
    lines.append(f"scheme            : {flat['scheme']}")
    net = flat["network"]
    lines.append(
        f"network           : VN={net['num_vns']} VC/VN={net['vcs_per_vn']} "
        f"packet={net['packet_size_flits']} flit(s)"
    )
    lines.append(
        f"drain             : epoch={flat['drain']['epoch']} "
        f"pre={flat['drain']['pre_drain_window']} "
        f"window={flat['drain']['drain_window']} "
        f"full-period={flat['drain']['full_drain_period']}"
    )
    lines.append(f"flow control      : {flat['flow_control']}")
    lines.append(f"seed              : {flat['seed']}")

    lines += _section("traffic")
    lines.append(f"cycles            : {stats.cycles} "
                 f"(measured {stats.measured_cycles})")
    lines.append(f"packets injected  : {stats.packets_injected}")
    lines.append(f"packets delivered : {stats.packets_ejected}")
    lines.append(
        f"throughput        : {stats.throughput(sim.index.num_nodes):.4f} "
        f"packets/node/cycle"
    )

    lines += _section("latency")
    if stats.latency.count:
        lines.append(f"average           : {stats.avg_latency:.2f} cycles")
        lines.append(f"p99               : {stats.p99_latency:.2f} cycles")
        lines.append(f"min / max         : {stats.latency.min:.0f} / "
                     f"{stats.latency.max:.0f}")
        lines.append(f"average hops      : {stats.hops.mean:.2f}")
        lines.append("")
        lines.append(render_histogram(stats.latency.samples,
                                      bins=histogram_bins,
                                      title="latency histogram (cycles)"))
    else:
        lines.append("(no measured packets)")

    lines += _section("deadlock handling")
    lines.append(f"misroutes         : {stats.misroutes}")
    lines.append(f"drain windows     : {stats.drain_windows} "
                 f"(full drains: {stats.full_drains}, "
                 f"drained moves: {stats.drained_packets})")
    if sim.drain_controller is not None:
        lines.append(
            f"pre-drain stretch : "
            f"{sim.drain_controller.pre_drain_extensions} cycles"
        )
    lines.append(f"deadlock events   : {stats.deadlock_events}")
    lines.append(f"probes sent       : {stats.probes_sent}")
    lines.append(f"spins performed   : {stats.spins_performed}")
    if sim.bubble_controller is not None:
        lines.append(
            f"bubble activations: {sim.bubble_controller.activations}"
        )

    if (
        sim.topology.coordinates is not None
        and hasattr(sim.fabric, "router_load")
    ):
        load = sim.fabric.router_load()
        if any(load.values()):
            lines += _section("router load (flits/cycle, dark = hot)")
            lines.append(render_heat(load, sim.topology))

    return "\n".join(lines)
