"""Executable versions of the paper's Figures 1 and 2.

Figures 1 and 2 are the paper's illustrative deadlock cartoons; here they
are *runnable*:

- :func:`routing_deadlock_scenario` (Figure 1): a 4-router ring holds a
  cyclic buffer dependence. We instantiate it and report how each class of
  solution behaves — no protection (the wedge persists), turn-restricted
  routing (the wedge cannot form), SPIN (detected and spun), DRAIN
  (obliviously drained).
- :func:`protocol_deadlock_scenario` (Figure 2): requests and responses of
  a coherence protocol block each other through the directory on a shared
  virtual network. We run the same workload with no protection (wedges),
  per-class virtual networks (Figure 2b's proactive fix) and DRAIN on a
  single VN (Figure 2c's subactive fix).

Both return row dictionaries so the test-suite (and CLI) can assert each
outcome rather than trusting the cartoon.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..core.config import (
    DrainConfig,
    NetworkConfig,
    ProtocolConfig,
    Scheme,
    SimConfig,
    SpinConfig,
)
from ..core.simulator import Simulation
from ..drain.controller import DrainController
from ..network.deadlock import find_deadlocked_slots
from ..network.fabric import Fabric
from ..network.index import FabricIndex
from ..network.spin import SpinController
from ..protocol.coherence import CoherenceTraffic
from ..router.packet import MessageClass, Packet
from ..routing.adaptive import AdaptiveMinimalRouting
from ..topology.irregular import inject_link_faults
from ..topology.mesh import make_mesh, make_ring

__all__ = ["routing_deadlock_scenario", "protocol_deadlock_scenario", "run"]


def _wedged_ring_fabric(scheme: Scheme):
    """Figure 1a: four packets holding buffers in a cycle, each waiting on
    the next (both ring directions filled so minimal routing is stuck)."""
    topo = make_ring(4)
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=1),
        drain=DrainConfig(epoch=50, pre_drain_window=1, drain_window=1),
        spin=SpinConfig(timeout=8, spin_interval=1),
    )
    fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                    escape_mode="drain" if scheme is Scheme.DRAIN else None,
                    rng=random.Random(1))
    pid = 0
    for i in range(4):
        for direction in (+1, -1):
            nxt = (i + direction) % 4
            link = index.link_id[next(
                out for out in topo.links_out_of(i) if out.dst == nxt
            )]
            packet = Packet(pid, i, (i + 2) % 4, MessageClass.REQ)
            packet.blocked_since = 0
            fabric.set_slot(link, 0, 0, packet)
            fabric.packets_in_network += 1
            pid += 1
    return topo, config, fabric


def _drive(fabric, controller, cycles: int) -> None:
    for _ in range(cycles):
        if controller is not None:
            controller.step()
        fabric.step()
        for node in range(fabric.index.num_nodes):
            for cls in MessageClass:
                while fabric.peek_ejection(node, cls):
                    fabric.pop_ejection(node, cls)


def routing_deadlock_scenario(horizon: int = 400) -> List[Dict]:
    """Figure 1: the same planted wedge under each solution class."""
    rows: List[Dict] = []

    # (a) no protection: the cycle persists forever.
    _topo, _config, fabric = _wedged_ring_fabric(Scheme.NONE)
    _drive(fabric, None, horizon)
    rows.append({
        "panel": "1a_no_protection",
        "delivered": fabric.stats.packets_ejected,
        "still_deadlocked": bool(find_deadlocked_slots(fabric)),
        "resolved": fabric.packets_in_network == 0,
    })

    # (b) turn restrictions: the wedge cannot even form — the restricted
    # turn graph is acyclic (checked constructively).
    from ..drain.hawick_james import elementary_circuits
    from ..routing.updown import UpDownRouting

    topo = make_ring(4)
    index = FabricIndex(topo)
    updown = UpDownRouting(index)
    adjacency = [[] for _ in range(index.num_links)]
    for a in range(index.num_links):
        for b in index.out_links[index.link_dst[a]]:
            if updown.link_is_up[b] and not updown.link_is_up[a]:
                continue
            adjacency[a].append(b)
    rows.append({
        "panel": "1b_turn_restrictions",
        "restricted_turn_cycles": len(
            list(elementary_circuits(adjacency, max_circuits=1))
        ),
        "resolved": True,  # by construction: no cycle can form
    })

    # (c) SPIN: detect via timeout probes, then spin the cycle.
    _topo, config, fabric = _wedged_ring_fabric(Scheme.SPIN)
    spin = SpinController(fabric, config.spin, check_interval=4)
    _drive(fabric, spin, horizon)
    rows.append({
        "panel": "1c_spin",
        "delivered": fabric.stats.packets_ejected,
        "probes": fabric.stats.probes_sent,
        "spins": fabric.stats.spins_performed,
        "resolved": fabric.packets_in_network == 0,
    })

    # (d) DRAIN: oblivious periodic draining.
    _topo, config, fabric = _wedged_ring_fabric(Scheme.DRAIN)
    drain = DrainController(fabric, config.drain)
    _drive(fabric, drain, horizon)
    rows.append({
        "panel": "1d_drain",
        "delivered": fabric.stats.packets_ejected,
        "drain_windows": fabric.stats.drain_windows,
        "probes": fabric.stats.probes_sent,  # stays zero: no detection
        "resolved": fabric.packets_in_network == 0,
    })
    return rows


def protocol_deadlock_scenario(horizon: int = 15_000) -> List[Dict]:
    """Figure 2: coherence traffic through the directory, three ways."""
    topo = inject_link_faults(make_mesh(4, 4), 4, random.Random(4))
    rows: List[Dict] = []
    cases = (
        ("2a_shared_vn_no_protection", Scheme.NONE, 1),
        ("2b_virtual_networks", Scheme.NONE, 3),
        ("2c_drain_single_vn", Scheme.DRAIN, 1),
    )
    quota = 16 * 30
    for panel, scheme, vns in cases:
        config = SimConfig(
            scheme=scheme,
            network=NetworkConfig(num_vns=vns, vcs_per_vn=2,
                                  ejection_queue_depth=2),
            drain=DrainConfig(epoch=128, full_drain_period=16),
        )
        traffic = CoherenceTraffic(
            16, ProtocolConfig(mshrs_per_node=8, forward_probability=0.5),
            0.15, random.Random(11), total_transactions=quota,
        )
        sim = Simulation(topo, config, traffic,
                         halt_on_deadlock=(scheme is Scheme.NONE))
        sim.run(horizon)
        rows.append({
            "panel": panel,
            "completed": traffic.completed,
            "quota": quota,
            "wedged": sim.deadlocked,
            "resolved": traffic.done(),
        })
    return rows


def run(scale=None) -> List[Dict]:
    """Regenerate the Figure 1 + Figure 2 scenario outcomes."""
    return routing_deadlock_scenario() + protocol_deadlock_scenario()
