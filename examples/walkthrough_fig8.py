#!/usr/bin/env python3
"""Walk-through of DRAIN removing a deadlock (the paper's Figure 8).

A 4x2 mesh loses one link to a fault. We plant a cyclic routing deadlock
by hand, print the wait-for situation, then step the drain controller and
watch every drained packet move one hop along the precomputed drain path —
misrouting some packets, freeing all of them.

Run:  python examples/walkthrough_fig8.py
"""

import random

from repro import DrainConfig, NetworkConfig, Scheme, SimConfig, make_mesh
from repro.drain.controller import DrainController
from repro.network.deadlock import find_deadlocked_slots
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting


def build_wedged_network():
    """Faulty 4x2 mesh with a planted cyclic deadlock on ring 0-1-5-4."""
    topo = make_mesh(4, 2)
    topo.remove_edge(2, 6)  # the paper's "x" — a failed vertical link
    assert topo.is_connected()

    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=1),
        drain=DrainConfig(epoch=100, pre_drain_window=2, drain_window=2),
    )
    fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                    escape_mode="drain", rng=random.Random(1))
    controller = DrainController(fabric, config.drain)

    # Fill the cycle 0 -> 1 -> 5 -> 4 -> 0 and its reverse with packets
    # whose minimal routes keep them inside the ring: a classic wedge.
    ring = [0, 1, 5, 4]
    pid = 0
    for nodes in (ring, ring[::-1]):
        for i, src in enumerate(nodes):
            nxt = nodes[(i + 1) % 4]
            link = next(
                l for l in topo.links_out_of(src) if l.dst == nxt
            )
            dst = nodes[(i + 3) % 4]  # two hops onward around the ring
            packet = Packet(pid, src, dst, MessageClass.REQ)
            packet.blocked_since = 0
            fabric.set_slot(index.link_id[link], 0, 0, packet)
            fabric.packets_in_network += 1
            pid += 1
    return topo, fabric, controller


def show_state(fabric, title):
    print(f"--- {title}")
    for port, _vn, _vc, packet in sorted(fabric.occupied_slots()):
        link = fabric.index.links[port] if port < fabric.index.num_links else None
        where = f"link {link}" if link else f"inj@{port - fabric.index.num_links}"
        print(
            f"  packet {packet.pid}: at {where:>12s}, dst={packet.dst}, "
            f"hops={packet.hops}, misroutes={packet.misroutes}"
        )
    deadlocked = find_deadlocked_slots(fabric)
    print(f"  => deadlocked buffer slots: {len(deadlocked)}")
    return deadlocked


def main() -> None:
    topo, fabric, controller = build_wedged_network()
    print(f"Topology: {topo} (link 2-6 failed)")
    from repro.viz import render_mesh

    print(render_mesh(topo))
    print(f"\nDrain path covers {len(controller.path)} unidirectional links\n")

    deadlocked = show_state(fabric, "before draining")
    assert deadlocked, "the planted wedge should be a real deadlock"

    drains = 0
    while find_deadlocked_slots(fabric):
        fabric.frozen = True
        controller._rotate_once()  # one drain window's forced movement
        drains += 1
        fabric.frozen = False
        print(f"\n=== drain window {drains}: every escape-VC packet moved one hop")
        show_state(fabric, f"after drain {drains}")
        # Let normal (fully adaptive) routing run between windows.
        for _ in range(20):
            fabric.step()
            for node in topo.nodes:
                for cls in MessageClass:
                    while fabric.peek_ejection(node, cls):
                        fabric.pop_ejection(node, cls)
        if drains > 10:
            raise RuntimeError("walkthrough did not converge")

    print(f"\nDeadlock fully removed after {drains} drain window(s); "
          f"{fabric.stats.packets_ejected} packets delivered, "
          f"{fabric.stats.misroutes} misroutes incurred.")


if __name__ == "__main__":
    main()
