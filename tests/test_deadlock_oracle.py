"""Unit tests for deadlock analysis: oracle fixpoint, cycle extraction, rotation."""

import random

import pytest

from repro.core.config import NetworkConfig, Scheme, SimConfig
from repro.network.deadlock import (
    extract_cycle,
    find_deadlocked_slots,
    has_deadlock,
    rotate_cycle,
)
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.topology.mesh import make_mesh, make_ring


def ring_fabric(n=4, vcs=1):
    topo = make_ring(n)
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.NONE, network=NetworkConfig(num_vns=1, vcs_per_vn=vcs)
    )
    return Fabric(index, config, AdaptiveMinimalRouting(index), rng=random.Random(1))


def plant_ring_deadlock(fabric, n=4):
    """Fill the clockwise ring links with packets all needing 2 more hops.

    On a 4-ring with minimal routing the opposite node is 2 hops away in
    either direction, so a packet at link (i -> i+1) heading to i+3 may
    continue clockwise; with every clockwise link full and 1 VC, the wait
    cycle is closed.
    """
    index = fabric.index
    slots = []
    for i in range(n):
        src = i
        dst_router = (i + 1) % n
        link = index.link_id[[l for l in index.topology.links_out_of(src)
                              if l.dst == dst_router][0]]
        packet = Packet(i, src, (i + 3) % n, MessageClass.REQ)
        packet.blocked_since = 0
        fabric.set_slot(link, 0, 0, packet)
        fabric.packets_in_network += 1
        slots.append((link, 0, 0))
    return slots


class TestOracle:
    def test_empty_network_has_no_deadlock(self):
        fabric = ring_fabric()
        assert not has_deadlock(fabric)

    def test_planted_ring_deadlock_detected(self):
        fabric = ring_fabric()
        slots = plant_ring_deadlock(fabric)
        deadlocked = find_deadlocked_slots(fabric)
        # The planted cycle may resolve clockwise or counterclockwise; with
        # 1 VC and all clockwise links full, counterclockwise links are
        # free, so packets CAN move counterclockwise (minimal both ways).
        # Therefore this particular plant is NOT a true deadlock...
        # unless we also fill the counterclockwise links. Check exactly.
        ccw_free = all(
            fabric.slot(fabric.index.link_reverse[s[0]], 0, 0) is None
            for s in slots
        )
        assert ccw_free
        assert deadlocked == set()

    def test_full_ring_both_directions_deadlocks(self):
        fabric = ring_fabric()
        cw = plant_ring_deadlock(fabric)
        # Also fill all counterclockwise links with packets 2 hops away.
        index = fabric.index
        n = 4
        ccw = []
        for i in range(n):
            src = i
            dst_router = (i - 1) % n
            link = index.link_id[[l for l in index.topology.links_out_of(src)
                                  if l.dst == dst_router][0]]
            packet = Packet(10 + i, src, (i + 2) % n, MessageClass.REQ)
            packet.blocked_since = 0
            fabric.set_slot(link, 0, 0, packet)
            fabric.packets_in_network += 1
            ccw.append((link, 0, 0))
        deadlocked = find_deadlocked_slots(fabric)
        assert set(cw) | set(ccw) <= deadlocked

    def test_packet_at_destination_is_not_deadlocked(self):
        fabric = ring_fabric()
        index = fabric.index
        link = index.out_links[0][0]
        packet = Packet(0, 0, index.link_dst[link], MessageClass.REQ)
        fabric.set_slot(link, 0, 0, packet)
        fabric.packets_in_network += 1
        assert not has_deadlock(fabric)

    def test_blocked_but_live_chain_not_flagged(self):
        """A chain of waiting packets with a free head must all be live."""
        fabric = ring_fabric(6)
        index = fabric.index
        # Packets at links 0->1 and 1->2 both heading to 3 (clockwise
        # minimal); link 2->3 is free, so nothing is deadlocked.
        for i in (0, 1):
            link = index.link_id[[l for l in index.topology.links_out_of(i)
                                  if l.dst == i + 1][0]]
            packet = Packet(i, i, 3, MessageClass.REQ)
            fabric.set_slot(link, 0, 0, packet)
            fabric.packets_in_network += 1
        assert not has_deadlock(fabric)

    def test_protocol_wedge_visible_without_drain_assumption(self):
        """Destination reached but ejection queue full: flagged only when
        assume_ejection_drains=False and the class is not a sink."""
        fabric = ring_fabric()
        index = fabric.index
        link = index.out_links[0][0]
        dst = index.link_dst[link]
        packet = Packet(0, 0, dst, MessageClass.REQ)
        fabric.set_slot(link, 0, 0, packet)
        fabric.packets_in_network += 1
        for i in range(fabric._ej_depth):
            fabric.ej_queues[dst][MessageClass.REQ].append(
                Packet(100 + i, 0, dst, MessageClass.REQ)
            )
        assert not has_deadlock(fabric, assume_ejection_drains=True)
        assert has_deadlock(fabric, assume_ejection_drains=False)

    def test_sink_class_never_wedges_on_full_queue(self):
        fabric = ring_fabric()
        index = fabric.index
        link = index.out_links[0][0]
        dst = index.link_dst[link]
        packet = Packet(0, 0, dst, MessageClass.RESP)
        fabric.set_slot(link, 0, 0, packet)
        fabric.packets_in_network += 1
        for i in range(fabric._ej_depth):
            fabric.ej_queues[dst][MessageClass.RESP].append(
                Packet(100 + i, 0, dst, MessageClass.RESP)
            )
        assert not has_deadlock(fabric, assume_ejection_drains=False)


class TestCycleExtractionAndRotation:
    def _wedged_fabric(self):
        fabric = ring_fabric()
        plant_ring_deadlock(fabric)
        index = fabric.index
        for i in range(4):
            dst_router = (i - 1) % 4
            link = index.link_id[[l for l in index.topology.links_out_of(i)
                                  if l.dst == dst_router][0]]
            packet = Packet(10 + i, i, (i + 2) % 4, MessageClass.REQ)
            packet.blocked_since = 0
            fabric.set_slot(link, 0, 0, packet)
            fabric.packets_in_network += 1
        return fabric

    def test_extract_cycle_returns_consistent_cycle(self):
        fabric = self._wedged_fabric()
        deadlocked = find_deadlocked_slots(fabric)
        cycle = extract_cycle(fabric, deadlocked)
        assert cycle is not None
        assert len(cycle) >= 2
        index = fabric.index
        for i, slot in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            # The next slot's link must leave the router of this slot.
            assert index.link_src[nxt[0]] == index.port_router[slot[0]]

    def test_extract_cycle_none_for_empty_set(self):
        fabric = ring_fabric()
        assert extract_cycle(fabric, set()) is None

    def test_rotation_preserves_packets(self):
        fabric = self._wedged_fabric()
        before = {p.pid for _1, _2, _3, p in fabric.occupied_slots()}
        cycle = extract_cycle(fabric, find_deadlocked_slots(fabric))
        moved = rotate_cycle(fabric, cycle, forced_kind="spin")
        assert moved == len(cycle)
        after = {p.pid for _1, _2, _3, p in fabric.occupied_slots()}
        assert before == after

    def test_rotation_counts_hops_and_spins(self):
        fabric = self._wedged_fabric()
        cycle = extract_cycle(fabric, find_deadlocked_slots(fabric))
        packets = [fabric.slot(p, vn, vc) for p, vn, vc in cycle]
        rotate_cycle(fabric, cycle, forced_kind="spin")
        for packet in packets:
            assert packet.hops == 1
            assert packet.spin_moves == 1

    def test_rotation_eventually_breaks_wedge(self):
        """Rotating + normal stepping must dissolve the planted deadlock."""
        fabric = self._wedged_fabric()
        for _ in range(50):
            deadlocked = find_deadlocked_slots(fabric)
            if not deadlocked:
                break
            cycle = extract_cycle(fabric, deadlocked)
            if cycle is None:
                break
            rotate_cycle(fabric, cycle, forced_kind="ideal")
            fabric.step()
            for node in range(4):
                for cls in MessageClass:
                    while fabric.peek_ejection(node, cls):
                        fabric.pop_ejection(node, cls)
        assert not find_deadlocked_slots(fabric)

    def test_short_cycle_rejected(self):
        fabric = ring_fabric()
        with pytest.raises(ValueError):
            rotate_cycle(fabric, [(0, 0, 0)], forced_kind="spin")

    def test_empty_slot_in_cycle_rejected(self):
        fabric = ring_fabric()
        with pytest.raises(ValueError):
            rotate_cycle(fabric, [(0, 0, 0), (1, 0, 0)], forced_kind="spin")
