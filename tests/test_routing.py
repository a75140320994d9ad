"""Unit tests for the routing functions (adaptive, DOR, up*/down*)."""

import random

import pytest

from repro.drain.hawick_james import elementary_circuits
from repro.network.index import FabricIndex
from repro.router.packet import Packet
from repro.routing import select_escape_routing
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.routing.base import RoutingFunction
from repro.routing.dor import DimensionOrderRouting
from repro.routing.updown import UpDownRouting
from repro.topology.datacenter import make_leaf_spine
from repro.topology.graph import Topology
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_torus, node_at


def walk(routing, index, src, dst, choose=min, max_hops=200):
    """Follow the routing function from src to dst; returns the hop count."""
    packet = Packet(0, src, dst)
    routing.on_inject(packet)
    router = src
    hops = 0
    while router != dst:
        cands = routing.candidates(router, packet)
        assert cands, f"no candidate from {router} to {dst}"
        link = choose(cands)
        routing.on_hop(packet, link)
        router = index.link_dst[link]
        hops += 1
        assert hops <= max_hops, "routing walk did not terminate"
    return hops


class TestAdaptiveMinimal:
    def test_candidates_are_productive(self, mesh4):
        index = FabricIndex(mesh4)
        routing = AdaptiveMinimalRouting(index)
        for src in mesh4.nodes:
            for dst in mesh4.nodes:
                if src == dst:
                    continue
                for link in routing.raw_candidates(src, dst):
                    assert (
                        index.dist[index.link_dst[link]][dst]
                        == index.dist[src][dst] - 1
                    )

    def test_walk_takes_minimal_hops(self, mesh4):
        index = FabricIndex(mesh4)
        routing = AdaptiveMinimalRouting(index)
        rng = random.Random(1)
        for _ in range(50):
            src, dst = rng.sample(range(16), 2)
            assert walk(routing, index, src, dst) == index.dist[src][dst]

    def test_corner_to_corner_has_two_choices(self, mesh4):
        index = FabricIndex(mesh4)
        routing = AdaptiveMinimalRouting(index)
        assert len(routing.raw_candidates(0, 15)) == 2

    def test_works_on_faulty_topology(self, faulty8):
        index = FabricIndex(faulty8)
        routing = AdaptiveMinimalRouting(index)
        rng = random.Random(2)
        for _ in range(30):
            src, dst = rng.sample(range(64), 2)
            assert walk(routing, index, src, dst) == index.dist[src][dst]


class TestDimensionOrder:
    def test_requires_coordinates(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            DimensionOrderRouting(FabricIndex(topo))

    def test_single_candidate(self, mesh4):
        index = FabricIndex(mesh4)
        routing = DimensionOrderRouting(index)
        packet = Packet(0, 0, 15)
        assert len(routing.candidates(0, packet)) == 1

    def test_x_before_y(self, mesh4):
        index = FabricIndex(mesh4)
        routing = DimensionOrderRouting(index)
        # From (0,0) to (3,3): the first hop must go east to (1,0).
        link = routing.next_link(0, 15)
        assert index.link_dst[link] == node_at(1, 0, 4)

    def test_walk_is_minimal(self, mesh4):
        index = FabricIndex(mesh4)
        routing = DimensionOrderRouting(index)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert walk(routing, index, src, dst) == index.dist[src][dst]

    def test_rejects_faulty_mesh(self, faulty8):
        with pytest.raises(ValueError):
            DimensionOrderRouting(FabricIndex(faulty8))

    def test_turn_graph_is_acyclic(self, mesh4):
        """XY routing's channel-dependency graph must contain no circuits —
        the constructive proof of its deadlock freedom."""
        index = FabricIndex(mesh4)
        routing = DimensionOrderRouting(index)
        # Collect used turns: incoming link -> outgoing link via DOR.
        allowed = set()
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path_router = src
                packet = Packet(0, src, dst)
                prev = None
                while path_router != dst:
                    link = routing.next_link(path_router, dst)
                    if prev is not None:
                        allowed.add((prev, link))
                    prev = link
                    path_router = index.link_dst[link]
        adjacency = [[] for _ in range(index.num_links)]
        for a, b in allowed:
            adjacency[a].append(b)
        assert list(elementary_circuits(adjacency, max_circuits=1)) == []


class TestUpDown:
    def test_reaches_every_destination_fault_free(self, mesh4):
        index = FabricIndex(mesh4)
        routing = UpDownRouting(index)
        rng = random.Random(3)
        for _ in range(60):
            src, dst = rng.sample(range(16), 2)
            walk(routing, index, src, dst, choose=lambda c: rng.choice(c))

    def test_reaches_every_destination_faulty(self, faulty8):
        index = FabricIndex(faulty8)
        routing = UpDownRouting(index)
        rng = random.Random(4)
        for _ in range(60):
            src, dst = rng.sample(range(64), 2)
            walk(routing, index, src, dst, choose=lambda c: rng.choice(c))

    def test_no_up_after_down(self, faulty8):
        """Every offered candidate must respect the up*-then-down* rule."""
        index = FabricIndex(faulty8)
        routing = UpDownRouting(index)
        rng = random.Random(5)
        for _ in range(40):
            src, dst = rng.sample(range(64), 2)
            packet = Packet(0, src, dst)
            routing.on_inject(packet)
            router = src
            gone_down = False
            for _hop in range(100):
                if router == dst:
                    break
                cands = routing.candidates(router, packet)
                assert cands
                for link in cands:
                    if gone_down:
                        assert not routing.link_is_up[link], (
                            "up link offered after a down move"
                        )
                link = rng.choice(cands)
                if not routing.link_is_up[link]:
                    gone_down = True
                routing.on_hop(packet, link)
                router = index.link_dst[link]

    def test_routes_at_least_minimal_length(self, faulty8):
        index = FabricIndex(faulty8)
        routing = UpDownRouting(index)
        for src in range(0, 64, 7):
            for dst in range(0, 64, 5):
                if src != dst:
                    assert routing.route_length(src, dst) >= index.dist[src][dst]

    def test_non_minimality_at_least_one(self, faulty8):
        routing = UpDownRouting(FabricIndex(faulty8))
        assert routing.non_minimality() >= 1.0

    def test_nonminimal_on_faulty_topology(self, faulty8):
        """Faults should force some non-minimal up*/down* routes."""
        routing = UpDownRouting(FabricIndex(faulty8))
        assert routing.non_minimality() > 1.0

    def test_up_links_head_towards_root(self, mesh4):
        index = FabricIndex(mesh4)
        routing = UpDownRouting(index, root=0)
        for link_id in range(index.num_links):
            src = index.link_src[link_id]
            dst = index.link_dst[link_id]
            if routing.link_is_up[link_id]:
                assert routing.label[dst] < routing.label[src]
            else:
                assert routing.label[dst] > routing.label[src]

    def test_turn_graph_is_acyclic(self, faulty4):
        """The up*/down*-legal turn graph must be circuit-free."""
        index = FabricIndex(faulty4)
        routing = UpDownRouting(index)
        adjacency = [[] for _ in range(index.num_links)]
        for a in range(index.num_links):
            for b in index.out_links[index.link_dst[a]]:
                # Turn a->b is legal unless it goes up after coming down.
                if routing.link_is_up[b] and not routing.link_is_up[a]:
                    continue
                adjacency[a].append(b)
        assert list(elementary_circuits(adjacency, max_circuits=1)) == []


class TestDeterministicUpDown:
    def test_single_candidate_everywhere(self, faulty8):
        from repro.network.index import FabricIndex

        index = FabricIndex(faulty8)
        routing = UpDownRouting(index, deterministic=True)
        rng = random.Random(8)
        for _ in range(40):
            src, dst = rng.sample(range(64), 2)
            packet = Packet(0, src, dst)
            routing.on_inject(packet)
            assert len(routing.candidates(src, packet)) == 1

    def test_deterministic_is_subset_of_adaptive(self, mesh4):
        from repro.network.index import FabricIndex

        index = FabricIndex(mesh4)
        det = UpDownRouting(index, deterministic=True)
        ada = UpDownRouting(index, deterministic=False)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                packet = Packet(0, src, dst)
                det.on_inject(packet)
                chosen = det.candidates(src, packet)
                assert set(chosen) <= set(ada.candidates(src, packet))

    def test_deterministic_still_delivers(self, faulty8):
        from repro.network.index import FabricIndex

        index = FabricIndex(faulty8)
        routing = UpDownRouting(index, deterministic=True)
        rng = random.Random(9)
        for _ in range(40):
            src, dst = rng.sample(range(64), 2)
            walk(routing, index, src, dst)


def detours(routing, index):
    """(router, dst, link) cells whose candidate is not one hop closer
    under the index's live distance rows."""
    dist = index.dist
    n = index.num_nodes
    return [(router, dst, link)
            for router in range(n) for dst in range(n)
            for link in routing.compiled_tables.row(router, dst)
            if dist[index.link_dst[link]][dst] != dist[router][dst] - 1]


MINIMAL_TOPOLOGIES = {
    "mesh4": lambda: make_mesh(4, 4),
    "mesh8": lambda: make_mesh(8, 8),
    "faulty8": lambda: inject_link_faults(make_mesh(8, 8), 8,
                                          random.Random(7)),
    "leafspine64": lambda: make_leaf_spine(56, 8, uplinks=2),
}


class TestMinimalDeclaration:
    """``RoutingFunction.minimal``: the vectorized engine skips the
    per-move misroute test on a minimal function's live tables, so the
    claim is checked cell by cell."""

    def test_declaring_classes(self):
        declared = {cls for cls in RoutingFunction.__subclasses__()
                    if cls.minimal}
        assert declared == {AdaptiveMinimalRouting, DimensionOrderRouting}
        assert not RoutingFunction.minimal and not UpDownRouting.minimal

    @pytest.mark.parametrize("cls,topo", [
        (AdaptiveMinimalRouting, "mesh4"), (AdaptiveMinimalRouting, "mesh8"),
        (AdaptiveMinimalRouting, "faulty8"),
        (AdaptiveMinimalRouting, "leafspine64"),
        (DimensionOrderRouting, "mesh4"), (DimensionOrderRouting, "mesh8"),
    ])
    def test_every_candidate_is_one_hop_closer(self, cls, topo):
        index = FabricIndex(MINIMAL_TOPOLOGIES[topo]())
        routing = cls(index)
        assert routing.minimal
        assert routing.compiled_tables.epoch == index.fault_epoch == 0
        assert detours(routing, index) == []

    @pytest.mark.parametrize("topo", sorted(MINIMAL_TOPOLOGIES))
    def test_adaptive_rebuild_stays_minimal(self, topo):
        index = FabricIndex(MINIMAL_TOPOLOGIES[topo]())
        routing = AdaptiveMinimalRouting(index)
        links = {3, index.link_reverse[3], 17, index.link_reverse[17]}
        index.apply_faults(links, set())
        routing.rebuild()
        assert routing.compiled_tables.epoch == index.fault_epoch == 1
        assert detours(routing, index) == []

    def test_dor_on_a_torus_is_not_minimal(self):
        # XY never takes the wrap links, so its routes can be longer than
        # the torus's hop distance.
        index = FabricIndex(make_torus(4, 4))
        routing = DimensionOrderRouting(index)
        assert not routing.minimal
        assert detours(routing, index) != []

    def test_escape_vc_keeps_dor_on_a_torus(self):
        # A torus is a complete grid, so ESCAPE_VC's escape routing is DOR
        # there, and that DOR is not minimal.
        escape = select_escape_routing(FabricIndex(make_torus(4, 4)))
        assert type(escape) is DimensionOrderRouting
        assert not escape.minimal

    def test_dor_refuses_a_faulted_index(self, mesh4):
        index = FabricIndex(mesh4)
        index.apply_faults({0, index.link_reverse[0]}, set())
        with pytest.raises(ValueError, match="fault-free"):
            DimensionOrderRouting(index)
