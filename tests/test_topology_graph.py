"""Unit tests for the topology substrate (Link, Topology)."""

import pytest

from repro.topology.graph import Link, Topology
from repro.topology.mesh import make_mesh


class TestLink:
    def test_reverse_swaps_endpoints(self):
        link = Link(2, 5)
        assert link.reverse == Link(5, 2)

    def test_reverse_is_involution(self):
        link = Link(0, 3)
        assert link.reverse.reverse == link

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(4, 4)

    def test_links_are_ordered_and_hashable(self):
        links = {Link(0, 1), Link(1, 0), Link(0, 1)}
        assert len(links) == 2
        assert sorted(links) == [Link(0, 1), Link(1, 0)]


class TestTopologyConstruction:
    def test_minimum_two_routers(self):
        with pytest.raises(ValueError):
            Topology(1, [])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 1), (1, 0)])

    def test_self_loop_edge_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, [(1, 1)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 5)])

    def test_copy_is_independent(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        clone = topo.copy()
        clone.remove_edge(0, 1)
        assert topo.has_edge(0, 1)
        assert not clone.has_edge(0, 1)


class TestTopologyQueries:
    def test_neighbors_sorted(self):
        topo = Topology(4, [(2, 0), (0, 3), (0, 1)])
        assert topo.neighbors(0) == [1, 2, 3]

    def test_degree(self):
        topo = Topology(4, [(0, 1), (0, 2)])
        assert topo.degree(0) == 2
        assert topo.degree(3) == 0

    def test_unidirectional_links_doubled(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        links = topo.unidirectional_links()
        assert len(links) == 4
        assert Link(0, 1) in links and Link(1, 0) in links

    def test_unidirectional_links_memo_tracks_mutation(self):
        topo = Topology(4, [(0, 1), (1, 2)])
        links = topo.unidirectional_links()
        # Callers own what they get: mutating it leaves the memo intact.
        links.clear()
        assert topo.unidirectional_links() == [
            Link(0, 1), Link(1, 0), Link(1, 2), Link(2, 1)
        ]
        topo.add_edge(2, 3)
        assert Link(3, 2) in topo.unidirectional_links()
        topo.remove_edge(0, 1)
        assert topo.unidirectional_links() == [
            Link(1, 2), Link(2, 1), Link(2, 3), Link(3, 2)
        ]
        assert topo.copy().unidirectional_links() == topo.unidirectional_links()

    def test_links_into_and_out_of(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        assert topo.links_into(1) == [Link(0, 1), Link(2, 1)]
        assert topo.links_out_of(1) == [Link(1, 0), Link(1, 2)]

    def test_remove_missing_edge_raises(self):
        topo = Topology(3, [(0, 1)])
        with pytest.raises(KeyError):
            topo.remove_edge(1, 2)


class TestGraphAnalysis:
    def test_connected_chain(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.is_connected()

    def test_disconnected_detected(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        assert not topo.is_connected()

    def test_bfs_distances_chain(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.bfs_distances(0) == [0, 1, 2, 3]

    def test_bfs_unreachable_is_minus_one(self):
        topo = Topology(3, [(0, 1)])
        assert topo.bfs_distances(0)[2] == -1

    def test_diameter_of_mesh(self):
        assert make_mesh(4, 4).diameter() == 6
        assert make_mesh(8, 8).diameter() == 14

    def test_diameter_raises_on_disconnected(self):
        topo = Topology(3, [(0, 1)])
        with pytest.raises(ValueError):
            topo.diameter()

    def test_average_distance_of_pair(self):
        topo = Topology(2, [(0, 1)])
        assert topo.average_distance() == 1.0

    def test_diameter_and_average_distance_reduce_the_scalar_bfs(self):
        # Exact: the same maximum and the same float as summing the
        # scalar rows pair by pair.
        for topo in (make_mesh(3, 5), Topology(5, [(0, 1), (1, 2), (3, 4)]),
                     Topology(4, [])):
            rows = [topo.bfs_distances(n) for n in topo.nodes]
            hops = [d for row in rows for d in row if d > 0]
            expected = sum(hops) / len(hops) if hops else 0.0
            assert topo.average_distance() == expected
            if min(min(row) for row in rows) < 0:
                with pytest.raises(ValueError):
                    topo.diameter()
            else:
                assert topo.diameter() == max(max(row) for row in rows)

    def test_all_pairs_vectorized_matches_scalar(self):
        # The numpy frontier-expansion BFS must be ==-identical to the
        # scalar reference on every topology shape, including the -1
        # convention for unreachable pairs.
        import random

        from repro.topology.datacenter import make_leaf_spine

        numpy = pytest.importorskip("numpy")
        topologies = [
            make_mesh(4, 4),
            make_mesh(8, 8),
            make_leaf_spine(8, 4, uplinks=1, east_west=True),
            Topology(5, [(0, 1), (1, 2), (3, 4)]),  # disconnected
            # Large enough that a row spans several 64-bit words.
            make_leaf_spine(500, 12, uplinks=2),
            Topology(700, [(i, (i + 1) % 350 + 350 * (i // 350))
                           for i in range(700)]),  # two rings
        ]
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randrange(4, 24)
            edges = {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randrange(n - 1, 3 * n))
            }
            topologies.append(Topology(n, sorted(edges)))
        for topo in topologies:
            scalar = [topo.bfs_distances(n) for n in topo.nodes]
            assert topo._all_pairs_numpy().tolist() == scalar

    def test_critical_edge_in_chain(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        assert topo.is_critical_edge(0, 1)

    def test_non_critical_edge_in_cycle(self):
        topo = Topology(3, [(0, 1), (1, 2), (0, 2)])
        assert not topo.is_critical_edge(0, 1)
        # Probing must not mutate the topology.
        assert topo.has_edge(0, 1)

    def test_spanning_tree_covers_all_nodes(self):
        topo = make_mesh(3, 3)
        parent = topo.spanning_tree()
        assert set(parent) == set(range(9))
        assert parent[0] is None
        for child, par in parent.items():
            if par is not None:
                assert topo.has_edge(child, par)

    def test_spanning_tree_disconnected_raises(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            topo.spanning_tree()

    def test_all_pairs_matches_single_bfs(self):
        topo = make_mesh(3, 3)
        matrix = topo._all_pairs_numpy()
        for n in topo.nodes:
            assert matrix[n].tolist() == topo.bfs_distances(n)
