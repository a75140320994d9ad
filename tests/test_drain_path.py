"""Unit + property tests for drain-path construction (the offline algorithm)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import structcache
from repro.drain.path import (
    DrainPath,
    DrainPathError,
    euler_drain_path,
    find_drain_path,
    hawick_james_drain_path,
)
from repro.topology.graph import Link, Topology
from repro.topology.irregular import inject_link_faults, random_connected_topology
from repro.topology.mesh import make_mesh, make_ring, make_torus


def assert_valid_drain_path(path: DrainPath, topology: Topology) -> None:
    """All Section III-B invariants, asserted explicitly."""
    expected = set(topology.unidirectional_links())
    assert set(path.links) == expected
    assert len(path.links) == len(expected)  # each link exactly once
    n = len(path.links)
    for i, link in enumerate(path.links):
        assert link.dst == path.links[(i + 1) % n].src


class TestEulerDrainPath:
    @pytest.mark.parametrize(
        "topology",
        [
            make_mesh(2, 2),
            make_mesh(4, 4),
            make_mesh(8, 8),
            make_mesh(3, 5),
            make_torus(4, 4),
            make_ring(7),
            Topology(3, [(0, 1), (1, 2)]),  # chain forces U-turns
        ],
        ids=lambda t: t.name,
    )
    def test_covers_every_topology(self, topology):
        path = euler_drain_path(topology)
        assert_valid_drain_path(path, topology)

    def test_faulty_mesh(self):
        topo = inject_link_faults(make_mesh(8, 8), 12, random.Random(5))
        assert_valid_drain_path(euler_drain_path(topo), topo)

    def test_path_length_equals_link_count(self):
        topo = make_mesh(4, 4)
        path = euler_drain_path(topo)
        assert len(path) == 2 * topo.num_edges == 48

    def test_visits_all_routers(self):
        topo = make_mesh(4, 4)
        path = euler_drain_path(topo)
        assert set(path.routers_visited()) == set(topo.nodes)

    def test_next_link_connects(self):
        topo = make_mesh(3, 3)
        path = euler_drain_path(topo)
        for link in path.links:
            assert path.next_link(link).src == link.dst

    def test_position_is_cycle_index(self):
        path = euler_drain_path(make_ring(4))
        for i, link in enumerate(path.links):
            assert path.position(link) == i

    def test_contains(self):
        topo = make_mesh(2, 2)
        path = euler_drain_path(topo)
        for link in topo.unidirectional_links():
            assert link in path

    def test_disconnected_rejected(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            euler_drain_path(topo)

    def test_rng_variants_are_valid_and_differ(self):
        topo = make_mesh(4, 4)
        paths = [
            euler_drain_path(topo, rng=random.Random(seed)) for seed in range(4)
        ]
        for path in paths:
            assert_valid_drain_path(path, topo)
        assert len({tuple(p.links) for p in paths}) > 1

    @given(
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_random_topologies(self, nodes, extra, seed):
        topo = random_connected_topology(nodes, extra, random.Random(seed))
        assert_valid_drain_path(euler_drain_path(topo), topo)


class TestHawickJamesDrainPath:
    @pytest.mark.parametrize(
        "topology",
        [Topology(2, [(0, 1)]), Topology(3, [(0, 1), (1, 2)]), make_ring(3)],
        ids=["pair", "chain3", "ring3"],
    )
    def test_small_topologies(self, topology):
        path = hawick_james_drain_path(topology)
        assert_valid_drain_path(path, topology)

    def test_agrees_with_euler_on_coverage(self):
        topo = make_ring(4)
        hj = hawick_james_drain_path(topo)
        eu = euler_drain_path(topo)
        assert set(hj.links) == set(eu.links)

    def test_max_circuits_exhaustion_raises(self):
        topo = make_ring(4)
        with pytest.raises(ValueError):
            hawick_james_drain_path(topo, max_circuits=1)


def _sweep_cases():
    """~20 seeded faulty topologies across mesh/torus/ring shapes.

    Sizes stay at or below a 4x4 mesh so the exhaustive Hawick-James
    circuit enumeration finishes quickly.
    """
    grid = [
        ("mesh3x3", lambda: make_mesh(3, 3), (0, 1, 2)),
        ("mesh4x4", lambda: make_mesh(4, 4), (0, 2, 3)),
        ("mesh3x4", lambda: make_mesh(3, 4), (1, 2)),
        ("torus3x3", lambda: make_torus(3, 3), (0, 2, 4)),
        ("ring6", lambda: make_ring(6), (0, 1)),
        ("ring8", lambda: make_ring(8), (0, 1)),
    ]
    cases = []
    for name, builder, fault_counts in grid:
        for faults in fault_counts:
            seed = 1000 + 13 * len(cases)
            cases.append(
                pytest.param(builder, faults, seed, id=f"{name}-f{faults}-s{seed}")
            )
    return cases


class TestEngineAgreementSweep:
    """Both drain-path engines must solve the same random faulty fabrics.

    For every seeded topology each engine must emit a single elementary
    cycle covering every unidirectional link, and the two engines must
    agree exactly on which links that is (i.e. on link coverage — the
    visit order may legitimately differ).
    """

    @pytest.mark.parametrize("builder,faults,seed", _sweep_cases())
    def test_both_engines_valid_and_agree(self, builder, faults, seed):
        base = builder()
        topology = (
            inject_link_faults(base, faults, random.Random(seed))
            if faults else base
        )
        euler = euler_drain_path(topology)
        hawick = hawick_james_drain_path(topology)
        assert_valid_drain_path(euler, topology)
        assert_valid_drain_path(hawick, topology)
        assert set(euler.links) == set(hawick.links) == set(
            topology.unidirectional_links()
        )
        # Single elementary cycle, not a union of sub-cycles: walking the
        # sequence from the start must traverse every link before closing.
        assert len(euler.links) == len(set(euler.links))
        assert len(hawick.links) == len(set(hawick.links))


class TestFindDrainPath:
    def test_default_is_euler(self):
        topo = make_mesh(3, 3)
        assert_valid_drain_path(find_drain_path(topo), topo)

    def test_hawick_james_selectable(self):
        topo = make_ring(3)
        assert_valid_drain_path(find_drain_path(topo, method="hawick-james"), topo)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            find_drain_path(make_ring(3), method="magic")

    def test_default_path_is_computed_once_per_topology_content(
            self, monkeypatch):
        import repro.drain.path as path_mod

        structcache.clear_memos()
        calls = []
        real = path_mod.euler_circuit

        def counting(topology, rng=None, start=None):
            calls.append(topology.name)
            return real(topology, rng=rng, start=start)

        topo = make_mesh(4, 4)
        reference = euler_drain_path(topo).links
        monkeypatch.setattr(path_mod, "euler_circuit", counting)
        first = find_drain_path(topo)
        # An equal topology in another object (what preflight and the
        # simulator hold) is served by content, not identity.
        second = find_drain_path(make_mesh(4, 4))
        assert calls == [topo.name]
        assert first.links == second.links == reference
        assert first is not second and first.links is not second.links
        assert second.topology is not topo
        # Only immutable data is shared: a caller scribbling over its
        # path cannot reach the next one.
        first.links.reverse()
        assert find_drain_path(topo).links == second.links
        # A mutated topology is different content.
        topo.remove_edge(0, 1)
        assert_valid_drain_path(find_drain_path(topo), topo)
        assert len(calls) == 2
        # Shuffled paths and the other engine never touch the memo.
        find_drain_path(topo, rng=random.Random(3))
        find_drain_path(make_ring(3), method="hawick-james")
        assert len(calls) == 3  # the rng path's own circuit, unmemoised
        structcache.clear_memos()

    def test_disconnected_topology_is_refused_not_memoised(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        for _ in range(2):
            with pytest.raises(DrainPathError, match="connected"):
                find_drain_path(topo)


class TestDrainPathValidation:
    def test_missing_link_rejected(self):
        topo = make_ring(3)
        path = euler_drain_path(topo)
        with pytest.raises(ValueError):
            DrainPath(topo, path.links[:-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DrainPath(make_ring(3), [])

    def test_disconnected_sequence_rejected(self):
        topo = make_ring(3)
        good = euler_drain_path(topo).links
        # Swap two entries to break consecutive connectivity.
        bad = list(good)
        bad[0], bad[2] = bad[2], bad[0]
        with pytest.raises(ValueError):
            DrainPath(topo, bad)

    def test_foreign_link_rejected(self):
        topo = make_ring(3)
        links = euler_drain_path(topo).links[:-1] + [Link(0, 2)]
        with pytest.raises(ValueError):
            DrainPath(make_ring(4), links)
