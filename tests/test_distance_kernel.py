"""The one all-pairs distance kernel and its three callers.

``topology.graph.hop_distances`` is a bit-parallel BFS: the boot distance
matrix (``Topology._all_pairs_numpy``), a fault epoch's rows
(``FabricIndex.apply_faults``) and up*/down*'s legal distances over the
(router, phase) product graph all come from it. Each is checked here
against a scalar BFS, or against values pinned before the kernel existed;
a fault epoch's rows are read-only views of its one matrix.
"""

import hashlib
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.index import FabricIndex
from repro.routing.updown import UpDownRouting
from repro.topology.chiplet import make_chiplet_system, make_dual_chiplet
from repro.topology.datacenter import make_fat_tree, make_leaf_spine
from repro.topology.graph import Topology, hop_distances
from repro.topology.irregular import (
    inject_link_faults, random_connected_topology,
)
from repro.topology.mesh import make_mesh, make_ring, make_torus
from repro.topology.randomized import make_random_regular, make_small_world

#: Router counts on both sides of a 64-bit word boundary.
WORD_EDGES = (2, 63, 64, 65, 127, 128, 129)


@st.composite
def graphs(draw):
    """A simple graph: isolated routers, several components or no links
    at all come up as often as connected ones."""
    n = draw(st.sampled_from(WORD_EDGES) | st.integers(2, 40))
    density = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {tuple(sorted(rng.sample(range(n), 2)))
             for _ in range(int(density * n))}
    return Topology(n, sorted(edges))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_the_scalar_bfs(self, topology):
        matrix = topology._all_pairs_numpy()
        assert matrix.dtype == np.int32
        assert matrix.shape == (topology.num_nodes,) * 2
        assert matrix.tolist() == [topology.bfs_distances(s)
                                   for s in topology.nodes]

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_a_graph_with_no_links(self, n):
        expected = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(expected, 0)
        assert (Topology(n, [])._all_pairs_numpy() == expected).all()

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_a_chain(self, n):
        chain = Topology(n, [(i, i + 1) for i in range(n - 1)])
        hops = np.arange(n)
        assert (chain._all_pairs_numpy()
                == np.abs(hops[:, None] - hops[None, :])).all()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(WORD_EDGES) | st.integers(1, 30),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_directed_arcs_and_shared_seeds(self, targets, fan, seed):
        # The up*/down* shape: more states than targets, several states
        # (or none) seeding one target, one-way arcs.
        rng = random.Random(seed)
        states = targets * fan
        seeds = [rng.randrange(-1, targets) for _ in range(states)]
        arcs = [(rng.randrange(states), rng.randrange(states))
                for _ in range(rng.randrange(3 * states))]
        tails = [a for a, _ in arcs]
        heads = [b for _, b in arcs]
        # Reference: per target, a reverse BFS from every state seeding it.
        into = [[] for _ in range(states)]
        for a, b in arcs:
            into[b].append(a)
        expected = np.full((states, targets), -1, dtype=np.int32)
        for t in range(targets):
            frontier = deque(s for s in range(states) if seeds[s] == t)
            for s in frontier:
                expected[s, t] = 0
            while frontier:
                s = frontier.popleft()
                for p in into[s]:
                    if expected[p, t] < 0:
                        expected[p, t] = expected[s, t] + 1
                        frontier.append(p)
        got = hop_distances(tails, heads, seeds, targets)
        assert got.shape == (states, targets)
        assert (got == expected).all()


def surviving_rows(index):
    """The scalar reference of a fault epoch's rows: a deque BFS over the
    surviving links; a dead router's row is -1 throughout."""
    survivor = index.surviving_topology()
    return [[-1] * index.num_nodes if router in index.dead_routers
            else survivor.bfs_distances(router)
            for router in range(index.num_nodes)]


@pytest.mark.parametrize("topology", [
    make_mesh(8, 8), make_torus(4, 4), make_leaf_spine(240, 16, uplinks=2),
], ids=["mesh8x8", "torus4x4", "leafspine256"])
def test_fault_epochs_match_a_scalar_bfs(topology):
    index = FabricIndex(topology)
    rows = index.dist  # the vectorized engine holds this list
    rng = random.Random(7)
    dead_links, dead_routers = set(), set()
    for epoch in range(5):
        if epoch:
            for link in rng.sample(range(index.num_links), 3):
                dead_links |= {link, index.link_reverse[link]}
            if epoch % 2 == 0:
                dead_routers.add(rng.randrange(index.num_nodes))
            index.apply_faults(dead_links, dead_routers)
        assert index.fault_epoch == epoch and index.dist is rows
        matrix = index.dist_matrix()
        assert not matrix.flags.writeable
        for row in rows:
            assert isinstance(row, memoryview) and row.readonly
            assert np.shares_memory(np.asarray(row), matrix)
        assert [list(row) for row in rows] == surviving_rows(index)


def test_a_faulted_1024_switch_index_holds_one_distance_matrix():
    # A fault epoch keeps its new matrix and n row views of it: nothing
    # else of size n * n (a row-list copy of the matrix took 8 MB more).
    index = FabricIndex(make_leaf_spine(1008, 16, uplinks=2))
    assert index.num_nodes == 1024
    dead = {0, index.link_reverse[0]}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index.apply_faults(dead, set())
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    matrix = index.dist_matrix()
    assert matrix.nbytes == 4 * 1024 * 1024
    assert retained <= 1.5 * matrix.nbytes


def digest(array):
    return hashlib.blake2b(np.asarray(array, dtype=np.int64).tobytes(),
                           digest_size=8).hexdigest()


def tables_digest(tables):
    h = hashlib.blake2b(digest_size=8)
    for array in (tables.offsets, tables.links):
        h.update(np.asarray(array, dtype=np.int64).tobytes())
    return h.hexdigest()


#: Up*/down* route lengths, then the (down, up) tables of the adaptive and
#: the deterministic variant, pinned from the per-destination frontier BFS
#: this kernel replaced: at boot, and after links 0 and 6 (both
#: directions) and router n // 2 die.
UPDOWN_PINS = {
    "leafspine256": (
        ('7a5d7fcc0e094993', 'da48e88c5a93e692', '73411af72d935336', 'af305ea6f3487284', 'd359043c4c3c5e42'),
        ('07f48ab4646d0d14', '5ba2bafaa7e55a21', '4698706ebd2fefca', '1d95b9e374b0f486', '2261aafaf11b9d82'),
    ),
    "mesh5x7": (
        ('2b563768a128c6bd', 'de592532fbf67050', '4b832ef4e856696f', '2e0a01bf25108831', 'd53764b7cb15b59d'),
        ('909bac1de5c1bf19', '301dd78fbd9c3357', '9821f65a226559b8', 'bb59466d6f27927f', 'eccddaf821c7f0f7'),
    ),
    "mesh8x8": (
        ('a0b7691004e9705a', '04623ed6ef13bf6c', '414d04ac590a6979', 'd2d4f67f90c4f5a2', 'e571296788969ff1'),
        ('869ce7843d153ba9', 'e15011d8593b097a', 'b56eb80a58a352c2', 'f9bc56d51cc676ec', '8540e91895ee61d4'),
    ),
    "torus4x4": (
        ('afda761f3e6cc55c', '5657f1622bc22fab', '012f3f16149a8d0e', '225cae77dcb1c557', 'b276dfeea36d5a69'),
        ('031c6073e9b6714e', '288c060d0fe61ecf', '633bd36ab13abd36', 'd0110d06b9595f70', '73cba12199404497'),
    ),
}

UPDOWN_TOPOLOGIES = {
    "mesh8x8": lambda: make_mesh(8, 8),
    "mesh5x7": lambda: make_mesh(5, 7),
    "torus4x4": lambda: make_torus(4, 4),
    "leafspine256": lambda: make_leaf_spine(240, 16, uplinks=2),
}


@pytest.mark.parametrize("name", sorted(UPDOWN_PINS))
def test_updown_lengths_and_tables_hold(name):
    topology = UPDOWN_TOPOLOGIES[name]()
    index = FabricIndex(topology)
    variants = [UpDownRouting(index), UpDownRouting(index, deterministic=True)]

    def pins():
        return (digest(variants[0]._lengths),
                *(tables_digest(t) for routing in variants
                  for t in routing.compiled_tables))

    boot, faulted = UPDOWN_PINS[name]
    assert pins() == boot
    index.apply_faults({0, index.link_reverse[0], 6, index.link_reverse[6]},
                       {topology.num_nodes // 2})
    for routing in variants:
        routing.rebuild()
    assert pins() == faulted


@pytest.mark.parametrize("topology", [
    make_mesh(4, 5), make_torus(3, 5), make_ring(7),
    make_leaf_spine(12, 4, uplinks=2, east_west=True), make_fat_tree(4),
    make_chiplet_system().topology, make_dual_chiplet().topology,
    make_small_world(20, 6, random.Random(1)),
    make_random_regular(16, 3, random.Random(2)),
    random_connected_topology(18, 9, random.Random(3)),
    inject_link_faults(make_mesh(6, 6), 5, random.Random(4)),
], ids=lambda t: t.name)
def test_link_reverse_pairs_each_link_with_its_opposite(topology):
    index = FabricIndex(topology)
    links = index.links
    assert [links[index.link_reverse[i]] for i in range(index.num_links)] == [
        link.reverse for link in links]
