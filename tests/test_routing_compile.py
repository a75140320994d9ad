"""The array-native routing compiles against brute-force references.

:class:`AdaptiveMinimalRouting` emits its CSR candidate tables straight
from the distance matrix, and :class:`UpDownRouting` its two per-phase
tables from a numpy frontier BFS over the (router, phase) product graph.
The references here are the definitions spelled out cell by cell — for
up*/down*, the per-destination list-of-lists BFS the function used to
run — and live in this file only; every compiled table must equal its
reference exactly, row order included, because the allocator's rotation
starts from a draw over that order.
"""

import gc
import random
from collections import deque

import numpy as np
import pytest

from repro import structcache
from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.core.simulator import Simulation
from repro.network.index import DenseCandidateTables, FabricIndex
from repro.router.packet import Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.datacenter import make_leaf_spine
from repro.topology.graph import Topology
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh, make_ring
from repro.topology.randomized import make_random_regular
from repro.traffic.flows import Flow, FlowTraffic


def reference_tables(index):
    """productive[router][dst]: live out-links one hop closer, id order."""
    n = index.num_nodes
    dist = index.dist
    tables = [[[] for _ in range(n)] for _ in range(n)]
    for router in range(n):
        for link in index.out_links[router]:
            if link in index.dead_links:
                continue
            neighbor = index.link_dst[link]
            for dst in range(n):
                if (dst != router and dist[router][dst] > 0
                        and dist[neighbor][dst] == dist[router][dst] - 1):
                    tables[router][dst].append(link)
    return tables


def first_stranded_pair(tables):
    n = len(tables)
    for router in range(n):
        for dst in range(n):
            if dst != router and not tables[router][dst]:
                return router, dst
    return None


def assert_tables_match(compiled, index, tables):
    packed = DenseCandidateTables(index, tables)
    assert compiled.epoch == index.fault_epoch
    for name in ("offsets", "links"):
        got, want = getattr(compiled, name), getattr(packed, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name


def random_topology(rng):
    kind = rng.choice(("mesh", "ring", "leafspine"))
    if kind == "mesh":
        mesh = make_mesh(rng.randint(2, 6), rng.randint(2, 6))
        spare = mesh.num_edges - (mesh.num_nodes - 1)
        return inject_link_faults(mesh, rng.randint(0, min(6, spare)), rng)
    if kind == "ring":
        return make_ring(rng.randint(3, 12))
    return random_leaf_spine(rng)


def random_leaf_spine(rng):
    while True:
        leaves, spines = rng.randint(3, 10), rng.randint(1, 4)
        try:
            return make_leaf_spine(
                leaves, spines, uplinks=rng.randint(1, spines),
                east_west=rng.random() < 0.5,
            )
        except ValueError:  # striping left a spine unattached: redraw
            continue


def random_faults(index, rng):
    """Dead bidirectional links plus dead routers (with their links)."""
    dead_links = set()
    for link in rng.sample(range(index.num_links), rng.randint(1, 3)):
        dead_links |= {link, index.link_reverse[link]}
    dead_routers = set(
        rng.sample(range(index.num_nodes), rng.choice((0, 0, 1, 2)))
    )
    for router in dead_routers:
        for link in index.out_links[router]:
            dead_links |= {link, index.link_reverse[link]}
    return dead_links, dead_routers


@pytest.mark.parametrize("seed", range(40))
def test_compiled_triple_equals_reference(seed):
    rng = random.Random(seed)
    topology = random_topology(rng)
    index = FabricIndex(topology)
    routing = AdaptiveMinimalRouting(index)
    boot = routing.compiled_tables
    assert_tables_match(boot, index, reference_tables(index))

    index.apply_faults(*random_faults(index, rng))
    routing.rebuild()
    tables = reference_tables(index)
    assert routing.compiled_tables is not boot
    assert_tables_match(routing.compiled_tables, index, tables)
    n = index.num_nodes
    for router in range(n):
        for dst in range(n):
            assert routing.raw_candidates(router, dst) == tables[router][dst]
            if index.dist[router][dst] <= 0:  # self, dead or cut off
                assert tables[router][dst] == []

    # Construction is strict where rebuild() is lenient: the first
    # stranded pair, row-major, is named.
    stranded = first_stranded_pair(tables)
    if stranded is None:
        fresh = AdaptiveMinimalRouting(index).compiled_tables
        assert_tables_match(fresh, index, tables)
    else:
        with pytest.raises(ValueError) as err:
            AdaptiveMinimalRouting(index)
        assert str(err.value) == (
            f"no productive link from {stranded[0]} to {stranded[1]}: "
            "topology must be connected"
        )


def test_disconnected_boot_topology_names_first_pair():
    # Two components {0, 1, 2} and {3, 4}: router 0 cannot reach 3.
    index = FabricIndex(Topology(5, [(0, 1), (1, 2), (3, 4)]))
    with pytest.raises(ValueError, match="from 0 to 3: topology must be"):
        AdaptiveMinimalRouting(index)


def test_export_serves_the_lists_candidates_returns():
    index = FabricIndex(make_mesh(4, 4))
    routing = AdaptiveMinimalRouting(index)
    probe = Packet(-1, 0, 15)
    before = routing.candidates(0, probe)
    exported = routing.export_tables(index.num_nodes)
    assert exported == reference_tables(index)
    assert exported[0][15] == before
    # Zero-copy contract: after the export, candidates() hands out the
    # exported list objects themselves, and a re-export is the same nest.
    assert routing.candidates(0, probe) is exported[0][15]
    assert routing.export_tables(index.num_nodes) is exported
    # A rebuild drops the export with the tables it mirrored.
    index.apply_faults({0, index.link_reverse[0]}, set())
    routing.rebuild()
    rebuilt = routing.export_tables(index.num_nodes)
    assert rebuilt is not exported
    assert rebuilt == reference_tables(index)
    assert routing.candidates(0, probe) is rebuilt[0][15]


def test_cell_reads_work_on_readonly_memmaps(tmp_path):
    index = FabricIndex(make_ring(6))
    built = AdaptiveMinimalRouting(index).compiled_tables
    mapped = []
    for name in ("offsets", "links"):
        np.save(tmp_path / f"{name}.npy", getattr(built, name))
        mapped.append(np.load(tmp_path / f"{name}.npy", mmap_mode="r"))
    adopted = AdaptiveMinimalRouting(
        index, tables=DenseCandidateTables.from_arrays(index, *mapped)
    )
    assert adopted.compiled_tables.links is not built.links
    for router in range(6):
        for dst in range(6):
            assert adopted.raw_candidates(router, dst) == built.row(router, dst)


def _objects_grown_by_256_switch_run(flits):
    """Tracked objects a 256-switch pause/resume build and run leaves
    behind, and the finished simulation."""
    leaves = 240
    topology = make_leaf_spine(leaves, 16, uplinks=2)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4,
                              packet_size_flits=flits),
        drain=DrainConfig(epoch=256),
        seed=1,
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=2, resume_threshold=1, headroom=1),
    )
    flows = [Flow(i, (i + leaves // 2) % leaves, 1.0, packets=20)
             for i in range(0, leaves, 16)]
    gc.collect()
    before = len(gc.get_objects())
    sim = Simulation(topology, config, FlowTraffic(flows, random.Random(1)),
                     degradation_ladder=True)
    sim.run(2000)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert sim.traffic.done() and sim.traffic.delivered == 15 * 20
    return grown, sim


def test_multi_flit_fabric_build_and_run_allocates_no_cell_lists():
    # 256 switches on the pause/resume fabric with two-flit packets
    # (serialised transfers): the n x n nested list form alone is 65 792
    # tracked objects; the CSR form plus the cells the run actually
    # touches stays an order of magnitude below.
    grown, sim = _objects_grown_by_256_switch_run(2)
    assert sim.fabric.engine_name == "vectorized"
    assert grown < 256 * 256 // 2, grown


def test_vectorized_engine_keeps_no_per_cell_rows():
    # The same run on the vectorized engine: its scan reads the routing
    # function's CSR arrays in place, so nothing grows per cell touched.
    # The bound sits between this run (~7 100 objects on Python 3.11, plus
    # one instance dict per plain-class object on 3.9) and the ~9 200 it
    # reaches with a per-cell row cache.
    structcache.clear_memos()
    grown, sim = _objects_grown_by_256_switch_run(1)
    engine = sim.fabric._engine
    assert sim.fabric.engine_name == "vectorized"
    assert grown < 8_500, grown
    tables = sim.fabric.routing.compiled_tables
    assert engine.tables is tables
    for plan in (engine._plan, engine._esc_plan):
        assert plan[0] is tables.offsets_view
        assert plan[1] is tables.links_view and plan[2] is None
    for name in type(engine).__slots__:
        value = getattr(engine, name)
        assert not isinstance(value, dict), name
        if isinstance(value, (list, tuple, bytearray)):
            assert len(value) < 256 * 256 // 10, name


# ----------------------------------------------------------------------
# Every cell the kernel scans is the routing functions' own answer
# ----------------------------------------------------------------------
def _offered(engine, router, dst, escape, phase):
    """The candidate groups the vectorized kernel scans for a packet at
    *router* bound for *dst*, as ``((link, vc_mode), ...)`` per group in
    the order a rotation starting at candidate 0 walks them. An empty
    cell offers no group (the kernel skips it without a draw)."""
    plan = engine._esc_plan if escape else engine._plan
    if engine._phase_up is not None:
        plan = plan[phase]
    offsets, links, modes, gmodes = plan
    idx = router * engine.fabric.index.num_nodes + dst
    cell = range(offsets[idx], offsets[idx + 1])
    return tuple(
        tuple((links[k], gm if modes is None else modes[k]) for k in cell)
        for gm in gmodes if cell)


ENGINE_CELL_CASES = [
    (kind, scheme, vcs)
    for kind, schemes in (
        ("mesh", (Scheme.DRAIN, Scheme.SPIN, Scheme.ESCAPE_VC)),
        ("irregular", (Scheme.UPDOWN, Scheme.ESCAPE_VC)))
    for scheme in schemes
    for vcs in (1, 2)
]


@pytest.mark.parametrize("kind,scheme,vcs", ENGINE_CELL_CASES)
def test_engine_offers_what_the_routing_functions_answer(kind, scheme, vcs):
    # Every (router, dst, escape flag, phase) cell, against the groups the
    # dense sweep builds from candidates(): same links in the same order,
    # same VC mode per candidate, and so the same draws per packet.
    from repro.experiments.common import Scale, scheme_config
    from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

    if kind == "mesh":
        topology = make_mesh(4, 4)
    else:  # the up*/down* parity fuzz's irregular network
        topology = inject_link_faults(make_mesh(4, 4), 2, random.Random(5))
    config = scheme_config(scheme, Scale(warmup=0, measure=1), num_vns=1,
                           vcs_per_vn=vcs)
    traffic = SyntheticTraffic(pattern_by_name("uniform_random", 16, None),
                               0.0, random.Random(1))
    sim = Simulation(topology, config, traffic)
    fabric = sim.fabric
    engine = fabric._engine
    engine._build_tables()
    stateful = fabric.routing.stateful or (
        fabric.escape_routing is not None and fabric.escape_routing.stateful)
    assert stateful == (kind == "irregular")
    cells = 0
    for router in range(16):
        for dst in range(16):
            if dst == router:
                continue
            for escape in (False, True):
                for phase in ((False, True) if stateful else (True,)):
                    probe = Packet(-1, router, dst)
                    probe.in_escape = escape
                    probe.updown_up_phase = phase
                    expected = tuple(
                        group for group
                        in fabric._build_candidate_groups(router, probe)
                        if group)
                    assert _offered(engine, router, dst, escape, phase) == (
                        expected), (router, dst, escape, phase)
                    cells += bool(expected)
    # A connected network routes every up-phase (or stateless) cell; only
    # some down-phase cells are empty.
    assert cells >= 16 * 15 * 2


# ----------------------------------------------------------------------
# Up*/down*: two per-phase tables against the list-of-lists BFS
# ----------------------------------------------------------------------
def reference_updown(index, root=0):
    """(link_is_up, hops, choices) by one reverse BFS per destination.

    ``hops[dst][2 * router + phase]`` is the legal distance (phase 1 = up,
    -1 = unreachable); ``choices[dst][state]`` lists the (link, lands in
    up phase) moves on shortest legal paths, in BFS parent-scan order.
    """
    n = index.num_nodes

    def dead(link):
        return (link in index.dead_links
                or index.link_src[link] in index.dead_routers
                or index.link_dst[link] in index.dead_routers)

    order = [-1] * n
    if root not in index.dead_routers:
        order[root] = 0
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            for link in index.out_links[node]:
                neigh = index.link_dst[link]
                if not dead(link) and order[neigh] < 0:
                    order[neigh] = order[node] + 1
                    frontier.append(neigh)
    label = [(order[r], r) for r in range(n)]
    link_is_up = [label[index.link_dst[i]] < label[index.link_src[i]]
                  for i in range(index.num_links)]
    rev = [[] for _ in range(2 * n)]
    for link in range(index.num_links):
        if dead(link):
            continue
        src, dst = index.link_src[link], index.link_dst[link]
        if link_is_up[link]:
            rev[2 * dst + 1].append((2 * src + 1, link))
        else:
            rev[2 * dst].append((2 * src + 1, link))
            rev[2 * dst].append((2 * src, link))
    hops, choices = [], []
    for dst in range(n):
        dist = [-1] * (2 * n)
        frontier = deque()
        for state in (2 * dst, 2 * dst + 1):
            dist[state] = 0
            frontier.append(state)
        while frontier:
            state = frontier.popleft()
            for prev, _link in rev[state]:
                if dist[prev] < 0:
                    dist[prev] = dist[state] + 1
                    frontier.append(prev)
        moves = [[] for _ in range(2 * n)]
        for state in range(2 * n):
            for prev, link in rev[state]:
                if dist[prev] == dist[state] + 1:
                    moves[prev].append((link, state % 2 == 1))
        hops.append(dist)
        choices.append(moves)
    return link_is_up, hops, choices


def reference_phase_tables(index, choices, phase, deterministic):
    """Nested [router][dst] cells of one phase; the diagonal is empty."""
    n = index.num_nodes
    tables = [[[] for _ in range(n)] for _ in range(n)]
    for router in range(n):
        for dst in range(n):
            if router == dst:
                continue
            links = [link for link, _up in choices[dst][2 * router + phase]]
            if deterministic and links:
                links = [min(links)]
            tables[router][dst] = links
    return tables


def first_updown_stranded(index, hops):
    for dst in range(index.num_nodes):
        for router in range(index.num_nodes):
            if router != dst and hops[dst][2 * router + 1] < 0:
                return router, dst
    return None


def updown_topology(rng):
    kind = rng.choice(("mesh", "regular", "leafspine"))
    if kind == "mesh":
        mesh = make_mesh(rng.randint(2, 6), rng.randint(2, 6))
        spare = mesh.num_edges - (mesh.num_nodes - 1)
        return inject_link_faults(mesh, rng.randint(0, min(6, spare)), rng)
    if kind == "regular":
        nodes = rng.randint(5, 20)
        degree = rng.choice([d for d in (2, 3, 4) if nodes * d % 2 == 0])
        return make_random_regular(nodes, degree, rng)
    return random_leaf_spine(rng)


def assert_updown_matches(routing, index):
    link_is_up, hops, choices = reference_updown(index, routing.root)
    assert list(routing.link_is_up) == [int(up) for up in link_is_up]
    n = index.num_nodes
    for phase in (0, 1):
        nested = reference_phase_tables(index, choices, phase,
                                        routing.deterministic)
        assert_tables_match(routing.compiled_tables[phase], index, nested)
        for router in range(n):
            for dst in range(n):
                if hops[dst][2 * router + phase] < 0:
                    assert nested[router][dst] == []  # cut off: empty
    for src in range(n):
        for dst in range(n):
            want = 0 if src == dst else hops[dst][2 * src + 1]
            assert routing.route_length(src, dst) == want
    return hops


@pytest.mark.parametrize("seed", range(40))
def test_updown_tables_equal_reference(seed):
    rng = random.Random(seed)
    topology = updown_topology(rng)
    index = FabricIndex(topology)
    routings = [UpDownRouting(index, deterministic=det)
                for det in (False, True)]
    for routing in routings:
        assert_updown_matches(routing, index)
    boot = routings[0].compiled_tables

    index.apply_faults(*random_faults(index, rng))
    for routing in routings:
        routing.rebuild()
        assert routing.compiled_tables[0].epoch == index.fault_epoch
        hops = assert_updown_matches(routing, index)
    assert routings[0].compiled_tables is not boot

    # Construction is strict where rebuild() is lenient: the first
    # stranded pair, destination-major, is named.
    stranded = first_updown_stranded(index, hops)
    if stranded is None:
        assert_updown_matches(UpDownRouting(index), index)
    else:
        with pytest.raises(ValueError) as err:
            UpDownRouting(index)
        assert str(err.value) == (
            f"up*/down* cannot route {stranded[0]} -> {stranded[1]}: "
            "topology must be connected"
        )


def test_updown_disconnected_boot_topology_names_first_pair():
    index = FabricIndex(Topology(5, [(0, 1), (1, 2), (3, 4)]))
    with pytest.raises(ValueError) as err:
        UpDownRouting(index)
    assert str(err.value) == (
        "up*/down* cannot route 3 -> 0: topology must be connected")


def test_updown_compiles_once_per_topology(monkeypatch):
    # One UPDOWN simulation, one ESCAPE_VC simulation escaping over
    # up*/down* and one certification of the same irregular topology share
    # one compile: the tables are a part of its CompiledNetwork.
    from repro.analysis.certifier import certify_configuration
    from repro.experiments.common import Scale, scheme_config
    from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

    compiles = []
    compile_ = UpDownRouting._compile

    def counted(self, strict):
        compiles.append(strict)
        return compile_(self, strict)

    monkeypatch.setattr(UpDownRouting, "_compile", counted)
    structcache.clear_memos()
    topology = inject_link_faults(make_mesh(4, 4), 2, random.Random(5))
    scale = Scale(warmup=10, measure=40)
    for scheme in (Scheme.UPDOWN, Scheme.ESCAPE_VC):
        traffic = SyntheticTraffic(
            pattern_by_name("uniform_random", 16, None), 0.1,
            random.Random(1))
        sim = Simulation(topology, scheme_config(scheme, scale), traffic)
        sim.run(scale.total_cycles, warmup=scale.warmup)
        assert sim.fabric.engine_name == "vectorized"
    assert certify_configuration(
        topology, SimConfig(scheme=Scheme.UPDOWN)).certified
    assert compiles == [True]
