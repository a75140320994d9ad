"""Property-based tests (hypothesis) on the core invariants.

These complement the unit tests with randomised exploration of:
- drain-path existence and turn-table consistency on arbitrary connected
  topologies (the paper's Section III-A guarantee);
- packet conservation of the drain rotation (a permutation, never needing
  free buffers);
- soundness of the deadlock oracle (anything it calls live must actually
  be able to move under fair scheduling).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.core.simulator import Simulation
from repro.drain.controller import DrainController
from repro.drain.path import euler_drain_path
from repro.drain.turntable import build_turn_tables
from repro.network.deadlock import find_deadlocked_slots
from repro.network.fabric import Fabric
from repro.network.index import FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import random_connected_topology
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom

topologies = st.builds(
    lambda n, extra, seed: random_connected_topology(
        n, extra, random.Random(seed)
    ),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**16),
)


@given(topologies)
@settings(max_examples=30, deadline=None)
def test_turn_tables_consistent_on_random_topologies(topo):
    path = euler_drain_path(topo)
    tables = build_turn_tables(path)
    # Walking the tables from any link traverses the full cycle.
    link = path.links[0]
    for _ in range(len(path)):
        link = tables[link.dst].output_for(link)
    assert link == path.links[0]


@given(topologies, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_drain_rotation_is_a_permutation(topo, seed):
    """Rotation never loses, duplicates or strands packets, no matter how
    the escape VCs are populated."""
    index = FabricIndex(topo)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=1),
        drain=DrainConfig(epoch=10**9),
    )
    fabric = Fabric(index, config, AdaptiveMinimalRouting(index),
                    escape_mode="drain", rng=random.Random(seed))
    controller = DrainController(fabric, config.drain)
    rng = random.Random(seed)
    planted = []
    for port in controller.path_ports:
        if rng.random() < 0.6:
            router = index.link_dst[port]
            dst = rng.randrange(topo.num_nodes)
            if dst == router:
                dst = (dst + 1) % topo.num_nodes
            packet = Packet(len(planted), router, dst)
            fabric.set_slot(port, 0, 0, packet)
            fabric.packets_in_network += 1
            planted.append(packet)
    # Block all ejection so the rotation is a pure permutation.
    for node in topo.nodes:
        for _ in range(fabric._ej_depth):
            fabric.ej_queues[node][MessageClass.REQ].append(
                Packet(10_000 + node, (node + 1) % topo.num_nodes, node)
            )
    controller._rotate_once()
    surviving = {p.pid for _1, _2, _3, p in fabric.occupied_slots()}
    assert surviving == {p.pid for p in planted}
    for packet in planted:
        assert packet.hops == 1


@given(topologies, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_oracle_live_packets_eventually_move(topo, seed):
    """Run a short random simulation; any slot the oracle calls live must
    empty (or its packet move) within a bounded horizon when injection
    stops — soundness of the liveness fixpoint."""
    config = SimConfig(
        scheme=Scheme.NONE, network=NetworkConfig(num_vns=1, vcs_per_vn=2)
    )
    traffic = SyntheticTraffic(
        UniformRandom(topo.num_nodes), 0.3, random.Random(seed)
    )
    sim = Simulation(topo, config, traffic)
    for _ in range(60):
        sim.step()
    fabric = sim.fabric
    deadlocked = find_deadlocked_slots(fabric)
    live = {
        (port, vn, vc): packet.pid
        for port, vn, vc, packet in fabric.occupied_slots()
        if (port, vn, vc) not in deadlocked
    }
    # Stop injecting; let the network run.
    traffic.injection_rate = 0.0
    traffic.backlog.clear()
    fabric.inj_queues = [
        [type(q)() for q in queues] for queues in fabric.inj_queues
    ]
    horizon = 50 * (topo.num_nodes + 5)
    for _ in range(horizon):
        sim.step()
    for slot, pid in live.items():
        current = fabric.slot(*slot)
        assert current is None or current.pid != pid, (
            f"live packet {pid} never moved out of {slot}"
        )


@given(topologies)
@settings(max_examples=20, deadline=None)
def test_updown_reaches_all_destinations_on_random_topologies(topo):
    index = FabricIndex(topo)
    routing = UpDownRouting(index)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                assert routing.route_length(src, dst) >= index.dist[src][dst]
