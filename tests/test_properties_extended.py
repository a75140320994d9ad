"""Extended property-based suites: wormhole flit conservation, coherence
bookkeeping invariants, config round-trips."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    ProtocolConfig,
    Scheme,
    SimConfig,
    SpinConfig,
)
from repro.core.configio import config_from_dict, config_to_dict
from repro.core.simulator import Simulation
from repro.protocol.coherence import CoherenceTraffic
from repro.protocol.moesi import MoesiTraffic
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, UniformRandom


@given(
    st.integers(min_value=1, max_value=6),  # flits per packet
    st.integers(min_value=1, max_value=3),  # vcs per vn
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_wormhole_flit_conservation(flits, vcs, seed):
    """injected*flits == buffered + reassembling + delivered*flits, always."""
    topo = make_mesh(4, 4)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=vcs,
                              packet_size_flits=flits),
        drain=DrainConfig(epoch=97),
        seed=seed,
        flow_control="wormhole",
    )
    traffic = SyntheticTraffic(UniformRandom(16), 0.15, random.Random(seed))
    sim = Simulation(topo, config, traffic)
    fabric = sim.fabric
    for _ in range(250):
        sim.step()
        reassembling = sum(len(v) for v in fabric._reassembly.values())
        buffered = fabric.count_flits()
        assert (
            sim.stats.packets_injected * flits
            == buffered + reassembling + sim.stats.packets_ejected * flits
        )


@given(
    st.floats(min_value=0.01, max_value=0.3),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_coherence_bookkeeping_invariants(issue, fwd, seed):
    """issued == completed + in-flight; outstanding within MSHR bounds."""
    topo = make_mesh(4, 4)
    config = SimConfig(
        scheme=Scheme.ESCAPE_VC,
        network=NetworkConfig(num_vns=3, vcs_per_vn=2),
        seed=seed,
    )
    traffic = CoherenceTraffic(
        16, ProtocolConfig(mshrs_per_node=6, forward_probability=fwd),
        issue, random.Random(seed),
    )
    sim = Simulation(topo, config, traffic)
    for _ in range(400):
        sim.step()
        assert traffic.issued == traffic.completed + traffic.in_flight()
        assert sum(traffic.outstanding) == traffic.in_flight()
        assert all(0 <= o <= 6 for o in traffic.outstanding)


@given(
    st.floats(min_value=0.02, max_value=0.3),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_moesi_bookkeeping_invariants(issue, wb, seed):
    topo = make_mesh(4, 4)
    config = SimConfig(
        scheme=Scheme.ESCAPE_VC,
        network=NetworkConfig(num_vns=6, vcs_per_vn=2),
        seed=seed,
    )
    traffic = MoesiTraffic(
        16, ProtocolConfig(mshrs_per_node=6), issue, random.Random(seed),
        writeback_fraction=wb,
    )
    sim = Simulation(topo, config, traffic)
    for _ in range(400):
        sim.step()
        assert traffic.issued >= traffic.completed
        assert all(0 <= o <= 6 for o in traffic.outstanding)


@given(
    st.sampled_from(list(Scheme)),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=10**6),
    st.booleans(),
    st.integers(min_value=1, max_value=10**5),
)
@settings(max_examples=40, deadline=None)
def test_config_roundtrip_fuzz(scheme, vns, vcs, epoch, sticky, timeout):
    config = SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=vns, vcs_per_vn=vcs),
        drain=DrainConfig(epoch=epoch, escape_sticky=sticky),
        spin=SpinConfig(timeout=timeout),
    )
    assert config_from_dict(config_to_dict(config)) == config
