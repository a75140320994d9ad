"""Pinned offer streams: what each traffic source hands its NI, and when.

A source's backlog is its own business, but every packet it offers is
observable: ``fabric.offer_packet`` sees the pid, endpoints, message
class and generation cycle, at the fabric's cycle, in call order, and
answers accept or refuse. Each case below wraps that call and records
one BLAKE2b digest of the whole offered sequence together with the run's
golden statistics, so a change to how backlogs are stored must offer the
same packets in the same order on the same cycles.

The cases cover a saturated 8x8 DRAIN run that crosses a stuck-network
span, a backlogged run whose router dies mid-run (offers then swallowed
as unroutable), flow traffic hit by pause-storm bursts, a trace replayed
into a full NI queue, and the trace recorder's record list.

A second set pins the fast-forward of every other source kind: the MESI
and MOESI transaction generators and flow traffic across idle spans (one
MESI run with link deaths, one flow run whose pause-storm burst lands in
an idle gap), and a trace replayed into a wedged mesh. Their digest is
one a dense run gives too: the accepted packets in pid order, without
the cycle of the offer, because a skipped span offers its packets once
where a dense run offers them every cycle.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    ProtocolConfig,
    Scheme,
    SimConfig,
)
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults import PauseStormEvent, PauseStormSchedule
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.protocol import CoherenceTraffic, MoesiTraffic
from repro.topology import make_leaf_spine
from repro.topology.mesh import make_mesh
from repro.traffic import Flow, FlowTraffic
from repro.traffic.synthetic import (
    SyntheticTraffic,
    UniformRandom,
    pattern_by_name,
)
from repro.traffic.trace import (
    TraceRecord,
    TraceRecorder,
    TraceTraffic,
    record_synthetic,
)

#: Long enough for an 8x8 at 0.30 to wedge between two drain windows.
PIN_SCALE = Scale(warmup=100, measure=700, epoch=384, spin_timeout=64)
RATE = 0.30

#: case -> digest of the offered sequence plus the finished run's state.
PINNED = {
    "span": "894a486be2e47a9d870cf39f6c2e72aa",
    "router_death": "35f446894fbda66653078858bae857e8",
    "flow_storm": "882e1372cf6a71826351abb195112f64",
    "trace_full_ni": "cfc271fdafa64e80747de3ac21643605",
    "recorder": "0a3132a8a078d894f09a3fbbb2e0f9c1",
}

#: case -> digest of the accepted packets plus the finished run's state,
#: equal for the fast run and its dense twin.
SPAN_PINNED = {
    "coherence": "c47fe054b7f0e539001b950bdaf8e08d",
    "coherence_faults": "87984cdc647fdb09ec04e5684bce340c",
    "flows": "5b3cfdeb075a93a6fa0d43933b84980c",
    "flow_burst_gap": "f455e90441c6f9fb85a97d1dd8314b47",
    "moesi": "19ee4dbdfc7bfdfa74c9a25348e41b19",
    "trace_wedged": "2985bff4455f6cef317809bce3356202",
}
#: The storm burst of ``flow_burst_gap``, inside an idle gap.
BURST_CYCLE = 700


def _mesh_sim(source, rate=RATE, seed=1, **kwargs):
    topology = make_mesh(8, 8)
    config = scheme_config(Scheme.DRAIN, PIN_SCALE, num_vns=1, seed=seed)
    pattern = pattern_by_name("uniform_random", topology.num_nodes, 8)
    rng = random.Random(derive_seed(seed, "traffic", "uniform_random", rate))
    return Simulation(topology, config, source(pattern, rate, rng), **kwargs)


def _flow_storm_sim():
    topology = make_leaf_spine(8, 4, uplinks=1, east_west=True)
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=256),
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=2, resume_threshold=0, headroom=1),
    )
    flows = [Flow(i, (i + 2) % 8, 0.6) for i in range(8)]
    # The second burst's source lies past every flow endpoint, so the
    # source grows its backlog on demand.
    storm = PauseStormSchedule((
        PauseStormEvent(20, "burst", (0, 5), value=12),
        PauseStormEvent(40, "stuck_xoff", (2, 0), duration=60),
        PauseStormEvent(60, "burst", (9, 2), value=8),
        PauseStormEvent(61, "burst", (0, 3), value=6),
    ))
    traffic = FlowTraffic(flows, random.Random(7))
    return Simulation(topology, config, traffic, pause_storm=storm)


def _trace_sim():
    records = record_synthetic(UniformRandom(16), 0.05, 300, seed=7)
    # Twenty packets from node 3 at one cycle overflow its NI queue.
    records += [TraceRecord(50, 3, dst) for dst in (0, 1, 2, 4, 5) * 4]
    topology = make_mesh(4, 4)
    config = SimConfig(scheme=Scheme.DRAIN,
                       network=NetworkConfig(num_vns=1, vcs_per_vn=2),
                       drain=DrainConfig(epoch=512))
    return Simulation(topology, config, TraceTraffic(records, 16))


def _small_mesh_config(num_vns, vcs_per_vn, **kwargs):
    return SimConfig(scheme=Scheme.DRAIN,
                     network=NetworkConfig(num_vns=num_vns,
                                           vcs_per_vn=vcs_per_vn),
                     seed=1, **kwargs)


def _build_span(case: str, dense: bool) -> Simulation:
    topology = make_mesh(4, 4)
    three_vns = _small_mesh_config(3, 2)
    kwargs = {"dense": dense}
    if case in ("coherence", "coherence_faults"):
        rate, quota = (0.002, 300) if case == "coherence" else (0.004, 200)
        traffic = CoherenceTraffic(
            16, ProtocolConfig(mshrs_per_node=4, forward_probability=0.5),
            rate, random.Random(1), total_transactions=quota)
        if case == "coherence_faults":
            kwargs["fault_schedule"] = FaultSchedule(events=(
                FaultEvent(400, "link", (5, 6)),
                FaultEvent(900, "link", (9, 10)),
            ), seed=1)
        return Simulation(topology, three_vns, traffic, **kwargs)
    if case == "flows":
        traffic = FlowTraffic([Flow(0, 5, 0.002),
                               Flow(3, 12, 0.001, packets=20),
                               Flow(9, 2, 0.002)], random.Random(1))
        return Simulation(topology, three_vns, traffic, **kwargs)
    if case == "flow_burst_gap":
        config = SimConfig(
            scheme=Scheme.DRAIN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=4),
            drain=DrainConfig(epoch=256),
            flow_control="pause_resume",
            pfc=PfcConfig(pause_threshold=2, resume_threshold=0, headroom=1),
            seed=1,
        )
        flows = [Flow(0, 5, 0.002), Flow(6, 1, 0.003),
                 Flow(3, 7, 0.001, packets=4)]
        storm = PauseStormSchedule((
            PauseStormEvent(BURST_CYCLE, "burst", (2, 4), value=10),
        ))
        return Simulation(make_leaf_spine(8, 4, uplinks=1, east_west=True),
                          config, FlowTraffic(flows, random.Random(1)),
                          pause_storm=storm, **kwargs)
    if case == "moesi":
        traffic = MoesiTraffic(16, ProtocolConfig(mshrs_per_node=4), 0.003,
                               random.Random(1), total_transactions=100)
        return Simulation(topology, _small_mesh_config(6, 2), traffic,
                          **kwargs)
    records = record_synthetic(UniformRandom(16), 0.6, 400)
    config = _small_mesh_config(1, 1, drain=DrainConfig(epoch=2048))
    return Simulation(topology, config, TraceTraffic(records, 16), **kwargs)


def _build(case: str) -> Simulation:
    if case == "span":
        return _mesh_sim(SyntheticTraffic)
    if case == "router_death":
        schedule = FaultSchedule(
            events=(FaultEvent(cycle=300, kind="router", target=(36, -1)),),
            seed=1, onset="uniform")
        return _mesh_sim(SyntheticTraffic, fault_schedule=schedule)
    if case == "flow_storm":
        return _flow_storm_sim()
    if case == "trace_full_ni":
        return _trace_sim()
    return _mesh_sim(TraceRecorder)


def _record_offers(sim: Simulation) -> list:
    """Wrap the fabric's ``offer_packet``; returns the live offer log."""
    fabric = sim.fabric
    inner = fabric.offer_packet
    offered = []

    def offer(packet):
        accepted = inner(packet)
        offered.append((packet.pid, packet.src, packet.dst,
                        int(packet.msg_class), packet.gen_cycle,
                        fabric.cycle, accepted))
        return accepted

    fabric.offer_packet = offer
    return offered


def _run(case: str):
    sim = _build(case)
    offered = _record_offers(sim)
    if case == "trace_full_ni":
        sim.run(1500)
    elif case == "flow_storm":
        sim.run(400, warmup=50)
    else:
        sim.run(PIN_SCALE.total_cycles, warmup=PIN_SCALE.warmup)
    return sim, offered


def _digest(sim: Simulation, offered: list) -> str:
    traffic = sim.traffic
    state = {
        "offered": offered,
        "stats": sim.stats.as_dict(),
        "unroutable": sim.stats.packets_unroutable,
        "cycle": sim.fabric.cycle,
        "generated": traffic.generated,
        "backlog": traffic.backlog_size(),
    }
    if isinstance(traffic, TraceRecorder):
        state["records"] = [r.to_line() for r in traffic.records]
    text = json.dumps(state, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _run_span(case: str, dense: bool = False):
    sim = _build_span(case, dense)
    offered = _record_offers(sim)
    if case == "trace_wedged":
        sim.run(6_000)
    elif case == "flow_burst_gap":
        sim.run(3_000)
    else:
        sim.run(30_000)
    return sim, offered


def _span_digest(sim: Simulation, offered: list) -> str:
    traffic = sim.traffic
    state = {
        "accepted": sorted(o[:5] for o in offered if o[6]),
        "stats": sim.stats.as_dict(),
        "unroutable": sim.stats.packets_unroutable,
        "cycle": sim.fabric.cycle,
    }
    if hasattr(traffic, "backlog"):
        state["generated"] = traffic.generated
        state["backlog"] = traffic.backlog_size()
    else:
        state["issued"] = traffic.issued
        state["completed"] = traffic.completed
        state["outstanding"] = traffic.outstanding
    text = json.dumps(state, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_offer_stream_matches_its_pin(case):
    sim, offered = _run(case)
    assert _digest(sim, offered) == PINNED[case], case


def test_cases_exercise_what_they_pin():
    # Each pin is only a pin of its situation if the situation happens.
    sim, offered = _run("span")
    assert sim.ff_spans > 0 and sim.traffic.backlog_size() > 0
    sim, offered = _run("router_death")
    assert sim.stats.packets_unroutable > 0
    assert any(o[1] == 36 for o in offered if o[5] > 300)  # swallowed
    sim, offered = _run("flow_storm")
    assert sim.fault_injector.storm_applied == 4
    assert not all(o[6] for o in offered)  # a full NI refused a burst
    assert max(o[1] for o in offered) == 9
    sim, offered = _run("trace_full_ni")
    assert sim.traffic.done()
    assert not all(o[6] for o in offered if o[1] == 3)
    sim, _ = _run("recorder")
    assert len(sim.traffic.records) == sim.traffic.generated


@pytest.mark.parametrize("case", sorted(SPAN_PINNED))
def test_fast_forward_matches_its_pin_and_dense_twin(case):
    fast = _span_digest(*_run_span(case))
    dense = _span_digest(*_run_span(case, dense=True))
    assert fast == dense == SPAN_PINNED[case], case


def test_span_cases_exercise_what_they_pin():
    # Each pin is only a pin of its situation if the situation happens.
    for case in ("coherence", "coherence_faults", "flows"):
        sim, _ = _run_span(case)
        assert sim.ff_spans > 0, case  # idle spans
        if case == "coherence_faults":
            assert sim.stats.faults_applied == 2
        if case == "flows":
            assert sim.traffic.flow_delivered[(3, 12)] == 20  # finite flow
    sim = _build_span("flow_burst_gap", dense=False)
    spans = []
    skip = sim.fabric.skip_cycles

    def recording(count):
        spans.append((sim.fabric.cycle, count, sim.fabric.quiescent))
        skip(count)

    sim.fabric.skip_cycles = recording
    sim.run(3_000)
    assert sim.fault_injector.storm_applied == 1
    assert any(start + count == BURST_CYCLE and quiescent
               for start, count, quiescent in spans)
    sim, _ = _run_span("moesi")
    assert sim.traffic.done()
    sim, _ = _run_span("trace_wedged")
    assert sim.fabric.inert and not sim.fabric.quiescent  # wedged
    assert sim.traffic.backlog_size() > 0
