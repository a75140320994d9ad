"""Pinned end states of runs that wedge: the fast-forward must not move them.

Past the saturation knee a mesh spends most of each drain epoch wedged,
and the event-horizon fast-forward is allowed to jump across those
stretches (DESIGN.md, "Event-horizon fast-forward"). Whatever it skips, a
run's outputs must stay the ones plain stepping produces. Each case below
records one BLAKE2b digest of a finished ``sim.run()``: the golden
statistics plus the state a skip replays by hand (the movement LCG, the
traffic source's packet count and backlog, the cycle counters). The
digests were recorded before the stuck-network span existed; the span
twin tests (tests/test_sleeping_routers.py) then check spans cycle by
cycle against a ``dense`` twin.

Fast-forward telemetry (``ff_spans``, ``ff_cycles``) is deliberately not
part of a digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.config import Scheme
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.topology.mesh import make_mesh, make_torus
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name
from repro.traffic.trace import TraceRecorder

#: Two drain windows and several SPIN / watchdog ticks in 800 cycles; long
#: enough for an 8x8 at 0.30 to wedge between them.
PIN_SCALE = Scale(warmup=100, measure=700, epoch=384, spin_timeout=64)
RATE = 0.30

#: case -> digest of the finished run (see ``_digest``).
PINNED = {
    "mesh-drain": "ca0903315fae60e9171bdfb0ff9db8ed",
    "mesh-spin": "e729089f077983f4a1e9d88840bbbfd5",
    "mesh-escape_vc": "f7e0f3258fa5d17ada1f53ed1a708544",
    "mesh-none": "2180d38b5717ef9043b31d6a1188bfe1",
    "torus-drain": "f5036c6cd975146dbfe3c9c038697720",
    "torus-spin": "0fdfa34ff5e2dc439ff7efe29453ca9a",
    "torus-escape_vc": "288ea2e239e4eb0f2ee3ad890ea644f1",
    "torus-none": "0fdfa34ff5e2dc439ff7efe29453ca9a",
    "halt-none": "792e85f946ac637d60c11523a32c5310",
    "faults-drain": "324a6d54163cf2f7792b8db68a93faaf",
    "recorder-drain": "a67b625cffd044a5bdf3a45715661986",
    "rate-drain": "fa49f27bb41050527ed7286547f3e0dd",
}


def _sim(case: str, seed: int = 1):
    kind, scheme_name = case.split("-")
    scheme = Scheme(scheme_name)
    topology = make_torus(8, 8) if kind == "torus" else make_mesh(8, 8)
    # One VN for every scheme: synthetic traffic rides VN 0 only, so the
    # baselines' default three VNs give the same run with two idle VNs.
    config = scheme_config(scheme, PIN_SCALE, num_vns=1, seed=seed)
    pattern = pattern_by_name("uniform_random", topology.num_nodes, 8)
    rng = random.Random(derive_seed(seed, "traffic", "uniform_random", RATE))
    source = TraceRecorder if kind == "recorder" else SyntheticTraffic
    traffic = source(pattern, RATE, rng)
    kwargs = {}
    if kind == "halt":
        kwargs["halt_on_deadlock"] = True
    if kind == "faults":
        kwargs["fault_schedule"] = FaultSchedule(
            events=(FaultEvent(cycle=310, kind="link", target=(27, 28)),
                    FaultEvent(cycle=530, kind="link", target=(35, 43))),
            seed=seed, onset="uniform")
    return Simulation(topology, config, traffic, **kwargs)


def _run(sim: Simulation, case: str) -> None:
    if case.startswith("rate-"):
        # Reassigned between runs: the stream's hit list is rebuilt at the
        # cursor, with the first run's backlog still waiting.
        sim.run(300, warmup=100)
        sim.traffic.injection_rate = 0.02
        sim.run(250)
        sim.traffic.injection_rate = RATE
        sim.run(250)
    else:
        sim.run(PIN_SCALE.total_cycles, warmup=PIN_SCALE.warmup)


def _digest(sim: Simulation) -> str:
    stats = sim.stats
    traffic = sim.traffic
    state = {
        "stats": stats.as_dict(),
        "extra": [stats.flits_traversed, stats.packets_unroutable,
                  stats.packets_lost, stats.packets_retransmitted,
                  stats.deadlocks_detected, stats.drained_packets,
                  stats.measured_cycles, stats.faults_applied],
        "cycle": sim.fabric.cycle,
        "lcg": sim.fabric._lcg,
        "generated": traffic.generated,
        "backlog": traffic.backlog_size(),
        "deadlocked": sim.deadlocked,
        "payload": (sim.watchdog.cycle_payload
                    if sim.watchdog is not None else None),
    }
    if isinstance(traffic, TraceRecorder):
        state["records"] = [r.to_line() for r in traffic.records]
    text = json.dumps(state, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_wedged_run_matches_its_pin(case):
    sim = _sim(case)
    _run(sim, case)
    assert _digest(sim) == PINNED[case], case


def test_halt_stops_early():
    # The halt case is only a halt pin if the watchdog actually fires.
    sim = _sim("halt-none")
    _run(sim, "halt-none")
    assert sim.deadlocked and sim.fabric.cycle < PIN_SCALE.total_cycles
