"""Trial specifications: declarative, picklable, digestible units of work.

The parallel harness (:mod:`repro.harness.pool`) must ship work to
``multiprocessing`` workers and memoize finished work on disk. Both needs
rule out closures over live simulator objects; instead a trial is a plain
:class:`TrialSpec` — a runner name registered in :data:`RUNNERS` plus a
JSON-able parameter mapping. The canonical JSON encoding of a spec doubles
as its cache identity (see :meth:`TrialSpec.digest`).

Five runner names cover every sweep in the experiment suite:

- ``synthetic`` — open-loop synthetic traffic (Figures 10/11/14, Section
  VI, the injection-rate sweeps, the VC/packet-size sensitivity studies);
- ``workload`` — a surrogate application profile run to completion or to a
  deadlock verdict (Figures 3/12/13/15);
- ``coherence`` — raw coherence-protocol traffic with explicit knobs (the
  ejection-depth and MSHR sensitivity studies);
- ``fault_recovery`` — a ``synthetic`` spec plus a ``faults`` key holding
  a runtime :class:`~repro.faults.schedule.FaultSchedule`; the result adds
  the injector's degradation/recovery metrics;
- ``lossless`` — flow-level traffic on a pause/resume (PFC) fabric,
  optionally under a pause storm and the degradation ladder.

All five dispatch to one runner: build the topology, config, traffic
source and :class:`~repro.core.simulator.Simulation`, run it, and add the
kind's extra keys to the one shared summary (``_summarise``). The
per-kind differences — source builder and its ``Simulation`` keywords,
cycle and warm-up keys, result extras — are one ``_KINDS`` table. A trial
thus executes identically inline, in a worker process, or replayed from
a cold start — the determinism suite pins this. What trials over one
topology have in common (distances, numbering, routing tables, the drain
cycle, ESCAPE_VC's merged engine table) is compiled once per process and
shared read-only (:mod:`repro.structcache`); the runner does not know
about it, and a trial's row is the same first or Nth in a process.
``batch.lockstep`` is a wrapper runner — a list of trials executed in
order — kept for ``benchmarks/perf``.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.config import SimConfig
from ..core.configio import config_from_dict, config_to_dict
from ..core.metrics import NetworkStats
from ..core.rng import derive_seed
from ..store import canonical_json, digest as payload_digest
from ..structcache.digest import topology_payload as topology_to_spec
from ..topology.graph import Topology

if TYPE_CHECKING:
    from ..core.simulator import Simulation
    from ..traffic.workloads import WorkloadProfile

__all__ = [
    "TrialSpec",
    "RUNNERS",
    "register_runner",
    "execute_trial",
    "topology_to_spec",
    "topology_from_spec",
    "synthetic_trial",
    "workload_trial",
    "coherence_trial",
    "fault_recovery_trial",
    "lossless_trial",
    "batch_payload",
    "structural_params",
]

#: Bump to invalidate every cached result when trial semantics change.
TRIAL_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Topology (de)serialisation
# ----------------------------------------------------------------------
def topology_from_spec(spec: Mapping[str, Any]) -> Topology:
    """Rebuild the exact :class:`Topology` described by *spec*."""
    coordinates = None
    if spec.get("coordinates") is not None:
        coordinates = {
            int(node): tuple(xy) for node, xy in spec["coordinates"].items()
        }
    return Topology(
        spec["num_nodes"],
        [tuple(edge) for edge in spec["edges"]],
        name=spec.get("name", "custom"),
        coordinates=coordinates,
    )


# ----------------------------------------------------------------------
# Trial specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of simulation work.

    ``runner`` names a function in :data:`RUNNERS`; ``params`` must contain
    only JSON-able values (numbers, strings, bools, lists, dicts) so the
    spec can be pickled to workers and digested for the cache.
    """

    runner: str
    params: Mapping[str, Any]

    @property
    def identity(self) -> Dict[str, Any]:
        """What the digest covers: format version, runner and params."""
        return {"format": TRIAL_FORMAT_VERSION, "runner": self.runner,
                "params": self.params}

    def canonical(self) -> str:
        """Canonical JSON encoding — the cache identity of this trial."""
        return canonical_json(self.identity)

    def digest(self) -> str:
        """Content digest of the spec (:func:`repro.store.digest`)."""
        return payload_digest(self.identity)


RUNNERS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {}


def register_runner(
    name: str,
) -> Callable[[Callable[[Mapping[str, Any]], Dict[str, Any]]], Callable]:
    """Register a trial runner under *name* (decorator)."""

    def deco(fn: Callable[[Mapping[str, Any]], Dict[str, Any]]) -> Callable:
        if name in RUNNERS:
            raise ValueError(f"runner {name!r} already registered")
        RUNNERS[name] = fn
        return fn

    return deco


def execute_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run one trial to completion and return its JSON-able result dict."""
    try:
        runner = RUNNERS[spec.runner]
    except KeyError:
        raise ValueError(
            f"unknown trial runner {spec.runner!r}; "
            f"registered: {sorted(RUNNERS)}"
        ) from None
    return runner(spec.params)


# ----------------------------------------------------------------------
# Result extraction
# ----------------------------------------------------------------------
def _summarise(sim: Simulation) -> Dict[str, Any]:
    """Flatten the headline metrics of a finished simulation."""
    stats: NetworkStats = sim.stats
    out: Dict[str, Any] = dict(stats.as_dict())
    out["throughput"] = sim.throughput()
    out["p99_latency"] = (
        stats.latency.percentile(99.0) if stats.latency.samples else 0.0
    )
    out["drained_packets"] = stats.drained_packets
    out["full_drains"] = stats.full_drains
    out["spins_performed"] = stats.spins_performed
    out["measured_cycles"] = stats.measured_cycles
    out["pre_drain_extensions"] = (
        sim.drain_controller.pre_drain_extensions
        if sim.drain_controller is not None
        else 0
    )
    return out


# ----------------------------------------------------------------------
# Spec builders
# ----------------------------------------------------------------------
def _spec(runner: str, topology: Topology, config: SimConfig,
          traffic_seed: int, **params: Any) -> TrialSpec:
    """The spec every builder returns: topology, config, traffic seed and
    the runner's own *params*."""
    return TrialSpec(runner, {"topology": topology_to_spec(topology),
                              "config": config_to_dict(config),
                              "traffic_seed": traffic_seed, **params})


def _as_dict(schedule):
    """*schedule* (a fault or pause-storm schedule) in its dict form."""
    if schedule is None or isinstance(schedule, Mapping):
        return schedule
    return schedule.as_dict()


def synthetic_trial(
    topology: Topology,
    config: SimConfig,
    rate: float,
    cycles: int,
    warmup: int,
    pattern: str = "uniform_random",
    mesh_width: Optional[int] = None,
    traffic_seed: Optional[int] = None,
) -> TrialSpec:
    """Spec for one open-loop synthetic-traffic run.

    When *traffic_seed* is omitted the injector stream is derived from the
    config seed via :func:`repro.core.rng.derive_seed`, so child streams
    are stable across processes and interpreter restarts.
    """
    if traffic_seed is None:
        traffic_seed = derive_seed(config.seed, "traffic", pattern, rate)
    return _spec("synthetic", topology, config, traffic_seed,
                 pattern=pattern, rate=rate, mesh_width=mesh_width,
                 cycles=cycles, warmup=warmup)


def workload_trial(
    topology: Topology,
    config: SimConfig,
    workload: WorkloadProfile,
    max_cycles: int,
    total_transactions: Optional[int] = None,
    mesh_width: Optional[int] = None,
    intensity_scale: float = 1.0,
    halt_on_deadlock: bool = False,
    traffic_seed: Optional[int] = None,
) -> TrialSpec:
    """Spec for one surrogate-application run (Figures 3/12/13/15)."""
    if traffic_seed is None:
        traffic_seed = derive_seed(config.seed, "workload", workload.name)
    return _spec("workload", topology, config, traffic_seed,
                 workload=dataclasses.asdict(workload), max_cycles=max_cycles,
                 total_transactions=total_transactions, mesh_width=mesh_width,
                 intensity_scale=intensity_scale,
                 halt_on_deadlock=halt_on_deadlock)


def coherence_trial(
    topology: Topology,
    config: SimConfig,
    issue_probability: float,
    max_cycles: int,
    total_transactions: Optional[int] = None,
    locality: float = 0.0,
    mesh_width: Optional[int] = None,
    traffic_seed: Optional[int] = None,
) -> TrialSpec:
    """Spec for a raw coherence-protocol run with explicit traffic knobs."""
    if traffic_seed is None:
        traffic_seed = derive_seed(config.seed, "coherence", issue_probability)
    return _spec("coherence", topology, config, traffic_seed,
                 issue_probability=issue_probability, max_cycles=max_cycles,
                 total_transactions=total_transactions, locality=locality,
                 mesh_width=mesh_width)


def fault_recovery_trial(
    topology: Topology,
    config: SimConfig,
    rate: float,
    cycles: int,
    warmup: int,
    schedule,
    policy: str = "drop_retransmit",
    curve_window: int = 200,
    max_circuits: int = 512,
    pattern: str = "uniform_random",
    mesh_width: Optional[int] = None,
    traffic_seed: Optional[int] = None,
) -> TrialSpec:
    """Spec for one synthetic run under a runtime fault schedule.

    *schedule* is a :class:`repro.faults.FaultSchedule` (or its dict
    form); it is embedded in the params, so two trials with different
    schedules — or the same schedule under a different in-flight policy —
    digest differently and cache independently.
    """
    spec = synthetic_trial(topology, config, rate, cycles, warmup, pattern,
                           mesh_width, traffic_seed)
    return TrialSpec("fault_recovery", {**spec.params, "faults": {
        "schedule": _as_dict(schedule),
        "policy": policy,
        "curve_window": curve_window,
        "max_circuits": max_circuits,
    }})


def lossless_trial(
    topology: Topology,
    config: SimConfig,
    flows,
    cycles: int,
    storm=None,
    degradation_ladder: bool = False,
    halt_on_deadlock: bool = False,
    traffic_seed: Optional[int] = None,
) -> TrialSpec:
    """Spec for one flow-level run on a lossless (pause/resume) fabric.

    *flows* is a list of :class:`repro.traffic.Flow` (or ``[src, dst,
    rate, packets]`` lists); *storm* an optional
    :class:`repro.faults.PauseStormSchedule` (or its dict form). All
    lossless-specific parameters live under the ``lossless`` key, so
    credit-mode trial digests are untouched by this subsystem.
    """
    if traffic_seed is None:
        traffic_seed = derive_seed(config.seed, "flows", len(flows))
    flow_lists = [
        list(f.as_tuple()) if hasattr(f, "as_tuple") else list(f)
        for f in flows
    ]
    return _spec("lossless", topology, config, traffic_seed, cycles=cycles,
                 lossless={
                     "flows": flow_lists,
                     "storm": _as_dict(storm),
                     "degradation_ladder": degradation_ladder,
                     "halt_on_deadlock": halt_on_deadlock,
                 })


# ----------------------------------------------------------------------
# The runner: build -> run -> summarise, over a per-kind table
# ----------------------------------------------------------------------
def _synthetic_source(params, topology, config):
    from ..traffic.synthetic import SyntheticTraffic, pattern_by_name

    traffic = SyntheticTraffic(
        pattern_by_name(params["pattern"], topology.num_nodes,
                        params.get("mesh_width")),
        params["rate"],
        random.Random(params["traffic_seed"]),
    )
    faults = params.get("faults")
    if faults is None:
        return traffic, {}
    from ..faults.schedule import FaultSchedule

    return traffic, {
        "fault_schedule": FaultSchedule.from_dict(faults["schedule"]),
        "fault_policy": faults.get("policy", "drop_retransmit"),
        "fault_curve_window": faults.get("curve_window", 200),
        "fault_max_circuits": faults.get("max_circuits", 512),
    }


def _synthetic_extras(params, sim, traffic):
    out = {"rate": params["rate"], "ejected": sim.stats.packets_ejected}
    if sim.fault_injector is not None:
        out["faults"] = sim.fault_injector.summary()
        if sim.drain_controller is not None:
            out["drain_covered_links"] = sim.drain_controller.total_path_length()
            out["drain_cycles_installed"] = len(sim.drain_controller.paths)
        out["links_alive"] = sim.index.num_links - len(sim.index.dead_links)
    return out


def _workload_source(params, topology, config):
    from ..traffic.workloads import WorkloadProfile, make_workload_traffic

    traffic = make_workload_traffic(
        WorkloadProfile(**params["workload"]),
        topology.num_nodes,
        random.Random(params["traffic_seed"]),
        protocol=config.protocol,
        total_transactions=params.get("total_transactions"),
        mesh_width=params.get("mesh_width"),
        intensity_scale=params.get("intensity_scale", 1.0),
    )
    return traffic, {"halt_on_deadlock": params.get("halt_on_deadlock", False)}


def _closed_loop_extras(params, sim, traffic):
    return {"runtime": sim.stats.cycles, "completed": traffic.completed,
            "finished": traffic.done()}


def _workload_extras(params, sim, traffic):
    return {"workload": params["workload"]["name"],
            **_closed_loop_extras(params, sim, traffic),
            "deadlocked": sim.deadlocked}


def _coherence_source(params, topology, config):
    from ..protocol.coherence import CoherenceTraffic

    traffic = CoherenceTraffic(
        topology.num_nodes,
        config.protocol,
        params["issue_probability"],
        random.Random(params["traffic_seed"]),
        total_transactions=params.get("total_transactions"),
        locality=params.get("locality", 0.0),
        mesh_width=params.get("mesh_width"),
    )
    return traffic, {}


def _lossless_source(params, topology, config):
    from ..faults.storm import PauseStormSchedule
    from ..traffic.flows import Flow, FlowTraffic

    lossless = params["lossless"]
    flows = [
        Flow(int(f[0]), int(f[1]), float(f[2]),
             packets=None if f[3] is None else int(f[3]))
        for f in lossless["flows"]
    ]
    storm = lossless.get("storm")
    return FlowTraffic(flows, random.Random(params["traffic_seed"])), {
        "halt_on_deadlock": lossless.get("halt_on_deadlock", False),
        "pause_storm": (None if storm is None
                        else PauseStormSchedule.from_dict(storm)),
        "degradation_ladder": lossless.get("degradation_ladder", False),
    }


def _lossless_extras(params, sim, traffic):
    out = {
        "runtime": sim.stats.cycles,
        "generated": traffic.generated,
        "delivered": traffic.delivered,
        "recovery_ratio": (traffic.delivered / traffic.generated
                           if traffic.generated else 1.0),
        "finished": traffic.done(),
        "deadlocked": sim.deadlocked,
        "deadlock_cycle": (sim.watchdog.cycle_payload
                           if sim.watchdog is not None else None),
    }
    if hasattr(sim.fabric, "pfc_summary"):
        out["pfc"] = sim.fabric.pfc_summary()
    if sim.degradation_ladder is not None:
        ladder = sim.degradation_ladder.summary()
        out["ladder"] = ladder
        out["lost_forever"] = ladder["packets_lost_forever"]
    else:
        out["lost_forever"] = 0
    if sim.fault_injector is not None:
        out["storm_applied"] = sim.fault_injector.storm_applied
    return out


#: runner name -> (source builder, cycles key, warm-up key or None, result
#: extras). A source builder returns the traffic source and the
#: :class:`Simulation` keywords; the extras join :func:`_summarise`'s dict.
_KINDS = {
    "synthetic": (_synthetic_source, "cycles", "warmup", _synthetic_extras),
    "fault_recovery": (_synthetic_source, "cycles", "warmup",
                       _synthetic_extras),
    "workload": (_workload_source, "max_cycles", None, _workload_extras),
    "coherence": (_coherence_source, "max_cycles", None, _closed_loop_extras),
    "lossless": (_lossless_source, "cycles", None, _lossless_extras),
}


def _run_trial(kind: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Build, run and summarise one trial of runner *kind*."""
    from ..core.simulator import Simulation

    source, cycles, warmup, extras = _KINDS[kind]
    topology = topology_from_spec(params["topology"])
    config = config_from_dict(params["config"])
    traffic, kwargs = source(params, topology, config)
    sim = Simulation(topology, config, traffic, **kwargs)
    sim.run(params[cycles], warmup=params[warmup] if warmup else 0)
    out = _summarise(sim)
    out.update(extras(params, sim, traffic))
    return out


for _kind in _KINDS:
    register_runner(_kind)(functools.partial(_run_trial, _kind))


# ----------------------------------------------------------------------
# Structure view + the benchmark's group wrapper
# ----------------------------------------------------------------------
def structural_params(
    spec: TrialSpec,
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """The (topology spec, config dict) pair shaping *spec*'s structure.

    Returns None for specs without the standard ``topology``/``config``
    params (e.g. ``batch.lockstep`` wrappers). Used by the harness's
    compile-once warm start (:mod:`repro.harness.pool`).
    """
    params = spec.params
    topo = params.get("topology") if isinstance(params, Mapping) else None
    config = params.get("config") if isinstance(params, Mapping) else None
    if not isinstance(topo, Mapping) or not isinstance(config, Mapping):
        return None
    return dict(topo), dict(config)


def batch_payload(specs) -> "TrialSpec":
    """*specs* as one ``batch.lockstep`` trial: ``benchmarks/perf`` times
    a group through one :func:`execute_trial` call with it."""
    return TrialSpec(
        "batch.lockstep",
        {"trials": [[spec.runner, dict(spec.params)] for spec in specs]},
    )


@register_runner("batch.lockstep")
def _run_batch(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {"results": [execute_trial(TrialSpec(runner, member))
                        for runner, member in params["trials"]]}

