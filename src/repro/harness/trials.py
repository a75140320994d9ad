"""Trial specifications: declarative, picklable, digestible units of work.

The parallel harness (:mod:`repro.harness.pool`) must ship work to
``multiprocessing`` workers and memoize finished work on disk. Both needs
rule out closures over live simulator objects; instead a trial is a plain
:class:`TrialSpec` — a runner name registered in :data:`RUNNERS` plus a
JSON-able parameter mapping. The canonical JSON encoding of a spec doubles
as its cache identity (see :meth:`TrialSpec.digest`).

Five runners cover every sweep in the experiment suite:

- ``synthetic`` — open-loop synthetic traffic (Figures 10/11/14, the
  injection-rate sweeps, the VC/packet-size sensitivity studies);
- ``workload`` — a surrogate application profile run to completion or to a
  deadlock verdict (Figures 3/12/13/15);
- ``coherence`` — raw coherence-protocol traffic with explicit knobs (the
  ejection-depth and MSHR sensitivity studies);
- ``fault_recovery`` — synthetic traffic under a runtime
  :class:`~repro.faults.schedule.FaultSchedule`, returning the injector's
  degradation/recovery metrics alongside the usual summary. Fault
  parameters live under their own ``faults`` params key, so fault-free
  trial digests are untouched by the fault subsystem's existence;
- ``lossless`` — flow-level traffic on a pause/resume (PFC) fabric,
  optionally under a pause storm and the degradation ladder.

Every runner reconstructs its full simulation from the parameters alone,
so a trial executes identically inline, in a worker process, or replayed
from a cold start — the determinism suite pins this. What trials over
one topology have in common (distances, numbering, routing tables, the
drain cycle, ESCAPE_VC's merged engine table) is compiled once per
process and shared
read-only (:mod:`repro.structcache`); no runner knows about it, and a
trial's row is the same first or Nth in a process. ``batch.lockstep``
is a sixth, wrapper runner — a list of trials executed in order — kept
for ``benchmarks/perf``.
"""

from __future__ import annotations

import dataclasses
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
# Builders + runners
# ----------------------------------------------------------------------
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
    return TrialSpec(
        "synthetic",
        {
            "topology": topology_to_spec(topology),
            "config": config_to_dict(config),
            "pattern": pattern,
            "rate": rate,
            "mesh_width": mesh_width,
            "traffic_seed": traffic_seed,
            "cycles": cycles,
            "warmup": warmup,
        },
    )


@register_runner("synthetic")
@register_runner("fault_recovery")
def _run_synthetic(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..core.simulator import Simulation
    from ..traffic.synthetic import SyntheticTraffic, pattern_by_name

    topology = topology_from_spec(params["topology"])
    traffic = SyntheticTraffic(
        pattern_by_name(params["pattern"], topology.num_nodes,
                        params.get("mesh_width")),
        params["rate"],
        random.Random(params["traffic_seed"]),
    )
    kwargs: Dict[str, Any] = {}
    faults = params.get("faults")
    if faults is not None:
        from ..faults.schedule import FaultSchedule

        kwargs = {
            "fault_schedule": FaultSchedule.from_dict(faults["schedule"]),
            "fault_policy": faults.get("policy", "drop_retransmit"),
            "fault_curve_window": faults.get("curve_window", 200),
            "fault_max_circuits": faults.get("max_circuits", 512),
        }
    sim = Simulation(topology, config_from_dict(params["config"]), traffic,
                     **kwargs)
    sim.run(params["cycles"], warmup=params["warmup"])
    out = _summarise(sim)
    out["rate"] = params["rate"]
    out["ejected"] = sim.stats.packets_ejected
    if sim.fault_injector is not None:
        out["faults"] = sim.fault_injector.summary()
        if sim.drain_controller is not None:
            out["drain_covered_links"] = sim.drain_controller.total_path_length()
            out["drain_cycles_installed"] = len(sim.drain_controller.paths)
        out["links_alive"] = sim.index.num_links - len(sim.index.dead_links)
    return out


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
    return TrialSpec(
        "workload",
        {
            "topology": topology_to_spec(topology),
            "config": config_to_dict(config),
            "workload": dataclasses.asdict(workload),
            "max_cycles": max_cycles,
            "total_transactions": total_transactions,
            "mesh_width": mesh_width,
            "intensity_scale": intensity_scale,
            "halt_on_deadlock": halt_on_deadlock,
            "traffic_seed": traffic_seed,
        },
    )


@register_runner("workload")
def _run_workload(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..core.simulator import Simulation
    from ..traffic.workloads import WorkloadProfile, make_workload_traffic

    topology = topology_from_spec(params["topology"])
    config = config_from_dict(params["config"])
    workload = WorkloadProfile(**params["workload"])
    traffic = make_workload_traffic(
        workload,
        topology.num_nodes,
        random.Random(params["traffic_seed"]),
        protocol=config.protocol,
        total_transactions=params.get("total_transactions"),
        mesh_width=params.get("mesh_width"),
        intensity_scale=params.get("intensity_scale", 1.0),
    )
    sim = Simulation(
        topology, config, traffic,
        halt_on_deadlock=params.get("halt_on_deadlock", False),
    )
    sim.run(params["max_cycles"])
    out = _summarise(sim)
    out["workload"] = workload.name
    out["runtime"] = sim.stats.cycles
    out["completed"] = traffic.completed
    out["finished"] = traffic.done()
    out["deadlocked"] = sim.deadlocked
    return out


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
    return TrialSpec(
        "coherence",
        {
            "topology": topology_to_spec(topology),
            "config": config_to_dict(config),
            "issue_probability": issue_probability,
            "max_cycles": max_cycles,
            "total_transactions": total_transactions,
            "locality": locality,
            "mesh_width": mesh_width,
            "traffic_seed": traffic_seed,
        },
    )


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
    if traffic_seed is None:
        traffic_seed = derive_seed(config.seed, "traffic", pattern, rate)
    schedule_dict = (
        schedule if isinstance(schedule, Mapping) else schedule.as_dict()
    )
    return TrialSpec(
        "fault_recovery",
        {
            "topology": topology_to_spec(topology),
            "config": config_to_dict(config),
            "pattern": pattern,
            "rate": rate,
            "mesh_width": mesh_width,
            "traffic_seed": traffic_seed,
            "cycles": cycles,
            "warmup": warmup,
            "faults": {
                "schedule": schedule_dict,
                "policy": policy,
                "curve_window": curve_window,
                "max_circuits": max_circuits,
            },
        },
    )


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
    storm_dict = None
    if storm is not None:
        storm_dict = storm if isinstance(storm, Mapping) else storm.as_dict()
    return TrialSpec(
        "lossless",
        {
            "topology": topology_to_spec(topology),
            "config": config_to_dict(config),
            "cycles": cycles,
            "traffic_seed": traffic_seed,
            "lossless": {
                "flows": flow_lists,
                "storm": storm_dict,
                "degradation_ladder": degradation_ladder,
                "halt_on_deadlock": halt_on_deadlock,
            },
        },
    )


@register_runner("lossless")
def _run_lossless(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..core.simulator import Simulation
    from ..faults.storm import PauseStormSchedule
    from ..traffic.flows import Flow, FlowTraffic

    topology = topology_from_spec(params["topology"])
    config = config_from_dict(params["config"])
    lossless = params["lossless"]
    flows = [
        Flow(int(f[0]), int(f[1]), float(f[2]),
             packets=None if f[3] is None else int(f[3]))
        for f in lossless["flows"]
    ]
    traffic = FlowTraffic(flows, random.Random(params["traffic_seed"]))
    storm = None
    if lossless.get("storm") is not None:
        storm = PauseStormSchedule.from_dict(lossless["storm"])
    sim = Simulation(
        topology, config, traffic,
        halt_on_deadlock=lossless.get("halt_on_deadlock", False),
        pause_storm=storm,
        degradation_ladder=lossless.get("degradation_ladder", False),
    )
    sim.run(params["cycles"])
    out = _summarise(sim)
    out["runtime"] = sim.stats.cycles
    out["generated"] = traffic.generated
    out["delivered"] = traffic.delivered
    out["recovery_ratio"] = (
        traffic.delivered / traffic.generated if traffic.generated else 1.0
    )
    out["finished"] = traffic.done()
    out["deadlocked"] = sim.deadlocked
    out["deadlock_cycle"] = (
        sim.watchdog.cycle_payload if sim.watchdog is not None else None
    )
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


@register_runner("coherence")
def _run_coherence(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..core.simulator import Simulation
    from ..protocol.coherence import CoherenceTraffic

    topology = topology_from_spec(params["topology"])
    config = config_from_dict(params["config"])
    traffic = CoherenceTraffic(
        topology.num_nodes,
        config.protocol,
        params["issue_probability"],
        random.Random(params["traffic_seed"]),
        total_transactions=params.get("total_transactions"),
        locality=params.get("locality", 0.0),
        mesh_width=params.get("mesh_width"),
    )
    sim = Simulation(topology, config, traffic)
    sim.run(params["max_cycles"])
    out = _summarise(sim)
    out["runtime"] = sim.stats.cycles
    out["completed"] = traffic.completed
    out["finished"] = traffic.done()
    return out
