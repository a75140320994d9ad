"""Child process of the benchmark: one fresh interpreter per operation.

``run.py`` launches this file with ``--mode``:

- ``unit``  — build the workload's simulation and run it once, timing the
  build and the run separately (untraced; feeds the end-to-end metrics);
- ``setup`` — build the simulation, run it to the first measured cycle
  (at least two, so lazily compiled engine rows exist) and exit; the
  parent times process start to exit;
- ``trace`` — the traced pass: per-layer timings, exact counters, spans
  and the mirror-drift guards.

The last line of standard output is one JSON object. A fresh process per
operation means no memo, certificate cache or allocator state carries
over from one repeat to the next.

``parts``/``build``/``summarise`` mirror the ``synthetic`` and ``lossless``
runners of :mod:`repro.harness.trials` split at the build/run boundary,
using public names only. The traced pass checks the mirror against
``execute_trial`` so it cannot drift silently.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
from collections import deque
from typing import Any, Dict, List, Tuple

import workloads
from tracing import Tracer, now_ns, seconds


# ----------------------------------------------------------------------
# The split runner
# ----------------------------------------------------------------------
def parts(spec) -> Tuple[Any, Any, Any, Dict[str, Any]]:
    """(topology, config, traffic, Simulation kwargs) of *spec*."""
    from repro.core.configio import config_from_dict
    from repro.harness import topology_from_spec
    from repro.traffic.flows import Flow, FlowTraffic
    from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name

    params = spec.params
    topology = topology_from_spec(params["topology"])
    config = config_from_dict(params["config"])
    rng = random.Random(params["traffic_seed"])
    if spec.runner == "synthetic":
        pattern = pattern_by_name(params["pattern"], topology.num_nodes,
                                  params.get("mesh_width"))
        return topology, config, SyntheticTraffic(pattern, params["rate"], rng), {}
    lossless = params["lossless"]
    if lossless.get("storm") is not None:
        raise ValueError("the benchmark's lossless mirror has no storm path")
    flows = [
        Flow(int(f[0]), int(f[1]), float(f[2]),
             packets=None if f[3] is None else int(f[3]))
        for f in lossless["flows"]
    ]
    kwargs = {
        "halt_on_deadlock": lossless.get("halt_on_deadlock", False),
        "degradation_ladder": lossless.get("degradation_ladder", False),
    }
    return topology, config, FlowTraffic(flows, rng), kwargs


def build(spec):
    from repro.core.simulator import Simulation

    topology, config, traffic, kwargs = parts(spec)
    return Simulation(topology, config, traffic, **kwargs)


def run_args(spec) -> Tuple[int, int]:
    params = spec.params
    return params["cycles"], params.get("warmup", 0)


def summarise(spec, sim) -> Dict[str, Any]:
    stats = sim.stats
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
        if sim.drain_controller is not None else 0
    )
    if spec.runner == "synthetic":
        out["rate"] = spec.params["rate"]
        out["ejected"] = stats.packets_ejected
        return out
    traffic = sim.traffic
    out["runtime"] = stats.cycles
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
    return out


def result_digest(result: Any) -> str:
    text = json.dumps(result, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def preflight(spec) -> str:
    """Verdict of the harness's static gate on *spec* ("" = no claim)."""
    from repro.analysis.preflight import validate_spec

    certificate = validate_spec(spec)
    return certificate.verdict if certificate is not None else ""


# ----------------------------------------------------------------------
# Untraced operations
# ----------------------------------------------------------------------
def unit(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    spec = workloads.trial_spec(name, seed, quick)
    cycles, warmup = run_args(spec)
    gc.collect()
    t0 = time.perf_counter()
    # The lossless sweep row goes through the harness gate first; the
    # mesh units are built exactly as the ``synthetic`` runner does.
    verdict = preflight(spec) if name == "lossless_1024" else ""
    sim = build(spec)
    t1 = time.perf_counter()
    # Untimed, so each timed phase starts with the collector in the same
    # state. Without it a full collection over the 1.1 M objects the
    # 1024-switch build leaves behind (~0.1 s, a tenth of the run phase)
    # lands inside ``sim.run`` on about half the seeds — wherever the
    # seed's allocation count happens to cross the threshold.
    gc.collect()
    t2 = time.perf_counter()
    sim.run(cycles, warmup=warmup)
    t3 = time.perf_counter()
    result = summarise(spec, sim)
    return {
        "build_s": t1 - t0, "run_s": t3 - t2, "wall_s": (t1 - t0) + (t3 - t2),
        "cycles": sim.stats.cycles,
        "digest": result_digest(result),
        "errors": workloads.invariant_errors(name, quick, result, verdict),
    }


def setup(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    """Everything up to the first measured cycle: at least two cycles, so
    lazily compiled engine rows exist, and the workload's warm-up."""
    spec = workloads.trial_spec(name, seed, quick)
    if name == "lossless_1024":
        preflight(spec)
    sim = build(spec)
    _, warmup = run_args(spec)
    sim.run(max(2, warmup))
    return {"cycles": sim.stats.cycles}


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def basket() -> None:
    """Fixed host-speed probe: interpreter loop, dict/deque churn, numpy
    gather. Diagnostic only — tells a slow host from slow code; never
    used to normalise another metric."""
    import numpy as np

    lcg = 12345
    for _ in range(300_000):
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
    table: Dict[int, int] = {}
    queue: deque = deque()
    for i in range(100_000):
        table[i & 1023] = i
        queue.append(i)
        if len(queue) > 64:
            queue.popleft()
    data = np.arange(200_000, dtype=np.int64)
    index = (data * 7919) % data.size
    for _ in range(40):
        data = data[index]


def trace_setup(tr: Tracer, spec, tmp: str) -> Dict[str, float]:
    """Cost each set-up stage of *spec* on its own, memos cleared."""
    from repro import structcache
    from repro.analysis.preflight import clear_preflight_cache, validate_spec
    from repro.core.configio import config_to_dict
    from repro.core.simulator import Simulation
    from repro.drain import find_drain_path
    from repro.harness import topology_from_spec
    from repro.network.index import FabricIndex
    from repro.routing.adaptive import AdaptiveMinimalRouting

    m: Dict[str, float] = {}
    with tr.span("topology.build") as s:
        topology = topology_from_spec(spec.params["topology"])
    m["topology.build_s"] = seconds(s)
    structcache.clear_memos()
    with tr.span("network.index") as s:
        index = FabricIndex(topology)
    m["network.index_s"] = seconds(s)
    with tr.span("routing.compile") as s:
        AdaptiveMinimalRouting(index).export_tables(index.num_nodes)
    m["routing.compile_s"] = seconds(s)
    with tr.span("drain.path") as s:
        find_drain_path(topology)
    m["drain.path_s"] = seconds(s)
    clear_preflight_cache()
    with tr.span("analysis.preflight") as s:
        validate_spec(spec)
    m["analysis.preflight_s"] = seconds(s)

    _, config, traffic, kwargs = parts(spec)
    with tr.span("structcache.digest") as s:
        structcache.structure_digest(
            structcache.topology_payload(topology), config_to_dict(config)
        )
    m["structcache.digest_s"] = seconds(s)
    store = structcache.activate(os.path.join(tmp, "structs"))
    try:
        structcache.clear_memos()
        with tr.span("structcache.cold_compile") as s:
            structcache.parts_for(topology, config)
        m["structcache.cold_compile_s"] = seconds(s)
        m["structcache.compiles"] = store.compiles
        structcache.clear_memos()
        with tr.span("structcache.warm_load") as s:
            structcache.parts_for(topology, config)
        m["structcache.warm_load_s"] = seconds(s)
        m["structcache.hits"] = store.stats()["hits"]
    finally:
        structcache.deactivate()
        structcache.clear_memos()

    with tr.span("core.sim_init") as s:
        sim = Simulation(topology, config, traffic, **kwargs)
    m["core.sim_init_s"] = seconds(s)
    # As measured: the stages above ran apart from the constructor, so on
    # a mesh, where each is a millisecond, the difference can dip below 0.
    m["core.sim_init_self_s"] = m["core.sim_init_s"] - (
        m["network.index_s"] + m["routing.compile_s"] + m["drain.path_s"]
    )
    with tr.span("network.first_step") as first:
        sim.step()
    with tr.span("network.steady_step") as steady:
        sim.step()
    m["network.first_step_s"] = seconds(first) - seconds(steady)
    return m


def hand_run(tr: Tracer, sim, cycles: int, warmup: int) -> Dict[str, float]:
    """``Simulation.run`` without fast-forward, driven by hand with a
    timer per phase.

    Phase order is ``Simulation.step``'s. Only the components the three
    in-process workloads wire are mirrored; anything else is refused so
    its time cannot be mis-attributed.
    """
    unmirrored = [
        n for n in ("fault_injector", "spin_controller", "bubble_controller",
                    "ideal_resolver", "watchdog")
        if getattr(sim, n) is not None
    ]
    if unmirrored or sim.halt_on_deadlock:
        raise ValueError(f"hand-driven loop does not mirror {unmirrored}")
    fabric, traffic = sim.fabric, sim.traffic
    phases = [("traffic.generate",
               lambda: traffic.generate(fabric, fabric.cycle))]
    if sim.degradation_ladder is not None:
        phases.append(("drain.ladder", sim.degradation_ladder.step))
    if sim.drain_controller is not None:
        phases.append(("drain.controller", sim.drain_controller.step))
    phases.append(("network.fabric_step", fabric.step))
    phases.append(("traffic.consume",
                   lambda: traffic.consume(fabric, fabric.cycle)))
    calls = [fn for _, fn in phases]
    busy = [0] * len(calls)

    fabric.measure_from = fabric.cycle + warmup
    end = fabric.cycle + cycles
    stepped = 0
    with tr.span("core.hand_loop") as loop:
        while fabric.cycle < end:
            prev = now_ns()
            for i, fn in enumerate(calls):
                fn()
                t = now_ns()
                busy[i] += t - prev
                prev = t
            stepped += 1
            if traffic.done():
                break
    sim.stats.measured_cycles = max(0, fabric.cycle - fabric.measure_from)
    by_name = {name: b for (name, _), b in zip(phases, busy)}
    tr.aggregate(loop, by_name, stepped)
    m = {name + "_s": b / 1e9 for name, b in by_name.items()}
    m["core.loop_self_s"] = seconds(loop) - sum(busy) / 1e9
    m["core.hand_loop_s"] = seconds(loop)
    return m


def trace_cycles(tr: Tracer, spec, checks: List[Dict[str, Any]]) -> Dict[str, float]:
    """Run the unit as is, with every cycle stepped, and hand-driven;
    guard the mirrors."""
    from repro.harness import execute_trial

    cycles, warmup = run_args(spec)
    m: Dict[str, float] = {}

    sim = build(spec)
    gc.collect()  # as the untraced unit does between build and run
    with tr.span("core.run") as s:
        sim.run(cycles, warmup=warmup)
    m["core.run_s"] = seconds(s)
    result = summarise(spec, sim)

    # ``Simulation(dense=True)`` would also swap in the dense-scan oracle
    # fabric (2.5-11x slower); the reference here is the same engine with
    # only the fast-forward off, which is what the hand-driven loop is.
    dense = build(spec)
    dense.dense = True
    gc.collect()
    with tr.span("core.dense_run") as s:
        dense.run(cycles, warmup=warmup)
    m["core.dense_run_s"] = seconds(s)
    dense_result = summarise(spec, dense)

    hand = build(spec)
    gc.collect()
    m.update(hand_run(tr, hand, cycles, warmup))
    hand_result = summarise(spec, hand)

    with tr.span("harness.execute_trial"):
        reference = execute_trial(spec)
    checks.append({"name": "mirror: build/run == execute_trial",
                   "ok": result == reference})
    checks.append({"name": "mirror: hand-driven loop == dense run",
                   "ok": hand_result == dense_result})
    checks.append({"name": "parity: fast-forward run == dense run",
                   "ok": result == dense_result})

    stats = sim.stats
    run_cycles = stats.cycles
    m["core.ff_speedup"] = m["core.dense_run_s"] / m["core.run_s"]
    m["core.ff_cycle_frac"] = sim.ff_cycles / run_cycles
    m["core.ff_spans"] = sim.ff_spans
    m["trace.overhead_frac"] = (
        (m.pop("core.hand_loop_s") - m["core.dense_run_s"]) / m["core.dense_run_s"]
    )
    m["network.flits_traversed"] = stats.flits_traversed
    m["network.moves_per_cycle"] = stats.flits_traversed / run_cycles
    m["network.packets_ejected"] = stats.packets_ejected
    m["network.vectorized_engaged"] = int(sim.fabric.engine_name == "vectorized")
    m["network.host_us_per_move"] = (
        m["network.fabric_step_s"] * 1e6 / max(1, stats.flits_traversed)
    )
    m["drain.windows"] = stats.drain_windows
    m["drain.drained_packets"] = stats.drained_packets
    pfc = sim.fabric.pfc_summary() if hasattr(sim.fabric, "pfc_summary") else {}
    m["network.pfc_pauses"] = pfc.get("pauses_asserted", 0)
    m["network.pfc_stalls"] = pfc.get("pause_stalls", 0)
    m["sim_throughput"] = result["throughput"]
    m["sim_latency"] = result["avg_latency"]
    return m


def sweep_specs(seed: int, quick: bool) -> list:
    """The trial specs ``repro-drain sweep`` plans for ``sweep_cli``."""
    from repro.core.config import Scheme
    from repro.experiments import common
    from repro.topology.mesh import make_mesh

    topology = make_mesh(8, 8)
    return [
        common.synthetic_trial_for(
            topology, Scheme(scheme), rate, common.Scale.ci(),
            pattern="uniform_random", mesh_width=8, seed=1,
        )
        for scheme in workloads.SWEEP["schemes"].split(",")
        for rate in workloads.sweep_rates(seed, quick)
    ]


def trace_harness(tr: Tracer, seed: int, quick: bool, tmp: str) -> Dict[str, float]:
    """Harness stages of ``sweep_cli`` costed in isolation."""
    from repro.core.config import Scheme
    from repro.experiments import common
    from repro.harness import (
        Harness, ResultCache, SweepJournal, execute_trial, synthetic_trial,
    )
    from repro.harness.trials import batch_payload
    from repro.topology.mesh import make_mesh

    m: Dict[str, float] = {}
    specs = sweep_specs(seed, quick)
    with tr.span("harness.spec_digest") as s:
        digests = [spec.digest() for spec in specs]
    m["harness.spec_digest_s"] = seconds(s)

    topology = make_mesh(8, 8)
    config = common.scheme_config(Scheme.DRAIN, common.Scale.ci(), seed=seed)
    tiny = [
        synthetic_trial(topology, config, rate, cycles=10, warmup=2,
                        pattern="uniform_random", mesh_width=8)
        for rate in (0.05, 0.06)
    ]
    with tr.span("harness.spawn") as s:
        results = Harness(workers=2, cache=None).run(tiny)
    m["harness.spawn_s"] = seconds(s)

    payloads = [
        {"spec": json.loads(spec.canonical()), "result": results[0],
         "elapsed": 0.1}
        for spec in specs
    ]
    cache = ResultCache(os.path.join(tmp, "cache"))
    with tr.span("harness.cache_put") as s:
        for digest, payload in zip(digests, payloads):
            cache.put(digest, payload)
    m["harness.cache_put_s"] = seconds(s)
    with tr.span("harness.cache_get") as s:
        for digest in digests:
            cache.get(digest)
    m["harness.cache_get_s"] = seconds(s)
    with SweepJournal(os.path.join(tmp, "journal.jsonl")) as journal:
        with tr.span("harness.journal_record") as s:
            for digest in digests:
                journal.record(digest, results[0], 0.1)
    m["harness.journal_record_s"] = seconds(s)

    # The 16-seed 80-cycle group of repro.bench.cases: the batched use of
    # the movement kernel beside the solo use (``--batch`` is off by
    # default, so this moves nothing end to end today).
    group = [
        common.synthetic_trial_for(
            topology, Scheme.DRAIN, 0.02, common.Scale(warmup=16, measure=64),
            pattern="uniform_random", mesh_width=8, seed=member,
        )
        for member in range(1, (4 if quick else 16) + 1)
    ]
    with tr.span("network.batch_solo") as solo:
        for spec in group:
            execute_trial(spec)
    with tr.span("network.batch_lockstep") as batched:
        execute_trial(batch_payload(group))
    m["network.batched_speedup"] = seconds(solo) / seconds(batched)
    return m


def trace(name: str, seed: int, quick: bool, tmp: str) -> Dict[str, Any]:
    import numpy  # noqa: F401 - so the basket times work, not an import

    tr = Tracer(name)
    checks: List[Dict[str, Any]] = []
    with tr.span("host.basket") as s:
        basket()
    metrics: Dict[str, float] = {"host.basket_s": seconds(s)}
    spec = workloads.trial_spec(name, seed, quick)
    metrics.update(trace_setup(tr, spec, tmp))
    if name == "sweep_cli":
        metrics.update(trace_harness(tr, seed, quick, tmp))
    else:
        metrics.update(trace_cycles(tr, spec, checks))
    return {"metrics": metrics, "spans": tr.spans, "checks": checks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("unit", "setup", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--tmp", default="")
    args = parser.parse_args()
    quick = bool(args.quick)
    if args.mode == "unit":
        out = unit(args.workload, args.seed, quick)
    elif args.mode == "setup":
        out = setup(args.workload, args.seed, quick)
    else:
        out = trace(args.workload, args.seed, quick, args.tmp)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
