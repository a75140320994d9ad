"""Command-line interface for the DRAIN reproduction.

Subcommands:

- ``repro-drain list`` — the available experiments (paper artefacts);
- ``repro-drain experiment fig11`` — regenerate one artefact and print its
  rows (``--scale full`` for paper-like sweep sizes; ``--workers N`` fans
  the sweep out over worker processes, ``--no-cache`` disables the
  on-disk result cache, ``--out-dir DIR`` writes the rows and a JSON run
  manifest alongside them);
- ``repro-drain sweep`` — a generic parallel injection-rate sweep over
  schemes × seeds × rates on any topology;
- ``repro-drain run`` — a single simulation with explicit knobs;
- ``repro-drain faults`` — inject a seed-derived runtime fault schedule
  into one simulation and write the recovery curve (windowed throughput /
  latency / loss around each fault) as a JSON artefact;
- ``repro-drain drainpath`` — run the offline algorithm on a topology and
  print the resulting drain path / turn-table summary;
- ``repro-drain check`` — statically certify (or refute) a configuration's
  deadlock-freedom claim: drain-cycle coverage for the DRAIN scheme,
  dependency-graph acyclicity for turn-restricted routing, and — with
  ``--flow-control pause_resume`` — the pause-augmented buffer-dependency
  graph of a lossless (PFC) fabric, including escape-VC pause exemptions
  and headroom feasibility. Exit 0 on ``CERTIFIED``, 1 on ``REFUTED``
  (with a concrete counterexample), 2 on bad input; ``--json`` emits the
  full certificate;
- ``repro-drain lint`` — run the determinism lint pass (DET001-DET012)
  over Python sources; exit 1 when findings exist;
- ``repro-drain cache`` — inspect (``info``, the default action) or
  ``clear`` the trial results and the compiled structures in the store
  (``--structs-only`` / ``--results-only`` to restrict).

Harness commands cache trial results and compiled structure (distances,
routing tables, drain cycles, certificates) in one content-addressed
store at the cache dir, amortizing compilation across trials, workers
and runs with bit-identical results; :func:`repro.store.cache_roots` is
the policy (``--no-cache`` / ``REPRO_NO_CACHE`` turn the result cache
off, ``REPRO_STRUCT_CACHE=<dir>|off`` relocates or disables the
structures).

The module is a thin dispatcher: at import it loads only ``argparse``,
:class:`~repro.core.config.Scheme` and :mod:`repro.store`, and each
subcommand imports what it uses — ``list`` and ``--help`` import no
experiment, and a sweep served from the cache never loads the simulator.

``repro-drain run``/``sweep`` accept ``--profile`` to wrap the work in
``cProfile`` and write ``.prof`` + top-25 cumulative text next to the run
artefacts.

Topology specifiers: ``mesh:WxH``, ``torus:WxH``, ``ring:N``,
``smallworld:N+S``, ``randomregular:NdD``, ``chiplet:CxWxH``,
``leafspine:LxS[uU][ew]`` (L leaves, S spines, optional U uplinks per
leaf and an east-west leaf ring), ``fattree:K[uU]``; append ``--faults
K`` to remove K random links (connectivity preserved).
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from .core.config import FLOW_CONTROL_MODES, PfcConfig, Scheme
from .store import Store, cache_roots

if TYPE_CHECKING:
    from .harness import Harness
    from .topology.graph import Topology

__all__ = ["main", "parse_topology", "EXPERIMENTS"]

#: Experiment name -> ``"module:function"`` in :mod:`repro.experiments`.
#: ``list`` and ``--help`` read the names only; ``experiment NAME``
#: imports the one module it runs.
EXPERIMENTS: Dict[str, str] = {
    "table1": "table1_comparison:run",
    "table2": "table2_parameters:run",
    "fig1-fig2": "fig1_fig2_scenarios:run",
    "fig3": "fig3_deadlock_likelihood:run",
    "fig4": "fig4_vnet_power:run",
    "fig5": "fig5_updown_gap:run",
    "fig9": "fig9_area_power:run",
    "fig9-moesi": "fig9_area_power:moesi_comparison",
    "fig10": "fig10_throughput:run",
    "fig11": "fig11_latency:run",
    "fig12": "fig12_ligra:run",
    "fig13": "fig13_parsec:run",
    "fig14": "fig14_epoch:run",
    "fig15": "fig15_tail:run",
    "section6": "heterogeneous:run",
    "fault-recovery": "fault_recovery:run",
    "lifetime": "lifetime:run",
    "lossless-pfc": "lossless_pfc:run",
    "path-quality": "path_quality:run",
    "sensitivity": "sensitivity:run",
}

#: Experiments whose run() takes no Scale argument (analytical tables).
_SCALELESS = {"table1", "table2", "fig9", "fig9-moesi"}


def parse_topology(spec: str, faults: int = 0, seed: int = 1) -> Topology:
    """Build a topology from a CLI specifier string."""
    from .topology.chiplet import make_chiplet_system
    from .topology.datacenter import make_fat_tree, make_leaf_spine
    from .topology.irregular import inject_link_faults
    from .topology.mesh import make_mesh, make_ring, make_torus
    from .topology.randomized import make_random_regular, make_small_world

    kind, _, arg = spec.partition(":")
    rng = random.Random(seed)
    if kind == "mesh" or kind == "torus":
        try:
            w, h = (int(v) for v in arg.split("x"))
        except ValueError:
            raise ValueError(f"bad {kind} spec {spec!r}; expected {kind}:WxH")
        topo = make_mesh(w, h) if kind == "mesh" else make_torus(w, h)
    elif kind == "ring":
        topo = make_ring(int(arg))
    elif kind == "smallworld":
        try:
            n, s = (int(v) for v in arg.split("+"))
        except ValueError:
            raise ValueError(f"bad spec {spec!r}; expected smallworld:N+S")
        topo = make_small_world(n, s, rng)
    elif kind == "randomregular":
        try:
            n, d = (int(v) for v in arg.split("d"))
        except ValueError:
            raise ValueError(f"bad spec {spec!r}; expected randomregular:NdD")
        topo = make_random_regular(n, d, rng)
    elif kind == "chiplet":
        try:
            c, w, h = (int(v) for v in arg.split("x"))
        except ValueError:
            raise ValueError(f"bad spec {spec!r}; expected chiplet:CxWxH")
        topo = make_chiplet_system(w, h, num_chiplets=c).topology
    elif kind == "leafspine":
        text = arg
        east_west = text.endswith("ew")
        if east_west:
            text = text[:-2]
        text, _, utxt = text.partition("u")
        try:
            leaves, spines = (int(v) for v in text.split("x"))
            uplinks = int(utxt) if utxt else None
        except ValueError:
            raise ValueError(
                f"bad spec {spec!r}; expected leafspine:LxS[uU][ew]"
            )
        topo = make_leaf_spine(leaves, spines, uplinks=uplinks,
                               east_west=east_west)
    elif kind == "fattree":
        text, _, utxt = arg.partition("u")
        try:
            pods = int(text)
            uplinks = int(utxt) if utxt else None
        except ValueError:
            raise ValueError(f"bad spec {spec!r}; expected fattree:K[uU]")
        topo = make_fat_tree(pods, uplinks=uplinks)
    else:
        raise ValueError(
            f"unknown topology kind {kind!r}; see repro-drain --help"
        )
    if faults:
        topo = inject_link_faults(topo, faults, rng)
    return topo


def _mesh_width(spec: str) -> Optional[int]:
    """W of a ``mesh:WxH`` specifier (mesh-aware patterns), else None."""
    kind, _, arg = spec.partition(":")
    return int(arg.split("x")[0]) if kind == "mesh" else None


def _cmd_list(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def _scale(args: argparse.Namespace):
    """The ``--scale`` flag as a :class:`~repro.experiments.common.Scale`."""
    from .experiments.common import Scale

    return Scale.full() if args.scale == "full" else Scale.ci()


def _build_harness(args: argparse.Namespace) -> Harness:
    """Harness from the shared ``--workers/--no-cache/--cache-dir`` flags."""
    from . import structcache
    from .harness import Harness, ResultCache

    results, structs = cache_roots(args.cache_dir, args.no_cache, cli=True)
    if structs is None:
        structcache.deactivate()
    else:
        structcache.activate(structs)
    cache = ResultCache(results) if results is not None else None
    return Harness(workers=args.workers, cache=cache,
                   timeout=getattr(args, "timeout", None),
                   preflight=not getattr(args, "no_preflight", False))


def _write_artefact(
    name: str,
    rows: List[Dict],
    harness: Harness,
    scale,
    out_dir: str,
) -> None:
    """Persist rows as ``<name>.json`` plus ``<name>.manifest.json``."""
    from .harness import build_manifest, write_manifest

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(
        json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
    )
    manifest = build_manifest(name, harness, scale=scale)
    path = write_manifest(manifest, directory)
    print(f"wrote {directory / (name + '.json')} and {path}", file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from .experiments.common import format_table

    name = args.name
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: repro-drain list",
              file=sys.stderr)
        return 2
    module, _, function = EXPERIMENTS[name].partition(":")
    fn = getattr(importlib.import_module(f".experiments.{module}", __package__),
                 function)
    harness = _build_harness(args)
    scale = None
    if name in _SCALELESS:
        rows = fn()
    else:
        scale = _scale(args)
        kwargs = {"scale": scale}
        if "harness" in inspect.signature(fn).parameters:
            kwargs["harness"] = harness
        rows = fn(**kwargs)
    printable = [
        {k: v for k, v in row.items() if isinstance(v, (int, float, str, bool))}
        for row in rows
    ]
    columns = list(printable[0].keys()) if printable else []
    print(format_table(printable, columns=columns, title=name))
    if harness.records:
        executed = harness.trials_executed
        print(
            f"[harness] {len(harness.records)} trials "
            f"({harness.cache_hits} cached, {executed} executed, "
            f"{harness.simulated_seconds:.1f}s simulated, "
            f"workers={harness.workers})",
            file=sys.stderr,
        )
    if args.out_dir:
        _write_artefact(name, printable, harness, scale, args.out_dir)
    return 0


def _write_profile(profiler, name: str, directory: Optional[str]) -> None:
    """Dump ``<name>.prof`` plus a top-25 cumulative text summary."""
    import io
    import pstats

    target = Path(directory) if directory else Path.cwd()
    target.mkdir(parents=True, exist_ok=True)
    prof_path = target / f"{name}.prof"
    profiler.dump_stats(str(prof_path))
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(25)
    txt_path = target / f"{name}.profile.txt"
    txt_path.write_text(buf.getvalue())
    print(f"wrote {prof_path} and {txt_path}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Generic parallel sweep: schemes × seeds × rates on one topology."""
    from .experiments.common import format_table, synthetic_trial_for

    topo = parse_topology(args.topology, faults=args.faults, seed=args.seed)
    scale = _scale(args)
    try:
        schemes = [Scheme(s) for s in args.schemes.split(",") if s]
    except ValueError:
        known = ", ".join(s.value for s in Scheme)
        print(f"unknown scheme in --schemes {args.schemes!r}; known: {known}",
              file=sys.stderr)
        return 2
    try:
        rates = ([float(r) for r in args.rates.split(",")] if args.rates
                 else list(scale.sweep_rates))
    except ValueError:
        print(f"--rates must be comma-separated numbers, got {args.rates!r}",
              file=sys.stderr)
        return 2
    if args.profile:
        # Profiling across worker processes is meaningless; keep the
        # trials in-process so cProfile sees the simulator frames.
        args.workers = 1
    harness = _build_harness(args)

    specs = []
    keys = []
    for scheme in schemes:
        for seed in range(1, args.seeds + 1):
            for rate in rates:
                specs.append(
                    synthetic_trial_for(
                        topo, scheme, rate, scale,
                        pattern=args.pattern,
                        mesh_width=_mesh_width(args.topology), seed=seed,
                    )
                )
                keys.append((scheme, seed, rate))
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        results = harness.run(specs, label="sweep")
        profiler.disable()
        profile_name = f"sweep_{topo.name}_{args.pattern}".replace(":", "_")
        _write_profile(profiler, profile_name, args.out_dir)
    else:
        results = harness.run(specs, label="sweep")

    rows = [
        {
            "scheme": scheme.value,
            "seed": seed,
            "rate": rate,
            "throughput": res["throughput"],
            "latency": res["avg_latency"],
            "p99_latency": res["p99_latency"],
            "ejected": res["ejected"],
        }
        for (scheme, seed, rate), res in zip(keys, results)
    ]
    title = f"sweep {topo.name} {args.pattern}"
    columns = ["scheme", "seed", "rate", "throughput", "latency",
               "p99_latency", "ejected"]
    print(format_table(rows, columns=columns, title=title))
    print(
        f"[harness] {len(harness.records)} trials "
        f"({harness.cache_hits} cached, {harness.trials_executed} executed, "
        f"{harness.simulated_seconds:.1f}s simulated, "
        f"workers={harness.workers})",
        file=sys.stderr,
    )
    if args.out_dir:
        name = f"sweep_{topo.name}_{args.pattern}".replace(":", "_")
        _write_artefact(name, rows, harness, scale, args.out_dir)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.config import DrainConfig, NetworkConfig, SimConfig
    from .core.simulator import Simulation
    from .traffic.synthetic import SyntheticTraffic, pattern_by_name

    topo = parse_topology(args.topology, faults=args.faults, seed=args.seed)
    scheme = Scheme(args.scheme)
    num_vns = args.vns if args.vns else (1 if scheme is Scheme.DRAIN else 3)
    config = SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=num_vns, vcs_per_vn=args.vcs,
                              packet_size_flits=args.packet_flits),
        drain=DrainConfig(epoch=args.epoch),
        seed=args.seed,
        flow_control=args.flow_control,
        pfc=_pfc_config(args),
    )
    traffic = SyntheticTraffic(
        pattern_by_name(args.pattern, topo.num_nodes,
                        _mesh_width(args.topology)),
        args.rate,
        random.Random(args.seed),
    )
    sim = Simulation(topo, config, traffic,
                     halt_on_deadlock=args.halt_on_deadlock)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        stats = sim.run(args.cycles, warmup=args.warmup)
        profiler.disable()
        profile_name = f"run_{topo.name}_{scheme.value}".replace(":", "_")
        _write_profile(profiler, profile_name, None)
    else:
        stats = sim.run(args.cycles, warmup=args.warmup)
    if args.report:
        from .core.report import run_report

        print(run_report(sim))
        return 0
    print(f"topology:        {topo.name} ({topo.num_nodes} nodes)")
    print(f"scheme:          {scheme.value}  (VN={num_vns}, VC={args.vcs})")
    print(f"cycles:          {stats.cycles} (warmup {args.warmup})")
    print(f"packets:         {stats.packets_injected} injected, "
          f"{stats.packets_ejected} delivered")
    if stats.latency.count:
        print(f"avg latency:     {stats.avg_latency:.2f} cycles")
        print(f"p99 latency:     {stats.p99_latency:.2f} cycles")
    print(f"throughput:      {sim.throughput():.4f} packets/node/cycle")
    print(f"avg hops:        {stats.hops.mean:.2f}")
    print(f"misroutes:       {stats.misroutes}")
    print(f"drain windows:   {stats.drain_windows} "
          f"(full drains: {stats.full_drains})")
    print(f"deadlock events: {stats.deadlock_events}")
    if hasattr(sim.fabric, "pfc_summary"):
        pfc = sim.fabric.pfc_summary()
        print(f"pfc:             {pfc['pauses_asserted']} pauses, "
              f"{pfc['resumes']} resumes, {pfc['pause_stalls']} stalls")
    if sim.deadlocked:
        payload = sim.watchdog.cycle_payload
        if payload is not None:
            hop = " -> ".join(
                f"r{h['router']}" for h in payload["cycle"]
            )
            detail = (f"buffer-cycle of {payload['length']} slot(s) over "
                      f"routers {payload['routers']} ({hop})")
        else:
            detail = "no rotatable buffer cycle (ejection wedge)"
        print(f"error: deadlock detected at cycle {sim.fabric.cycle}: "
              f"{detail}", file=sys.stderr)
        return 2
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """One fault-injected run; prints and optionally writes the curve."""
    from .experiments.common import format_table, scheme_config
    from .faults.schedule import FaultSchedule
    from .harness import build_manifest, fault_recovery_trial, write_manifest

    topo = parse_topology(args.topology, seed=args.seed)
    scale = _scale(args)
    harness = _build_harness(args)
    cycles = args.cycles if args.cycles else scale.total_cycles * 2
    window = (cycles * 2 // 5, cycles * 3 // 5)
    schedule = FaultSchedule.generate(
        topo, args.num_faults, seed=args.seed, window=window,
        onset=args.onset, transient_fraction=args.transient_fraction,
        router_fraction=args.router_fraction,
    )
    config = scheme_config(Scheme.DRAIN, scale, seed=args.seed)
    rate = args.rate if args.rate is not None else scale.low_load_rate
    curve_window = max(50, scale.measure // 8)
    spec = fault_recovery_trial(
        topo, config, rate, cycles=cycles, warmup=scale.warmup,
        schedule=schedule, policy=args.policy, curve_window=curve_window,
        mesh_width=_mesh_width(args.topology),
    )
    (res,) = harness.run([spec], label="faults")
    faults = res["faults"]

    print(f"topology:        {topo.name} ({topo.num_nodes} nodes, "
          f"{topo.num_edges} bidirectional links)")
    print(f"schedule:        {len(schedule.events)} events "
          f"(seed {args.seed}, onset {args.onset}), policy {args.policy}")
    for event in schedule.events:
        life = (f"transient until {event.repair_cycle}" if event.transient
                else "permanent")
        print(f"  cycle {event.cycle:>6}: {event.kind} {event.target} "
              f"({life})")
    print(f"faults applied:  {faults['faults_applied']} "
          f"({faults['faults_revived']} revived)")
    print(f"packets lost:    {faults['packets_lost']} "
          f"({faults['packets_retransmitted']} retransmitted, "
          f"{faults['packets_unroutable']} unroutable)")
    print(f"drain recovery:  {faults['drain_recomputes']} recomputes; "
          f"{res.get('drain_covered_links', 0)} of {res['links_alive']} "
          f"surviving links covered by "
          f"{res.get('drain_cycles_installed', 0)} cycle(s)")
    print(f"unreachable:     {faults['unreachable_pairs']} node pairs")
    curve = faults["recovery_curve"]
    if curve:
        columns = ["cycle", "throughput", "avg_latency", "ejected", "lost",
                   "retransmitted", "in_network", "faults_active"]
        print(format_table(curve, columns=columns, title="recovery curve"))
    if args.out_dir:
        directory = Path(args.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        name = f"faults_{topo.name}_{args.policy}".replace(":", "_")
        payload = {
            "topology": topo.name,
            "policy": args.policy,
            "rate": rate,
            "schedule": schedule.as_dict(),
            "summary": {k: v for k, v in faults.items()
                        if k != "recovery_curve"},
            "curve": curve,
        }
        (directory / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        manifest = build_manifest(name, harness, scale=scale)
        path = write_manifest(manifest, directory)
        print(f"wrote {directory / (name + '.json')} and {path}",
              file=sys.stderr)
    return 0


def _cmd_drainpath(args: argparse.Namespace) -> int:
    from .drain.path import find_drain_path
    from .drain.turntable import build_turn_tables

    topo = parse_topology(args.topology, faults=args.faults, seed=args.seed)
    path = find_drain_path(topo, method=args.method)
    tables = build_turn_tables(path)
    print(f"topology:   {topo.name}")
    print(f"nodes:      {topo.num_nodes}")
    print(f"links:      {topo.num_edges} bidirectional "
          f"({2 * topo.num_edges} unidirectional)")
    print(f"drain path: {len(path)} links (method: {args.method})")
    print(f"turn-table entries: "
          f"{sum(len(t) for t in tables.values())} across "
          f"{len(tables)} routers")
    if args.show_path:
        print("path:", " -> ".join(str(link) for link in path.links))
    return 0


def _parse_flows(pairs: List[str]) -> Optional[List]:
    """``--flow SRC-DST`` strings to (src, dst) tuples, or None if empty."""
    if not pairs:
        return None
    flows = []
    for text in pairs:
        try:
            src, dst = (int(v) for v in text.split("-"))
        except ValueError:
            raise ValueError(f"bad --flow {text!r}; expected SRC-DST")
        flows.append((src, dst))
    return flows


def _pfc_config(args: argparse.Namespace) -> PfcConfig:
    """The ``--pfc-*`` flags of ``run`` and ``check``."""
    return PfcConfig(pause_threshold=args.pfc_threshold,
                     resume_threshold=args.pfc_resume,
                     headroom=args.pfc_headroom)


def _cmd_check(args: argparse.Namespace) -> int:
    """Statically certify or refute one configuration's deadlock claim."""
    from .analysis.certifier import certify_configuration, certify_drain_cover
    from .core.config import NetworkConfig, SimConfig
    from .drain.path import find_drain_path
    from .faults.schedule import FaultSchedule

    topo = parse_topology(args.topology, faults=args.faults, seed=args.seed)
    # The config refuses what `run` and preflight refuse (infeasible PFC
    # thresholds, a scheme the fabric does not model); main() turns its
    # ValueError into a one-line exit-2 error.
    config = SimConfig(
        scheme=Scheme(args.scheme),
        network=NetworkConfig(num_vns=args.vns, vcs_per_vn=args.vcs),
        pfc=_pfc_config(args),
        flow_control=args.flow_control,
    )
    schedule = None
    if args.schedule:
        data = json.loads(Path(args.schedule).read_text())
        schedule = FaultSchedule.from_dict(data)
    elif args.num_faults:
        schedule = FaultSchedule.generate(
            topo, args.num_faults, seed=args.seed,
            window=(0, 1000), onset="uniform",
        )
    cert = certify_configuration(
        topo, config, flows=_parse_flows(args.flow),
        routing=None if args.routing == "auto" else args.routing,
        schedule=schedule, method=args.method,
        max_circuits=args.max_circuits,
    )
    if args.omit_link:
        # Deliberate-breakage knob: build the drain cover over a weakened
        # topology, then certify it against the *real* one — the omitted
        # links surface as the uncovered-link counterexample.
        claim = cert.subject["claim"]
        if claim != "drain-coverage":
            raise ValueError(
                "--omit-link is a drain-cover breakage knob; it has no "
                f"meaning for the {claim} claim"
            )
        weakened = topo.copy()
        for pair in args.omit_link:
            a, b = (int(v) for v in pair.split("-"))
            weakened.remove_edge(a, b)
        cover = [find_drain_path(weakened, method=args.method)]
        cert = certify_drain_cover(
            topo, cover, subject_extra={"scheme": config.scheme.value,
                                        "omitted_links": sorted(args.omit_link)},
        )
    if args.json:
        print(cert.to_json())
    else:
        print(cert.summary())
    return 0 if cert.certified else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Determinism lint pass over Python sources (DET001-DET012)."""
    from .analysis.lint import lint_paths

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} determinism finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the trial results and compiled structures."""
    from .harness.cache import RESULTS
    from .structcache.memo import KINDS

    results, structs = cache_roots(args.cache_dir, cli=True)
    parts = []
    if not args.structs_only:
        parts.append(("results", results, (RESULTS,)))
    if not args.results_only:
        parts.append(("structs", structs, KINDS))
    for label, root, kinds in parts:
        if root is None:
            print(f"{label}: off")
            continue
        store = Store(root)
        if args.action == "clear":
            print(f"{label}: removed {store.clear(kinds)} entries from {root}")
            continue
        counts = store.counts(kinds)
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        size_mib = store.size_bytes(kinds) / (1024 * 1024)
        print(f"{label}: {sum(counts.values())} entries ({breakdown}) at "
              f"{root} [{size_mib:.1f} MiB]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .analysis.certificate import ROUTING_NAMES
    from .faults.schedule import FAULT_POLICIES, ONSET_DISTRIBUTIONS

    parser = argparse.ArgumentParser(
        prog="repro-drain",
        description="DRAIN (HPCA 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def add_harness_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $REPRO_WORKERS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk trial result cache")
        p.add_argument("--cache-dir", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-drain)")
        p.add_argument("--out-dir", default=None,
                       help="write rows JSON + run manifest to this directory "
                            "(e.g. benchmarks/results)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-trial wall-clock timeout in seconds; timed "
                            "out trials are retried on a fresh worker")
        p.add_argument("--no-preflight", action="store_true",
                       help="skip static pre-flight validation of trial "
                            "specs (repro-drain check run per config)")

    def add_flow_control_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--flow-control", choices=FLOW_CONTROL_MODES,
                       default="credit",
                       help="fabric flow control: credits (default), "
                            "lossless pause/resume (PFC) or flit-based "
                            "wormhole; check certifies pause_resume on the "
                            "pause-augmented buffer-dependency graph and "
                            "credit/wormhole on the channel-dependency graph")
        p.add_argument("--pfc-threshold", type=int, default=1,
                       help="PFC pause threshold: row occupancy asserting "
                            "XOFF (with pause_resume)")
        p.add_argument("--pfc-resume", type=int, default=0,
                       help="PFC resume threshold: row occupancy releasing "
                            "XON (with pause_resume)")
        p.add_argument("--pfc-headroom", type=int, default=1,
                       help="PFC headroom slots absorbing in-flight packets "
                            "after XOFF (with pause_resume)")

    p_exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    p_exp.add_argument("name")
    p_exp.add_argument("--scale", choices=("ci", "full"), default="ci")
    add_harness_flags(p_exp)

    p_sweep = sub.add_parser(
        "sweep", help="parallel injection sweep: schemes x seeds x rates"
    )
    p_sweep.add_argument("--topology", default="mesh:8x8")
    p_sweep.add_argument("--faults", type=int, default=0)
    p_sweep.add_argument("--seed", type=int, default=1,
                         help="seed for topology construction/faults")
    p_sweep.add_argument("--schemes", default="escape_vc,spin,drain",
                         help="comma-separated scheme names")
    p_sweep.add_argument("--pattern", default="uniform_random")
    p_sweep.add_argument("--rates", default="",
                         help="comma-separated injection rates "
                              "(default: the scale's sweep rates)")
    p_sweep.add_argument("--seeds", type=int, default=1,
                         help="number of seeds per (scheme, rate)")
    p_sweep.add_argument("--scale", choices=("ci", "full"), default="ci")
    p_sweep.add_argument("--profile", action="store_true",
                         help="wrap the sweep in cProfile (forces "
                              "--workers 1) and write .prof + top-25 "
                              "cumulative text next to the run artefacts")
    add_harness_flags(p_sweep)

    p_run = sub.add_parser("run", help="run a single simulation")
    p_run.add_argument("--topology", default="mesh:8x8")
    p_run.add_argument("--faults", type=int, default=0)
    p_run.add_argument("--scheme", default="drain",
                       choices=[s.value for s in Scheme])
    p_run.add_argument("--pattern", default="uniform_random")
    p_run.add_argument("--rate", type=float, default=0.05)
    p_run.add_argument("--cycles", type=int, default=5000)
    p_run.add_argument("--warmup", type=int, default=1000)
    p_run.add_argument("--vns", type=int, default=0,
                       help="virtual networks (0 = scheme default)")
    p_run.add_argument("--vcs", type=int, default=2)
    p_run.add_argument("--epoch", type=int, default=2048)
    p_run.add_argument("--seed", type=int, default=1)
    add_flow_control_flags(p_run)
    p_run.add_argument("--halt-on-deadlock", action="store_true",
                       help="stop at the first watchdog-confirmed deadlock "
                            "and exit 2 with the concrete buffer cycle")
    p_run.add_argument("--packet-flits", type=int, default=1,
                       help="packet length in flits: link serialisation on "
                            "credit/pause_resume, flits per packet on "
                            "wormhole")
    p_run.add_argument("--report", action="store_true",
                       help="print a full run report (gem5 stats.txt style)")
    p_run.add_argument("--profile", action="store_true",
                       help="wrap the run in cProfile and write .prof + "
                            "top-25 cumulative text in the cwd")

    p_faults = sub.add_parser(
        "faults", help="fault-injected run with online drain recovery"
    )
    p_faults.add_argument("--topology", default="mesh:4x4")
    p_faults.add_argument("--num-faults", type=int, default=1,
                          help="number of fault events to schedule")
    p_faults.add_argument("--policy", choices=FAULT_POLICIES,
                          default="drop_retransmit",
                          help="what happens to flits in flight on a dead "
                               "link")
    p_faults.add_argument("--onset", choices=ONSET_DISTRIBUTIONS,
                          default="uniform",
                          help="distribution of fault onset cycles")
    p_faults.add_argument("--transient-fraction", type=float, default=0.0,
                          help="fraction of faults that heal after a while")
    p_faults.add_argument("--router-fraction", type=float, default=0.0,
                          help="fraction of faults that kill a whole router")
    p_faults.add_argument("--rate", type=float, default=None,
                          help="injection rate (default: the scale's low "
                               "load rate)")
    p_faults.add_argument("--cycles", type=int, default=0,
                          help="total cycles (default: 2x the scale's run)")
    p_faults.add_argument("--seed", type=int, default=1)
    p_faults.add_argument("--scale", choices=("ci", "full"), default="ci")
    add_harness_flags(p_faults)

    p_path = sub.add_parser("drainpath", help="compute a drain path")
    p_path.add_argument("--topology", default="mesh:8x8")
    p_path.add_argument("--faults", type=int, default=0)
    p_path.add_argument("--seed", type=int, default=1)
    p_path.add_argument("--method", choices=("euler", "hawick-james"),
                        default="euler")
    p_path.add_argument("--show-path", action="store_true")

    p_check = sub.add_parser(
        "check", help="statically certify or refute a configuration"
    )
    p_check.add_argument("--topology", default="mesh:8x8")
    p_check.add_argument("--faults", type=int, default=0,
                         help="remove K random links before certification")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--scheme", default="drain",
                         choices=[s.value for s in Scheme])
    p_check.add_argument("--routing", default="auto",
                         choices=("auto",) + ROUTING_NAMES,
                         help="routing function to certify (auto = the "
                              "scheme's own static claim)")
    p_check.add_argument("--method", choices=("euler", "hawick-james"),
                         default="euler",
                         help="drain-cover construction engine")
    p_check.add_argument("--max-circuits", type=int, default=None,
                         help="hawick-james circuit budget")
    p_check.add_argument("--schedule", default=None,
                         help="JSON fault-schedule file; certification runs "
                              "over the post-fault survivor")
    p_check.add_argument("--num-faults", type=int, default=0,
                         help="generate a seed-derived schedule of K faults")
    p_check.add_argument("--omit-link", action="append", default=[],
                         metavar="A-B",
                         help="(drain) build the cover without this "
                              "bidirectional link, then certify against the "
                              "full topology — a deliberate-breakage demo; "
                              "repeatable")
    add_flow_control_flags(p_check)
    p_check.add_argument("--vcs", type=int, default=2,
                         help="VCs per VN — the PFC row depth "
                              "(with pause_resume)")
    p_check.add_argument("--vns", type=int, default=1,
                         help="virtual networks (with pause_resume)")
    p_check.add_argument("--flow", action="append", default=[],
                         metavar="SRC-DST",
                         help="restrict the pause BDG to this pinned flow; "
                              "repeatable (default: all-pairs)")
    p_check.add_argument("--json", action="store_true",
                         help="emit the full certificate as JSON")

    p_lint = sub.add_parser(
        "lint", help="determinism lint pass (DET001-DET012)"
    )
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the cached trial results and compiled "
             "structures",
    )
    p_cache.add_argument("action", nargs="?", choices=("info", "clear"),
                         default="info",
                         help="info (default): entry counts and sizes; "
                              "clear: delete entries")
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache location (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro-drain)")
    only = p_cache.add_mutually_exclusive_group()
    only.add_argument("--structs-only", action="store_true",
                      help="operate on the compiled structures only")
    only.add_argument("--results-only", action="store_true",
                      help="operate on the trial results only")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "run": _cmd_run,
        "faults": _cmd_faults,
        "drainpath": _cmd_drainpath,
        "check": _cmd_check,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Bad user input (malformed topology spec, unsatisfiable fault
        # schedule, invalid config value): one line, non-zero exit — not a
        # traceback.
        from .drain.path import DrainPathError

        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DrainPathError):
            # Structured payload: the offending link sets, deterministically
            # sorted, as machine-readable JSON on stderr.
            print(json.dumps(exc.as_dict(), sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
