#!/usr/bin/env python3
"""Host-time benchmark of the ``repro`` package: four workloads, one command.

    python3 benchmarks/perf/run.py                      # all workloads, both passes
    python3 benchmarks/perf/run.py --workload mesh_low_load --seed 3 \
        --seconds 26 --trace 0                          # what the driver runs
    python3 benchmarks/perf/run.py --selfcheck          # A/B on one tree

One invocation with ``--workload`` measures one workload. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones (a separate pass: end-to-end numbers never come from a
traced run). The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

This process never imports ``repro``: every timed operation is a child
process (``worker.py`` or ``python -m repro.cli``) with a scrubbed
environment, a timeout, and caches, ``HOME`` and ``TMPDIR`` pointed into
a temporary directory under the output directory, which is removed on
exit. See README.md for the metric glossary and the noise protocol.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads
from tracing import Tracer, seconds as span_seconds, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = str(HERE / "worker.py")

#: A child that runs longer than this is killed and counted as a failed
#: operation. Units take ~2 s and the traced pass ~15 s on the reference
#: box; the driver's cap on one whole invocation is 180 s.
CHILD_TIMEOUT_S = 75.0
#: Below this many rounds min-of-N is not trusted; the window is extended.
MIN_ROUNDS = 3
#: Set-up launches (fresh interpreter, or warm CLI rerun) per round. Kept
#: to what costs ~0.5-1.5 s so timed units still fill most of the window;
#: the 0.2 s warm rerun is the shortest sample and so gets the most.
SETUPS_PER_ROUND = {"mesh_saturation": 2, "mesh_low_load": 2,
                    "lossless_1024": 1, "sweep_cli": 4}
SWEEP_ARTEFACT = "sweep_mesh-8x8_uniform_random"
#: A host probe this far above the usual one (the median of the probes
#: the last runs in this output directory measured at) means the box is
#: in a slow phase (README.md, "Noise protocol"): the untraced pass waits
#: for it to end before it measures.
SLOW_PHASE = 1.2
PROBE_HISTORY = 15
WAIT_STEP_S = 5.0
#: Waiting is paid from a budget kept beside the probe history. Every
#: untraced run adds WAIT_ACCRUAL_S to it and spends at most
#: WAIT_PER_RUN_S, so a series of N runs takes at most N x (run_seconds +
#: WAIT_ACCRUAL_S) whatever the box does, and one run stays under the
#: driver's 180 s.
WAIT_ACCRUAL_S = 7.0
WAIT_PER_RUN_S = 90.0


class Ops:
    """Operations attempted and failed; one timed unit or launch each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def child_env(tmp: str, struct_cache: str) -> Dict[str, str]:
    """Environment of every child: nothing inherited steers ``repro`` or
    the interpreter's start-up.

    Bytecode goes to ``pycache/`` beside *tmp* (the output directory,
    which outlives the invocation), whatever the caller's
    ``PYTHONDONTWRITEBYTECODE`` says: a launch that recompiles every
    module from source reads 40 % slower than one that does not, and
    which of the two a checkout gets must not depend on who ran it first.
    The first launch fills the cache; the minimum never picks it.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in (
               "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")}
    env.update(
        PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(Path(tmp).parent / "pycache"),
        REPRO_STRUCT_CACHE=struct_cache, HOME=tmp, TMPDIR=tmp,
    )
    return env


def launch(cmd: List[str], env: Dict[str, str], cwd: str,
           timeout: float = CHILD_TIMEOUT_S) -> Tuple[Optional[int], str, str, float]:
    """Run *cmd* to completion: (exit code or None on timeout, stdout,
    stderr, seconds from start to exit). The child leads its own process
    group so a timeout also stops the workers it forked."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        code: Optional[int] = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    return code, out, err, time.perf_counter() - start


def worker_cmd(mode: str, name: str, seed: int, quick: bool, tmp: str) -> List[str]:
    return [sys.executable, WORKER, "--mode", mode, "--workload", name,
            "--seed", str(seed), "--quick", str(int(quick)), "--tmp", tmp]


def run_worker(mode: str, name: str, seed: int, quick: bool, tmp: str
               ) -> Tuple[Optional[Dict[str, Any]], float, str]:
    """(worker's JSON or None, seconds start to exit, failure note)."""
    code, out, err, elapsed = launch(
        worker_cmd(mode, name, seed, quick, tmp), child_env(tmp, "off"), tmp
    )
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return None, elapsed, f"{name} {mode}: exit {code}: {err.strip()[-400:]}"
    return json.loads(lines[-1]), elapsed, ""


def digest_bytes(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Host gate: do not measure inside a slow phase of the box
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds a fixed chunk of interpreter work takes, fastest of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        lcg, table = 12345, {}
        for i in range(400_000):
            lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
            table[lcg & 1023] = i
        best = min(best, time.perf_counter() - start)
    return best


def wait_for_quiet_host(state_path: Path, probe=host_probe,
                        sleep=time.sleep) -> Dict[str, float]:
    """Probe the host; while it reads slow against the usual probe on
    record in *state_path*, and the wait budget lasts, sleep and probe
    again. Never normalises anything: it only chooses when to measure."""
    try:
        state = json.loads(state_path.read_text())
        history = [float(p) for p in state["probes"]]
        budget = float(state["wait_budget_s"])
    except (OSError, ValueError, KeyError, TypeError):
        history, budget = [], 0.0
    budget += WAIT_ACCRUAL_S
    allowed = min(budget, WAIT_PER_RUN_S)
    # The median, not the minimum: the fastest probe ever seen keeps
    # falling, and an ordinary moment soon reads slow against it. With
    # fewer than three probes on record nothing counts as slow yet.
    limit = (SLOW_PHASE * statistics.median(history)
             if len(history) >= 3 else math.inf)
    first = now = probe()
    waited = 0.0
    while now > limit and waited + WAIT_STEP_S <= allowed:
        sleep(WAIT_STEP_S)
        waited += WAIT_STEP_S
        now = probe()
    state_path.write_text(json.dumps({
        "probes": (history + [now])[-PROBE_HISTORY:],
        "wait_budget_s": budget - waited,
    }) + "\n")
    if waited:
        print(f"host gate: probe {first:.4f} s is over {limit:.4f} s; "
              f"waited {waited:.0f} s, now {now:.4f} s", file=sys.stderr)
    return {"first_probe_s": first, "probe_s": now, "waited_s": waited}


# ----------------------------------------------------------------------
# sweep_cli: the CLI as a subprocess, cold then warm
# ----------------------------------------------------------------------
def sweep_round(seed: int, quick: bool, tmp: str, warm_runs: int,
                ops: Ops) -> Optional[Dict[str, Any]]:
    """One cold run on a fresh cache plus *warm_runs* reruns on it.

    The warm reruns are recorded as operations here; the cold run's
    verdict is left to the caller, which also checks its digest.
    """
    work = tempfile.mkdtemp(prefix="sweep-", dir=tmp)
    cache = os.path.join(work, "c")
    env = child_env(tmp, os.path.join(cache, "structs"))
    trials = workloads.sweep_trials(quick)

    def cli(out_dir: str) -> Tuple[str, float, bytes, Dict[str, Any]]:
        argv = workloads.sweep_argv(seed, quick, cache, out_dir)
        code, _, err, elapsed = launch(
            [sys.executable, "-m", "repro.cli"] + argv, env, work
        )
        if code != 0:
            return f"exit {code}: {err.strip()[-400:]}", elapsed, b"", {}
        rows = Path(out_dir, SWEEP_ARTEFACT + ".json").read_bytes()
        manifest = json.loads(
            Path(out_dir, SWEEP_ARTEFACT + ".manifest.json").read_text()
        )
        return "", elapsed, rows, manifest

    try:
        error, cold_s, cold_rows, cold = cli(os.path.join(work, "cold"))
        if error:
            ops.record(False, f"sweep_cli cold: {error}")
            return None
        errors = []
        if cold["cache_misses"] != trials or cold["cache_hits"] != 0:
            errors.append(f"cold run: {cold['cache_misses']} misses")
        warm_s = []
        warm: Dict[str, Any] = {}
        for _ in range(warm_runs):
            error, elapsed, warm_rows, warm = cli(os.path.join(work, "warm"))
            if not error and warm_rows != cold_rows:
                error = "warm rows differ from cold rows"
            elif not error and warm["cache_hits"] != trials:
                error = f"{warm['cache_hits']} cache hits, expected {trials}"
            elif not error and (warm["struct_cache"] or {}).get("compiles") != 0:
                error = "warm run compiled structures"
            if not ops.record(not error, f"sweep_cli warm: {error}"):
                break
            warm_s.append(elapsed)
        return {"wall_s": cold_s, "run_s": cold_s, "setup_s": warm_s,
                "cycles": trials * workloads.SWEEP["cycles_per_trial"],
                "digest": digest_bytes(cold_rows), "errors": errors,
                "rows": json.loads(cold_rows), "cold": cold, "warm": warm}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, budget_s: float, quick: bool, tmp: str,
            expected: Optional[str], ops: Ops) -> Dict[str, Any]:
    """Alternate timed units and set-up launches until *budget_s* is used.

    Unit and set-up samples interleave so both are spread over the whole
    window: a neighbour's burst on the shared box cannot cover every
    sample of either. Returns the raw samples.
    """
    samples: Dict[str, List[float]] = {"wall_s": [], "run_s": [], "setup_s": []}
    digests: List[str] = []
    cycles = 0
    setups = 1 if quick else SETUPS_PER_ROUND[name]
    start = time.perf_counter()
    rounds = 0
    while True:
        failed_before = ops.failed
        if name == "sweep_cli":
            out, note = sweep_round(seed, quick, tmp, setups, ops), ""
        else:
            out, _, note = run_worker("unit", name, seed, quick, tmp)
        if out is None:
            if note:
                ops.record(False, note)
            break
        # One operation per timed unit: it fails on an invariant, or on a
        # result that differs from the pinned digest or an earlier repeat.
        want = expected or (digests[0] if digests else out["digest"])
        if out["digest"] != want:
            out["errors"].append(f"result digest {out['digest']} != {want}")
        digests.append(out["digest"])
        ops.record(not out["errors"], f"{name} unit: {out['errors']}")
        if name != "sweep_cli":
            out["setup_s"] = []
            for _ in range(setups):
                done, elapsed, note = run_worker("setup", name, seed, quick, tmp)
                if not ops.record(done is not None, note):
                    break
                out["setup_s"].append(elapsed)
        samples["wall_s"].append(out["wall_s"])
        samples["run_s"].append(out["run_s"])
        samples["setup_s"].extend(out["setup_s"])
        cycles = out["cycles"]
        rounds += 1
        elapsed = time.perf_counter() - start
        # A failed operation ends the window: the run is reported as
        # incorrect either way, and a child that hangs costs one timeout,
        # not one per round.
        if quick or ops.failed > failed_before or (
                rounds >= MIN_ROUNDS
                and elapsed + elapsed / rounds > budget_s):
            break
    return {"samples": samples, "cycles": cycles, "rounds": rounds,
            "digests": sorted(set(digests)),
            "measured_s": time.perf_counter() - start}


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    """Headline values: the minimum over the run's samples (noise on a
    deterministic simulator is additive; README.md has the evidence)."""
    s = run["samples"]
    if not all(s.values()):
        return {}  # a metric without one good sample: reported as missing
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": min(s["wall_s"]),
        "setup_s": min(s["setup_s"]),
        "cycles_per_s": run["cycles"] / min(s["run_s"]),
        # Linux reports ru_maxrss in KiB; the high-water mark over every
        # child of this invocation, which runs exactly one workload.
        "peak_rss_mb": children.ru_maxrss / 1024.0,
    }


def spread(values: List[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"n": len(values), "samples": values}
    if values:
        out.update(min=min(values), median=statistics.median(values))
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["iqr"] = q[2] - q[0]
    return out


# ----------------------------------------------------------------------
# Traced pass: per-layer metrics and spans
# ----------------------------------------------------------------------
def traced(name: str, seed: int, quick: bool, tmp: str, ops: Ops
           ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    tr = Tracer(name)
    metrics: Dict[str, float] = {}
    env = child_env(tmp, "off")

    def fresh(label: str, cmd: List[str]) -> float:
        times = []
        for _ in range(3):
            with tr.span(label) as s:
                code, _, err, _ = launch(cmd, env, tmp)
            if not ops.record(code == 0,
                              f"{label}: exit {code}: {err.strip()[-400:]}"):
                break  # at most one timeout per label
            times.append(span_seconds(s))
        return min(times) if times else 0.0

    metrics["core.import_s"] = fresh(
        "core.import", [sys.executable, "-c", "import repro.core.simulator"])
    metrics["cli.startup_s"] = fresh(
        "cli.startup", [sys.executable, "-m", "repro.cli", "list"])

    with tr.span("trace.worker") as s:
        out, _, note = run_worker("trace", name, seed, quick, tmp)
    if ops.record(out is not None, note):
        metrics.update(out["metrics"])
        tr.adopt(out["spans"], s)
        for check in out["checks"]:
            ops.record(check["ok"], f"{name}: {check['name']}")

    if name == "sweep_cli":
        with tr.span("cli.sweep_cold_and_warm"):
            sweep = sweep_round(seed, quick, tmp, 1, ops)
        if sweep is not None:
            ops.record(not sweep["errors"], f"{name} cold: {sweep['errors']}")
            wall = sweep["wall_s"]
            cold, warm, rows = sweep["cold"], sweep["warm"], sweep["rows"]
            total = cold["total_trial_seconds"]
            workers = workloads.SWEEP["workers"]
            metrics.update({
                "harness.trial_seconds_sum": total,
                "harness.overhead_s": wall - total / workers,
                "harness.parallel_eff": total / (workers * wall),
                "harness.cache_misses": cold["cache_misses"],
                "harness.cache_hits": warm["cache_hits"],
                "structcache.compiles": cold["struct_cache"]["compiles"],
                "structcache.hits": warm["struct_cache"]["hits"],
                "sim_throughput": statistics.fmean(r["throughput"] for r in rows),
                "sim_latency": statistics.fmean(r["latency"] for r in rows),
            })
    return metrics, tr.spans


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned_digest(path: Path, name: str, seed: int, quick: bool) -> Optional[str]:
    """Pinned result digest, kept for the default seed only."""
    if seed != workloads.DEFAULT_SEED:
        return None
    pinned = json.loads(path.read_text())
    return pinned["quick" if quick else "full"][name]


def run_one(args: argparse.Namespace) -> int:
    contract = load_contract()
    name, seed, quick, trace = args.workload, args.seed, args.quick, bool(args.trace)
    out_dir = Path(args.out)
    ops = Ops()
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "comparable": not quick,
    }
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir) as tmp:
        if trace:
            values, spans = traced(name, seed, quick, tmp, ops)
            declared = contract["per_layer"]
            # A layer this workload does not drive reports 0: every
            # traced run prints every per-layer metric (README.md).
            values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
            own = self_times(spans)
            for span in spans:
                span["self"] = own[span["id"]]
            stem = f"{name}.seed{seed}"
            (out_dir / f"{stem}.trace.json").write_text(json.dumps(spans) + "\n")
        else:
            expected = pinned_digest(Path(args.expected), name, seed, quick)
            if not quick:
                detail["host_gate"] = wait_for_quiet_host(out_dir / "host.json")
            run = measure(name, seed, args.seconds, quick, tmp, expected, ops)
            declared = contract["end_to_end"]
            detail.update(
                rounds=run["rounds"], measured_s=run["measured_s"],
                digests=run["digests"],
                spread={k: spread(v) for k, v in run["samples"].items()},
            )
            values = end_to_end(run)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: {name}: no value for {missing}: {ops.notes}",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    detail.update(result, notes=ops.notes)
    kind = "trace" if trace else "e2e"
    (out_dir / f"{name}.seed{seed}.{kind}.detail.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    label = "traced" if trace else f"untraced, {detail['rounds']} rounds"
    print(f"workload {name} seed {seed} ({label}"
          f"{', QUICK: not comparable' if quick else ''})")
    for metric, entry in metrics.items():
        print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  operations: {ops.attempted} attempted, {ops.failed} failed")
    print(json.dumps(result))
    return 0


def sub_run(args: argparse.Namespace, name: str, trace: int
            ) -> Optional[Dict[str, Any]]:
    """One workload as its own invocation, exactly as the driver runs it
    (so ``peak_rss_mb`` stays a per-workload figure)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", args.out,
           "--expected", args.expected]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, text=True, stdout=subprocess.PIPE, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"FAILED: {name} --trace {trace}: exit {proc.returncode}",
              file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, passes: Tuple[int, ...]
            ) -> Dict[str, Dict[str, Any]]:
    """Every workload, the untraced pass and/or the traced one."""
    results: Dict[str, Dict[str, Any]] = {}
    for name in workloads.WORKLOADS:
        entry: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0}
        for trace in passes:
            result = sub_run(args, name, trace)
            if result is None:
                entry["correct"] = False
                continue
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        results[name] = entry
    return results


def run_all(args: argparse.Namespace) -> int:
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = run_set(args, passes)
    summary = {"seed": args.seed, "seconds": args.seconds,
               "comparable": not args.quick, "workloads": results}
    Path(args.out, "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, r in results.items()
            for block in ("end_to_end", "per_layer")
            for metric, entry in r.get(block, {}).items()
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def selfcheck(args: argparse.Namespace) -> int:
    """Run the untraced set twice on this tree and compare A with B."""
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    a = run_set(args, (0,))
    b = run_set(args, (0,))
    agree = True
    print(f"\n{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'|B-A|/A':>8} {'bound':>6}")
    for name in workloads.WORKLOADS:
        ok = a[name]["correct"] and b[name]["correct"]
        for metric, bound in bounds.items():
            va = a[name].get("end_to_end", {}).get(metric, {}).get("value")
            vb = b[name].get("end_to_end", {}).get(metric, {}).get("value")
            if va is None or vb is None:
                ok = False
                continue
            diff = abs(vb - va) / va
            within = diff <= bound
            ok = ok and within
            print(f"{name:<16} {metric:<14} {va:>12.5g} {vb:>12.5g} "
                  f"{diff:>8.2%} {bound:>6.0%}{'' if within else '  DISAGREE'}")
        agree = agree and ok
    print("selfcheck:", "A and B agree within every bound" if agree
          else "FAILED")
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four, both passes)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window of the untraced pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--quick", action="store_true",
                        help="one round of ~1/10-size units; for the tests "
                             "only, results are not comparable")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for detail files, spans and temp dirs")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="pinned result digests (default seed only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
