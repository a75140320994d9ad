"""Parallel trial execution with deterministic, order-stable results.

:class:`Harness` is the single entry point the experiment modules use to
run their sweeps. It takes a batch of :class:`~repro.harness.trials.
TrialSpec` objects and returns one result dict per spec **in submission
order**, regardless of how many worker processes executed them or in what
order they completed — so aggregation code downstream is bitwise
independent of the worker count, and ``workers=1`` output is the
reference that ``workers=N`` must (and does, see the determinism suite)
reproduce exactly.

Work distribution is a supervised worker pool rather than a fire-and-
forget ``Pool.map``: the parent owns one pipe per worker, dispatches one
trial at a time (trials are coarse — whole simulations — so per-trial
dispatch gives the best load balance), and watches both the pipes and the
clock. That supervision is what makes sweeps crash-proof:

- a worker that dies mid-trial (OOM kill, segfault in an extension,
  ``os._exit``) is detected by its pipe hitting EOF; the trial is
  requeued with a backoff and a fresh worker replaces the dead one,
  instead of the sweep hanging forever on a map() that cannot complete;
- a per-trial wall-clock ``timeout`` bounds runaway trials: the worker is
  terminated and the trial retried (``max_retries`` times, exponential
  ``retry_backoff``) before :class:`TrialTimeoutError` aborts the sweep;
- deterministic in-trial exceptions are **not** retried — they would
  recur — and surface immediately as :class:`TrialExecutionError`.

Each spec carries its own seeds (derived via :func:`repro.core.rng.
derive_seed`, stable across processes), so workers need no shared RNG
state, and retried trials return bit-identical results — wall-clock
timing never enters a result dict.

Two persistence layers can be attached. A :class:`~repro.harness.cache.
ResultCache` memoizes results globally by spec digest. A
:class:`~repro.harness.checkpoint.SweepJournal` checkpoints one sweep:
every finished trial is appended immediately, so an interrupted sweep
(SIGINT included) resumes from the journal and produces a byte-identical
merged artefact. Resolution order per trial: journal, then cache, then
execute. Fresh results are written back to both from the parent process
(single writer, no cross-process races).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.preflight import validate_specs
from ..store import cache_roots, digest as payload_digest
from .cache import ResultCache
from .checkpoint import SweepJournal
from .trials import TrialSpec, execute_trial

__all__ = [
    "Harness",
    "TrialRecord",
    "TrialExecutionError",
    "TrialTimeoutError",
    "run_trials",
    "get_default_harness",
    "set_default_harness",
]


class TrialExecutionError(RuntimeError):
    """A trial raised, or its worker kept dying, beyond recovery."""


class TrialTimeoutError(TrialExecutionError):
    """A trial exceeded the per-trial wall-clock timeout on every attempt."""


@dataclass
class TrialRecord:
    """Bookkeeping for one executed (or cache/journal-served) trial."""

    digest: str
    runner: str
    cached: bool
    elapsed: float  # seconds of simulation work (0 for definitionless hits)
    label: Optional[str] = None
    retries: int = 0  # crash/timeout requeues this trial needed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "runner": self.runner,
            "cached": self.cached,
            "elapsed": self.elapsed,
            "label": self.label,
            "retries": self.retries,
        }


def _execute_payload(payload: Tuple[str, Dict[str, Any]]) -> Tuple[Dict[str, Any], float]:
    """Inline execution: run one trial, return (result, wall seconds)."""
    spec = TrialSpec(payload[0], payload[1])
    start = time.perf_counter()
    result = execute_trial(spec)
    return result, time.perf_counter() - start


def _worker_main(conn, struct_root=None) -> None:
    """Worker loop: receive (task_id, runner, params), send back outcomes.

    A ``None`` message is the shutdown sentinel. Exceptions are stringified
    and shipped to the parent — the worker survives them; only crashes
    (which close the pipe) take a worker down.

    *struct_root* re-activates the parent's compiled-structure store in
    spawn-context workers (fork workers inherit the activation and the
    warm in-process memos directly); the parent warm-started every
    structure before dispatch, so workers only ever mmap-load artefacts.
    """
    if struct_root is not None:
        from .. import structcache

        structcache.activate(struct_root)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        task_id, runner, params = msg
        start = time.perf_counter()
        try:
            result = execute_trial(TrialSpec(runner, params))
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            try:
                conn.send(
                    (task_id, "error", f"{type(exc).__name__}: {exc}",
                     time.perf_counter() - start)
                )
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            conn.send((task_id, "ok", result, time.perf_counter() - start))
        except (BrokenPipeError, OSError):
            return


def _mp_context():
    # multiprocessing loads only when a trial is dispatched to a worker.
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork (Windows, some macOS setups)
        return multiprocessing.get_context("spawn")


class _WorkerHandle:
    """One supervised worker process and its parent-side pipe end."""

    __slots__ = ("proc", "conn", "task", "deadline")

    def __init__(self, ctx) -> None:
        from .. import structcache

        store = structcache.active_store()
        struct_root = str(store.root) if store is not None else None
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_conn, struct_root),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None

    def shutdown(self, kill: bool = False) -> None:
        try:
            if not kill and self.proc.is_alive():
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        if kill and self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class Harness:
    """Fan trial batches out over supervised workers, results in order."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        journal: Optional[SweepJournal] = None,
        preflight: bool = True,
    ) -> None:
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.journal = journal
        self.preflight = preflight
        self.records: List[TrialRecord] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries_performed = 0

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[TrialSpec],
        label: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Execute *specs*; return their results in submission order.

        Unless constructed with ``preflight=False``, every spec is first
        statically validated (:func:`repro.analysis.preflight.
        validate_specs`) so malformed sweeps fail before any worker spawns
        — a :class:`~repro.analysis.preflight.PreflightError` names the
        earliest offending spec and, for refuted configurations, carries
        the certifier's concrete counterexample.
        """
        specs = list(specs)
        if not specs:
            return []
        if self.preflight:
            validate_specs(specs)
        digests = [spec.digest() for spec in specs]
        results: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        records: List[Optional[TrialRecord]] = [None] * len(specs)

        pending: List[int] = []
        for i, (spec, digest) in enumerate(zip(specs, digests)):
            payload = self._lookup(digest)
            if payload is not None:
                self.cache_hits += 1
                results[i] = payload["result"]
                records[i] = TrialRecord(
                    digest, spec.runner, True, payload.get("elapsed", 0.0), label
                )
            else:
                self.cache_misses += 1
                pending.append(i)

        if pending:
            # The engine loads here, once, before any worker forks: each
            # worker inherits it. A run served entirely from the cache
            # never gets this far and never loads it.
            importlib.import_module("repro.core.simulator")
            self._warm_structures([specs[i] for i in pending])
            payloads = [
                (specs[i].runner, dict(specs[i].params)) for i in pending
            ]
            if self.workers == 1 and self.timeout is None:
                outcomes = [(*_execute_payload(p), 0) for p in payloads]
            else:
                outcomes = self._supervised_map(payloads)
            for i, (result, elapsed, retries) in zip(pending, outcomes):
                results[i] = result
                records[i] = TrialRecord(
                    digests[i], specs[i].runner, False, elapsed, label,
                    retries,
                )
                self._store(specs[i], digests[i], result, elapsed)

        self.records.extend(r for r in records if r is not None)
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _warm_structures(self, specs: Sequence[TrialSpec]) -> None:
        """Compile-once warm start for the structure store (no-op when off).

        With the store active, what each distinct (topology, scheme)
        among *specs* boots from is compiled or loaded exactly once here,
        in the parent, before any worker spawns — so N workers x M trials
        over one structure never compile it N x M times. Fork workers
        inherit the warm in-process memo; spawn workers re-activate the
        store and mmap-load the freshly-written artefacts.
        """
        from .. import structcache

        if structcache.active_store() is None:
            return
        from ..core.configio import config_from_dict
        from .trials import structural_params, topology_from_spec

        seen = set()
        for spec in specs:
            pair = structural_params(spec)
            if pair is None:
                continue
            topo_spec, config_dict = pair
            # The spec's topology is the digest's payload (one encoding).
            key = (payload_digest(topo_spec), config_dict.get("scheme"))
            if key in seen:
                continue
            seen.add(key)
            try:
                structcache.parts_for(
                    topology_from_spec(topo_spec),
                    config_from_dict(config_dict),
                )
            except (KeyError, TypeError, ValueError):
                # Malformed spec or structurally broken topology (e.g.
                # disconnected, with preflight off): the trial itself
                # reports it.
                continue

    # ------------------------------------------------------------------
    def _lookup(self, digest: str) -> Optional[Dict[str, Any]]:
        """Resolve a finished trial: journal first, then cache."""
        if self.journal is not None:
            payload = self.journal.get(digest)
            if payload is not None:
                return payload
        if self.cache is not None:
            payload = self.cache.get(digest)
            if payload is not None:
                return payload
        return None

    def _store(
        self, spec: TrialSpec, digest: str, result: Any, elapsed: float
    ) -> None:
        if self.journal is not None:
            self.journal.record(digest, result, elapsed)
        if self.cache is not None:
            self.cache.put(
                digest,
                {"spec": spec.identity, "result": result, "elapsed": elapsed},
            )

    # ------------------------------------------------------------------
    def _supervised_map(
        self,
        payloads: List[Tuple[str, Dict[str, Any]]],
    ) -> List[Tuple[Dict[str, Any], float, int]]:
        """Run *payloads* under supervision; (result, elapsed, retries) each."""
        from multiprocessing import connection as mp_connection

        ctx = _mp_context()
        total = len(payloads)
        results: List[Optional[Tuple[Dict[str, Any], float, int]]] = [None] * total
        attempts = [0] * total
        ready: deque = deque(range(total))
        delayed: List[Tuple[float, int]] = []  # (not-before monotonic, task)
        workers = [_WorkerHandle(ctx) for _ in range(min(self.workers, total))]
        completed = 0
        try:
            while completed < total:
                now = time.monotonic()
                if delayed:
                    still: List[Tuple[float, int]] = []
                    for not_before, task in sorted(delayed):
                        if not_before <= now:
                            ready.append(task)
                        else:
                            still.append((not_before, task))
                    delayed = still

                for worker in workers:
                    if worker.task is None and ready:
                        task = ready.popleft()
                        try:
                            worker.conn.send(
                                (task, payloads[task][0], payloads[task][1])
                            )
                        except (BrokenPipeError, OSError):
                            # Died while idle: replace it, task goes back.
                            ready.appendleft(task)
                            self._replace(workers, worker, ctx)
                            continue
                        worker.task = task
                        worker.deadline = (
                            now + self.timeout if self.timeout else None
                        )

                busy = [w for w in workers if w.task is not None]
                if not busy:
                    if ready or delayed:
                        # Nothing running yet (e.g. all sends hit dead
                        # workers, or everything is backing off): wait out
                        # the shortest delay and loop.
                        wake = min((nb for nb, _ in delayed), default=now)
                        time.sleep(max(0.0, min(wake - now, 0.05)) or 0.001)
                        continue
                    raise TrialExecutionError(
                        f"supervised pool wedged: {completed}/{total} trials "
                        "done but nothing queued or running"
                    )

                wake_times = [w.deadline for w in busy if w.deadline is not None]
                wake_times.extend(nb for nb, _ in delayed)
                wait_for = (
                    max(0.0, min(wake_times) - time.monotonic())
                    if wake_times else None
                )
                ready_conns = mp_connection.wait(
                    [w.conn for w in busy], timeout=wait_for
                )

                for conn in ready_conns:
                    worker = next(w for w in workers if w.conn is conn)
                    task = worker.task
                    try:
                        task_id, status, payload, elapsed = conn.recv()
                    except (EOFError, OSError):
                        # Crash mid-trial: requeue with backoff.
                        self._replace(workers, worker, ctx)
                        self._requeue(
                            task, attempts, delayed, payloads,
                            reason="worker crashed",
                        )
                        continue
                    worker.task = None
                    worker.deadline = None
                    if status == "ok":
                        results[task_id] = (payload, elapsed, attempts[task_id])
                        completed += 1
                    else:
                        raise TrialExecutionError(
                            f"trial {task_id} "
                            f"({payloads[task_id][0]}) raised: {payload}"
                        )

                if self.timeout is not None:
                    now = time.monotonic()
                    for worker in workers:
                        if (
                            worker.task is not None
                            and worker.deadline is not None
                            and now >= worker.deadline
                        ):
                            task = worker.task
                            worker.shutdown(kill=True)
                            self._replace(workers, worker, ctx, respawn_only=True)
                            self._requeue(
                                task, attempts, delayed, payloads,
                                reason=f"timed out after {self.timeout:g}s",
                                timed_out=True,
                            )
        finally:
            for worker in workers:
                worker.shutdown(kill=True)
        return [r for r in results if r is not None]

    def _replace(
        self, workers: List[_WorkerHandle], worker: _WorkerHandle, ctx,
        respawn_only: bool = False,
    ) -> None:
        """Swap a dead/killed worker for a fresh one, in place."""
        if not respawn_only:
            worker.shutdown(kill=True)
        workers[workers.index(worker)] = _WorkerHandle(ctx)

    def _requeue(
        self,
        task: int,
        attempts: List[int],
        delayed: List[Tuple[float, int]],
        payloads: List[Tuple[str, Dict[str, Any]]],
        reason: str,
        timed_out: bool = False,
    ) -> None:
        attempts[task] += 1
        self.retries_performed += 1
        if attempts[task] > self.max_retries:
            err = TrialTimeoutError if timed_out else TrialExecutionError
            raise err(
                f"trial {task} ({payloads[task][0]}) {reason}; "
                f"gave up after {attempts[task]} attempts"
            )
        backoff = self.retry_backoff * (2 ** (attempts[task] - 1))
        delayed.append((time.monotonic() + backoff, task))

    # ------------------------------------------------------------------
    @property
    def trials_executed(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def simulated_seconds(self) -> float:
        """Total wall time spent inside simulations (sum over trials)."""
        return sum(r.elapsed for r in self.records if not r.cached)


def run_trials(
    specs: Sequence[TrialSpec],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """One-shot convenience wrapper around :meth:`Harness.run`."""
    return Harness(workers=workers, cache=cache, timeout=timeout).run(specs)


# ----------------------------------------------------------------------
# Process-wide default harness (used when experiments get harness=None)
# ----------------------------------------------------------------------
_default_harness: Optional[Harness] = None


def get_default_harness() -> Harness:
    """The process-wide harness: ``REPRO_WORKERS`` workers, and an on-disk
    cache only where :func:`repro.store.cache_roots` puts one for library
    callers (so test runs never write to the user's cache unless they
    opted in)."""
    global _default_harness
    if _default_harness is None:
        root = cache_roots()[0]
        _default_harness = Harness(
            cache=ResultCache(root) if root is not None else None)
    return _default_harness


def set_default_harness(harness: Optional[Harness]) -> None:
    """Install (or with None, reset) the process-wide default harness."""
    global _default_harness
    _default_harness = harness
