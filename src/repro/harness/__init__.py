"""Parallel sweep harness: trial specs, worker pool, result cache, manifests.

Every paper artefact is a sweep of independent simulation trials (seeds ×
fault patterns × injection rates × schemes). This package turns those
sweeps from inline loops into batches of declarative
:class:`~repro.harness.trials.TrialSpec` objects that a
:class:`~repro.harness.pool.Harness`:

- executes across ``multiprocessing`` workers (``workers=N``) with results
  merged back **in submission order**, so output is identical for any
  worker count;
- memoizes in a :class:`~repro.harness.cache.ResultCache` — the results
  codec of the one content-addressed store (:mod:`repro.store`) — keyed
  by a stable digest of (config, topology, traffic, seeds);
- records per-trial timing into a JSON
  :class:`~repro.harness.manifest.RunManifest` written alongside each
  artefact.

Environment knobs: ``REPRO_WORKERS`` (default worker count), and the
cache policy of :func:`repro.store.cache_roots` (``REPRO_CACHE_DIR``
enables + locates the default cache, ``REPRO_NO_CACHE`` force-disables
it). See DESIGN.md for the full contract.
"""

from .cache import ResultCache
from .checkpoint import SweepJournal
from .manifest import RunManifest, build_manifest, git_revision, write_manifest
from .pool import (
    Harness,
    TrialExecutionError,
    TrialRecord,
    TrialTimeoutError,
    get_default_harness,
    run_trials,
    set_default_harness,
)
from .trials import (
    RUNNERS,
    TrialSpec,
    coherence_trial,
    execute_trial,
    fault_recovery_trial,
    lossless_trial,
    register_runner,
    synthetic_trial,
    topology_from_spec,
    topology_to_spec,
    workload_trial,
)

__all__ = [
    "Harness",
    "SweepJournal",
    "TrialExecutionError",
    "TrialRecord",
    "TrialSpec",
    "TrialTimeoutError",
    "ResultCache",
    "RunManifest",
    "RUNNERS",
    "build_manifest",
    "coherence_trial",
    "execute_trial",
    "fault_recovery_trial",
    "get_default_harness",
    "git_revision",
    "lossless_trial",
    "register_runner",
    "run_trials",
    "set_default_harness",
    "synthetic_trial",
    "topology_from_spec",
    "topology_to_spec",
    "workload_trial",
    "write_manifest",
]
