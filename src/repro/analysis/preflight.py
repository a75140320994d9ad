"""Static pre-flight validation of trial specs (harness gate).

The parallel harness ships :class:`~repro.harness.trials.TrialSpec` objects
to worker processes and memoizes their results by content digest. A
malformed spec — unknown runner, un-JSON-able parameter, disconnected
topology, or a scheme whose deadlock-freedom claim is statically false —
used to surface as a per-trial worker crash or, worse, a simulation that
times out after minutes. The pre-flight gate runs the cheap static checks
(and, where the scheme makes a static claim, the full
:mod:`repro.analysis.certifier`) **before** any worker is spawned, so a
broken sweep fails in milliseconds with the offending spec identified.

Verdicts are parts of the topology's one
:class:`~repro.structcache.CompiledNetwork` entry, the one the trial's
fabric index reads: connectivity once per topology, each certificate
under its :func:`~repro.analysis.certificate.certificate_key` (persisted
by the store like compiled structure). A 500-trial injection-rate sweep
over one topology certifies once; the certifier itself, and the routing
and fabric code it needs, load only when a verdict must be computed.

The gate is opt-out: ``Harness(preflight=False)`` or the CLI flag
``--no-preflight`` skips it (e.g. for deliberately broken configurations
under study, such as the paper's deadlock-probability experiments).
"""

from __future__ import annotations

import functools
import pickle
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import structcache
from ..core.config import Scheme
from ..core.configio import config_from_dict
from ..store import canonical_json
from .certificate import CERTIFIED, Certificate, certificate_key

__all__ = [
    "PreflightError", "validate_spec", "validate_specs", "clear_preflight_cache",
]

#: Schemes whose static claim pre-flight enforces. Reactive schemes
#: (spin, static_bubble, none, ideal) make no static deadlock-freedom
#: claim — their correctness is a runtime property — so refusing their
#: specs statically would be wrong. This holds under pause/resume flow
#: control too: the lossless experiments deliberately run scheme-none
#: rows into a CBD wedge to measure it.
_STATIC_SCHEMES = frozenset({Scheme.DRAIN, Scheme.UPDOWN, Scheme.ESCAPE_VC})


class PreflightError(ValueError):
    """A trial spec failed static validation before submission.

    ``digest`` identifies the offending spec; ``certificate`` carries the
    refutation (with its concrete counterexample) when the failure came
    from the configuration certifier rather than a structural check.
    """

    def __init__(
        self,
        message: str,
        digest: str = "",
        certificate: Optional[Certificate] = None,
    ) -> None:
        super().__init__(message)
        self.digest = digest
        self.certificate = certificate

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"message": str(self), "digest": self.digest}
        if self.certificate is not None:
            out["certificate"] = self.certificate.as_dict()
        return out


def clear_preflight_cache() -> None:
    """Drop memoized certificates and connectivity verdicts, keeping every
    compiled structure (tests; topology-heavy long sessions)."""
    structcache.clear_memos("preflight")


def validate_spec(spec: "Any") -> Optional[Certificate]:
    """Statically validate one trial spec; raise :class:`PreflightError`.

    Checks, cheapest first:

    1. the runner is registered;
    2. the params encode to canonical JSON (digest identity exists);
    3. the spec pickles (it must cross the process boundary);
    4. any embedded topology is connected (memoized per distinct
       topology), and any pinned lossless flow rows are well formed;
    5. the trial config is one :class:`~repro.core.config.SimConfig`
       accepts (feasible PFC thresholds, a scheme its fabric models);
    6. for schemes with a static deadlock-freedom claim (drain, up*/down*,
       escape-VC), the configuration certifier issues ``CERTIFIED`` on the
       boot topology for that config (its pause claim restricted to the
       trial's pinned flow set) — memoized per
       :func:`~repro.analysis.certificate.certificate_key`.

    Returns the certificate when one was produced (step 6), else ``None``.
    Fault-schedule trials are certified on the *boot* topology only: the
    post-fault configuration is re-certified online by the recovery engine,
    which is exactly the mechanism under test.
    """
    from ..harness.trials import RUNNERS, TrialSpec, topology_from_spec

    if not isinstance(spec, TrialSpec):
        raise PreflightError(f"not a TrialSpec: {type(spec).__name__}")

    if spec.runner not in RUNNERS:
        raise PreflightError(
            f"unknown trial runner {spec.runner!r}; registered: {sorted(RUNNERS)}"
        )

    try:
        digest = spec.digest()
    except (TypeError, ValueError) as exc:
        raise PreflightError(
            f"params are not canonically JSON-able ({exc}); TrialSpec params "
            "must be numbers, strings, bools, lists and dicts"
        ) from exc

    try:
        pickle.dumps(spec)
    except Exception as exc:  # pickle raises a zoo of types
        raise PreflightError(
            f"spec does not pickle ({exc}); it cannot cross the worker "
            "process boundary",
            digest=digest,
        ) from exc

    params = spec.params
    topo_spec = params.get("topology") if isinstance(params, Mapping) else None
    if topo_spec is None:
        return None

    # The entry the trial's fabric index reads; the topology is built at
    # most once per call, and only when a verdict misses.
    net = structcache.compiled(topo_spec)
    topology = functools.cache(functools.partial(topology_from_spec, topo_spec))
    name = topo_spec.get("name", "custom")
    if not net.part(("preflight", "connected"),
                    lambda: topology().is_connected()):
        raise PreflightError(
            f"topology {name!r} is not connected; every trial "
            "assumes all-pairs reachability at boot",
            digest=digest,
        )
    flow_set = _flow_set(params, digest)

    config = params.get("config")
    scheme_value = config.get("scheme") if isinstance(config, Mapping) else None
    if scheme_value is None:
        return None
    try:
        Scheme(scheme_value)
    except ValueError as exc:
        raise PreflightError(
            f"unknown scheme {scheme_value!r} in trial config", digest=digest
        ) from exc
    # Everything SimConfig refuses (infeasible PFC thresholds, a scheme the
    # chosen fabric does not model) is refused here, before any memoized
    # or stored certificate can answer for it.
    try:
        sim_config = config_from_dict(config)
    except (TypeError, ValueError) as exc:
        raise PreflightError(
            f"configuration is infeasible for {name!r}: {exc}", digest=digest
        ) from exc
    scheme = sim_config.scheme
    if scheme not in _STATIC_SCHEMES:
        return None

    def certify() -> Certificate:
        from .certifier import certify_configuration

        try:
            return certify_configuration(topology(), sim_config, flows=flow_set)
        except ValueError as exc:  # a flow naming no router of the topology
            raise PreflightError(
                f"configuration is infeasible for {name!r}: {exc}",
                digest=digest,
            ) from exc

    certificate = net.certificate(
        certificate_key(topo_spec, sim_config, flow_set), certify)
    if certificate.verdict != CERTIFIED:
        raise PreflightError(
            f"configuration refuted for scheme {scheme.value!r} on "
            f"{name!r}: {certificate.summary()}",
            digest=digest,
            certificate=certificate,
        )
    return certificate


def validate_specs(specs: Sequence[Any]) -> None:
    """Validate a sweep's specs topology by topology, in first-seen order,
    so each topology's memo entry answers all of its specs before the LRU
    of :func:`~repro.structcache.compiled` can evict it; raise the
    :class:`PreflightError` of the earliest failing spec in submission
    order."""
    first: Dict[str, int] = {}

    def group(i: int) -> int:
        """The index of the first spec on spec *i*'s topology."""
        try:
            key = canonical_json(specs[i].params.get("topology"))
        except (AttributeError, TypeError, ValueError):
            return i  # validate_spec refuses the spec on its own
        return first.setdefault(key, i)

    groups = [group(i) for i in range(len(specs))]  # in submission order
    failed: List[Tuple[int, PreflightError]] = []
    for i in sorted(range(len(specs)), key=groups.__getitem__):
        if not failed or i < failed[-1][0]:
            try:
                validate_spec(specs[i])
            except PreflightError as exc:
                failed.append((i, exc))
    if failed:
        raise failed[-1][1]


def _flow_set(params: Mapping[str, Any], digest: str) -> Optional[list]:
    """The trial's pinned (src, dst) flow pairs, sorted, or ``None``.

    Lossless trials carry their flows under ``params["lossless"]
    ["flows"]`` as ``[src, dst, rate, packets]`` rows; only the endpoint
    pairs shape the pause-augmented BDG, so rates and packet budgets do
    not enter the certificate key.
    """
    lossless = params.get("lossless")
    if not isinstance(lossless, Mapping):
        return None
    flows = lossless.get("flows")
    if not flows:
        return None
    try:
        return sorted({(int(f[0]), int(f[1])) for f in flows})
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise PreflightError(
            f"malformed lossless flow rows ({exc!r}); each row is "
            "[src, dst, rate, packets]",
            digest=digest,
        ) from exc
