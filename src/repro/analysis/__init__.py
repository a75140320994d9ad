"""Static analysis of DRAIN configurations (`repro.analysis`).

Three engines, all pure functions of their inputs (no simulation state,
no wall-clock, no global state):

- :mod:`repro.analysis.certifier` — a configuration certifier. Given a
  topology, a routing function and/or a drain-path set (optionally after
  applying a :class:`~repro.faults.schedule.FaultSchedule` snapshot), it
  constructs the restricted channel-dependency graph over reachable
  holding states, searches it for a shortest turn-cycle, and emits a machine-readable :class:`~repro.analysis.
  certificate.Certificate`: ``CERTIFIED`` with a coverage/acyclicity proof
  object, or ``REFUTED`` with a concrete counterexample (the offending
  turn-cycle, or the uncovered-link set in
  :class:`~repro.drain.path.DrainPathError` payload form). For lossless
  fabrics (``flow_control="pause_resume"``) the pause-aware entry point
  :func:`~repro.analysis.certifier.certify_pause_configuration` reads
  the same graph, restricted to a flow set, as the pause-augmented
  buffer-dependency graph, models the escape-VC pause exemption and PFC
  headroom feasibility, and refutes with a minimal buffer cycle built by
  the watchdog's own payload builder
  (:func:`~repro.analysis.certificate.buffer_cycle_payload`).

- :mod:`repro.analysis.lint` — an AST-based determinism lint pass that
  statically enforces the project's reproducibility invariants over
  ``src/``: no unsalted ``hash()``, no module-level ``random`` state, no
  wall-clock reads in trial code, no non-picklable ``TrialSpec`` params,
  no golden-summary shape mutation, no mutable default arguments — plus
  the engine-parity family (DET007–DET009) guarding the dense/vectorized
  draw-order contract in kernel code.

- :mod:`repro.analysis.differential` — differential validation closing
  the loop between the certifier and the simulator: static refutations
  must match live watchdog wedges up to rotation (plain equality after
  canonicalisation), and certified configurations must survive seeded
  pause-storm sweeps without a watchdog halt.

The certifier also backs the harness's opt-out pre-flight gate
(:mod:`repro.analysis.preflight`): every :class:`~repro.harness.trials.
TrialSpec` is statically validated before worker submission, so malformed
sweeps fail in milliseconds instead of timing out per-trial. A verdict
the structure store already holds is answered from
:mod:`repro.analysis.certificate` alone, without loading the certifier.

The public names below resolve on first access (:func:`repro._lazy_exports`).

CLI entry points: ``repro-drain check`` and ``repro-drain lint``.
"""

from .. import _lazy_exports

__all__ = [
    "CERTIFIED",
    "REFUTED",
    "Certificate",
    "LintFinding",
    "PreflightError",
    "ROUTING_NAMES",
    "buffer_cycle_payload",
    "build_restricted_cdg",
    "canonical_cycle_links",
    "canonical_rotation",
    "certify_configuration",
    "certify_drain_cover",
    "certify_pause_configuration",
    "certify_routing",
    "find_turn_cycle",
    "is_kernel_path",
    "lint_file",
    "lint_paths",
    "lint_source",
    "minimal_cycles",
    "refutation_matches",
    "routing_for",
    "storm_survival_sweep",
    "topological_link_order",
    "validate_spec",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "certificate": ("CERTIFIED", "REFUTED", "ROUTING_NAMES", "Certificate",
                    "buffer_cycle_payload", "canonical_rotation"),
    "certifier": ("build_restricted_cdg", "certify_configuration",
                  "certify_drain_cover", "certify_pause_configuration",
                  "certify_routing", "find_turn_cycle", "minimal_cycles",
                  "routing_for", "topological_link_order"),
    "differential": ("canonical_cycle_links", "refutation_matches",
                     "storm_survival_sweep"),
    "lint": ("LintFinding", "is_kernel_path", "lint_file", "lint_paths",
             "lint_source"),
    "preflight": ("PreflightError", "validate_spec"),
})
