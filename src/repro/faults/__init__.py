"""Runtime fault injection and online DRAIN recovery.

Three layers, from declarative to operational:

- :mod:`repro.faults.schedule` — deterministic seed-derived fault
  schedules (what dies, when, transient vs permanent);
- :mod:`repro.faults.recovery` — re-covering the surviving dependency
  graph with drain cycles (Hawick-James under a budget, Eulerian
  fallback);
- :mod:`repro.faults.injector` — the per-cycle engine that applies
  events to a live simulation, resolves in-flight packets by policy and
  records degradation/recovery metrics.

Attach a schedule to a :class:`~repro.core.simulator.Simulation` via its
``fault_schedule`` argument; the simulator owns the injector.

The public names below resolve on first access
(:func:`repro._lazy_exports`), so reading a schedule or the CLI's choice
lists does not load the injector.
"""

from .. import _lazy_exports

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "FAULT_POLICIES",
    "ONSET_DISTRIBUTIONS",
    "PauseStormEvent",
    "PauseStormSchedule",
    "STORM_EVENT_KINDS",
    "RecoveryResult",
    "recover_drain_paths",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "injector": ("FaultInjector",),
    "recovery": ("RecoveryResult", "recover_drain_paths"),
    "schedule": ("FAULT_POLICIES", "ONSET_DISTRIBUTIONS", "FaultEvent",
                 "FaultSchedule"),
    "storm": ("STORM_EVENT_KINDS", "PauseStormEvent", "PauseStormSchedule"),
})
