"""Core: configuration, metrics, RNG discipline and the simulation facade.

The public names below resolve on first access
(:func:`repro._lazy_exports`): ``repro.core.config`` does not load the
simulator.
"""

from .. import _lazy_exports

__all__ = [
    "Scheme",
    "SimConfig",
    "NetworkConfig",
    "DrainConfig",
    "SpinConfig",
    "ProtocolConfig",
    "drain_default",
    "NetworkStats",
    "RunningStats",
    "SampleStats",
    "percentile",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "Simulation",
    "IdealResolver",
    "DeadlockWatchdog",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "configio": ("config_from_dict", "config_to_dict", "load_config",
                 "save_config"),
    "config": ("DrainConfig", "NetworkConfig", "ProtocolConfig", "Scheme",
               "SimConfig", "SpinConfig", "drain_default"),
    "metrics": ("NetworkStats", "RunningStats", "SampleStats", "percentile"),
    "simulator": ("DeadlockWatchdog", "IdealResolver", "Simulation"),
})
