"""Configuration (de)serialisation: SimConfig <-> JSON.

Experiments are easier to archive and rerun when the full configuration
travels with the results. The format is one flat JSON object per section
(``scheme``, ``network``, ``drain``, ``spin``, ``protocol``), with every
field explicit — loading rejects unknown keys so stale files fail loudly
instead of silently using defaults.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Union

from .config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    ProtocolConfig,
    Scheme,
    SimConfig,
    SpinConfig,
)

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]

_SECTIONS = {
    "network": NetworkConfig,
    "drain": DrainConfig,
    "spin": SpinConfig,
    "protocol": ProtocolConfig,
    "pfc": PfcConfig,
}


def config_to_dict(config: SimConfig) -> Dict[str, Any]:
    """Flatten a :class:`SimConfig` into plain JSON-ready dictionaries."""
    out: Dict[str, Any] = {
        "scheme": config.scheme.value,
        "seed": config.seed,
        "deadlock_check_interval": config.deadlock_check_interval,
        "deadlock_grace": config.deadlock_grace,
        "flow_control": config.flow_control,
    }
    for section, _cls in _SECTIONS.items():
        out[section] = dataclasses.asdict(getattr(config, section))
    return out


def config_from_dict(data: Dict[str, Any]) -> SimConfig:
    """Rebuild a :class:`SimConfig`; unknown keys raise ``ValueError``."""
    payload = dict(data)
    scheme = Scheme(payload.pop("scheme", Scheme.DRAIN.value))
    seed = payload.pop("seed", 1)
    check = payload.pop("deadlock_check_interval", 128)
    grace = payload.pop("deadlock_grace", 64)
    flow_control = payload.pop("flow_control", "credit")
    sections: Dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        raw = payload.pop(section, {})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown keys in [{section}]: {sorted(unknown)}"
            )
        sections[section] = cls(**raw)
    if payload:
        raise ValueError(f"unknown top-level keys: {sorted(payload)}")
    return SimConfig(
        scheme=scheme,
        seed=seed,
        deadlock_check_interval=check,
        deadlock_grace=grace,
        flow_control=flow_control,
        **sections,
    )


def save_config(config: SimConfig, path: Union[str, Path]) -> None:
    """Write *config* as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    )


def load_config(path: Union[str, Path]) -> SimConfig:
    """Read a JSON configuration written by :func:`save_config`."""
    return config_from_dict(json.loads(Path(path).read_text()))
