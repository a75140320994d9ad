"""Compiled network structure, content-addressed.

Everything a simulation boots from that is a pure function of its
topology — distances, link numbering, routing tables, the drain cycle,
engine rows — is compiled once per process into one
:class:`CompiledNetwork` per topology content digest, and (when a store
is activated) persisted as memory-mappable artefacts next to the trial
result cache. See :mod:`repro.structcache.store`.
"""

from .digest import (
    STRUCT_FORMAT_VERSION,
    canonical_json,
    certificate_digest,
    digest_payload,
    structure_digest,
    topology_digest,
    topology_payload,
)
from .store import (
    ENV_VAR,
    CompiledNetwork,
    StructStore,
    activate,
    active_store,
    clear_memos,
    compiled,
    deactivate,
    default_store_dir,
    distance_matrix,
    distances,
    drain_links,
    env_disabled,
    load_certificate,
    parts_for,
    save_certificate,
    stats,
)

__all__ = [
    "STRUCT_FORMAT_VERSION",
    "canonical_json",
    "certificate_digest",
    "digest_payload",
    "structure_digest",
    "topology_digest",
    "topology_payload",
    "ENV_VAR",
    "CompiledNetwork",
    "StructStore",
    "activate",
    "active_store",
    "clear_memos",
    "compiled",
    "deactivate",
    "default_store_dir",
    "distance_matrix",
    "distances",
    "drain_links",
    "env_disabled",
    "load_certificate",
    "parts_for",
    "save_certificate",
    "stats",
]
