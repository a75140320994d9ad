"""Compiled network structure, content-addressed.

Everything a simulation boots from that is a pure function of its
topology — distances, link numbering, routing tables, the drain cycle,
engine rows — is compiled once per process into one
:class:`CompiledNetwork` per topology content digest, and (when a store
is activated) persisted as memory-mappable entries of the one store
(:mod:`repro.store`). See :mod:`repro.structcache.memo`.
"""

from .digest import (
    STRUCT_FORMAT_VERSION,
    certificate_digest,
    structure_digest,
    topology_digest,
    topology_payload,
)
from .memo import (
    KINDS,
    CompiledNetwork,
    activate,
    active_store,
    clear_memos,
    compiled,
    deactivate,
    distance_matrix,
    distances,
    drain_links,
    load_certificate,
    parts_for,
    save_certificate,
    stats,
)

__all__ = [
    "STRUCT_FORMAT_VERSION",
    "certificate_digest",
    "structure_digest",
    "topology_digest",
    "topology_payload",
    "KINDS",
    "CompiledNetwork",
    "activate",
    "active_store",
    "clear_memos",
    "compiled",
    "deactivate",
    "distance_matrix",
    "distances",
    "drain_links",
    "load_certificate",
    "parts_for",
    "save_certificate",
    "stats",
]
