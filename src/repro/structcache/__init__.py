"""Content-addressed compiled-structure store.

Amortizes topology/routing/drain compilation across trials, workers and
runs: distance matrices, adaptive-routing CSR tables, drain paths and
preflight certificates are keyed by structural content digests, memoized
in process and (when activated) persisted as memory-mappable artefacts
next to the trial result cache. See :mod:`repro.structcache.store`.
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
    StructParts,
    StructStore,
    activate,
    active_store,
    clear_memos,
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
    "StructParts",
    "StructStore",
    "activate",
    "active_store",
    "clear_memos",
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
