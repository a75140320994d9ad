"""Compiled network structure, content-addressed.

Everything a simulation boots from that is a pure function of its
topology — distances, link numbering, routing tables, the drain cycle,
ESCAPE_VC's merged engine table — and preflight's verdicts on it are
compiled once per process into one :class:`CompiledNetwork` per topology
content digest, and (when a store is activated) persisted as entries of
the one store (:mod:`repro.store`). See :mod:`repro.structcache.memo`.

The public names below resolve on first access (:func:`repro._lazy_exports`).
"""

from .. import _lazy_exports

__all__ = [
    "STRUCT_FORMAT_VERSION",
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
    "drain_links",
    "parts_for",
    "stats",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "digest": ("STRUCT_FORMAT_VERSION", "structure_digest",
               "topology_digest", "topology_payload"),
    "memo": ("KINDS", "CompiledNetwork", "activate", "active_store",
             "clear_memos", "compiled", "deactivate", "distance_matrix",
             "drain_links", "parts_for", "stats"),
})
