"""Structural digests: the content identity of compiled artefacts.

The compiled-structure memo and store (:mod:`repro.structcache.memo`) key
every artefact by content, never by object identity or file path. Every
digest here is :func:`repro.store.digest` of a payload carrying
:data:`STRUCT_FORMAT_VERSION`:

- a **topology digest** covers the exact node count, edge set and
  coordinates — everything :func:`topology_payload` captures (the same
  encoding trial specs carry: ``harness.trials.topology_to_spec`` is this
  function, and a spec's ``topology`` digests alike). Distance matrices,
  routing tables, drain paths and preflight's verdicts hang on the
  topology, so this digest keys all of them.
- a **structure digest** additionally covers the full ``SimConfig``
  *minus the seed*. Nothing in the package keys on it any more; it stays
  for ``benchmarks/perf``, which times it.
- a **certificate key** is the one digest not here:
  :func:`repro.analysis.certificate.certificate_key` states it.
"""

from __future__ import annotations

from typing import Any, Dict

from ..store import digest
from ..topology.graph import Topology

__all__ = [
    "STRUCT_FORMAT_VERSION",
    "topology_payload",
    "topology_digest",
    "structure_digest",
]

#: Bump to abandon every stored artefact when formats or semantics change.
STRUCT_FORMAT_VERSION = 3


def topology_payload(topology: Topology) -> Dict[str, Any]:
    """Canonical JSON-able description of a topology (exact, order-stable)."""
    spec: Dict[str, Any] = {
        "name": topology.name,
        "num_nodes": topology.num_nodes,
        "edges": [list(e) for e in topology.bidirectional_links()],
    }
    if topology.coordinates is not None:
        spec["coordinates"] = {
            str(node): list(xy) for node, xy in sorted(topology.coordinates.items())
        }
    return spec


def topology_digest(topology: Any) -> str:
    """Content digest of a topology's exact structure: of a
    :class:`Topology`, or of its :func:`topology_payload`."""
    if isinstance(topology, Topology):
        topology = topology_payload(topology)
    return digest({"format": STRUCT_FORMAT_VERSION, "topology": topology})


def structure_digest(
    topo_payload: Dict[str, Any], config_dict: Dict[str, Any]
) -> str:
    """Digest of (topology, config-sans-seed).

    *config_dict* is a ``config_to_dict`` mapping; the seed is excluded
    because it shapes traffic streams, never the compiled structure.
    """
    config = dict(config_dict)
    config.pop("seed", None)
    return digest(
        {
            "format": STRUCT_FORMAT_VERSION,
            "topology": topo_payload,
            "config": config,
        }
    )

