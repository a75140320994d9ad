"""The certifier's verdict type, its key, and the one deadlock-cycle vocabulary.

:class:`Certificate` is what :mod:`repro.analysis.certifier` issues and
what the structure memo and store hold under :func:`certificate_key`,
and ``repro-drain check`` offers :data:`ROUTING_NAMES` as choices, so
all three live here, away from the routing functions and the fabric
index the certifier needs (and the numpy they load).

:func:`canonical_rotation` and :func:`buffer_cycle_payload` are the one
statement of how a deadlock cycle is written down. The certifier's
static counterexample and the watchdog's halt payload are both built by
:func:`buffer_cycle_payload`, so a live wedge and its refutation compare
with plain equality, and a report can read either without the simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..store import canonical_json, digest

__all__ = [
    "CERTIFIED",
    "REFUTED",
    "Certificate",
    "ROUTING_NAMES",
    "buffer_cycle_payload",
    "certificate_key",
    "canonical_rotation",
]

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"

#: Routing functions the certifier can instantiate by name.
ROUTING_NAMES = ("dor", "adaptive", "updown")


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verdict of one static certification run.

    ``subject`` identifies what was checked (topology, routing, drain
    cycles, fault snapshot); ``proof`` is present exactly when the verdict
    is ``CERTIFIED`` and ``counterexample`` exactly when it is
    ``REFUTED``. :meth:`as_dict` is deterministic: link sets are sorted,
    cycles are emitted in their :func:`canonical_rotation`, and no
    timestamps or process state enter the payload.
    """

    verdict: str
    subject: Mapping[str, Any]
    proof: Optional[Mapping[str, Any]] = None
    counterexample: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.verdict not in (CERTIFIED, REFUTED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        certified = self.verdict == CERTIFIED
        if (certified != (self.proof is not None)
                or certified == (self.counterexample is not None)):
            raise ValueError(
                "CERTIFIED requires a proof and no counterexample; "
                "REFUTED requires a counterexample and no proof"
            )

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "subject": dict(self.subject),
            "proof": None if self.proof is None else dict(self.proof),
            "counterexample": (
                None if self.counterexample is None
                else dict(self.counterexample)
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """One human-readable line (the CLI's non-JSON output)."""
        subject = self.subject
        what = subject.get("claim", subject.get("kind", "configuration"))
        head = f"{self.verdict}: {subject.get('topology', '?')} [{what}]"
        if self.certified:
            proof = self.proof or {}
            return f"{head} via {proof.get('method', '?')}"
        counter = self.counterexample or {}
        kind = counter.get("kind", "?")
        if kind == "turn-cycle":
            cycle = " -> ".join(counter.get("links", []))
            return f"{head}: turn-cycle of length {counter.get('length')}: {cycle}"
        if kind == "buffer-cycle":
            cycle = " -> ".join(
                f"{a}->{b}" for a, b in counter.get("links", [])
            )
            return (
                f"{head}: buffer-cycle of length {counter.get('length')}: "
                f"{cycle}"
            )
        if kind == "uncovered-links":
            return (
                f"{head}: missing={counter.get('missing')} "
                f"extra={counter.get('extra')}"
            )
        return f"{head}: {kind}"


def certificate_key(topology_payload: Mapping[str, Any], config: Any,
                    flows: Optional[Sequence[Sequence[int]]]) -> str:
    """The one memo and store key of *config*'s certificate on a topology.

    It holds what the claim reads: the topology payload, scheme, flow
    control and sorted pinned *flows* (``None``: all pairs), and under
    pause/resume the PFC thresholds, ``vcs_per_vn`` and ``num_vns``.
    """
    from ..structcache.digest import STRUCT_FORMAT_VERSION

    key = [canonical_json(topology_payload), config.scheme.value,
           config.flow_control, canonical_json(flows)]
    if config.flow_control == "pause_resume":
        key += [config.pfc.pause_threshold, config.pfc.resume_threshold,
                config.pfc.headroom, config.network.vcs_per_vn,
                config.network.num_vns]
    return digest({"format": STRUCT_FORMAT_VERSION, "certificate": key})


def canonical_rotation(
    items: Sequence[Any], keys: Optional[Sequence[Any]] = None
) -> List[Any]:
    """The rotation of *items* whose *keys* are lexicographically minimal.

    *keys* (one per item, the items themselves by default) decide the
    order. Two rotations of the same cycle map to the same output, so
    rotational equivalence, the one degree of freedom a deadlock cycle
    has, becomes plain equality.
    """
    items = list(items)
    n = len(items)
    if keys is None:
        keys = items
    best = 0
    for offset in range(1, n):
        for j in range(n):
            a = keys[(offset + j) % n]
            b = keys[(best + j) % n]
            if a != b:
                if a < b:
                    best = offset
                break
    return items[best:] + items[:best]


def buffer_cycle_payload(
    hops: Sequence[Mapping[str, Any]], **extra: Any
) -> Dict[str, Any]:
    """A ``buffer-cycle`` payload from its hops, in canonical rotation.

    Each hop names the buffer one packet of the cycle waits in:
    ``router``, ``port``, ``vn``, ``vc``, ``link`` (``[src, dst]``, or
    ``None`` for an injection port) and ``packet``. The hops are rotated
    by the key ``(0, src, dst)`` for a link and ``(1, port)`` for an
    injection port; ``routers`` and ``links`` list each router and link
    once, in hop order. *extra* fields are appended as given.
    """
    def key(hop: Mapping[str, Any]):
        link = hop["link"]
        return (1, hop["port"]) if link is None else (0, link[0], link[1])

    hops = canonical_rotation(hops, [key(hop) for hop in hops])
    routers: List[int] = []
    links: List[List[int]] = []
    for hop in hops:
        if hop["router"] not in routers:
            routers.append(hop["router"])
        link = hop["link"]
        if link is not None and link not in links:
            links.append(list(link))
    return {
        "kind": "buffer-cycle",
        "length": len(hops),
        "routers": routers,
        "links": links,
        "cycle": hops,
        **extra,
    }
