"""The certifier's verdict type, importable without the certifier.

:class:`Certificate` is what :mod:`repro.analysis.certifier` issues and
what the structure store persists. Pre-flight rebuilds one from a stored
payload, and ``repro-drain check`` offers :data:`ROUTING_NAMES` as
choices, so both live here, away from the routing functions and the
fabric index the certifier needs (and the numpy they load).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["CERTIFIED", "REFUTED", "Certificate", "ROUTING_NAMES"]

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
    cycles are rotated to start at their smallest link, and no timestamps
    or process state enter the payload.
    """

    verdict: str
    subject: Mapping[str, Any]
    proof: Optional[Mapping[str, Any]] = None
    counterexample: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.verdict not in (CERTIFIED, REFUTED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == CERTIFIED) == (self.counterexample is not None):
            raise ValueError(
                "CERTIFIED requires a proof and no counterexample; "
                "REFUTED requires a counterexample"
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
