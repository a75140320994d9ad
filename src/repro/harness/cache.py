"""Content-addressed cache of completed trial results.

A finished trial is a pure function of its :class:`~repro.harness.trials.
TrialSpec` — topology, full ``SimConfig``, traffic knobs and seeds are all
part of the spec, and the simulator is deterministic — so results can be
memoized by the spec's digest. Re-running an experiment with unchanged
parameters then costs one cache lookup per trial instead of a
simulation, which makes iterating on aggregation/plotting code free and
lets interrupted sweeps resume.

This is the ``results`` codec over the one store (:mod:`repro.store`):
one JSON document per trial at ``<root>/results/<digest[:2]>/<digest>.json``
holding the spec (for audit/debugging), its result, and timing metadata;
an entry without a ``result`` key is corrupt. Invalidation is by key
construction: the digest covers ``TRIAL_FORMAT_VERSION``, so bumping that
constant abandons stale entries; ``clear()`` deletes them eagerly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..store import Store, default_root

__all__ = ["ResultCache", "RESULTS"]

#: The store kind trial results live under.
RESULTS = "results"


def _is_result(payload: Any) -> bool:
    return isinstance(payload, dict) and "result" in payload


class ResultCache:
    """Digest-keyed trial results, with hit/miss counters."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.store = Store(root if root is not None else default_root())
        self.root = self.store.root

    @property
    def hits(self) -> int:
        return self.store.events[RESULTS]["hits"]

    @property
    def misses(self) -> int:
        return self.store.events[RESULTS]["misses"]

    def path_for(self, digest: str) -> Path:
        return self.store.path(RESULTS, digest, ".json")

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached payload for *digest*, or None on a miss (a corrupt
        entry is removed, so the trial recomputes cleanly)."""
        return self.store.get_json(RESULTS, digest, _is_result)

    def put(self, digest: str, payload: Dict[str, Any]) -> None:
        """Store *payload* under *digest* atomically."""
        self.store.put_json(RESULTS, digest, payload)

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def __len__(self) -> int:
        return self.store.counts([RESULTS])[RESULTS]

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        return self.store.clear([RESULTS])
