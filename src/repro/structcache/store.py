"""Persistent, content-addressed store of compiled network structures.

Every trial over a given (topology, config-sans-seed) pair boots the same
expensive artefacts: the all-pairs hop-distance matrix, the adaptive
routing tables in CSR form, the Eulerian drain path, and the preflight
certificate. This module memoizes them at three layers:

1. an **in-process memo** (bounded, content-digest keyed) so repeated
   :class:`~repro.network.index.FabricIndex` constructions inside one
   process compute each matrix once, and the preflight certifier and the
   drain controller of one trial share one default drain cycle;
2. an **on-disk store** (``<root>/<kind>/<digest[:2]>/<digest>/``) of
   ``.npy`` arrays loaded with ``mmap_mode="r"`` so concurrent worker
   processes share page-cache pages instead of private copies, plus
   certificate JSON files;
3. a **warm-start protocol** (:mod:`repro.harness.pool`) that compiles
   each distinct structure once in the parent before dispatching N
   workers x M trials.

Numpy's ``npz`` container cannot be memory-mapped (``np.load`` on an npz
member always materialises a private copy), so each array lives in its
own ``.npy`` file; the artefact directory's ``meta.json`` — written
inside a temp directory that is atomically renamed into place — is the
commit marker. A directory without a readable, matching ``meta.json`` is
corrupt by definition: it is deleted and the artefact recomputed.

Only boot-time (fault-epoch 0) structures are ever stored. Consumers tag
loaded tables with the live :attr:`FabricIndex.fault_epoch` and compile
their own on any mismatch, so mid-run faults can never read stale
tables (see :class:`~repro.routing.adaptive.AdaptiveMinimalRouting`,
whose cold build emits the very arrays stored here).

The store is **opt-in**: inactive unless :func:`activate` is called (the
CLI does, by default) or ``$REPRO_STRUCT_CACHE`` names a directory
(``0``/``off`` disables). Results are bit-identical either way — the
arrays round-trip exactly and no RNG is consumed on the store path.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as _np

from ..topology.graph import Link
from .digest import (
    STRUCT_FORMAT_VERSION,
    canonical_json,
    certificate_digest,
    structure_digest,
    topology_digest,
    topology_payload,
)

__all__ = [
    "StructStore",
    "StructParts",
    "default_store_dir",
    "activate",
    "deactivate",
    "active_store",
    "env_disabled",
    "stats",
    "clear_memos",
    "distance_matrix",
    "distances",
    "drain_links",
    "parts_for",
    "load_certificate",
    "save_certificate",
    "ENV_VAR",
]

#: Environment opt-in: a store directory, or ``0``/``off`` to disable.
ENV_VAR = "REPRO_STRUCT_CACHE"

_DISABLED_VALUES = ("", "0", "off", "no", "none", "false", "disabled")

#: Array names per artefact kind — load/save must agree exactly.
_ARTIFACT_ARRAYS = {
    "dist": ("dist",),
    "drain": ("src", "dst"),
    "routing": ("offsets", "counts", "links"),
}


def env_disabled(value: str) -> bool:
    """True when an ``$REPRO_STRUCT_CACHE`` value means "disabled"."""
    return value.strip().lower() in _DISABLED_VALUES


def default_store_dir() -> Path:
    """Store root: next to the result cache (``<cache root>/structs``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-drain"
    return base / "structs"


class StructStore:
    """Digest-keyed artefact store with hit/miss/compile/corrupt counters.

    ``hits``/``misses`` count disk lookups, ``compiles`` counts artefacts
    built from scratch (the expensive event the warm-start protocol
    exists to bound), ``corrupt`` counts entries that failed validation
    and were deleted for recompute. Counters are per-process: the run
    manifest snapshots the parent's, which the warm-start protocol makes
    authoritative (workers only ever load).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Array artefacts (.npy + meta.json commit marker)
    # ------------------------------------------------------------------
    def _dir_for(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / key

    def load_arrays(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """Memory-mapped arrays of one artefact, or None on miss/corrupt.

        Corruption — missing or unparsable ``meta.json``, wrong format
        version, missing arrays, dtype/shape mismatches against the
        metadata — deletes the whole artefact directory and reports a
        miss, so the caller recomputes instead of crashing.
        """
        names = _ARTIFACT_ARRAYS[kind]
        directory = self._dir_for(kind, key)
        try:
            meta = json.loads((directory / "meta.json").read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            meta = None
        arrays: Optional[Dict[str, Any]] = None
        if (
            isinstance(meta, dict)
            and meta.get("format") == STRUCT_FORMAT_VERSION
            and isinstance(meta.get("arrays"), dict)
            and set(meta["arrays"]) == set(names)
        ):
            arrays = {}
            try:
                for name in names:
                    arr = _np.load(directory / f"{name}.npy", mmap_mode="r")
                    info = meta["arrays"][name]
                    if (
                        str(arr.dtype) != info.get("dtype")
                        or list(arr.shape) != info.get("shape")
                    ):
                        raise ValueError(
                            f"array {name!r} does not match its metadata"
                        )
                    arrays[name] = arr
            except (OSError, ValueError):
                arrays = None
        if arrays is None:
            self.corrupt += 1
            self.misses += 1
            shutil.rmtree(directory, ignore_errors=True)
            return None
        self.hits += 1
        return arrays

    def save_arrays(self, kind: str, key: str, arrays: Dict[str, Any]) -> None:
        """Store an artefact atomically (temp directory + rename).

        A concurrent writer racing on the same key wins or loses the
        final rename cleanly; the loser discards its temp directory. An
        artefact directory therefore only ever appears complete.
        """
        if set(arrays) != set(_ARTIFACT_ARRAYS[kind]):
            raise ValueError(
                f"artefact kind {kind!r} stores {_ARTIFACT_ARRAYS[kind]}, "
                f"got {sorted(arrays)}"
            )
        directory = self._dir_for(kind, key)
        if (directory / "meta.json").exists():
            return
        directory.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=directory.parent, prefix=".tmp-"))
        try:
            meta: Dict[str, Any] = {
                "format": STRUCT_FORMAT_VERSION,
                "kind": kind,
                "arrays": {},
            }
            for name, arr in arrays.items():
                arr = _np.ascontiguousarray(arr)
                _np.save(tmp / f"{name}.npy", arr)
                meta["arrays"][name] = {
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                }
            (tmp / "meta.json").write_text(canonical_json(meta))
            os.rename(tmp, directory)
        except OSError:
            # Lost a creation race (target exists) or disk trouble; the
            # artefact is either already present or will be recomputed.
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # Certificate artefacts (JSON)
    # ------------------------------------------------------------------
    def _cert_path(self, key: str) -> Path:
        return self.root / "certs" / key[:2] / f"{key}.json"

    def load_cert(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored certificate payload for *key*, or None on miss/corrupt."""
        path = self._cert_path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != STRUCT_FORMAT_VERSION
            or not isinstance(payload.get("certificate"), dict)
        ):
            try:
                path.unlink()
            except OSError:
                pass
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload["certificate"]

    def save_cert(self, key: str, certificate: Dict[str, Any]) -> None:
        """Store a certificate payload atomically (tempfile + rename)."""
        path = self._cert_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(
                    canonical_json(
                        {
                            "format": STRUCT_FORMAT_VERSION,
                            "certificate": certificate,
                        }
                    )
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Inspection / maintenance (the ``repro-drain cache`` subcommand)
    # ------------------------------------------------------------------
    def entry_counts(self) -> Dict[str, int]:
        """Number of committed artefacts per kind (plus certificates)."""
        out: Dict[str, int] = {}
        for kind in _ARTIFACT_ARRAYS:
            out[kind] = sum(
                1 for _ in self.root.glob(f"{kind}/*/*/meta.json")
            )
        out["certs"] = sum(1 for _ in self.root.glob("certs/*/*.json"))
        return out

    def size_bytes(self) -> int:
        """Total bytes on disk under the store root."""
        total = 0
        if self.root.exists():
            for path in self.root.rglob("*"):
                if path.is_file():
                    try:
                        total += path.stat().st_size
                    except OSError:
                        pass
        return total

    def clear(self) -> int:
        """Delete every stored artefact; returns the number removed."""
        removed = 0
        for kind in _ARTIFACT_ARRAYS:
            for meta in list(self.root.glob(f"{kind}/*/*/meta.json")):
                shutil.rmtree(meta.parent, ignore_errors=True)
                removed += 1
        for cert in list(self.root.glob("certs/*/*.json")):
            try:
                cert.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "corrupt": self.corrupt,
        }


# ----------------------------------------------------------------------
# Activation (module-level singleton; env opt-in resolved once)
# ----------------------------------------------------------------------
_ACTIVE: Optional[StructStore] = None
_ENV_RESOLVED = False


def activate(root: Optional[Union[str, Path]] = None) -> StructStore:
    """Enable the persistent store at *root* (default: next to the cache)."""
    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = StructStore(root)
    _ENV_RESOLVED = True
    return _ACTIVE


def deactivate() -> None:
    """Disable the persistent store (in-process memos keep working)."""
    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = None
    _ENV_RESOLVED = True


def active_store() -> Optional[StructStore]:
    """The active store, resolving ``$REPRO_STRUCT_CACHE`` on first call."""
    global _ACTIVE, _ENV_RESOLVED
    if not _ENV_RESOLVED:
        _ENV_RESOLVED = True
        value = os.environ.get(ENV_VAR)
        if value is not None and not env_disabled(value):
            _ACTIVE = StructStore(Path(value))
    return _ACTIVE


def stats() -> Optional[Dict[str, Any]]:
    """Counter snapshot of the active store, or None when inactive."""
    store = active_store()
    return store.stats() if store is not None else None


# ----------------------------------------------------------------------
# In-process memos (layer 1)
# ----------------------------------------------------------------------
#: Distinct structures held in process at once. Each entry is a few MB at
#: thousand-switch scale; sweeps iterate seeds within one structure, so a
#: small bound loses nothing.
_MEMO_LIMIT = 4

_DIST_MEMO: Dict[str, Any] = {}
_DRAIN_MEMO: Dict[str, Tuple[Link, ...]] = {}
_PARTS_MEMO: Dict[str, "StructParts"] = {}


def _memo_put(memo: Dict[str, Any], key: str, value: Any) -> None:
    memo[key] = value
    while len(memo) > _MEMO_LIMIT:
        memo.pop(next(iter(memo)))


def clear_memos() -> None:
    """Drop the in-process memos.

    Test isolation hook, and how ``benchmarks/perf`` times the cold
    compile (``structcache.cold_compile_s`` on ``lossless_1024``).
    """
    _DIST_MEMO.clear()
    _DRAIN_MEMO.clear()
    _PARTS_MEMO.clear()


# ----------------------------------------------------------------------
# Distances (layer 1 + 2): the one sanctioned all-pairs entry point
# ----------------------------------------------------------------------
def distance_matrix(topology: Any) -> Any:
    """All-pairs hop distances of *topology*: a read-only (n, n) int32 array.

    This is the DET012-sanctioned entry point: it memoizes the matrix by
    content digest (so topology mutation or a different object with the
    same structure both behave correctly) and persists it in the active
    store. The array is shared by every caller — a freshly computed
    matrix is frozen before it enters the memo, a stored one is a
    read-only memory map already.
    """
    key = topology_digest(topology)
    cached = _DIST_MEMO.get(key)
    if cached is None:
        store = active_store()
        if store is not None:
            arrays = store.load_arrays("dist", key)
            if arrays is not None:
                # A base-class view of the map: np.memmap's Python-level
                # hooks would tax every row slice the routing compile takes.
                cached = _np.asarray(arrays["dist"])
        if cached is None:
            cached = topology._all_pairs_numpy()
            cached.setflags(write=False)
            if store is not None:
                store.compiles += 1
                store.save_arrays("dist", key, {"dist": cached})
        _memo_put(_DIST_MEMO, key, cached)
    return cached


def distances(topology: Any) -> List[List[int]]:
    """:func:`distance_matrix` as fresh row lists.

    Every call returns freshly-allocated rows because
    :meth:`FabricIndex.apply_faults` overwrites rows in place.
    """
    return distance_matrix(topology).tolist()


# ----------------------------------------------------------------------
# Compiled structure parts (layer 1 + 2)
# ----------------------------------------------------------------------
class StructParts:
    """Loaded artefacts of one structure, ready for simulator adoption.

    ``routing`` is the adaptive-minimal candidate-table CSR triple
    ``(offsets, counts, links)`` (None for stateful routing schemes,
    which cannot be table-compiled); ``drain_links`` is the default
    drain cycle (:func:`drain_links`; None for non-DRAIN schemes), held
    so the warm-start protocol compiles it in the parent. Arrays may be
    read-only memory maps — consumers must never write them (the DET008
    contract).
    """

    __slots__ = ("digest", "routing", "drain_links")

    def __init__(
        self,
        digest: str,
        routing: Optional[Tuple[Any, Any, Any]],
        drain_links: Optional[Tuple[Link, ...]],
    ) -> None:
        self.digest = digest
        self.routing = routing
        self.drain_links = drain_links


def _compile_routing(topology: Any) -> Tuple[Any, Any, Any]:
    """Build the adaptive-minimal CSR triple from scratch (boot state)."""
    from ..network.index import FabricIndex
    from ..routing.adaptive import AdaptiveMinimalRouting

    tables = AdaptiveMinimalRouting(FabricIndex(topology)).compiled_tables
    return tables.offsets, tables.counts, tables.links


def _routing_for(
    store: Optional[StructStore], topology: Any, key: str
) -> Tuple[Any, Any, Any]:
    if store is not None:
        arrays = store.load_arrays("routing", key)
        if arrays is not None:
            n = topology.num_nodes
            offsets = arrays["offsets"]
            counts = arrays["counts"]
            links = arrays["links"]
            if (
                offsets.shape == (n * n + 1,)
                and counts.shape == (n * n,)
                and links.shape == (int(offsets[-1]),)
            ):
                return offsets, counts, links
            # Shape mismatch against the live topology: treat as corrupt.
            store.corrupt += 1
            shutil.rmtree(store._dir_for("routing", key), ignore_errors=True)
    triple = _compile_routing(topology)
    if store is not None:
        store.compiles += 1
        store.save_arrays(
            "routing",
            key,
            {"offsets": triple[0], "counts": triple[1], "links": triple[2]},
        )
    return triple


def drain_links(topology: Any) -> Tuple[Link, ...]:
    """The default drain cycle of *topology*: its links in path order.

    The unshuffled Euler circuit rooted at router 0 — what
    :func:`~repro.drain.path.find_drain_path` answers by default — is a
    pure function of the topology's content, so it is memoized by content
    digest and persisted in the active store like the distance matrix.
    The tuple of frozen links is shared by every caller; each builds (and
    validates) its own :class:`~repro.drain.path.DrainPath` around it.
    """
    key = topology_digest(topology)
    links = _DRAIN_MEMO.get(key)
    if links is None:
        links = _drain_links_for(active_store(), topology, key)
        _memo_put(_DRAIN_MEMO, key, links)
    return links


def _drain_links_for(
    store: Optional[StructStore], topology: Any, key: str
) -> Tuple[Link, ...]:
    if store is not None:
        arrays = store.load_arrays("drain", key)
        if arrays is not None:
            expected = 2 * topology.num_edges
            src = arrays["src"]
            dst = arrays["dst"]
            if src.shape == (expected,) and dst.shape == (expected,):
                return tuple(
                    Link(s, d) for s, d in zip(src.tolist(), dst.tolist())
                )
            store.corrupt += 1
            shutil.rmtree(store._dir_for("drain", key), ignore_errors=True)
    from ..drain.path import euler_circuit

    links = tuple(euler_circuit(topology))
    if store is not None:
        store.compiles += 1
        count = len(links)
        store.save_arrays(
            "drain",
            key,
            {
                "src": _np.fromiter(
                    (link.src for link in links), dtype=_np.int32, count=count
                ),
                "dst": _np.fromiter(
                    (link.dst for link in links), dtype=_np.int32, count=count
                ),
            },
        )
    return links


def parts_for(topology: Any, config: Any) -> Optional[StructParts]:
    """Compiled parts for (topology, config), or None when unavailable.

    Returns None when the persistent store is inactive — callers fall
    back to from-scratch construction, which is the bit-identical
    reference path. Parts are memoized in process by
    structure digest, so a sweep of M seeds over one structure compiles
    (or loads) once.
    """
    store = active_store()
    if store is None:
        return None
    from ..core.configio import config_to_dict

    config_dict = config_to_dict(config)
    key = structure_digest(topology_payload(topology), config_dict)
    parts = _PARTS_MEMO.get(key)
    if parts is not None:
        return parts
    scheme = config_dict.get("scheme")
    routing = None
    if scheme != "updown":
        # Up*/down* routing is stateful (per-packet turn history) and is
        # rebuilt from the topology either way; only the adaptive-minimal
        # candidate tables are worth compiling.
        routing = _routing_for(store, topology, key)
    cycle = None
    if scheme == "drain":
        cycle = drain_links(topology)
    parts = StructParts(key, routing, cycle)
    _memo_put(_PARTS_MEMO, key, parts)
    return parts


# ----------------------------------------------------------------------
# Certificates (layer 2 only; preflight keeps its in-process memo)
# ----------------------------------------------------------------------
def load_certificate(key: Sequence[str]) -> Optional[Dict[str, Any]]:
    """Stored preflight certificate for a memo *key*, or None."""
    store = active_store()
    if store is None:
        return None
    return store.load_cert(certificate_digest(key))


def save_certificate(key: Sequence[str], certificate: Dict[str, Any]) -> None:
    """Persist a freshly-computed preflight certificate for *key*."""
    store = active_store()
    if store is not None:
        store.save_cert(certificate_digest(key), certificate)
