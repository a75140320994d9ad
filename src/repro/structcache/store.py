"""Compiled network structure: one in-process memo, one on-disk codec.

Every trial over a given topology boots the same expensive structure: the
all-pairs hop-distance matrix, the link/port numbering, the adaptive
routing tables in CSR form, the default drain cycle with its turn tables,
and the vectorized engine's candidate rows. All of it is a pure function
of the topology's content, so it is compiled once per process:

1. :func:`compiled` maps a topology **content digest** to one
   :class:`CompiledNetwork` in a small LRU (:data:`_MEMO_LIMIT` entries),
   whether or not a disk store is active. Its parts fill lazily and are
   read-only; a simulation keeps its mutable state (distance rows, dead
   sets, fault epoch) in its own :class:`~repro.network.index.FabricIndex`
   and reads the shared parts through it. :func:`clear_memos` empties it.
2. the **on-disk store** (``<root>/<kind>/<digest[:2]>/<digest>/``) is the
   codec behind three of those parts — ``dist``, ``routing``, ``drain``,
   all keyed by the topology digest — as ``.npy`` arrays loaded with
   ``mmap_mode="r"`` so concurrent worker processes share page-cache
   pages instead of private copies, plus certificate JSON files;
3. a **warm-start protocol** (:mod:`repro.harness.pool`) compiles each
   distinct structure once in the parent before dispatching N workers x
   M trials.

Numpy's ``npz`` container cannot be memory-mapped (``np.load`` on an npz
member always materialises a private copy), so each array lives in its
own ``.npy`` file; the artefact directory's ``meta.json`` — written
inside a temp directory that is atomically renamed into place — is the
commit marker. A directory without a readable, matching ``meta.json`` is
corrupt by definition: it is deleted and the artefact recomputed.

Only boot-time (fault-epoch 0) structure is ever memoised or stored.
Consumers read it only while their index is at epoch 0 and compile their
own from the live index afterwards, so mid-run faults can never read
stale tables (see :class:`~repro.routing.adaptive.AdaptiveMinimalRouting`
and :meth:`~repro.network.vectorized.VectorizedEngine._build_tables`).

The store is **opt-in**: inactive unless :func:`activate` is called (the
CLI does, by default) or ``$REPRO_STRUCT_CACHE`` names a directory
(``0``/``off`` disables). Results are bit-identical either way — the
arrays round-trip exactly and no RNG is consumed on any path.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as _np

from ..topology.graph import Link
from .digest import (
    STRUCT_FORMAT_VERSION,
    canonical_json,
    certificate_digest,
    topology_digest,
)

__all__ = [
    "StructStore",
    "CompiledNetwork",
    "compiled",
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

    def load_arrays(
        self, kind: str, key: str, shapes: Dict[str, Tuple[int, ...]]
    ) -> Optional[Dict[str, Any]]:
        """Memory-mapped arrays of one artefact, or None on miss/corrupt.

        *shapes* names the shape the live topology dictates for each
        array it determines. Corruption — missing or unparsable
        ``meta.json``, wrong format version, missing arrays, dtype/shape
        mismatches against the metadata or against *shapes* — deletes the
        whole artefact directory and reports a miss, so the caller
        recomputes instead of crashing.
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
                        or shapes.get(name, arr.shape) != arr.shape
                    ):
                        raise ValueError(
                            f"array {name!r} does not match its metadata "
                            "or the live topology"
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
    """Disable the persistent store (the in-process memo keeps working)."""
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
# The in-process memo: one CompiledNetwork per topology content digest
# ----------------------------------------------------------------------
#: Distinct topologies held in process at once. Each entry is a few MB at
#: thousand-switch scale; sweeps iterate seeds within one structure, so a
#: small bound loses nothing.
_MEMO_LIMIT = 4

_MEMO: Dict[str, "CompiledNetwork"] = {}


class CompiledNetwork:
    """What one topology content digest compiles to at boot (fault epoch 0).

    ``parts`` fills on first use and is never rewritten: every value is
    read-only once built (frozen arrays, tuples, tables nobody writes), so
    any number of simulations read one entry while each keeps its own
    mutable state (``FabricIndex.dist`` rows, dead sets, fault epoch).
    The three parts with a method here are also persisted by the active
    store; the rest (:meth:`part`) live in memory only, built by the
    module that consumes them.
    """

    __slots__ = ("digest", "parts")

    def __init__(self, digest: str) -> None:
        self.digest = digest
        self.parts: Dict[Any, Any] = {}

    def part(self, name: Any, build: Callable[[], Any]) -> Any:
        """``parts[name]``, built by *build* on first use."""
        try:
            return self.parts[name]
        except KeyError:
            value = self.parts[name] = build()
            return value

    def _stored(
        self,
        kind: str,
        shapes: Dict[str, Tuple[int, ...]],
        build: Callable[[], Any],
        encode: Callable[[Any], Dict[str, Any]],
        decode: Callable[[Dict[str, Any]], Any],
    ) -> Any:
        """The value of artefact *kind*: decoded from the active store's
        arrays, else built (and, with a store active, encoded and saved)."""
        store = active_store()
        if store is not None:
            arrays = store.load_arrays(kind, self.digest, shapes)
            if arrays is not None:
                return decode(arrays)
        value = build()
        if store is not None:
            store.compiles += 1
            store.save_arrays(kind, self.digest, encode(value))
        return value

    def dist(self, topology: Any) -> Any:
        """All-pairs hop distances: a read-only (n, n) int32 array."""

        def build() -> Any:
            n = topology.num_nodes
            matrix = self._stored(
                "dist", {"dist": (n, n)}, topology._all_pairs_numpy,
                encode=lambda matrix: {"dist": matrix},
                # A base-class view of the map: np.memmap's Python-level
                # hooks would tax every row slice the routing compile takes.
                decode=lambda arrays: _np.asarray(arrays["dist"]),
            )
            matrix.setflags(write=False)
            return matrix

        return self.part("dist", build)

    def tables(self, index: Any, cold: Callable[[], Any]) -> Any:
        """Adaptive-minimal candidate tables of *index*'s topology: one
        :class:`~repro.network.index.DenseCandidateTables` at epoch 0.

        *index* is any boot-state index of the topology; *cold* compiles
        the tables from it when neither the memo nor the store has them.
        """

        def build() -> Any:
            from ..network.index import DenseCandidateTables

            names = _ARTIFACT_ARRAYS["routing"]
            n = index.num_nodes
            return self._stored(
                "routing", {"offsets": (n * n + 1,), "counts": (n * n,)}, cold,
                encode=lambda tables: {
                    name: getattr(tables, name) for name in names},
                decode=lambda arrays: DenseCandidateTables.from_arrays(
                    index, *(arrays[name] for name in names)),
            )

        return self.part("tables", build)

    def drain_links(self, topology: Any) -> Tuple[Link, ...]:
        """The default drain cycle: the unshuffled Euler circuit rooted at
        router 0, as a tuple of frozen links in path order."""

        def build() -> Tuple[Link, ...]:
            from ..drain.path import euler_circuit

            count = 2 * topology.num_edges
            return self._stored(
                "drain", {"src": (count,), "dst": (count,)},
                lambda: tuple(euler_circuit(topology)),
                encode=lambda links: {
                    end: _np.array([getattr(link, end) for link in links],
                                   dtype=_np.int32)
                    for end in _ARTIFACT_ARRAYS["drain"]},
                decode=lambda arrays: tuple(
                    Link(s, d) for s, d in zip(arrays["src"].tolist(),
                                               arrays["dst"].tolist())),
            )

        return self.part("drain_links", build)


def compiled(topology: Any) -> CompiledNetwork:
    """The memo entry of *topology*'s content (least recently used out).

    Keyed by content digest, so a mutated topology or a different object
    with the same structure both behave correctly. This is the one digest
    a construction pays: :class:`~repro.network.index.FabricIndex` keeps
    the entry it was built from, and everything downstream reads it there.
    """
    key = topology_digest(topology)
    net = _MEMO.pop(key, None) or CompiledNetwork(key)
    _MEMO[key] = net
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.pop(next(iter(_MEMO)))
    return net


def clear_memos() -> None:
    """Drop the in-process memo.

    The memo's only control: test isolation, and how ``benchmarks/perf``
    times a cold compile (``structcache.cold_compile_s``).
    """
    _MEMO.clear()


def distance_matrix(topology: Any) -> Any:
    """All-pairs hop distances of *topology* (the DET012-sanctioned entry
    point): the memoised read-only array, shared by every caller."""
    return compiled(topology).dist(topology)


def distances(topology: Any) -> List[List[int]]:
    """:func:`distance_matrix` as fresh row lists.

    Every call returns freshly-allocated rows because
    :meth:`FabricIndex.apply_faults` overwrites rows in place.
    """
    return distance_matrix(topology).tolist()


def drain_links(topology: Any) -> Tuple[Link, ...]:
    """The default drain cycle of *topology* (what
    :func:`~repro.drain.path.find_drain_path` answers by default); each
    caller builds and validates its own ``DrainPath`` around it."""
    return compiled(topology).drain_links(topology)


def parts_for(topology: Any, config: Any) -> CompiledNetwork:
    """Compile or load everything *config* boots from on *topology*.

    Runs the constructors a simulation runs, so afterwards that
    simulation's set-up finds every structure in the memo (and, with a
    store active, on disk for other processes). The harness's warm start
    and ``benchmarks/perf`` call it; a simulation does not need to.
    """
    from ..network.index import FabricIndex
    from ..routing.adaptive import AdaptiveMinimalRouting

    index = FabricIndex(topology)
    scheme = config.scheme.value
    if scheme != "updown":
        # Up*/down* routing is stateful (per-packet turn history) and is
        # rebuilt from the topology either way.
        AdaptiveMinimalRouting(index)
    if scheme == "drain":
        index.compiled.drain_links(topology)
    return index.compiled


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
