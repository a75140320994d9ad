"""Compiled network structure: one in-process memo over the one store.

Every trial over a given topology boots the same expensive structure: the
all-pairs hop-distance matrix, the link/port numbering, the adaptive and
up*/down* routing tables in CSR form, the default drain cycle with its
turn tables, and the vectorized engine's merged ESCAPE_VC table. All of it
is a pure function of the topology's content, so it is compiled once per
process:

1. :func:`compiled` maps a topology **content digest** to one
   :class:`CompiledNetwork` in a small LRU (:data:`_MEMO_LIMIT` entries),
   whether or not a disk store is active. Its parts fill lazily and are
   read-only; a simulation keeps its mutable state (distance rows, dead
   sets, fault epoch) in its own :class:`~repro.network.index.FabricIndex`
   and reads the shared parts through it. Preflight's verdicts are parts
   too. :func:`clear_memos` empties it.
2. the **active store** (a :class:`repro.store.Store`) persists four of
   those parts — ``dist``, ``routing``, ``drain`` as memory-mapped array
   entries keyed by the topology digest, and certificates as ``certs``
   JSON entries keyed by their certificate key;
3. a **warm-start protocol** (:mod:`repro.harness.pool`) compiles each
   distinct structure once in the parent before dispatching N workers x
   M trials.

Only boot-time (fault-epoch 0) structure is ever memoised or stored.
Consumers read it only while their index is at epoch 0 and compile their
own from the live index afterwards, so mid-run faults can never read
stale tables (see :class:`~repro.routing.adaptive.AdaptiveMinimalRouting`
and :meth:`~repro.network.vectorized.VectorizedEngine._build_tables`).

The store is **opt-in**: inactive unless :func:`activate` is called (the
CLI does, by default) or ``$REPRO_STRUCT_CACHE`` names a directory
(:func:`repro.store.cache_roots` decides). Results are bit-identical
either way — the arrays round-trip exactly and no RNG is consumed on any
path.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any, Callable, Dict, Optional, Set, Tuple, Union,
)

from ..store import Store, cache_roots
from ..topology.graph import Link
from .digest import STRUCT_FORMAT_VERSION, topology_digest

__all__ = [
    "KINDS",
    "CompiledNetwork",
    "compiled",
    "activate",
    "deactivate",
    "active_store",
    "stats",
    "clear_memos",
    "distance_matrix",
    "drain_links",
    "parts_for",
]

#: The store kinds this package owns: three array artefacts, certificates.
KINDS = ("dist", "routing", "drain", "certs")


# ----------------------------------------------------------------------
# Activation (module-level singleton; env opt-in resolved once)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Store] = None
_ENV_RESOLVED = False


def activate(root: Union[str, Path]) -> Store:
    """Enable the persistent store at *root*."""
    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = Store(root)
    _ENV_RESOLVED = True
    return _ACTIVE


def deactivate() -> None:
    """Disable the persistent store (the in-process memo keeps working)."""
    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = None
    _ENV_RESOLVED = True


def active_store() -> Optional[Store]:
    """The active store, resolving ``$REPRO_STRUCT_CACHE`` on first call."""
    global _ACTIVE, _ENV_RESOLVED
    if not _ENV_RESOLVED:
        _ENV_RESOLVED = True
        root = cache_roots()[1]
        _ACTIVE = Store(root) if root is not None else None
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

    ``parts`` fills on first use and no value is rewritten: every value
    is read-only once built (frozen arrays, tuples, tables nobody writes),
    so any number of simulations read one entry while each keeps its own
    mutable state (``FabricIndex.dist`` rows, dead sets, fault epoch).
    The parts with a method here are also persisted by the active store;
    the rest (:meth:`part`) live in memory only, built by the module that
    consumes them.
    """

    __slots__ = ("digest", "parts", "saved")

    def __init__(self, digest: str) -> None:
        self.digest = digest
        self.parts: Dict[Any, Any] = {}
        #: (part name, store root) pairs known to hold that part's entry.
        self.saved: Set[Tuple[Any, Path]] = set()

    def part(self, name: Any, build: Callable[[], Any]) -> Any:
        """``parts[name]``, built by *build* on first use."""
        try:
            return self.parts[name]
        except KeyError:
            value = self.parts[name] = build()
            return value

    def _stored(
        self,
        name: Any,
        kind: str,
        shapes: Optional[Dict[str, Optional[Tuple[int, ...]]]],
        build: Callable[[], Any],
        encode: Callable[[Any], Any],
        decode: Callable[[Any], Any],
        key: Optional[str] = None,
    ) -> Any:
        """``parts[name]``, persisted as store entry *kind*/*key* (default:
        the topology digest): arrays of *shapes*, or JSON *decode* checks.

        Read from the memo, else decoded from the active store's entry,
        else built. With a store active the entry is in that store
        afterwards whichever way it was found: a part the memo filled
        before this store was activated (or under another one) is written
        the first time it is asked for here, so a store never misses what
        the process already compiled.
        """
        key = key or self.digest
        as_json = shapes is None
        store = active_store()
        try:
            value = self.parts[name]
        except KeyError:
            found = None
            if store is not None:
                # A JSON entry that *decode* refuses reads as corrupt.
                found = (store.get_json(kind, key, decode) if as_json
                         else store.get_arrays(kind, key, shapes))
            if found is not None:
                value = self.parts[name] = decode(found)
                self.saved.add((name, store.root))
                return value
            value = self.parts[name] = build()
        if store is not None and (name, store.root) not in self.saved:
            if not store.path(kind, key, ".json" if as_json else "").exists():
                put = store.put_json if as_json else store.put_arrays
                put(kind, key, encode(value))
            self.saved.add((name, store.root))
        return value

    def dist(self, topology: Any) -> Any:
        """All-pairs hop distances: a read-only (n, n) int32 array."""
        import numpy as _np

        def build() -> Any:
            matrix = topology._all_pairs_numpy()
            matrix.setflags(write=False)
            return matrix

        def decode(arrays: Dict[str, Any]) -> Any:
            # A base-class view of the map: np.memmap's Python-level hooks
            # would tax every row slice the routing compile takes.
            matrix = _np.asarray(arrays["dist"])
            matrix.setflags(write=False)
            return matrix

        n = topology.num_nodes
        return self._stored("dist", "dist", {"dist": (n, n)}, build,
                            encode=lambda matrix: {"dist": matrix},
                            decode=decode)

    def tables(self, index: Any, cold: Callable[[], Any]) -> Any:
        """Adaptive-minimal candidate tables of *index*'s topology: one
        :class:`~repro.network.index.DenseCandidateTables` at epoch 0.

        *index* is any boot-state index of the topology; *cold* compiles
        the tables from it when neither the memo nor the store has them.
        """
        from ..network.index import DenseCandidateTables

        names = ("offsets", "links")
        n = index.num_nodes
        return self._stored(
            "tables", "routing", {"offsets": (n * n + 1,), "links": None},
            cold,
            encode=lambda tables: {
                name: getattr(tables, name) for name in names},
            decode=lambda arrays: DenseCandidateTables.from_arrays(
                index, *(arrays[name] for name in names)),
        )

    def drain_links(self, topology: Any) -> Tuple[Link, ...]:
        """The default drain cycle: the unshuffled Euler circuit rooted at
        router 0, as a tuple of frozen links in path order."""
        import numpy as _np

        from ..drain.path import euler_circuit

        count = 2 * topology.num_edges
        return self._stored(
            "drain_links", "drain", {"src": (count,), "dst": (count,)},
            lambda: tuple(euler_circuit(topology)),
            encode=lambda links: {
                end: _np.array([getattr(link, end) for link in links],
                               dtype=_np.int32)
                for end in ("src", "dst")},
            decode=lambda arrays: tuple(
                Link(s, d) for s, d in zip(arrays["src"].tolist(),
                                           arrays["dst"].tolist())),
        )

    def certificate(self, key: str, build: Callable[[], Any]) -> Any:
        """The certificate issued under *key* (a
        :func:`~repro.analysis.certificate.certificate_key`)."""
        from ..analysis.certificate import Certificate

        def decode(payload: Any) -> Any:
            # The key carries the format version; a bad shape is corrupt.
            try:
                return Certificate(**payload["certificate"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"not a certs entry: {exc}") from exc

        return self._stored(
            ("preflight", key), "certs", None, build,
            encode=lambda cert: {"format": STRUCT_FORMAT_VERSION,
                                 "certificate": cert.as_dict()},
            decode=decode, key=key,
        )


def compiled(topology: Any) -> CompiledNetwork:
    """The memo entry of *topology*'s content (least recently used out).

    Keyed by content digest, so a mutated topology, a different object
    with the same structure or its payload (which preflight passes) all
    behave correctly. This is the one digest a construction pays:
    :class:`~repro.network.index.FabricIndex` keeps the entry it was built
    from, and everything downstream reads it there.
    """
    key = topology_digest(topology)
    net = _MEMO.pop(key, None) or CompiledNetwork(key)
    _MEMO[key] = net
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.pop(next(iter(_MEMO)))
    return net


def clear_memos(head: Optional[str] = None) -> None:
    """Drop the in-process memo, or only every entry's parts named
    ``(head, ...)``.

    The memo's only control: test isolation, how ``benchmarks/perf``
    times a cold compile (``structcache.cold_compile_s``), and
    :func:`~repro.analysis.preflight.clear_preflight_cache`.
    """
    if head is None:
        _MEMO.clear()
    for net in _MEMO.values():
        net.parts = {name: v for name, v in net.parts.items()
                     if name[:1] != (head,)}
        net.saved = {pair for pair in net.saved if pair[0][:1] != (head,)}


def distance_matrix(topology: Any) -> Any:
    """All-pairs hop distances of *topology*: the memoised read-only
    ``(n, n)`` int32 array, shared by every caller."""
    return compiled(topology).dist(topology)


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
    from ..routing.updown import UpDownRouting

    index = FabricIndex(topology)
    scheme = config.scheme.value
    if scheme == "updown":
        UpDownRouting(index)
    else:
        AdaptiveMinimalRouting(index)
    if scheme == "drain":
        index.compiled.drain_links(topology)
    return index.compiled

