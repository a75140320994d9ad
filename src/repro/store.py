"""One content-addressed store for everything persisted across processes.

Finished trials, compiled structure and preflight certificates are each a
pure function of a content digest, so each is written once under that key
and never rewritten. One :class:`Store` holds them all, one subdirectory
per *kind*:

- ``results`` — finished trials, keyed by ``TrialSpec.digest``, as JSON
  (:class:`~repro.harness.cache.ResultCache` is the codec);
- ``dist``, ``routing``, ``drain`` — compiled structure, keyed by the
  topology digest, as ``.npy`` array directories (:mod:`repro.structcache`);
- ``certs`` — preflight certificates, keyed by their certificate key,
  as JSON (:mod:`repro.structcache`).

Layout: ``<root>/<kind>/<key[:2]>/<key>.json`` for a JSON entry and
``<root>/<kind>/<key[:2]>/<key>/`` — ``meta.json`` plus one ``.npy`` per
array — for an array entry. Numpy's ``.npz`` container cannot be memory-
mapped, so each array is its own file, loaded with ``mmap_mode="r"``:
concurrent workers share page-cache pages instead of private copies.

**One atomic write.** An entry is built under a ``.tmp-*`` name beside
its final place and renamed into it, so a reader sees a whole entry or
none; of two writers racing on one key, one rename wins and the other
discards its copy. **One corruption rule.** An entry that exists but does
not read back — unreadable, the wrong format, or failing its codec's
check — is deleted and counted as ``corrupt`` and as a miss, never as a
hit, and the caller recomputes it. A ``.tmp-*`` left by a killed writer is
not an entry: :meth:`Store.clear` removes it and :meth:`Store.size_bytes`
counts it.

:func:`cache_roots` is the one statement of where the caches live and
whether they are on. This module imports nothing from ``repro`` and loads
numpy only inside the array codec, so serving a cached result needs
neither.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

__all__ = ["Store", "cache_roots", "canonical_json", "default_root", "digest"]

#: Format of an array entry's ``meta.json``; any other value reads corrupt.
ARRAY_FORMAT = 2

#: ``$REPRO_STRUCT_CACHE`` values that turn the structure store off.
_OFF = ("", "0", "off", "no", "none", "false", "disabled")


def canonical_json(payload: Any) -> str:
    """Order-stable minimal JSON — the hashable encoding of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """Hex BLAKE2b-128 of a payload's canonical JSON: every key of the store."""
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=16
    ).hexdigest()


def default_root() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-drain``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "repro-drain"


def cache_roots(
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    cli: bool = False,
) -> Tuple[Optional[Path], Optional[Path]]:
    """(result cache root, structure store root) — None where that one is off.

    ``repro-drain`` (*cli*) turns both on, at *cache_dir* or
    :func:`default_root`; library callers only when the environment opts
    in: ``$REPRO_CACHE_DIR`` for results, ``$REPRO_STRUCT_CACHE`` for
    structures. ``--no-cache`` (*no_cache*) or a non-empty
    ``$REPRO_NO_CACHE`` turns the result cache off; ``$REPRO_STRUCT_CACHE``
    moves the structure store to its directory, or turns it off (``off``).
    """
    root = Path(cache_dir) if cache_dir else default_root()
    wanted = cli or bool(os.environ.get("REPRO_CACHE_DIR"))
    off = no_cache or bool(os.environ.get("REPRO_NO_CACHE"))
    results = root if wanted and not off else None
    env = os.environ.get("REPRO_STRUCT_CACHE")
    if env is None:
        structs = root if cli else None
    else:
        structs = None if env.strip().lower() in _OFF else Path(env)
    return results, structs


def _describe(array: Any) -> Dict[str, Any]:
    return {"dtype": str(array.dtype), "shape": list(array.shape)}


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            path.unlink()
        except OSError:
            pass


class Store:
    """Content-addressed entries under one root, with per-kind counters.

    ``events[kind]`` counts ``hits``, ``misses``, ``corrupt`` (entries that
    failed to read back and were deleted) and ``compiles`` (array entries
    written — each one is structure compiled from scratch). Counters are
    per process and per object.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.events: Dict[str, Counter] = defaultdict(Counter)

    def path(self, kind: str, key: str, suffix: str = "") -> Path:
        return self.root / kind / key[:2] / (key + suffix)

    # ------------------------------------------------------------------
    # JSON entries
    # ------------------------------------------------------------------
    def get_json(
        self, kind: str, key: str, check: Callable[[Any], bool]
    ) -> Optional[Any]:
        """The stored value, or None on a miss; *check* says what is valid."""
        path = self.path(kind, key, ".json")

        def read() -> Any:
            value = json.loads(path.read_text())
            if not check(value):
                raise ValueError(f"{path} is not a {kind} entry")
            return value

        return self._load(kind, path, read)

    def put_json(self, kind: str, key: str, value: Any) -> None:
        def write(tmp: Path) -> Path:
            entry = tmp / "entry.json"
            entry.write_text(canonical_json(value))
            return entry

        self._commit(self.path(kind, key, ".json"), write)

    # ------------------------------------------------------------------
    # Array entries (the only code that loads numpy)
    # ------------------------------------------------------------------
    def get_arrays(
        self, kind: str, key: str, shapes: Dict[str, Optional[Tuple[int, ...]]]
    ) -> Optional[Dict[str, Any]]:
        """Read-only memory-mapped arrays named by *shapes*, or None.

        *shapes* gives the shape the caller's input dictates for each
        array (None: any); an array that disagrees with it or with its
        own metadata makes the entry corrupt.
        """
        import numpy as np

        directory = self.path(kind, key)

        def read() -> Dict[str, Any]:
            meta = json.loads((directory / "meta.json").read_text())
            if not (
                isinstance(meta, dict)
                and meta.get("format") == ARRAY_FORMAT
                and isinstance(meta.get("arrays"), dict)
                and set(meta["arrays"]) == set(shapes)
            ):
                raise ValueError(f"{directory} has foreign metadata")
            arrays = {}
            for name, shape in shapes.items():
                array = np.load(directory / f"{name}.npy", mmap_mode="r")
                if (meta["arrays"][name] != _describe(array)
                        or shape not in (None, array.shape)):
                    raise ValueError(
                        f"array {name!r} does not match its metadata "
                        "or the caller's shape"
                    )
                arrays[name] = array
            return arrays

        return self._load(kind, directory, read)

    def put_arrays(self, kind: str, key: str, arrays: Dict[str, Any]) -> None:
        import numpy as np

        self.events[kind]["compiles"] += 1

        def write(tmp: Path) -> Path:
            meta: Dict[str, Any] = {"format": ARRAY_FORMAT, "kind": kind,
                                    "arrays": {}}
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                np.save(tmp / f"{name}.npy", array)
                meta["arrays"][name] = _describe(array)
            (tmp / "meta.json").write_text(canonical_json(meta))
            return tmp

        self._commit(self.path(kind, key), write)

    # ------------------------------------------------------------------
    # The one read rule and the one write path
    # ------------------------------------------------------------------
    def _load(self, kind: str, entry: Path, read: Callable[[], Any]) -> Any:
        events = self.events[kind]
        # Absence is decided before reading: an entry only ever appears
        # whole, so one that a concurrent writer commits mid-read must not
        # be mistaken for a damaged one.
        if not entry.exists():
            events["misses"] += 1
            return None
        try:
            value = read()
        except (OSError, ValueError):
            events["misses"] += 1
            events["corrupt"] += 1
            _remove(entry)
            return None
        events["hits"] += 1
        return value

    def _commit(self, target: Path, write: Callable[[Path], Path]) -> None:
        """*write* fills a fresh ``.tmp-*`` directory beside *target* and
        returns what to rename onto it."""
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=target.parent))
        try:
            os.replace(write(tmp), target)
        except OSError:
            # A directory cannot be replaced once it has contents: a
            # concurrent writer committed this key first, which is as good.
            if not target.exists():
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # Inspection and maintenance (``repro-drain cache``)
    # ------------------------------------------------------------------
    def counts(self, kinds: Sequence[str]) -> Dict[str, int]:
        """Entries per kind (a killed writer's ``.tmp-*`` is none)."""
        return {kind: sum(not entry.name.startswith(".")
                          for entry in (self.root / kind).glob("*/*"))
                for kind in kinds}

    def size_bytes(self, kinds: Sequence[str]) -> int:
        """Bytes on disk under *kinds*, killed writers' leftovers included."""
        return sum(path.stat().st_size for kind in kinds
                   for path in (self.root / kind).rglob("*") if path.is_file())

    def clear(self, kinds: Sequence[str]) -> int:
        """Delete everything under *kinds*; returns the entries removed."""
        removed = sum(self.counts(kinds).values())
        for kind in kinds:
            shutil.rmtree(self.root / kind, ignore_errors=True)
        return removed

    def total(self, event: str) -> int:
        return sum(counter[event] for counter in self.events.values())

    hits = property(lambda self: self.total("hits"))
    misses = property(lambda self: self.total("misses"))
    corrupt = property(lambda self: self.total("corrupt"))
    compiles = property(lambda self: self.total("compiles"))

    def stats(self) -> Dict[str, Any]:
        return {"root": str(self.root), "hits": self.hits,
                "misses": self.misses, "compiles": self.compiles,
                "corrupt": self.corrupt}
