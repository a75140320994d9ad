"""Determinism lint pass (``repro-drain lint``).

An AST-based checker that statically enforces the reproducibility
invariants the harness depends on. Every rule targets a construct that has
actually corrupted a result cache or broken a golden summary somewhere:

- **DET001** — bare ``hash()``. Python salts ``str``/``bytes`` hashing per
  process (``PYTHONHASHSEED``), so ``hash()`` output is not stable across
  runs. Use :func:`repro.core.rng.stable_hash` (BLAKE2b) instead.
- **DET002** — calls through the module-level ``random`` state
  (``random.random()``, ``random.shuffle(...)``, ``random.seed(...)``, …).
  Shared global state makes trial outcomes order-dependent; construct a
  ``random.Random(seed)`` instance instead (``random.Random`` itself is
  allowed — it *is* the fix).
- **DET003** — wall-clock reads (``time.time``/``time_ns``/``monotonic``,
  ``datetime.now``/``utcnow``/``today``, ``date.today``) in trial code.
  Timing is environment-dependent and must never leak into trial results.
  Harness bookkeeping files that legitimately timestamp journals are
  allowlisted (:data:`WALL_CLOCK_ALLOWED`).
- **DET004** — non-JSON-able literals (set / set comprehension / lambda /
  generator expression / ``bytes``) passed inside ``TrialSpec(...)``
  parameters. Specs must round-trip through canonical JSON to digest
  stably; sets also iterate in hash order.
- **DET005** — mutating (``del`` / ``.pop()`` / ``.update()`` /
  subscript-assignment) a dict obtained from an ``as_dict()`` call. Golden
  summaries are compared shape-for-shape; mutate a *copy* if a derived
  view is needed.
- **DET006** — mutable default arguments (``def f(x=[])``). The shared
  default bleeds state across calls — classic, and it has non-obvious
  interactions with result caching.

The **engine-parity family** (DET007–DET009) guards the dense/vectorized
draw-order contract: the movement engine and its oracle must be
bit-identical, which
constrains how kernel code (everything under ``repro/network`` — see
:func:`is_kernel_path`) may consume randomness and shared state:

- **DET007** — RNG draw-method calls (``.random()``/``.randrange()``/
  ``.shuffle()``/…) inside a kernel loop. Engines share one inline LCG
  stream (``fabric._lcg``); an ad-hoc draw inside a movement loop
  desynchronises the streams between engines even when each engine is
  individually deterministic.
- **DET008** — mutation of exported :class:`~repro.network.index.
  DenseCandidateTables` (writes to their ``offsets``/``links``/
  ``epoch``). The tables are shared between engines and the
  routing function; an in-place write silently desynchronises them
  (the arrays are also frozen at runtime — this catches it at review
  time).
- **DET009** — iteration over an unordered set (set literals/
  comprehensions, ``set()``/``frozenset()`` results, and the index's
  ``dead_links``/``dead_routers``) in kernel code. Set order is hash-
  dependent; iterate ``sorted(...)`` instead. Plain dicts iterate in
  insertion order (guaranteed since 3.7) and are not flagged.

- **DET010** — wall-clock readers imported by name (``from time import
  perf_counter``) anywhere outside the harness allowlist sentinel
  (:data:`WALL_CLOCK_ALLOWED`). A from-import binds the reader to a bare
  name, which evades DET003's attribute-based detection; import the
  module and read through it (so DET003 can see the call), or move the
  timing into an allowlisted boundary file.

A finding on a line ending with the pragma comment ``# det: allow`` is
suppressed; the pragma documents an audited exception in place.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

__all__ = [
    "LintFinding",
    "WALL_CLOCK_ALLOWED",
    "is_kernel_path",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Files (matched by trailing path components) allowed to read the wall
#: clock: harness bookkeeping that timestamps journals and manifests for
#: humans, never for trial results.
WALL_CLOCK_ALLOWED: Tuple[str, ...] = (
    "harness/pool.py",
    "harness/checkpoint.py",
    "harness/manifest.py",
)

#: Pragma suppressing any finding on its line.
PRAGMA = "# det: allow"


def is_kernel_path(path: str) -> bool:
    """True when *path* is movement-kernel code (under ``repro/network``).

    The engine-parity rules DET007–DET009 apply only here: kernel code is
    where the dense and vectorized engines must replay each other's draw
    order and state reads bit-for-bit.
    """
    parts = path.replace(os.sep, "/").split("/")
    return "network" in parts[:-1]


#: RNG draw methods whose call order is part of the engine contract.
_RNG_DRAW_METHODS: Set[str] = {
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular",
}

#: Attributes of exported DenseCandidateTables that must never be
#: written after construction (the arrays are frozen at runtime too).
_TABLES_FIELDS: Tuple[str, ...] = ("offsets", "links", "epoch")

#: FabricIndex attributes that are genuine unordered sets; iterating
#: them directly in kernel code is hash-order dependent.
_UNORDERED_INDEX_ATTRS: Tuple[str, ...] = ("dead_links", "dead_routers")

#: ``time``-module functions that read the wall clock; importing one by
#: name binds it to a bare identifier DET003 cannot see.
_WALL_CLOCK_FROM_IMPORTS: Set[str] = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
}

_WALL_CLOCK_CALLS: Set[Tuple[str, str]] = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_MUTABLE_DEFAULTS = (ast.List, ast.Dict, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

_NON_JSON_LITERALS = (ast.Set, ast.SetComp, ast.Lambda, ast.GeneratorExp)


@dataclass(frozen=True, order=True)
class LintFinding:
    """One determinism violation, sortable into deterministic report order."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``a.b.c`` -> "a.b.c")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[LintFinding] = []
        self.wall_clock_ok = any(
            path.replace(os.sep, "/").endswith(suffix) for suffix in WALL_CLOCK_ALLOWED
        )
        self.kernel = is_kernel_path(path)
        #: Nesting depth of for/while loops (kernel rules key off it).
        self.loop_depth = 0
        #: Variable names assigned from an ``as_dict()`` call in the current
        #: scope stack (tracked flat — shadowing across scopes is rare enough
        #: that a false positive there is acceptable and pragma-escapable).
        self.as_dict_vars: Set[str] = set()
        #: Names bound to exported DenseCandidateTables instances.
        self.tables_vars: Set[str] = set()
        #: Names bound to set()/frozenset()/set-literal values.
        self.set_vars: Set[str] = set()

    # -- reporting ------------------------------------------------------
    def report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if 1 <= line <= len(self.lines) and self.lines[line - 1].rstrip().endswith(PRAGMA):
            return
        self.findings.append(
            LintFinding(self.path, line, getattr(node, "col_offset", 0), code, message)
        )

    # -- DET006: mutable default arguments ------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if isinstance(default, _MUTABLE_DEFAULTS):
                self.report(
                    default,
                    "DET006",
                    f"mutable default argument in {node.name!r}; default is "
                    "shared across calls — use None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- calls: DET001/DET002/DET003/DET004/DET005 ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            self.report(
                node,
                "DET001",
                "bare hash() is salted per process (PYTHONHASHSEED); "
                "use repro.core.rng.stable_hash",
            )
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted.startswith("random.") and dotted.count(".") == 1:
                attr = func.attr
                if attr not in ("Random", "SystemRandom"):
                    self.report(
                        node,
                        "DET002",
                        f"call through module-level random state (random.{attr}); "
                        "construct a seeded random.Random instance",
                    )
            base = _dotted(func.value).rsplit(".", 1)[-1]
            if (base, func.attr) in _WALL_CLOCK_CALLS and not self.wall_clock_ok:
                self.report(
                    node,
                    "DET003",
                    f"wall-clock read {base}.{func.attr}() in trial code; "
                    "timing must not influence results (allowlist: "
                    + ", ".join(WALL_CLOCK_ALLOWED)
                    + ")",
                )
            if func.attr == "pop" and isinstance(func.value, ast.Name):
                if func.value.id in self.as_dict_vars:
                    self.report(
                        node,
                        "DET005",
                        f"mutating golden-summary dict {func.value.id!r} "
                        "(.pop() on an as_dict() result); copy before reshaping",
                    )
            if (
                self.kernel
                and self.loop_depth > 0
                and func.attr in _RNG_DRAW_METHODS
                and not isinstance(func.value, ast.Constant)
            ):
                self.report(
                    node,
                    "DET007",
                    f"RNG draw .{func.attr}() inside a kernel loop; engines "
                    "must consume the shared fabric LCG stream so "
                    "dense/vectorized draw order stays bit-identical",
                )
        if isinstance(func, ast.Name) and func.id == "TrialSpec":
            self._check_spec_params(node)
        self.generic_visit(node)

    def _check_spec_params(self, call: ast.Call) -> None:
        for sub in ast.walk(call):
            if sub is call:
                continue
            if isinstance(sub, _NON_JSON_LITERALS):
                kind = type(sub).__name__
                self.report(
                    sub,
                    "DET004",
                    f"non-JSON-able {kind} inside TrialSpec(...); params must "
                    "round-trip through canonical JSON to digest stably",
                )
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, bytes):
                self.report(
                    sub,
                    "DET004",
                    "bytes literal inside TrialSpec(...); params must "
                    "round-trip through canonical JSON to digest stably",
                )

    # -- DET005/DET008/DET009 support: track value provenance ------------
    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        is_as_dict = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "as_dict"
        )
        is_tables = isinstance(value, ast.Call) and (
            (isinstance(value.func, ast.Name)
             and value.func.id == "DenseCandidateTables")
            or (isinstance(value.func, ast.Attribute)
                and value.func.attr == "export_tables")
        )
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        for target in node.targets:
            if isinstance(target, ast.Name):
                for tracked, hit in (
                    (self.as_dict_vars, is_as_dict),
                    (self.tables_vars, is_tables),
                    (self.set_vars, is_set),
                ):
                    if hit:
                        tracked.add(target.id)
                    else:
                        tracked.discard(target.id)
            self._check_tables_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_tables_mutation(node.target)
        self.generic_visit(node)

    # -- DET008: mutation of exported DenseCandidateTables ----------------
    def _check_tables_mutation(self, target: ast.AST) -> None:
        if not self.kernel:
            return
        node = target
        if isinstance(node, ast.Subscript):
            if (isinstance(node.value, ast.Name)
                    and node.value.id in self.tables_vars):
                self.report(
                    target,
                    "DET008",
                    f"subscript write into exported candidate tables "
                    f"{node.value.id!r}; engines share them — rebuild via "
                    "export_tables() instead of mutating",
                )
                return
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in _TABLES_FIELDS:
            base = _dotted(node.value)
            leaf = base.rsplit(".", 1)[-1]
            if leaf in self.tables_vars or leaf.endswith("tables"):
                self.report(
                    target,
                    "DET008",
                    f"write to {base}.{node.attr} mutates exported "
                    "DenseCandidateTables; engines share them — rebuild "
                    "via export_tables() instead of mutating",
                )

    # -- DET009: unordered-set iteration in kernel code -------------------
    def _iterates_unordered(self, iter_node: ast.AST) -> bool:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("set", "frozenset")):
            return True
        if (isinstance(iter_node, ast.Name)
                and iter_node.id in self.set_vars):
            return True
        if (isinstance(iter_node, ast.Attribute)
                and iter_node.attr in _UNORDERED_INDEX_ATTRS):
            return True
        return False

    def _check_loop_iter(self, node) -> None:
        if self.kernel and self._iterates_unordered(node.iter):
            self.report(
                node,
                "DET009",
                "iteration over an unordered set in kernel code is "
                "hash-order dependent; iterate sorted(...) to pin the "
                "order the engines replay",
            )

    def _visit_loop(self, node) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._check_loop_iter(node)
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop_iter(node)
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # -- DET010: from-imported wall-clock readers -------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time" and not self.wall_clock_ok:
            for alias in node.names:
                if alias.name in _WALL_CLOCK_FROM_IMPORTS:
                    bound = alias.asname or alias.name
                    self.report(
                        node,
                        "DET010",
                        f"wall-clock reader bound to bare name {bound!r} "
                        f"(from time import {alias.name}) evades the "
                        "attribute-based DET003 check; import the module "
                        "and read through it, or move the timing into an "
                        "allowlisted boundary file ("
                        + ", ".join(WALL_CLOCK_ALLOWED) + ")",
                    )
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                if target.value.id in self.as_dict_vars:
                    self.report(
                        node,
                        "DET005",
                        f"mutating golden-summary dict {target.value.id!r} "
                        "(del on an as_dict() result); copy before reshaping",
                    )
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint Python *source*; returns findings in deterministic order."""
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path, source.splitlines())
    visitor.visit(tree)
    return sorted(visitor.findings)


def lint_file(path: str) -> List[LintFinding]:
    """Lint one file. Syntax errors surface as a single ``DET000`` finding."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        return lint_source(source, path)
    except SyntaxError as exc:
        return [
            LintFinding(path, exc.lineno or 1, exc.offset or 0, "DET000", f"syntax error: {exc.msg}")
        ]


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``), sorted."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    findings: List[LintFinding] = []
    for file_path in sorted(set(files)):
        findings.extend(lint_file(file_path))
    return sorted(findings)
