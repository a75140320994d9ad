"""Offline drain-path construction (Section III-B).

A *drain path* is a single elementary cycle in the channel-dependency graph
that covers **every** unidirectional link of the topology exactly once. The
paper's existence argument (Section III-A) boils down to a classic fact:
because every bidirectional link contributes two opposing unidirectional
links, every router has equal in-degree and out-degree in the directed link
graph, and the graph is strongly connected; hence an Eulerian circuit over
all unidirectional links exists, and that circuit *is* the drain path.

Two construction engines are provided:

- :func:`find_drain_path` (default ``method="euler"``): Hierholzer's
  algorithm, linear time, guaranteed to succeed on any topology satisfying
  the paper's assumptions. This mirrors the paper's spanning-tree/DFS
  existence construction but covers non-tree links too.
- ``method="hawick-james"``: the paper's described search — enumerate
  elementary circuits of the dependency graph and stop at the first one
  covering all links. Exponential in the worst case; used for small
  topologies and for validating the Euler engine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..structcache import drain_links
from ..topology.dependency import DependencyGraph, build_dependency_graph
from ..topology.graph import Link, Topology
from .hawick_james import find_circuit

__all__ = [
    "DrainPath",
    "DrainPathError",
    "find_drain_path",
    "euler_circuit",
    "euler_drain_path",
    "hawick_james_drain_path",
]


class DrainPathError(ValueError):
    """A drain path could not be built or fails its coverage invariants.

    Carries the offending link sets so callers — in particular the online
    recovery engine, which must degrade gracefully when a fault leaves the
    dependency graph partially coverable — can inspect *which* links are
    uncovered instead of parsing an assertion message.

    ``missing``: links of the topology the path fails to cover.
    ``extra``: links on the path that do not exist in the topology.

    Both are **sorted tuples**, never sets: the payload feeds CLI error
    output, fault-injector recompute records and static-certifier
    counterexamples, all of which must serialize byte-identically across
    runs and interpreters (set iteration order is not stable across
    ``PYTHONHASHSEED`` values).
    """

    def __init__(
        self,
        message: str,
        missing: Sequence[Link] = (),
        extra: Sequence[Link] = (),
    ) -> None:
        super().__init__(message)
        self.missing: Tuple[Link, ...] = tuple(sorted(missing))
        self.extra: Tuple[Link, ...] = tuple(sorted(extra))

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-able payload (sorted ``[src, dst]`` pairs)."""
        return {
            "message": str(self),
            "missing": [[link.src, link.dst] for link in self.missing],
            "extra": [[link.src, link.dst] for link in self.extra],
        }


class DrainPath:
    """An ordered cycle of unidirectional links covering the whole topology.

    ``links[i]`` is followed by ``links[(i+1) % n]``; consecutive links meet
    at a router (``links[i].dst == links[i+1].src``), so the cycle encodes,
    for every link, the turn a drained packet must take.
    """

    def __init__(self, topology: Topology, links: Sequence[Link]) -> None:
        self.topology = topology
        self.links: List[Link] = list(links)
        self._next: Dict[Link, Link] = {}
        self._position: Dict[Link, int] = {}
        n = len(self.links)
        for i, link in enumerate(self.links):
            self._next[link] = self.links[(i + 1) % n]
            self._position[link] = i
        self.validate()

    def __len__(self) -> int:
        return len(self.links)

    def __contains__(self, link: Link) -> bool:
        return link in self._next

    def next_link(self, link: Link) -> Link:
        """The link a drained packet arriving on *link* is forced onto."""
        return self._next[link]

    def position(self, link: Link) -> int:
        """Index of *link* within the cycle."""
        return self._position[link]

    def routers_visited(self) -> List[int]:
        """Router sequence traversed by the drain path (with repetition)."""
        return [link.src for link in self.links]

    def validate(self) -> None:
        """Check all drain-path invariants; raise ``ValueError`` on violation.

        Invariants (Section III-B): the path is a single elementary cycle in
        the dependency graph — consecutive links connect via a legal turn —
        and it covers every unidirectional link of the topology exactly once.
        """
        expected = set(self.topology.unidirectional_links())
        if not self.links:
            raise DrainPathError("drain path is empty", missing=expected)
        seen = set(self.links)
        if len(seen) != len(self.links):
            raise DrainPathError("drain path visits some link more than once")
        if seen != expected:
            missing = expected - seen
            extra = seen - expected
            raise DrainPathError(
                f"drain path does not cover the topology exactly: "
                f"missing={sorted(map(str, missing))[:4]} extra={sorted(map(str, extra))[:4]}",
                missing=missing,
                extra=extra,
            )
        n = len(self.links)
        for i, link in enumerate(self.links):
            nxt = self.links[(i + 1) % n]
            if link.dst != nxt.src:
                raise DrainPathError(
                    f"drain path breaks at position {i}: {link} does not "
                    f"connect to {nxt}"
                )

    def __repr__(self) -> str:
        return f"DrainPath({self.topology.name}, length={len(self.links)})"


def euler_circuit(
    topology: Topology,
    rng: Optional[random.Random] = None,
    start: Optional[int] = None,
) -> List[Link]:
    """Hierholzer's Eulerian circuit over *topology*'s unidirectional links.

    The link sequence behind :func:`euler_drain_path` (same arguments),
    not yet wrapped in — and validated by — a :class:`DrainPath`.
    """
    if start is None:
        if not topology.is_connected():
            raise DrainPathError("drain path requires a connected topology")
        start = 0
    # Outgoing-arc stacks per router; each unidirectional link used once.
    out_arcs: Dict[int, List[int]] = {
        n: list(topology.neighbors(n)) for n in topology.nodes
    }
    if rng is not None:
        for arcs in out_arcs.values():
            rng.shuffle(arcs)
    circuit: List[int] = []  # router sequence, built back-to-front
    stack: List[int] = [start]
    while stack:
        node = stack[-1]
        if out_arcs[node]:
            stack.append(out_arcs[node].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return [Link(circuit[i], circuit[i + 1]) for i in range(len(circuit) - 1)]


def euler_drain_path(
    topology: Topology,
    rng: Optional[random.Random] = None,
    start: Optional[int] = None,
) -> DrainPath:
    """Construct a drain path via Hierholzer's Eulerian-circuit algorithm.

    Runs in time linear in the number of links. *rng*, when given, shuffles
    edge exploration order so different (equally valid) drain paths can be
    sampled — useful for the path-shape ablation benchmarks.

    *start*, when given, roots the circuit at that router and skips the
    global connectivity precondition: the online recovery engine uses this
    to cover one connected component of a survivor graph whose other
    routers are isolated (their links died). Coverage is still enforced by
    :meth:`DrainPath.validate` — an edge set not fully reachable from
    *start* raises :class:`DrainPathError` listing the uncovered links.
    """
    return DrainPath(topology, euler_circuit(topology, rng=rng, start=start))


def hawick_james_drain_path(
    topology: Topology, max_circuits: Optional[int] = None
) -> DrainPath:
    """Construct a drain path by elementary-circuit search (paper's method).

    Enumerates elementary circuits of the channel-dependency graph with the
    Hawick-James method and stops at the first circuit covering all links.
    Worst-case exponential; intended for small topologies and validation.
    """
    graph: DependencyGraph = build_dependency_graph(topology, allow_u_turns=True)
    adjacency = graph.adjacency_indices()
    total = graph.num_links

    circuit = find_circuit(
        adjacency,
        predicate=lambda circ: len(circ) == total,
        max_circuits=max_circuits,
    )
    if circuit is None:
        raise DrainPathError(
            f"no covering circuit found for {topology.name} "
            f"(searched up to {max_circuits} circuits)",
            missing=graph.links,
        )
    links = [graph.links[i] for i in circuit]
    return DrainPath(topology, links)


def find_drain_path(
    topology: Topology,
    method: str = "euler",
    rng: Optional[random.Random] = None,
    max_circuits: Optional[int] = None,
) -> DrainPath:
    """Find a drain path for *topology* using the requested engine.

    The default request (Euler, no *rng*) is a pure function of the
    topology's content, and both the preflight certifier and the drain
    controller make it once per trial: its link sequence comes from the
    structure store's memo (immutable, shared; persisted when the store
    is active) and only the :class:`DrainPath` around it — validated
    against *topology* as always — is built per call. Shuffled paths,
    other engines and fault-recovery covers never touch the memo.
    """
    if method == "euler":
        if rng is None:
            return DrainPath(topology, drain_links(topology))
        return euler_drain_path(topology, rng=rng)
    if method == "hawick-james":
        return hawick_james_drain_path(topology, max_circuits=max_circuits)
    raise ValueError(f"unknown drain-path method {method!r}")
