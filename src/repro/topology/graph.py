"""Topology substrate: routers connected by bidirectional links.

A topology is an undirected multigraph restricted to simple graphs (at most
one bidirectional link between a pair of routers, no self loops), matching
the paper's assumptions in Section III-A:

1. the network is connected (all source/destination pairs reachable),
2. all links are bidirectional (two opposing unidirectional links), and
3. every input port can route to every output port, including U-turns.

Unidirectional links are the first-class citizens here because the drain
path is defined over them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = ["Link", "Topology", "hop_distances"]

#: 64-bit words a transient of :func:`hop_distances` spans: about one
#: level's gathered frontier rows per chunk, and one unpacked row block.
_BFS_CHUNK_WORDS = 1 << 16


def hop_distances(tails: Any, heads: Any, seeds: Any, num_targets: int) -> Any:
    """Fewest hops from every state to every target: ``(S, T)`` int32.

    ``S = len(seeds)`` states joined by arcs ``tails[i] -> heads[i]``;
    state ``s`` is 0 hops from target ``seeds[s]`` (-1: none), and
    ``dist[s, t]`` counts the fewest arcs from ``s`` to a state seeding
    ``t`` (-1: unreachable).

    Bit-parallel BFS of every state at once: a state's targets are one
    row of ``(T + 63) // 64`` little-endian 64-bit words. Each level ORs
    the successors' frontier rows (``np.bitwise_or.reduceat`` over the
    non-empty CSR segments), keeps ``new = next & ~reached`` and ORs it
    into the bit-planes of the level number, which are unpacked once at
    the end in row blocks. numpy is imported here, not at module top, so
    building and checking a topology stays numpy-free.
    """
    import numpy as np

    words = (num_targets + 63) >> 6
    seeds = np.asarray(seeds, dtype=np.int64)
    states = seeds.size
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)[np.argsort(tails, kind="stable")]
    indptr = np.zeros(states + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=states), out=indptr[1:])
    # Non-empty segments, split where a segment's first arc enters a new
    # window of _BFS_CHUNK_WORDS // words arcs: a chunk gathers about a
    # window's rows, however dense the graph.
    full = np.flatnonzero(np.diff(indptr))
    window = indptr[full] // max(1, _BFS_CHUNK_WORDS // words)
    chunks = np.split(full, np.flatnonzero(np.diff(window)) + 1) if full.size else []

    frontier = np.zeros((states, words), dtype="<u8")
    seeded = np.flatnonzero(seeds >= 0)
    targets = seeds[seeded]
    frontier[seeded, targets >> 6] = np.left_shift(
        np.uint64(1), (targets & 63).astype(np.uint64))
    reached = frontier.copy()
    planes: List[Any] = []
    level = 0
    while True:
        level += 1
        new = np.zeros_like(frontier)
        for segs in chunks:
            first, last = indptr[segs[0]], indptr[segs[-1] + 1]
            new[segs] = np.bitwise_or.reduceat(
                frontier[heads[first:last]], indptr[segs] - first, axis=0)
        new &= ~reached
        if not new.any():
            break
        reached |= new
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(frontier))
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane |= new
        frontier = new

    def unpacked(bits: Any) -> Any:
        return np.unpackbits(bits.view(np.uint8), axis=1, count=num_targets,
                             bitorder="little")

    dist = np.empty((states, num_targets), dtype=np.int32)
    rows = max(1, 2 * _BFS_CHUNK_WORDS // num_targets)  # a 512 KB int32 block
    for lo in range(0, states, rows):
        out = dist[lo:lo + rows]
        out[...] = unpacked(reached[lo:lo + rows])
        out -= 1  # unreached pairs read -1, reached ones 0 plus their level
        for bit, plane in enumerate(planes):
            out += np.left_shift(unpacked(plane[lo:lo + rows]), bit,
                                 dtype=np.int32)
    return dist


@dataclass(frozen=True, order=True)
class Link:
    """A unidirectional link from router *src* to router *dst*."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop link at router {self.src}")

    @property
    def reverse(self) -> "Link":
        """The opposing unidirectional link of the same bidirectional link."""
        return Link(self.dst, self.src)

    def __repr__(self) -> str:
        return f"{self.src}->{self.dst}"


class Topology:
    """A connected network of routers joined by bidirectional links."""

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "custom",
        coordinates: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        if num_nodes < 2:
            raise ValueError("a topology needs at least two routers")
        self.num_nodes = num_nodes
        self.name = name
        self.coordinates = dict(coordinates) if coordinates else None
        self._adjacency: Dict[int, List[int]] = {n: [] for n in range(num_nodes)}
        self._edges: Set[FrozenSet[int]] = set()
        #: Memo of :meth:`unidirectional_links`; any edge mutation drops it.
        self._links: Optional[List[Link]] = None
        for a, b in edges:
            self.add_edge(a, b)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_edge(self, a: int, b: int) -> None:
        """Add the bidirectional link between routers *a* and *b*."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ValueError(f"self-loop at router {a}")
        key = frozenset((a, b))
        if key in self._edges:
            raise ValueError(f"duplicate link between {a} and {b}")
        self._edges.add(key)
        self._links = None
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._adjacency[a].sort()
        self._adjacency[b].sort()

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the bidirectional link between *a* and *b* (fault model).

        Per assumption 2 of the paper, a faulty unidirectional link disables
        both opposing links, so removal is always bidirectional.
        """
        key = frozenset((a, b))
        if key not in self._edges:
            raise KeyError(f"no link between {a} and {b}")
        self._edges.remove(key)
        self._links = None
        self._adjacency[a].remove(b)
        self._adjacency[b].remove(a)

    def copy(self) -> "Topology":
        return Topology(
            self.num_nodes,
            [tuple(sorted(e)) for e in sorted(self._edges, key=sorted)],
            name=self.name,
            coordinates=self.coordinates,
        )

    def _check_node(self, n: int) -> None:
        if not 0 <= n < self.num_nodes:
            raise ValueError(f"router id {n} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    def neighbors(self, n: int) -> List[int]:
        """Sorted neighbour routers of *n*."""
        self._check_node(n)
        return list(self._adjacency[n])

    def degree(self, n: int) -> int:
        return len(self._adjacency[n])

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._edges

    @property
    def num_edges(self) -> int:
        """Number of bidirectional links."""
        return len(self._edges)

    def bidirectional_links(self) -> List[Tuple[int, int]]:
        """All bidirectional links as sorted (low, high) router pairs."""
        return sorted(tuple(sorted(e)) for e in self._edges)

    def unidirectional_links(self) -> List[Link]:
        """All unidirectional links, two per bidirectional link.

        The sorted list is built once per edge set; every call returns
        its own copy, so callers may mutate what they get.
        """
        links = self._links
        if links is None:
            links = []
            for a, b in self.bidirectional_links():
                links.append(Link(a, b))
                links.append(Link(b, a))
            self._links = links
        return list(links)

    def links_into(self, n: int) -> List[Link]:
        """Unidirectional links terminating at router *n* (its input ports)."""
        return [Link(m, n) for m in self.neighbors(n)]

    def links_out_of(self, n: int) -> List[Link]:
        """Unidirectional links leaving router *n* (its output ports)."""
        return [Link(n, m) for m in self.neighbors(n)]

    # ------------------------------------------------------------------
    # Graph analysis
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every router can reach every other router."""
        if self.num_nodes == 0:
            return True
        seen = {0}
        frontier = deque([0])
        while frontier:
            n = frontier.popleft()
            for m in self._adjacency[n]:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        return len(seen) == self.num_nodes

    def link_components(self) -> List[List[int]]:
        """Sorted member lists of the connected components with a link.

        Components come in root order (a root is a component's smallest
        router); routers without a link belong to none.
        """
        seen: Set[int] = set()
        components: List[List[int]] = []
        for node in self.nodes:
            if node in seen or not self._adjacency[node]:
                continue
            members = {node}
            frontier = [node]
            while frontier:
                for m in self._adjacency[frontier.pop()]:
                    if m not in members:
                        members.add(m)
                        frontier.append(m)
            seen |= members
            components.append(sorted(members))
        return components

    def component(self, members: List[int]) -> "Topology":
        """The component of *members* on the full router numbering.

        Routers outside it stay as isolated nodes, so its links keep their
        ``src``/``dst`` ids: a drain cycle built on it names real ports.
        """
        member_set = set(members)
        edges = [(a, b) for a, b in self.bidirectional_links()
                 if a in member_set]
        return Topology(self.num_nodes, edges,
                        name=f"{self.name}-c{members[0]}")

    def bfs_distances(self, source: int) -> List[int]:
        """Hop distance from *source* to every router (-1 if unreachable)."""
        self._check_node(source)
        dist = [-1] * self.num_nodes
        dist[source] = 0
        frontier = deque([source])
        while frontier:
            n = frontier.popleft()
            for m in self._adjacency[n]:
                if dist[m] < 0:
                    dist[m] = dist[n] + 1
                    frontier.append(m)
        return dist

    def _all_pairs_numpy(self) -> Any:
        """All-pairs hop distances as an ``(n, n)`` int32 array (numpy):
        :func:`hop_distances` over the adjacency, each router seeding
        itself."""
        import numpy as _np

        n = self.num_nodes
        adjacency = self._adjacency
        tails = _np.repeat(_np.arange(n), [len(adjacency[v]) for v in range(n)])
        heads = _np.fromiter((m for v in range(n) for m in adjacency[v]),
                             dtype=_np.int64, count=tails.size)
        return hop_distances(tails, heads, _np.arange(n), n)

    def diameter(self) -> int:
        """Largest hop count between any pair of routers."""
        matrix = self._all_pairs_numpy()
        if (matrix < 0).any():
            raise ValueError("diameter undefined: topology is disconnected")
        return int(matrix.max())

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct, connected
        routers."""
        hops = self._all_pairs_numpy()
        hops = hops[hops > 0]
        return int(hops.sum(dtype="int64")) / hops.size if hops.size else 0.0

    def is_critical_edge(self, a: int, b: int) -> bool:
        """True when removing link (a, b) would disconnect the topology."""
        if not self.has_edge(a, b):
            raise KeyError(f"no link between {a} and {b}")
        self.remove_edge(a, b)
        try:
            return not self.is_connected()
        finally:
            self.add_edge(a, b)

    def spanning_tree(self, root: int = 0) -> Dict[int, Optional[int]]:
        """BFS spanning tree as a child -> parent map (root maps to None)."""
        self._check_node(root)
        parent: Dict[int, Optional[int]] = {root: None}
        frontier = deque([root])
        while frontier:
            n = frontier.popleft()
            for m in self._adjacency[n]:
                if m not in parent:
                    parent[m] = n
                    frontier.append(m)
        if len(parent) != self.num_nodes:
            raise ValueError("spanning tree undefined: topology is disconnected")
        return parent

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, "
            f"bidirectional_links={self.num_edges})"
        )
