"""Integer indexing of a topology's links and ports for the hot simulation path.

The cycle-level fabric avoids hashing :class:`~repro.topology.graph.Link`
objects inside per-cycle loops by assigning every unidirectional link a
small integer id and precomputing per-router port lists. Injection ports
get ids following the link ids, so every buffer in the network is addressed
by a single integer port id:

- port ``0 .. L-1``: the input buffer at ``link.dst`` fed by link ``i``
- port ``L + r``: the injection port of router ``r``
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

import numpy as _np

from ..structcache import compiled
from ..topology.graph import Link, Topology, hop_distances

__all__ = ["FabricIndex", "DenseCandidateTables"]


class DenseCandidateTables:
    """Flat per-(router, dst) candidate-link tables in numpy CSR form.

    Cell ``idx = router * n + dst`` is ``links[offsets[idx]:offsets[idx +
    1]]``: the candidate link ids in the exact order the routing function
    enumerates them. ``offsets`` (``n * n + 1`` entries) is int32;
    ``links`` is the narrowest of int16/int32 that holds the index's link
    ids (:func:`link_dtype`). A cell's candidate count is not held:
    :meth:`counts` derives the ``n * n`` array for the compile-time
    readers that need it (ESCAPE_VC's merged table, up*/down*'s
    single-path variant, the connectivity check). A 1024-switch
    leaf-spine's table is 4 MB of offsets plus 4 MB of links.

    This is the one representation adaptive-minimal routing holds:
    :class:`~repro.routing.adaptive.AdaptiveMinimalRouting` compiles it
    straight from the distance matrix (:meth:`compile`: one k x n compare
    per router, no Python-level cell loop), so a fault-driven rebuild of a
    thousand-node table stays cheap; the structure store persists the same
    two arrays and the vectorized engine adopts them as they are. Up*/down*
    holds one table per phase, compiled the same way; DOR's nested
    next-hop lists are packed by the constructor in one vectorized pass
    (length scan -> cumulative offsets -> flat gather).

    Single cells are read through the read-only ``memoryview`` pair
    :attr:`offsets_view` / :attr:`links_view` (:meth:`row`, and the
    vectorized kernel's scan, element by element), which cost a fraction
    of numpy scalar indexing and work unchanged on the read-only memory
    maps the store hands out.

    Instances are tagged with the :attr:`FabricIndex.fault_epoch` they were
    built under; holders compare :attr:`epoch` against the live index and
    rebuild on mismatch (the same invalidation discipline as the fabric's
    candidate-group memo).
    """

    __slots__ = ("num_nodes", "epoch", "offsets", "links",
                 "offsets_view", "links_view")

    def __init__(self, index: "FabricIndex",
                 tables: List[List[List[int]]]) -> None:
        n = index.num_nodes
        if len(tables) != n:
            raise ValueError(f"expected {n} table rows, got {len(tables)}")
        rows = [cell for row in tables for cell in row]
        offsets = self.offsets_of(_np.fromiter(
            (len(cell) for cell in rows), dtype=_np.int32, count=n * n))
        links = _np.fromiter(chain.from_iterable(rows),
                             dtype=link_dtype(index), count=int(offsets[-1]))
        self._adopt(index, offsets, links)

    @staticmethod
    def offsets_of(counts: "_np.ndarray") -> "_np.ndarray":
        """The int32 offsets of cells holding *counts* links each."""
        if int(counts.sum(dtype=_np.int64)) > _np.iinfo(_np.int32).max:
            raise ValueError("candidate table too large for int32 offsets")
        offsets = _np.zeros(counts.size + 1, dtype=_np.int32)
        _np.cumsum(counts, dtype=_np.int32, out=offsets[1:])
        return offsets

    @classmethod
    def from_arrays(cls, index: "FabricIndex", offsets: "_np.ndarray",
                    links: "_np.ndarray") -> "DenseCandidateTables":
        """Adopt a CSR pair (structure-store load, ESCAPE_VC's merge).

        The arrays may be read-only memory maps shared between worker
        processes; they are validated for shape and tagged with the live
        fault epoch (the store only holds boot-state tables, so that is
        epoch 0 there — a fault-driven rebuild compiles a fresh pair
        under the new epoch).
        """
        n = index.num_nodes
        offsets = _np.asarray(offsets, dtype=_np.int32)
        links = _np.asarray(links, dtype=link_dtype(index))
        if offsets.shape != (n * n + 1,):
            raise ValueError("CSR table shape does not match the index")
        if links.shape != (int(offsets[-1]),):
            raise ValueError("CSR links length does not match its offsets")
        self = object.__new__(cls)
        self._adopt(index, offsets, links)
        return self

    @classmethod
    def compile(
        cls,
        index: "FabricIndex",
        cells: Callable[[int], Tuple["_np.ndarray", Sequence["_np.ndarray"]]],
    ) -> Tuple["DenseCandidateTables", ...]:
        """Compile a routing function's tables from its per-router masks.

        ``cells(router)`` is ``(out, masks)``: the router's live candidate
        links (in enumeration order; possibly none) and, per table
        compiled, the ``(len(out), n)`` mask of those that serve each
        destination; one table per mask comes back. It is called twice per
        router, once to size the cells and once to fill them, so each
        links array is written in place: no per-router fragment is held
        and no final concatenation copies it (at 1024 switches that copy
        set the compile's memory high-water mark).
        """
        n = index.num_nodes
        counts = None
        for router in range(n):
            _, masks = cells(router)
            if counts is None:
                counts = _np.zeros((len(masks), n, n), dtype=_np.int32)
            for table, mask in enumerate(masks):
                mask.sum(axis=0, dtype=_np.int32, out=counts[table, router])
        offsets = [cls.offsets_of(c.reshape(n * n)) for c in counts]
        del counts  # before the links arrays are allocated
        links = [_np.empty(int(o[-1]), dtype=link_dtype(index))
                 for o in offsets]
        for router in range(n):
            out, masks = cells(router)
            lo, hi = router * n, (router + 1) * n
            for o, flat, mask in zip(offsets, links, masks):
                # Transposed, nonzero walks dst-major then k: every
                # (router, dst) cell comes out already in ``out`` order.
                flat[o[lo]:o[hi]] = out[mask.T.nonzero()[1]]
        return tuple(cls.from_arrays(index, o, flat)
                     for o, flat in zip(offsets, links))

    def _adopt(self, index: "FabricIndex", offsets, links) -> None:
        self.num_nodes = index.num_nodes
        self.epoch = index.fault_epoch
        self.offsets = offsets
        self.links = links
        # Tables are shared between engines; an in-place write would
        # silently desynchronise them from the routing function, so freeze
        # the arrays (the DET008 lint rule guards the same contract
        # statically).
        for arr in (offsets, links):
            if arr.flags.writeable:  # mmap_mode="r" arrays already are not
                arr.setflags(write=False)
        #: Read-only views of ``offsets`` and ``links``: cell
        #: ``router * num_nodes + dst`` is
        #: ``links_view[offsets_view[idx]:offsets_view[idx + 1]]``.
        self.offsets_view = memoryview(offsets)
        self.links_view = memoryview(links)

    def counts(self) -> "_np.ndarray":
        """Candidate count per cell, row-major ``(n * n,)`` int32 (derived
        on each call; the tables do not hold it)."""
        return _np.diff(self.offsets)

    def row(self, router: int, dst: int) -> List[int]:
        """Candidate link ids for (router, dst), routing-function order."""
        idx = router * self.num_nodes + dst
        offsets = self.offsets_view
        return list(self.links_view[offsets[idx]:offsets[idx + 1]])


def link_dtype(index: "FabricIndex") -> Any:
    """int16 when every link id of *index* fits in it, else int32."""
    if index.num_links <= _np.iinfo(_np.int16).max:
        return _np.int16
    return _np.int32


def _number(topology: Topology) -> Dict[str, Any]:
    """The static link/port numbering of *topology*, by attribute name.

    A pure function of the topology's content: built once per content
    digest and shared, read-only, by every :class:`FabricIndex` over it.
    """
    links: List[Link] = topology.unidirectional_links()
    num_links = len(links)
    num_nodes = topology.num_nodes
    link_id: Dict[Link, int] = {link: i for i, link in enumerate(links)}
    link_dst: List[int] = [link.dst for link in links]

    # Per-router port lists. Input ports of router r are the links ending
    # at r plus its injection port; output ports are the links leaving r.
    in_links: List[List[int]] = [[] for _ in range(num_nodes)]
    out_links: List[List[int]] = [[] for _ in range(num_nodes)]
    for i, link in enumerate(links):
        in_links[link.dst].append(i)
        out_links[link.src].append(i)
    return {
        "links": links,
        "num_links": num_links,
        "num_nodes": num_nodes,
        "link_id": link_id,
        "link_src": [link.src for link in links],
        "link_dst": link_dst,
        # unidirectional_links() lists each pair as (a, b), (b, a).
        "link_reverse": [i ^ 1 for i in range(num_links)],
        "in_links": in_links,
        "out_links": out_links,
        "num_ports": num_links + num_nodes,
        "port_router": link_dst + list(range(num_nodes)),
        # Injection port of router r: id ``num_links + r``.
        "in_ports": [in_links[r] + [num_links + r] for r in range(num_nodes)],
    }


class FabricIndex:
    """Precomputed integer views of a topology for the simulator.

    The numbering and the boot distance matrix come from the topology's
    :class:`~repro.structcache.CompiledNetwork` (:attr:`compiled`) and are
    shared read-only; what faults rewrite — :attr:`dist`, the dead sets,
    :attr:`fault_epoch` — is private to each index.
    """

    links: List[Link]
    num_links: int
    num_nodes: int
    link_id: Dict[Link, int]
    link_src: List[int]
    link_dst: List[int]
    link_reverse: List[int]
    in_links: List[List[int]]
    out_links: List[List[int]]
    num_ports: int
    port_router: List[int]
    in_ports: List[List[int]]

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: The boot-state compile of this topology's content — the one
        #: digest this construction pays; routing, the drain controller
        #: and the vectorized engine read their shared parts here.
        self.compiled = net = compiled(topology)
        numbering = net.part("numbering", lambda: _number(topology))
        # Set one by one: writing through ``__dict__`` would materialise
        # the instance dict and take every later ``index.x`` read off
        # CPython's inline-values fast path (~1.5 % of a low-load run).
        for name, value in numbering.items():
            setattr(self, name, value)

        #: The live distances, as read-only row views of
        #: :meth:`dist_matrix`: the memoised boot matrix (shared by content
        #: digest) until :meth:`apply_faults` computes one of its own. Not
        #: a copy: the move path reads no rows over minimal tables (they
        #: cannot misroute), and the cold readers take a memoryview read.
        self.dist: List[Sequence[int]] = []
        self._install_dist(net.dist(topology))

        # Runtime fault state (mid-simulation link/router deaths). The
        # static port/link numbering never changes — dead resources keep
        # their ids so buffer addressing stays valid — but distances and
        # routing tables are recomputed over the survivors.
        self.dead_links: Set[int] = set()
        self.dead_routers: Set[int] = set()
        #: Monotonic fault-reconfiguration counter. Consumers holding
        #: derived caches (e.g. the fabric's candidate-group memo) compare
        #: it against the epoch they cached under and invalidate on change.
        self.fault_epoch: int = 0

    # ------------------------------------------------------------------
    # Runtime faults
    # ------------------------------------------------------------------
    def apply_faults(self, dead_links: Set[int], dead_routers: Set[int]) -> None:
        """Install the current fault state and recompute hop distances.

        *dead_links* is the complete set of dead unidirectional link ids
        (callers kill both directions of a bidirectional link together);
        *dead_routers* the complete set of dead routers. Distances are
        recomputed by :func:`~repro.topology.graph.hop_distances` over the
        surviving links; unreachable pairs get distance -1, matching
        :meth:`Topology.bfs_distances`.
        """
        self.dead_links = set(dead_links)
        self.dead_routers = set(dead_routers)
        self.fault_epoch += 1
        alive = self.live_links()
        seeds = _np.arange(self.num_nodes)
        # A dead router seeds nothing: its row and column are all -1.
        seeds[sorted(self.dead_routers)] = -1
        hops = hop_distances(_np.asarray(self.link_src)[alive],
                             _np.asarray(self.link_dst)[alive], seeds,
                             self.num_nodes)
        hops.setflags(write=False)
        self._install_dist(hops)

    def _install_dist(self, matrix: "_np.ndarray") -> None:
        """Make the read-only ``(n, n)`` *matrix* the live distances.

        :attr:`dist` takes its row views in place: the vectorized engine
        holds that list across fault epochs.
        """
        self._live_dist = matrix
        n = self.num_nodes
        flat = memoryview(matrix.reshape(n * n))
        self.dist[:] = [flat[r * n:(r + 1) * n] for r in range(n)]

    def dist_matrix(self) -> "_np.ndarray":
        """Hop distances as a read-only ``(n, n)`` int32 array (routing
        compile input): the structure store's memoised boot matrix at the
        boot epoch, then the one :meth:`apply_faults` computed."""
        return self._live_dist

    def surviving_topology(self) -> Topology:
        """The alive sub-topology (full router numbering, dead ones isolated).

        Dead routers stay as isolated nodes so ids keep matching the
        original numbering; their incident links — and explicitly dead
        links — are absent. The online drain-path recovery runs over this
        view.
        """
        alive = self.live_links()
        # Link 2k is the (low, high) direction of its pair (see _number).
        edges = [(self.link_src[k], self.link_dst[k])
                 for k in range(0, self.num_links, 2)
                 if alive[k] or alive[k + 1]]
        return Topology(
            self.num_nodes, edges, name=f"{self.topology.name}-surviving"
        )

    def live_links(self) -> "_np.ndarray":
        """Per link id: True when the link and both its routers are alive."""
        dead = _np.zeros(self.num_nodes, dtype=bool)
        dead[sorted(self.dead_routers)] = True
        alive = ~(dead[_np.asarray(self.link_src)]
                  | dead[_np.asarray(self.link_dst)])
        alive[sorted(self.dead_links)] = False
        return alive

    def unreachable_pairs(self) -> int:
        """Ordered alive (src, dst) pairs with no surviving route."""
        alive = _np.ones(self.num_nodes, dtype=bool)
        alive[sorted(self.dead_routers)] = False
        return int((self._live_dist[_np.ix_(alive, alive)] < 0).sum())

    def injection_port(self, router: int) -> int:
        """Port id of router *router*'s injection buffer."""
        return self.num_links + router

    def is_injection_port(self, port: int) -> bool:
        return port >= self.num_links

    def __repr__(self) -> str:
        return (
            f"FabricIndex({self.topology.name}, links={self.num_links}, "
            f"ports={self.num_ports})"
        )
