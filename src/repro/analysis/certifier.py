"""Static deadlock-freedom certification of DRAIN configurations.

DRAIN's correctness argument is static: deadlock freedom follows either
from an *acyclic* restricted channel-dependency graph (turn-restricted
routing such as DOR or up*/down*, and the escape sub-network of the
escape-VC baseline), or from a precomputed drain-cycle set covering every
unidirectional link of the (surviving) topology exactly once (the DRAIN
scheme itself, Section III of the paper). Both properties are decidable
from the configuration alone, so any (topology, routing, drain-path)
triple can be *certified or refuted* before a single simulated cycle.

The certifier emits a :class:`~repro.analysis.certificate.Certificate`
either way:

- ``CERTIFIED`` carries a checkable proof object — a topological order of
  the restricted dependency graph's links (every legal turn goes strictly
  forward in the order, hence no cycle), or a coverage account (each
  surviving link covered exactly once by exactly one drain cycle, each
  cycle a closed walk of legal turns);
- ``REFUTED`` carries a concrete counterexample — a minimal reachable
  turn-cycle of the restricted dependency graph, or the uncovered /
  duplicated / foreign link sets in the same payload shape as
  :class:`~repro.drain.path.DrainPathError`.

The restricted channel-dependency graph (:func:`build_restricted_cdg`,
the one builder both modes use) is searched per destination from the
routing function's own tables (see :meth:`~repro.routing.base.
RoutingFunction.route_candidates`): there is an edge ``l -> m`` when a
packet routed to destination ``d`` can reach a state where it holds link
``l`` while requesting link ``m`` at router ``l.dst``. Holding states are
``(link, arrival phase)`` pairs reached from the injection points, so for
phase-stateful routing (up*/down*) illegal down->up turns never appear.
The graph over-approximates the states a run can actually reach (it
ignores occupancy), which only *adds* edges — extra edges can produce a
spurious refutation but never a spurious certificate, keeping
``CERTIFIED`` sound. One shortest-cycle search picks the counterexample.

One entry point, :func:`certify_configuration`, takes the topology and
the :class:`~repro.core.config.SimConfig` and lets the config pick the
claim: credit and wormhole flow control are decided on the channel-
dependency graph (Dally–Seitz's argument, stated for wormhole), and
``flow_control="pause_resume"`` on the pause-augmented buffer-dependency
graph (BDG). Under PFC the blocking unit is a whole buffer *row* — the
``vcs_per_vn`` slots of one (link port, VN) pair: a row at its pause
threshold asserts XOFF and stalls *every* packet class sharing that port,
not only the turn whose packets filled it. Per-class escape disciplines
therefore cannot break a dependency the turn relation allows, and the
BDG collapses onto link granularity: it is the same turn-edge graph over
the *full* candidate relation, optionally restricted to a concrete flow
set's reachable holding states, checked by the same acyclicity engine
(:func:`certify_routing`). The escape-VC pause exemption (the pause
fabric lets escape/VC0 claims bypass XOFF whenever an escape mode is
active) carries the credit claims of the drain and escape-VC schemes
over. Headroom feasibility is ``SimConfig``'s to refuse. Pause
refutations are emitted as a minimal *buffer cycle* by the builder the
runtime watchdog halt uses (:func:`~repro.analysis.certificate.
buffer_cycle_payload`), in its canonical rotation, so differential
comparison against a live wedge is a plain equality check on the
``links`` field.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import Scheme, SimConfig
from ..drain.path import (
    DrainPath,
    DrainPathError,
    euler_drain_path,
    find_drain_path,
    hawick_james_drain_path,
)
from ..network.index import FabricIndex
from ..routing import select_escape_routing
from ..routing.adaptive import AdaptiveMinimalRouting
from ..routing.base import RoutingFunction
from ..routing.dor import DimensionOrderRouting
from ..routing.updown import UpDownRouting
from ..topology.graph import Link, Topology
from .certificate import (
    CERTIFIED,
    REFUTED,
    ROUTING_NAMES,
    Certificate,
    buffer_cycle_payload,
    canonical_rotation,
)

__all__ = [
    "CERTIFIED",
    "REFUTED",
    "Certificate",
    "ROUTING_NAMES",
    "routing_for",
    "build_restricted_cdg",
    "topological_link_order",
    "find_turn_cycle",
    "minimal_cycles",
    "certify_routing",
    "certify_drain_cover",
    "certify_configuration",
    "apply_schedule",
]


# ----------------------------------------------------------------------
# Restricted channel-dependency graph construction
# ----------------------------------------------------------------------
def routing_for(name: str, index: FabricIndex) -> RoutingFunction:
    """Instantiate the routing function called *name* over *index*."""
    if name == "dor":
        return DimensionOrderRouting(index)
    if name == "adaptive":
        return AdaptiveMinimalRouting(index)
    if name == "updown":
        return UpDownRouting(index)
    raise ValueError(
        f"unknown routing function {name!r}; choose from {ROUTING_NAMES}"
    )


def build_restricted_cdg(
    index: FabricIndex,
    routing: RoutingFunction,
    flows: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[List[int]]:
    """Adjacency (link id -> sorted successor link ids) of reachable turns.

    An edge ``l -> m`` means: for some destination ``d``, a packet routed
    to ``d`` can hold ``l`` while its candidates at ``l.dst`` include
    ``m``. Holding states are ``(link, arrival phase)`` pairs, searched
    per destination from the injection points (packets inject in the up
    phase); a packet at its destination ejects and requests no further
    turn. *flows* (``(src, dst)`` pairs) restricts the injection points
    to a concrete flow set; ``None`` models all-pairs traffic. Dead links
    and routers (the index's fault state) are excluded.

    Under pause/resume flow control this is also the pause-augmented
    buffer-dependency graph: a full (link port, VN) row asserts XOFF and
    blocks every packet class sharing that port, so per-class VC
    separation cannot break a dependency the turn relation allows.
    """
    n = index.num_nodes
    num_links = index.num_links

    def alive(link: int) -> bool:
        return (
            link not in index.dead_links
            and index.link_src[link] not in index.dead_routers
            and index.link_dst[link] not in index.dead_routers
        )

    sources_by_dst: Dict[int, Optional[set]]
    if flows is None:
        sources_by_dst = {dst: None for dst in range(n)}
    else:
        sources_by_dst = {}
        for src, dst in flows:
            sources_by_dst.setdefault(dst, set()).add(src)

    successors: List[set] = [set() for _ in range(num_links)]
    for dst in sorted(sources_by_dst):
        if dst in index.dead_routers:
            continue
        sources = sources_by_dst[dst]
        cand: Dict[Tuple[int, bool], Tuple[int, ...]] = {}

        def candidates(router: int, phase: bool) -> Tuple[int, ...]:
            key = (router, phase)
            got = cand.get(key)
            if got is None:
                got = cand[key] = tuple(
                    routing.route_candidates(router, dst, up_phase=phase)
                )
            return got

        # Search the (link, arrival-phase) holding states reachable from
        # the injection points.
        seen: set = set()
        stack: List[Tuple[int, bool]] = []
        for src in sorted(range(n) if sources is None else sources):
            if src == dst or src in index.dead_routers:
                continue
            for link in candidates(src, True):
                if not alive(link):
                    continue
                state = (link, routing.arrival_phase(link, True))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        while stack:
            link, phase = stack.pop()
            mid = index.link_dst[link]
            if mid == dst:
                continue  # the packet ejects; it requests no further turn
            for m in candidates(mid, phase):
                if not alive(m):
                    continue
                successors[link].add(m)
                state = (m, routing.arrival_phase(m, phase))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return [sorted(s) for s in successors]


def topological_link_order(
    adjacency: Sequence[Sequence[int]],
) -> Optional[List[int]]:
    """Kahn topological order of the dependency graph, or None if cyclic.

    The returned order is itself the acyclicity certificate: every edge of
    *adjacency* goes strictly forward in it, which any third party can
    re-check in linear time.
    """
    n = len(adjacency)
    indegree = [0] * n
    for succs in adjacency:
        for m in succs:
            indegree[m] += 1
    # Sorted frontier keeps the emitted order deterministic.
    frontier = sorted(i for i in range(n) if indegree[i] == 0)
    order: List[int] = []
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        changed = False
        for m in adjacency[node]:
            indegree[m] -= 1
            if indegree[m] == 0:
                frontier.append(m)
                changed = True
        if changed:
            frontier.sort()
    return order if len(order) == n else None


def _shortest_cycle_through(
    adjacency: Sequence[Sequence[int]],
    start: int,
    max_len: Optional[int] = None,
) -> Optional[List[int]]:
    """A shortest cycle through *start* of at most *max_len* nodes, or None.

    BFS from *start*; the first edge back to *start* closes the cycle,
    which is returned as a node list beginning at *start*. Successors are
    tried in adjacency order, so among equally short cycles the first one
    the BFS reaches wins.
    """
    parent: Dict[int, int] = {}
    seen = {start}
    frontier = [start]
    depth = 0  # of every node in the frontier
    while frontier and (max_len is None or depth < max_len):
        next_frontier: List[int] = []
        for node in frontier:
            for m in adjacency[node]:
                if m == start:
                    cycle = [node]
                    while cycle[-1] != start:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
                if m not in seen:
                    seen.add(m)
                    parent[m] = node
                    next_frontier.append(m)
        frontier = next_frontier
        depth += 1
    return None


def find_turn_cycle(
    adjacency: Sequence[Sequence[int]],
) -> Optional[List[int]]:
    """A minimal cycle of the dependency graph as a link-id list, or None.

    The first globally shortest cycle :func:`_shortest_cycle_through`
    finds, trying start nodes in order, in its :func:`canonical_rotation`
    (a shortest cycle repeats no link, so that begins at its smallest
    member). Runs in ``O(V * (V + E))`` — fine at channel-dependency-graph
    sizes.
    """
    best: Optional[List[int]] = None
    for start in range(len(adjacency)):
        if best is not None and len(best) == 2:
            break  # a 2-cycle is globally minimal (self-loops are impossible)
        found = _shortest_cycle_through(
            adjacency, start, None if best is None else len(best) - 1
        )
        if found is not None:
            best = found
    return None if best is None else canonical_rotation(best)


def minimal_cycles(
    adjacency: Sequence[Sequence[int]],
) -> List[List[int]]:
    """Distinct minimal-length cycles of the graph, canonicalised.

    Keeps the shortest cycle through every node whose cycle has the
    globally minimal length, collapses rotationally-equivalent duplicates
    via :func:`canonical_rotation`, and returns them sorted — element 0 is
    *the* canonical minimal counterexample. Empty when the graph is
    acyclic.
    """
    best_len: Optional[int] = None
    found: List[List[int]] = []
    for start in range(len(adjacency)):
        cycle = _shortest_cycle_through(adjacency, start, best_len)
        if cycle is None:
            continue
        if best_len is None or len(cycle) < best_len:
            best_len = len(cycle)
            found = [cycle]
        else:
            found.append(cycle)
    unique = sorted({tuple(canonical_rotation(c)) for c in found})
    return [list(c) for c in unique]


# ----------------------------------------------------------------------
# Serialisation helpers (everything sorted / order-stable)
# ----------------------------------------------------------------------
def _link_label(link: Link) -> str:
    return f"{link.src}->{link.dst}"


def _link_pairs(links: Sequence[Link]) -> List[List[int]]:
    return [[link.src, link.dst] for link in sorted(links)]


def _topology_subject(topology: Topology) -> Dict[str, Any]:
    return {
        "topology": topology.name,
        "nodes": topology.num_nodes,
        "links": 2 * topology.num_edges,
    }


def _router_id(node_labels: Optional[Sequence[int]], router: int) -> int:
    """*router* as emitted: its id in the original, unrenumbered fabric."""
    return router if node_labels is None else node_labels[router]


def _link_labels(
    index: FabricIndex,
    link_ids: Sequence[int],
    node_labels: Optional[Sequence[int]],
) -> List[str]:
    return [
        f"{_router_id(node_labels, link.src)}->"
        f"{_router_id(node_labels, link.dst)}"
        for link in (index.links[i] for i in link_ids)
    ]


def _turn_cycle(
    index: FabricIndex,
    adjacency: Sequence[Sequence[int]],
    node_labels: Optional[Sequence[int]],
) -> Dict[str, Any]:
    """The minimal reachable turn-cycle :func:`find_turn_cycle` picks."""
    cycle = find_turn_cycle(adjacency)
    assert cycle is not None  # Kahn failed, so a cycle must exist
    return {
        "kind": "turn-cycle",
        "length": len(cycle),
        "links": _link_labels(index, cycle, node_labels),
        "routers": [_router_id(node_labels, index.link_src[i]) for i in cycle],
    }


def _buffer_cycle(
    index: FabricIndex,
    adjacency: Sequence[Sequence[int]],
    node_labels: Optional[Sequence[int]],
) -> Dict[str, Any]:
    """The canonical minimal buffer cycle, built like a watchdog halt.

    Hops carry ``vc=None`` and ``packet=None`` — the static claim is about
    buffer rows, not concrete occupants — and VN 0: the dependency
    relation is identical across VNs. The rotation is taken in the
    emitted (possibly relabelled) link space, so a dynamic wedge and its
    static refutation compare equal directly.
    ``distinct_minimal_cycles`` annotates how many rotationally-distinct
    minimal cycles the graph contains (duplicates are already collapsed).
    """
    cycles = minimal_cycles(adjacency)
    assert cycles  # Kahn failed, so a cycle must exist
    hops = []
    for link in cycles[0]:
        pair = [_router_id(node_labels, index.link_src[link]),
                _router_id(node_labels, index.link_dst[link])]
        hops.append({
            "router": pair[1],  # the input buffer row lives at the dst
            # Port ids only exist in the full fabric numbering; a
            # renumbered component has no meaningful port to name.
            "port": link if node_labels is None else None,
            "vn": 0,
            "vc": None,
            "link": pair,
            "packet": None,
        })
    return buffer_cycle_payload(hops, distinct_minimal_cycles=len(cycles))


class _Claim(NamedTuple):
    """How one acyclicity claim names its edges, proofs and witnesses."""

    edges: str  # subject and proof key counting the dependency edges
    method: str  # proof method on one topology
    per_component: str  # proof method merged over a survivor's components
    counterexample: Callable[..., Dict[str, Any]]


#: The channel-dependency claim (credit and wormhole flow control).
_TURNS = _Claim("turns", "topological-link-order",
                "per-component-topological-link-order", _turn_cycle)
#: The pause-augmented buffer-dependency claim (pause/resume).
_BUFFERS = _Claim("pause_edges", "pause-augmented-topological-link-order",
                  "per-component-pause-augmented-link-order", _buffer_cycle)


# ----------------------------------------------------------------------
# Certification engines
# ----------------------------------------------------------------------
def certify_routing(
    topology: Topology,
    routing: Union[str, RoutingFunction],
    index: Optional[FabricIndex] = None,
    subject_extra: Optional[Mapping[str, Any]] = None,
    node_labels: Optional[Sequence[int]] = None,
    flows: Optional[Sequence[Tuple[int, int]]] = None,
    pause_model: Optional[Mapping[str, Any]] = None,
) -> Certificate:
    """Certify (or refute) acyclicity of one routing function's CDG.

    ``CERTIFIED`` means the restricted channel-dependency graph is acyclic
    — the routing function is deadlock-free by construction — and carries
    its topological link order as the proof. ``REFUTED`` carries a
    minimal cycle as the counterexample: a ``turn-cycle``, or, given the
    PFC row model *pause_model*, a ``buffer-cycle`` of the pause-augmented
    BDG (whose proof then counts ``pause_edges`` and carries the model).

    *flows* restricts the graph to the holding states those ``(src,
    dst)`` pairs reach. *node_labels* relabels router ids in the emitted
    proof or counterexample (used when certifying a renumbered component
    of a larger post-fault topology).
    """
    if index is None:
        index = FabricIndex(topology)
    name = routing if isinstance(routing, str) else type(routing).__name__
    if isinstance(routing, str):
        routing = routing_for(routing, index)
    claim = _TURNS if pause_model is None else _BUFFERS

    adjacency = build_restricted_cdg(index, routing, flows)
    num_edges = sum(len(s) for s in adjacency)
    subject = _topology_subject(topology)
    subject.update({
        "claim": "routing-acyclicity",
        "routing": name,
        claim.edges: num_edges,
    })
    if subject_extra:
        subject.update(subject_extra)
    order = topological_link_order(adjacency)
    if order is None:
        counter = claim.counterexample(index, adjacency, node_labels)
        return Certificate(REFUTED, subject, counterexample=counter)
    proof = {
        "method": claim.method,
        "links": len(index.links),
        claim.edges: num_edges,
        # The order is the checkable proof: every dependency goes
        # strictly forward in it.
        "link_order": _link_labels(index, order, node_labels),
    }
    if pause_model is not None:
        proof["pfc"] = dict(pause_model)
    return Certificate(CERTIFIED, subject, proof=proof)


def certify_drain_cover(
    topology: Topology,
    paths: Sequence[Union[DrainPath, Sequence[Link]]],
    subject_extra: Optional[Mapping[str, Any]] = None,
) -> Certificate:
    """Certify that *paths* is a valid drain cover of *topology*.

    The drain cover must consist of closed walks of legal turns (each link
    handing over to a link leaving its endpoint) that together cover every
    unidirectional link of *topology* exactly once. Refutations reuse the
    :class:`~repro.drain.path.DrainPathError` payload shape: sorted
    ``missing`` / ``extra`` link-pair lists, or the broken turn.
    """
    subject = _topology_subject(topology)
    subject.update({"claim": "drain-coverage", "cycles": len(paths)})
    if subject_extra:
        subject.update(subject_extra)
    link_lists: List[List[Link]] = [
        list(p.links) if isinstance(p, DrainPath) else [
            link if isinstance(link, Link) else Link(*link) for link in p
        ]
        for p in paths
    ]
    # Every cycle must be a closed walk of legal turns.
    for ci, links in enumerate(link_lists):
        if not links:
            counter = {"kind": "empty-cycle", "cycle": ci}
            return Certificate(REFUTED, subject, counterexample=counter)
        for i, link in enumerate(links):
            nxt = links[(i + 1) % len(links)]
            if link.dst != nxt.src:
                counter = {
                    "kind": "broken-cycle",
                    "cycle": ci,
                    "position": i,
                    "links": [_link_label(link), _link_label(nxt)],
                }
                return Certificate(REFUTED, subject, counterexample=counter)
    # Exact coverage: every surviving unidirectional link exactly once.
    expected = set(topology.unidirectional_links())
    seen: Dict[Link, int] = {}
    duplicates: List[Link] = []
    for links in link_lists:
        for link in links:
            if link in seen:
                duplicates.append(link)
            seen[link] = seen.get(link, 0) + 1
    if duplicates:
        counter = {
            "kind": "duplicate-links",
            "duplicates": _link_pairs(sorted(set(duplicates))),
        }
        return Certificate(REFUTED, subject, counterexample=counter)
    covered = set(seen)
    if covered != expected:
        err = DrainPathError(
            "drain cover does not cover the topology exactly",
            missing=expected - covered,
            extra=covered - expected,
        )
        counter = {"kind": "uncovered-links"}
        counter.update({k: v for k, v in err.as_dict().items()
                        if k != "message"})
        return Certificate(REFUTED, subject, counterexample=counter)
    proof = {
        "method": "drain-coverage",
        "cycles": len(link_lists),
        "covered_links": len(covered),
        "cycle_lengths": [len(links) for links in link_lists],
        "cycle_roots": [
            min(link.src for link in links) for links in link_lists
        ],
    }
    return Certificate(CERTIFIED, subject, proof=proof)


def apply_schedule(topology: Topology, schedule) -> Topology:
    """End-state survivor of *topology* under a fault-schedule snapshot.

    Applies every permanent event of *schedule* (transient faults heal and
    do not change the end state): link faults remove the bidirectional
    link, router faults remove every incident link (the router remains as
    an isolated node so ids keep matching). Missing targets are ignored —
    a link can die only once.
    """
    survivor = topology.copy()
    survivor.name = f"{topology.name}-post-fault"
    for event in schedule.permanent_events():
        if event.kind == "link":
            a, b = event.target
            if survivor.has_edge(a, b):
                survivor.remove_edge(a, b)
        else:
            router = event.target[0]
            for m in list(survivor.neighbors(router)):
                survivor.remove_edge(router, m)
    return survivor


def _component_compact(
    topology: Topology, members: Sequence[int]
) -> Topology:
    """One component renumbered to ``0..len(members)-1`` (connected).

    Routing functions build strictly (every pair must be routable), so
    they need a view without the isolated-node padding; pair this with
    ``node_labels=members`` to keep original ids in certificates.
    """
    renumber = {orig: i for i, orig in enumerate(members)}
    member_set = set(members)
    edges = [
        (renumber[a], renumber[b])
        for a, b in topology.bidirectional_links()
        if a in member_set
    ]
    return Topology(
        len(members), edges, name=f"{topology.name}-c{members[0]}"
    )


def _certify_components(
    survivor: Topology,
    subject: Mapping[str, Any],
    routing: Optional[str],
    flows: Optional[Sequence[Tuple[int, int]]] = None,
    pause_model: Optional[Mapping[str, Any]] = None,
) -> Certificate:
    """Certify *routing*'s acyclicity on each component of *survivor*.

    *routing* ``None`` is the simulator's escape selection, built once per
    certified topology over one index. No link left refutes with
    ``no-links``; a survivor that is one whole component is certified
    directly (coordinates and router ids are preserved, so DOR stays
    instantiable); otherwise each component is certified renumbered, and
    the first refutation or the merged certificate is returned. *subject*
    holds the claim's own subject entries, over the survivor's topology
    entries for the refutation and the merged certificate.
    """
    def certify(topo: Topology, topo_flows, node_labels=None) -> Certificate:
        index = FabricIndex(topo)
        if routing is None:
            function = select_escape_routing(index)
            name = "dor" if isinstance(function, DimensionOrderRouting) else "updown"
        else:
            function, name = routing_for(routing, index), routing
        return certify_routing(
            topo, function, index=index,
            subject_extra={**subject, "routing": name},
            node_labels=node_labels, flows=topo_flows, pause_model=pause_model,
        )

    components = survivor.link_components()
    merged = {**_topology_subject(survivor), **subject}
    if not components:
        return Certificate(REFUTED, merged,
                           counterexample={"kind": "no-links", "links": 0})
    if len(components) == 1 and len(components[0]) == survivor.num_nodes:
        return certify(survivor, flows)
    for members in components:
        renumber = {orig: i for i, orig in enumerate(members)}
        # Flows crossing components can never be routed, so they occupy
        # no network buffer and add no dependency.
        cert = certify(
            _component_compact(survivor, members),
            None if flows is None else [
                (renumber[s], renumber[d]) for s, d in flows
                if s in renumber and d in renumber
            ],
            members,
        )
        if not cert.certified:
            return cert
    merged.update({
        # DOR needs an XY route between every pair, so it never builds on
        # a survivor that is not one connected component.
        "routing": routing or "updown",
        "components": len(components),
    })
    proof = {
        "method": (_TURNS if pause_model is None else _BUFFERS).per_component,
        "components": len(components),
        "component_roots": [members[0] for members in components],
    }
    if pause_model is not None:
        proof["pfc"] = dict(pause_model)
    return Certificate(CERTIFIED, merged, proof=proof)


#: Schemes whose escape VC bypasses XOFF under pause/resume, so their
#: credit claim carries over: (proof method, key of the wrapped credit
#: proof, the exemption's account).
_PAUSE_EXEMPT = {
    Scheme.DRAIN: (
        "pause-exempt-drain-cover", "drain",
        "escape (VC0) claims bypass XOFF, so drain rotations proceed "
        "regardless of pause state; the drain cover then guarantees "
        "eventual progress exactly as in credit mode",
    ),
    Scheme.ESCAPE_VC: (
        "pause-exempt-escape-acyclicity", "escape",
        "escape (VC0) claims bypass XOFF, so the escape sub-network keeps "
        "its credit-mode behaviour; its acyclic dependency graph "
        "guarantees every escape packet progresses, and adaptive packets "
        "always hold an escape candidate",
    ),
}


def certify_configuration(
    topology: Topology,
    config: SimConfig,
    *,
    flows: Optional[Sequence[Tuple[int, int]]] = None,
    routing: Optional[str] = None,
    schedule=None,
    method: str = "euler",
    max_circuits: Optional[int] = None,
) -> Certificate:
    """Certify one (topology, config, routing, faults) configuration.

    *config* (a :class:`~repro.core.config.SimConfig`, which has already
    refused infeasible PFC thresholds and schemes its fabric does not
    model) picks the claim. Credit and wormhole flow control:

    - ``drain``: the drain cover, constructed per surviving component
      with *method* (``euler`` or ``hawick-james``, the latter bounded
      by *max_circuits*), covers every surviving unidirectional link
      exactly once;
    - ``updown``: the up*/down* dependency graph is acyclic;
    - ``escape_vc``: the escape sub-network's routing (DOR on a complete
      mesh, up*/down* otherwise — the simulator's own selection) is
      acyclic;
    - everything else (``none``/``spin``/``static_bubble``/``ideal``, or
      an explicit *routing* name): the main routing function's dependency
      graph — fully adaptive routing is expected to be **refuted**, with
      the minimal turn-cycle as the witness; those schemes rely on
      runtime recovery, not on a static property.

    ``flow_control="pause_resume"``: ``drain`` and ``escape_vc`` (with no
    explicit *routing*) keep their credit claim through the escape-VC
    pause exemption, wrapped in a ``pause-exempt-*`` proof; every other
    scheme is decided on the pause-augmented BDG of its routing relation
    (``updown`` or fully adaptive), restricted to *flows* (``(src, dst)``
    pairs; ``None`` is all-pairs) — expected ``REFUTED`` for adaptive
    routing, with the minimal CBD buffer cycle (canonical rotation,
    watchdog payload shape) as the counterexample. *flows* shapes only
    this claim.

    *schedule* (a :class:`~repro.faults.schedule.FaultSchedule`) is
    applied first; certification then runs over the survivor, per
    connected component where components exist.
    """
    scheme = config.scheme
    survivor = apply_schedule(topology, schedule) if schedule else topology
    extra: Dict[str, Any] = {"scheme": scheme.value}
    if schedule is not None:
        extra["faults_applied"] = len(schedule.permanent_events())
    if routing is None and scheme not in _PAUSE_EXEMPT:
        routing = "updown" if scheme is Scheme.UPDOWN else "adaptive"
    # routing stays None for DRAIN (its claim is the drain cover) and for
    # ESCAPE_VC (the escape selection); those are the exempt schemes.

    pause = config.flow_control == "pause_resume"
    if pause:
        flow_list: Optional[List[Tuple[int, int]]] = None
        if flows is not None:
            flow_list = sorted({(int(s), int(d)) for s, d in flows})
            for s, d in flow_list:
                if not (0 <= s < survivor.num_nodes
                        and 0 <= d < survivor.num_nodes):
                    raise ValueError(
                        f"flow ({s}, {d}) names a router outside the "
                        "topology"
                    )
                if s == d:
                    raise ValueError(
                        f"flow ({s}, {d}) has identical endpoints"
                    )
        pause_model = {
            "pause_threshold": config.pfc.pause_threshold,
            "resume_threshold": config.pfc.resume_threshold,
            "headroom": config.pfc.headroom,
            "row_depth": config.network.vcs_per_vn,
            "rows": 2 * survivor.num_edges * config.network.num_vns,
            "exempt_escape_vc": routing is None,
        }
        subject = _topology_subject(survivor)
        subject.update({
            "claim": "pause-deadlock-freedom",
            "flow_control": "pause_resume",
            "flows": "all-pairs" if flow_list is None else len(flow_list),
            "vn": 0,
            "pfc": dict(pause_model),
            **extra,
        })
        if routing is not None:
            return _certify_components(
                survivor, subject, routing, flow_list, pause_model
            )

    if routing is None and scheme is Scheme.DRAIN:
        cert = _construct_drain_cover(survivor, method, max_circuits)
        if not isinstance(cert, Certificate):
            cert = certify_drain_cover(survivor, cert, subject_extra=extra)
    else:
        cert = _certify_components(
            survivor, {"claim": "routing-acyclicity", **extra}, routing
        )
    if not pause:
        return cert
    if not cert.certified:
        return Certificate(REFUTED, subject,
                           counterexample=dict(cert.counterexample or {}))
    proof_method, key, account = _PAUSE_EXEMPT[scheme]
    if "cycles" in cert.subject:
        subject["cycles"] = cert.subject["cycles"]
    proof = {
        "method": proof_method,
        "pfc": dict(pause_model),
        "exemption": {
            "escape_vc": 0,
            "pause_exempt_escape": True,
            "account": account,
        },
        key: dict(cert.proof or {}),
    }
    return Certificate(CERTIFIED, subject, proof=proof)


def _construct_drain_cover(
    survivor: Topology,
    method: str,
    max_circuits: Optional[int],
) -> Union[List[DrainPath], Certificate]:
    """Build one drain cycle per surviving component, or a refutation."""
    components = survivor.link_components()
    if not components:
        subject = _topology_subject(survivor)
        subject.update({"claim": "drain-coverage", "cycles": 0})
        return Certificate(
            REFUTED, subject,
            counterexample={"kind": "no-links", "links": 0},
        )
    if (method == "euler" and len(components) == 1
            and len(components[0]) == survivor.num_nodes):
        # A connected survivor is its own single component, and its Euler
        # cover rooted at router 0 is the very path the drain controller
        # boots with: both come from the structure store's memo.
        return [find_drain_path(survivor)]
    paths: List[DrainPath] = []
    for members in components:
        comp = survivor.component(members)
        try:
            if method == "hawick-james":
                paths.append(
                    hawick_james_drain_path(comp, max_circuits=max_circuits)
                )
            elif method == "euler":
                # start= skips the global connectivity precondition, which
                # the isolated-node padding of full-numbering components
                # would otherwise fail.
                paths.append(euler_drain_path(comp, start=members[0]))
            else:
                raise ValueError(f"unknown drain-path method {method!r}")
        except DrainPathError as exc:
            subject = _topology_subject(survivor)
            subject.update({"claim": "drain-coverage", "cycles": len(paths)})
            counter = {"kind": "uncovered-links", "component": comp.name}
            counter.update({k: v for k, v in exc.as_dict().items()
                            if k != "message"})
            return Certificate(REFUTED, subject, counterexample=counter)
    return paths
