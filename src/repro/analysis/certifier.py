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

**Pause-aware mode** (:func:`certify_pause_configuration`) extends the
same machinery to ``flow_control="pause_resume"``. Under PFC the blocking
unit is a whole buffer *row* — the ``vcs_per_vn`` slots of one (link
port, VN) pair: a row at its pause threshold asserts XOFF and stalls
*every* packet class sharing that port, not only the turn whose packets
filled it. Per-class escape disciplines therefore cannot break a
dependency the turn relation allows, and the buffer-dependency graph
(BDG) collapses onto link granularity: the pause-augmented BDG is the
turn-edge graph over the *full* candidate relation, optionally restricted
to a concrete flow set's reachable holding states. Two escape facts are
modelled explicitly: headroom feasibility (``pause_threshold + headroom
<= vcs_per_vn``, or the configuration cannot stay lossless at all), and
the escape-VC pause exemption (the pause fabric lets escape/VC0 claims
bypass XOFF whenever an escape mode is active), which restores the
credit-mode arguments for the drain and escape-VC schemes. Refutations
are emitted as a minimal *buffer cycle* by the builder the runtime
watchdog halt uses (:func:`~repro.analysis.certificate.
buffer_cycle_payload`), in its canonical rotation, so differential
comparison against a live wedge is a plain equality check on the
``links`` field.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import PfcConfig, Scheme
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
    "certify_pause_configuration",
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


# ----------------------------------------------------------------------
# Certification engines
# ----------------------------------------------------------------------
def certify_routing(
    topology: Topology,
    routing: Union[str, RoutingFunction],
    index: Optional[FabricIndex] = None,
    subject_extra: Optional[Mapping[str, Any]] = None,
    node_labels: Optional[Sequence[int]] = None,
) -> Certificate:
    """Certify (or refute) acyclicity of one routing function's CDG.

    ``CERTIFIED`` means the restricted channel-dependency graph is acyclic
    — the routing function is deadlock-free by construction. ``REFUTED``
    carries a minimal reachable turn-cycle as the counterexample.

    *node_labels* relabels router ids in the emitted proof or
    counterexample (used when certifying a renumbered component of a
    larger post-fault topology).
    """
    if index is None:
        index = FabricIndex(topology)
    name = routing if isinstance(routing, str) else type(routing).__name__
    if isinstance(routing, str):
        routing = routing_for(routing, index)

    def label(link: Link) -> str:
        if node_labels is None:
            return _link_label(link)
        return f"{node_labels[link.src]}->{node_labels[link.dst]}"

    adjacency = build_restricted_cdg(index, routing)
    num_turns = sum(len(s) for s in adjacency)
    subject = _topology_subject(topology)
    subject.update({
        "claim": "routing-acyclicity",
        "routing": name,
        "turns": num_turns,
    })
    if subject_extra:
        subject.update(subject_extra)
    order = topological_link_order(adjacency)
    if order is not None:
        links = index.links
        proof = {
            "method": "topological-link-order",
            "links": len(links),
            "turns": num_turns,
            # The order is the checkable proof: every legal turn goes
            # strictly forward in it.
            "link_order": [label(links[i]) for i in order],
        }
        return Certificate(CERTIFIED, subject, proof=proof)
    cycle = find_turn_cycle(adjacency)
    assert cycle is not None  # Kahn failed, so a cycle must exist
    routers = [index.link_src[i] for i in cycle]
    if node_labels is not None:
        routers = [node_labels[r] for r in routers]
    counter = {
        "kind": "turn-cycle",
        "length": len(cycle),
        "links": [label(index.links[i]) for i in cycle],
        "routers": routers,
    }
    return Certificate(REFUTED, subject, counterexample=counter)


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


def _component_members(topology: Topology) -> List[List[int]]:
    """Sorted member lists of each connected component with >= 1 link."""
    seen: set = set()
    components: List[List[int]] = []
    for node in topology.nodes:
        if node in seen or topology.degree(node) == 0:
            continue
        members = {node}
        frontier = [node]
        while frontier:
            n = frontier.pop()
            for m in topology.neighbors(n):
                if m not in members:
                    members.add(m)
                    frontier.append(m)
        seen |= members
        components.append(sorted(members))
    return components


def _component_full(topology: Topology, members: Sequence[int]) -> Topology:
    """One component as a sub-topology on the *full* router numbering.

    Routers outside the component stay as isolated nodes, so the
    component's links keep their original ``src``/``dst`` ids — required
    for drain covers, whose cycles must name real fabric ports.
    """
    member_set = set(members)
    edges = [
        (a, b) for a, b in topology.bidirectional_links() if a in member_set
    ]
    return Topology(
        topology.num_nodes, edges, name=f"{topology.name}-c{members[0]}"
    )


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


def certify_configuration(
    topology: Topology,
    scheme: Union[Scheme, str] = Scheme.DRAIN,
    routing: Optional[str] = None,
    drain_paths: Optional[Sequence[Union[DrainPath, Sequence[Link]]]] = None,
    schedule=None,
    method: str = "euler",
    max_circuits: Optional[int] = None,
) -> Certificate:
    """Certify one full (topology, scheme/routing, drain, faults) config.

    The static claim checked depends on the scheme:

    - ``drain``: the drain cover (given via *drain_paths*, or constructed
      per surviving component with *method*) covers every surviving
      unidirectional link exactly once;
    - ``updown``: the up*/down* dependency graph is acyclic;
    - ``escape_vc``: the escape sub-network's routing (DOR on a complete
      mesh, up*/down* otherwise — the simulator's own selection) is
      acyclic;
    - everything else (``none``/``spin``/``static_bubble``/``ideal``, or
      an explicit *routing* name): the main routing function's dependency
      graph — fully adaptive routing is expected to be **refuted**, with
      the minimal turn-cycle as the witness; those schemes rely on
      runtime recovery, not on a static property.

    *schedule* (a :class:`~repro.faults.schedule.FaultSchedule`) is
    applied first; certification then runs over the survivor, per
    connected component where components exist.
    """
    scheme = Scheme(scheme)
    survivor = apply_schedule(topology, schedule) if schedule else topology
    fault_extra: Dict[str, Any] = {}
    if schedule is not None:
        fault_extra["faults_applied"] = len(schedule.permanent_events())

    if routing is None and scheme is Scheme.DRAIN:
        if drain_paths is None:
            drain_paths = _construct_drain_cover(
                survivor, method=method, max_circuits=max_circuits
            )
            if isinstance(drain_paths, Certificate):  # construction refuted
                return drain_paths
        cert = certify_drain_cover(
            survivor, drain_paths,
            subject_extra={"scheme": scheme.value, **fault_extra},
        )
        return cert

    if routing is None and scheme is Scheme.UPDOWN:
        routing = "updown"
    elif routing is None and scheme is not Scheme.ESCAPE_VC:
        routing = "adaptive"
    # routing stays None for ESCAPE_VC: each certified topology gets the
    # simulator's own escape selection, built once over one index.

    def certify(topo: Topology, **kwargs) -> Certificate:
        index = FabricIndex(topo)
        if routing is None:
            function = select_escape_routing(index)
            name = "dor" if isinstance(function, DimensionOrderRouting) else "updown"
        else:
            function, name = routing_for(routing, index), routing
        return certify_routing(
            topo, function, index=index,
            subject_extra={"routing": name, "scheme": scheme.value,
                           **fault_extra},
            **kwargs,
        )

    components = _component_members(survivor)
    if not components:
        return Certificate(
            REFUTED,
            {**_topology_subject(survivor), "claim": "routing-acyclicity",
             "scheme": scheme.value, **fault_extra},
            counterexample={"kind": "no-links", "links": 0},
        )
    if len(components) == 1 and len(components[0]) == survivor.num_nodes:
        # Fully connected: certify the survivor directly (coordinates and
        # router ids are preserved, so DOR stays instantiable).
        return certify(survivor)
    certs: List[Certificate] = []
    for members in components:
        cert = certify(_component_compact(survivor, members),
                       node_labels=members)
        if not cert.certified:
            return cert
        certs.append(cert)
    subject = _topology_subject(survivor)
    subject.update({
        "claim": "routing-acyclicity",
        # DOR needs an XY route between every pair, so it never builds on
        # a survivor that is not one connected component.
        "routing": routing or "updown",
        "scheme": scheme.value,
        "components": len(components),
        **fault_extra,
    })
    proof = {
        "method": "per-component-topological-link-order",
        "components": len(components),
        "component_roots": [members[0] for members in components],
    }
    return Certificate(CERTIFIED, subject, proof=proof)


# ----------------------------------------------------------------------
# Pause-aware certification (flow_control="pause_resume")
# ----------------------------------------------------------------------
def _static_buffer_cycle(
    index: FabricIndex,
    cycle: Sequence[int],
    vn: int,
    node_labels: Optional[Sequence[int]] = None,
    distinct: int = 1,
) -> Dict[str, Any]:
    """A static buffer cycle, built like a watchdog halt payload.

    Hops carry ``vc=None`` and ``packet=None`` — the static claim is about
    buffer rows, not concrete occupants. The rotation is taken in the
    emitted (possibly relabelled) link space, so a dynamic wedge and its
    static refutation compare equal directly.
    ``distinct_minimal_cycles`` annotates how many rotationally-distinct
    minimal cycles the graph contains (duplicates are already collapsed).
    """
    def nid(router: int) -> int:
        return router if node_labels is None else node_labels[router]

    hops = []
    for link in cycle:
        pair = [nid(index.link_src[link]), nid(index.link_dst[link])]
        hops.append({
            "router": pair[1],  # the input buffer row lives at the dst
            # Port ids only exist in the full fabric numbering; a
            # renumbered component has no meaningful port to name.
            "port": link if node_labels is None else None,
            "vn": vn,
            "vc": None,
            "link": pair,
            "packet": None,
        })
    return buffer_cycle_payload(hops, distinct_minimal_cycles=distinct)


def _certify_pause_bdg(
    topology: Topology,
    routing_name: str,
    flows: Optional[Sequence[Tuple[int, int]]],
    vn: int,
    subject: Mapping[str, Any],
    pause_model: Mapping[str, Any],
    node_labels: Optional[Sequence[int]] = None,
) -> Certificate:
    """Certify acyclicity of one component's pause-augmented BDG."""
    index = FabricIndex(topology)
    routing = routing_for(routing_name, index)
    adjacency = build_restricted_cdg(index, routing, flows)
    pause_edges = sum(len(s) for s in adjacency)
    subject = dict(subject)
    subject.update({"routing": routing_name, "pause_edges": pause_edges})

    def label(link: Link) -> str:
        if node_labels is None:
            return _link_label(link)
        return f"{node_labels[link.src]}->{node_labels[link.dst]}"

    order = topological_link_order(adjacency)
    if order is not None:
        links = index.links
        proof = {
            "method": "pause-augmented-topological-link-order",
            "links": len(links),
            "pause_edges": pause_edges,
            "pfc": dict(pause_model),
            # The order is the checkable proof: every pause-augmented
            # buffer dependency goes strictly forward in it.
            "link_order": [label(links[i]) for i in order],
        }
        return Certificate(CERTIFIED, subject, proof=proof)
    cycles = minimal_cycles(adjacency)
    assert cycles  # Kahn failed, so a cycle must exist
    counter = _static_buffer_cycle(
        index, cycles[0], vn, node_labels=node_labels, distinct=len(cycles)
    )
    return Certificate(REFUTED, subject, counterexample=counter)


def certify_pause_configuration(
    topology: Topology,
    scheme: Union[Scheme, str] = Scheme.NONE,
    pfc: Optional[PfcConfig] = None,
    vcs_per_vn: int = 2,
    num_vns: int = 1,
    flows: Optional[Sequence[Tuple[int, int]]] = None,
    routing: Optional[str] = None,
    schedule=None,
    method: str = "euler",
    max_circuits: Optional[int] = None,
    vn: int = 0,
) -> Certificate:
    """Certify one lossless (``flow_control="pause_resume"``) config.

    Infeasible :class:`~repro.core.config.PfcConfig` rows (thresholds
    that do not fit the ``vcs_per_vn`` row depth) raise ``ValueError``
    with the shared feasibility detail — such a configuration cannot even
    stay lossless, so there is nothing to certify. Feasible ones are
    decided per scheme:

    - ``drain``: the escape-VC pause exemption lets drain rotations
      bypass XOFF, so the credit-mode drain-cover account carries over —
      ``CERTIFIED`` with the cover plus an exemption account, or
      ``REFUTED`` with the cover defect;
    - ``escape_vc``: the exemption keeps the escape sub-network credit-
      behaved — ``CERTIFIED`` iff its restricted CDG is acyclic;
    - ``updown`` (or an explicit *routing* name): no exemption applies —
      ``CERTIFIED`` iff the pause-augmented BDG over that routing
      relation, restricted to *flows*, is acyclic;
    - everything else (``none``/``spin``/``static_bubble``/``ideal``):
      the pause-augmented BDG over the fully-adaptive relation — expected
      ``REFUTED``, with the minimal CBD buffer cycle (canonical rotation,
      watchdog payload shape) as the counterexample.

    *flows* restricts the BDG to the holding states a concrete flow set
    can reach (the harness's lossless trials pin exactly such sets);
    *vn* only labels the emitted counterexample rows — the dependency
    relation is identical across VNs.
    """
    scheme = Scheme(scheme)
    pfc = PfcConfig() if pfc is None else pfc
    if vcs_per_vn < 1:
        raise ValueError("vcs_per_vn must be at least 1")
    if num_vns < 1:
        raise ValueError("num_vns must be at least 1")
    if not 0 <= vn < num_vns:
        raise ValueError(f"vn {vn} outside 0..{num_vns - 1}")
    err = pfc.feasibility_error(vcs_per_vn)
    if err is not None:
        raise ValueError(err)

    survivor = apply_schedule(topology, schedule) if schedule else topology
    fault_extra: Dict[str, Any] = {}
    if schedule is not None:
        fault_extra["faults_applied"] = len(schedule.permanent_events())

    flow_list: Optional[List[Tuple[int, int]]] = None
    if flows is not None:
        flow_list = sorted({(int(s), int(d)) for s, d in flows})
        for s, d in flow_list:
            if not (0 <= s < survivor.num_nodes
                    and 0 <= d < survivor.num_nodes):
                raise ValueError(
                    f"flow ({s}, {d}) names a router outside the topology"
                )
            if s == d:
                raise ValueError(f"flow ({s}, {d}) has identical endpoints")

    exempt = routing is None and scheme in (Scheme.DRAIN, Scheme.ESCAPE_VC)
    pause_model = {
        "pause_threshold": pfc.pause_threshold,
        "resume_threshold": pfc.resume_threshold,
        "headroom": pfc.headroom,
        "row_depth": vcs_per_vn,
        "rows": 2 * survivor.num_edges * num_vns,
        "exempt_escape_vc": exempt,
    }
    subject = _topology_subject(survivor)
    subject.update({
        "claim": "pause-deadlock-freedom",
        "scheme": scheme.value,
        "flow_control": "pause_resume",
        "flows": "all-pairs" if flow_list is None else len(flow_list),
        "vn": vn,
        "pfc": dict(pause_model),
        **fault_extra,
    })

    if routing is None and scheme is Scheme.DRAIN:
        inner = certify_configuration(
            survivor, Scheme.DRAIN, method=method, max_circuits=max_circuits
        )
        if inner.certified:
            proof = {
                "method": "pause-exempt-drain-cover",
                "pfc": dict(pause_model),
                "exemption": {
                    "escape_vc": 0,
                    "pause_exempt_escape": True,
                    "account": (
                        "escape (VC0) claims bypass XOFF, so drain "
                        "rotations proceed regardless of pause state; the "
                        "drain cover then guarantees eventual progress "
                        "exactly as in credit mode"
                    ),
                },
                "drain": dict(inner.proof or {}),
            }
            subject["cycles"] = inner.subject.get("cycles")
            return Certificate(CERTIFIED, subject, proof=proof)
        return Certificate(
            REFUTED, subject,
            counterexample=dict(inner.counterexample or {}),
        )

    if routing is None and scheme is Scheme.ESCAPE_VC:
        inner = certify_configuration(survivor, Scheme.ESCAPE_VC)
        if inner.certified:
            proof = {
                "method": "pause-exempt-escape-acyclicity",
                "pfc": dict(pause_model),
                "exemption": {
                    "escape_vc": 0,
                    "pause_exempt_escape": True,
                    "account": (
                        "escape (VC0) claims bypass XOFF, so the escape "
                        "sub-network keeps its credit-mode behaviour; its "
                        "acyclic dependency graph guarantees every escape "
                        "packet progresses, and adaptive packets always "
                        "hold an escape candidate"
                    ),
                },
                "escape": dict(inner.proof or {}),
            }
            return Certificate(CERTIFIED, subject, proof=proof)
        return Certificate(
            REFUTED, subject,
            counterexample=dict(inner.counterexample or {}),
        )

    if routing is None:
        routing = "updown" if scheme is Scheme.UPDOWN else "adaptive"
    components = _component_members(survivor)
    if not components:
        return Certificate(
            REFUTED, subject,
            counterexample={"kind": "no-links", "links": 0},
        )
    if len(components) == 1 and len(components[0]) == survivor.num_nodes:
        return _certify_pause_bdg(
            survivor, routing, flow_list, vn, subject, pause_model
        )
    roots: List[int] = []
    for members in components:
        comp = _component_compact(survivor, members)
        comp_flows: Optional[List[Tuple[int, int]]] = None
        if flow_list is not None:
            member_set = set(members)
            renumber = {orig: i for i, orig in enumerate(members)}
            # Flows crossing components can never be routed, so they
            # occupy no network buffer and add no dependency.
            comp_flows = [
                (renumber[s], renumber[d]) for s, d in flow_list
                if s in member_set and d in member_set
            ]
        cert = _certify_pause_bdg(
            comp, routing, comp_flows, vn, subject, pause_model,
            node_labels=members,
        )
        if not cert.certified:
            return cert
        roots.append(members[0])
    subject = dict(subject)
    subject.update({"routing": routing, "components": len(components)})
    proof = {
        "method": "per-component-pause-augmented-link-order",
        "components": len(components),
        "component_roots": roots,
        "pfc": dict(pause_model),
    }
    return Certificate(CERTIFIED, subject, proof=proof)


def _construct_drain_cover(
    survivor: Topology,
    method: str,
    max_circuits: Optional[int],
) -> Union[List[DrainPath], Certificate]:
    """Build one drain cycle per surviving component, or a refutation."""
    components = _component_members(survivor)
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
        comp = _component_full(survivor, members)
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
