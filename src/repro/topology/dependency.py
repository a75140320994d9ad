"""Channel-dependency graph over unidirectional links.

The drain-path algorithm (Section III-B) operates on a graph ``G`` whose
nodes are the unidirectional links of the topology and whose directed edges
are the turns between consecutive links: there is an edge ``l -> m`` when a
packet arriving on link ``l`` can depart on link ``m``, i.e. when
``l.dst == m.src``. Per assumption 3 of the paper, *every* turn is allowed,
including the U-turn ``l -> l.reverse``.

A *restricted* view of the same graph — only the turns some routing
function lets a packet take — is what deadlock-freedom proofs live on: the
routing function is deadlock-free iff its restricted turn graph is acyclic
(Dally-Seitz). The static certifier builds that subgraph from the routing
function's own tables
(:func:`~repro.analysis.certifier.build_restricted_cdg`), not from this
module; :meth:`DependencyGraph.adjacency_indices` gives the unrestricted
graph in the same adjacency-list shape.
"""

from __future__ import annotations

from typing import Dict, List

from .graph import Link, Topology

__all__ = ["DependencyGraph", "build_dependency_graph"]


class DependencyGraph:
    """Directed turn graph: nodes are unidirectional links, edges are turns."""

    def __init__(self, topology: Topology, allow_u_turns: bool = True) -> None:
        self.topology = topology
        self.allow_u_turns = allow_u_turns
        self.links: List[Link] = topology.unidirectional_links()
        self._successors: Dict[Link, List[Link]] = {}
        for link in self.links:
            outs = []
            for nxt in topology.links_out_of(link.dst):
                if not allow_u_turns and nxt == link.reverse:
                    continue
                outs.append(nxt)
            self._successors[link] = outs

    def successors(self, link: Link) -> List[Link]:
        """Links reachable from *link* via one legal turn."""
        return list(self._successors[link])

    def has_turn(self, from_link: Link, to_link: Link) -> bool:
        return to_link in self._successors.get(from_link, ())

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_turns(self) -> int:
        return sum(len(v) for v in self._successors.values())

    def index_of(self) -> Dict[Link, int]:
        """Stable link -> small-integer index map for array-based algorithms."""
        return {link: i for i, link in enumerate(self.links)}

    def adjacency_indices(self) -> List[List[int]]:
        """Successor lists in index space (for Hawick-James)."""
        index = self.index_of()
        return [
            sorted(index[m] for m in self._successors[link]) for link in self.links
        ]


def build_dependency_graph(
    topology: Topology, allow_u_turns: bool = True
) -> DependencyGraph:
    """Build the turn (channel-dependency) graph of *topology*."""
    return DependencyGraph(topology, allow_u_turns=allow_u_turns)
