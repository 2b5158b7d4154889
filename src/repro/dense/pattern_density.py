"""All pattern-densest subgraphs of a deterministic graph (Algorithms 4/3/7).

The second novel enumeration contribution of the paper.  The pipeline is
the pattern analogue of Algorithm 2, with one twist (Algorithm 7, from
Fang et al. [5]): the flow network contains one node per *group* of
pattern instances sharing a node set, not one per instance, shrinking the
network.  For a group ``g`` with node set ``lam``:

* ``c(v, lam) = |g|`` and ``c(lam, v) = |g| (|V_psi| - 1)`` for ``v in lam``,
* ``c(s, v) = deg_G(v, psi)`` (instances containing ``v``),
* ``c(v, t) = |V_psi| * alpha``.

At ``alpha = rho*_psi`` the minimum cut has capacity ``|V_psi| mu_psi(G)``
(Lemma 11), and the residual SCC enumeration of Algorithm 3 produces every
pattern-densest subgraph exactly once.  That pipeline is shared with
h-clique density in :mod:`repro.dense.instance_density`; this module
supplies the pattern instances and Algorithm 7's network.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..flow.network import FlowNetwork
from ..graph.graph import Graph, Node
from ..patterns.matching import (
    NodeSet,
    enumerate_instances,
    group_instances,
    instance_nodes,
)
from ..patterns.pattern import Pattern
from .goldberg import SINK, SOURCE, DensestResult
from .instance_density import (
    InstanceFamily,
    enumerate_instance_densest_subgraphs,
    instance_densest_subgraph,
    maximum_sized_instance_densest_subgraph,
)


def _group_label(nodes: NodeSet) -> Tuple[str, NodeSet]:
    """Network label for an instance group (disjoint from graph nodes)."""
    return ("__group__", nodes)


def build_pattern_density_network(
    graph: Graph,
    pattern: Pattern,
    alpha: Fraction,
    groups: Dict[NodeSet, int],
) -> FlowNetwork:
    """Construct the flow network of Algorithm 7, scaled to integers."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    size = pattern.number_of_nodes()
    degrees: Dict[Node, int] = {node: 0 for node in graph}
    for nodes, multiplicity in groups.items():
        for node in nodes:
            degrees[node] += multiplicity
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    for node in graph:
        network.add_arc(SOURCE, node, q * degrees[node])
        network.add_arc(node, SINK, size * p)
    for nodes, multiplicity in groups.items():
        label = _group_label(nodes)
        for member in nodes:
            network.add_arc_pair(
                member,
                label,
                q * multiplicity,
                q * multiplicity * (size - 1),
            )
    return network


def _family(pattern: Pattern) -> InstanceFamily:
    """Pattern instances; Algorithm 7's network over instance groups."""

    def network(core: Graph):
        groups = group_instances(core, pattern)
        return (
            lambda alpha: build_pattern_density_network(core, pattern, alpha, groups),
            sum(groups.values()),
        )

    return InstanceFamily(
        pattern.number_of_nodes(),
        lambda graph: [
            instance_nodes(instance)
            for instance in enumerate_instances(graph, pattern)
        ],
        network,
    )


def pattern_densest_subgraph(graph: Graph, pattern: Pattern) -> DensestResult:
    """Return the exact maximum pattern density ``rho*_psi`` and a witness."""
    return instance_densest_subgraph(graph, _family(pattern))


def enumerate_all_pattern_densest_subgraphs(
    graph: Graph, pattern: Pattern, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield every pattern-densest subgraph exactly once (Appendix B)."""
    return enumerate_instance_densest_subgraphs(graph, _family(pattern), limit)


def all_pattern_densest_subgraphs(
    graph: Graph, pattern: Pattern, limit: Optional[int] = None
) -> List[FrozenSet[Node]]:
    """Return all pattern-densest subgraphs as a list."""
    return list(enumerate_all_pattern_densest_subgraphs(graph, pattern, limit))


def maximum_sized_pattern_densest_subgraph(
    graph: Graph, pattern: Pattern
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*_psi, nodes)`` of the maximum-sized pattern-densest subgraph."""
    return maximum_sized_instance_densest_subgraph(graph, _family(pattern))


def maximum_pattern_density(graph: Graph, pattern: Pattern) -> Fraction:
    """Return rho*_psi, the maximum pattern density over all subgraphs."""
    return pattern_densest_subgraph(graph, pattern).density
