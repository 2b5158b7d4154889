"""All h-clique-densest subgraphs of a deterministic graph (Algorithms 2/3/6).

This is one of the paper's novel technical contributions: no prior work
enumerated *all* clique-densest subgraphs.  The pipeline mirrors Algorithm 2:

1. ``rho~`` from h-clique peeling [19]; shrink to the (ceil(rho~), h)-core;
2. ``Lambda`` = all (h-1)-cliques contained in h-cliques [56];
3. compute the exact optimum ``rho*_h`` (the paper uses the convex-program
   solver of [57]; we binary-search the same flow network, which is exact --
   see DESIGN.md substitutions -- and also ship a kClist++-style solver in
   :mod:`repro.dense.kclistpp` for the ablation);
4. build the flow network of Algorithm 6 at ``alpha = rho*_h``, max-flow,
   condense the residual graph, and enumerate independent component sets
   (Algorithm 3, Theorem 4: each densest subgraph exactly once).

The minimum s-t cut at ``alpha = rho*_h`` has capacity ``h * mu_h(G)``
(Corollary 1), which we assert after scaling capacities to integers.
Steps 1, 3 and 4 are the shared pipeline of
:mod:`repro.dense.instance_density`; this module supplies the h-clique
instances and Algorithm 6's network.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..cliques.enumeration import (
    Clique,
    enumerate_cliques,
    sub_cliques_of_h_cliques,
)
from ..flow.network import FlowNetwork
from ..graph.graph import Graph, Node
from .all_densest import enumerate_all_densest_subgraphs, maximum_sized_densest_subgraph
from .goldberg import SINK, SOURCE, DensestResult, densest_subgraph
from .instance_density import (
    InstanceFamily,
    enumerate_instance_densest_subgraphs,
    instance_densest_subgraph,
    maximum_sized_instance_densest_subgraph,
)


def _clique_label(lam: Clique) -> Tuple[str, Clique]:
    """Network label for an (h-1)-clique node (disjoint from graph nodes)."""
    return ("__clique__", lam)


def build_clique_density_network(
    graph: Graph,
    h: int,
    alpha: Fraction,
    lambdas: List[Clique],
    completions: Dict[Clique, List[Node]],
) -> FlowNetwork:
    """Construct the flow network of Algorithm 6, scaled by ``alpha``'s denominator.

    * ``c(s, v) = q * deg_G(v, h)`` (h-clique degree),
    * ``c(v, t) = h * p`` where ``alpha = p / q``,
    * ``c(lam, v) = infinity`` for each node ``v`` of the (h-1)-clique,
    * ``c(v, lam) = q`` for each ``v`` completing ``lam`` into an h-clique.
    """
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    degrees: Dict[Node, int] = {node: 0 for node in graph}
    for lam, nodes in completions.items():
        for node in nodes:
            degrees[node] += 1
    # deg(v, h) counts h-cliques containing v; each h-clique containing v
    # appears exactly once as (lam, v) with lam = clique minus v.
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    total_cliques = sum(len(nodes) for nodes in completions.values()) // h
    infinite = h * max(total_cliques, 1) * q + 1
    for node in graph:
        network.add_arc(SOURCE, node, q * degrees[node])
        network.add_arc(node, SINK, h * p)
    for lam in lambdas:
        label = _clique_label(lam)
        for member in lam:
            network.add_arc(label, member, infinite)
        for completer in completions[lam]:
            network.add_arc(completer, label, q)
    return network


def _family(h: int) -> InstanceFamily:
    """h-cliques as instances; Algorithm 6's network over (h-1)-cliques."""

    def network(core: Graph):
        lambdas, completions = sub_cliques_of_h_cliques(core, h)
        mu = sum(len(nodes) for nodes in completions.values()) // h
        return (
            lambda alpha: build_clique_density_network(
                core, h, alpha, lambdas, completions
            ),
            mu,
        )

    return InstanceFamily(
        h, lambda graph: [frozenset(c) for c in enumerate_cliques(graph, h)], network
    )


def clique_densest_subgraph(graph: Graph, h: int) -> DensestResult:
    """Return the exact maximum h-clique density ``rho*_h`` and a witness.

    A graph with no h-clique has density 0 and an empty witness (an
    h-cliqueless world contributes to no clique-MPDS candidate).
    """
    if h == 2:
        return densest_subgraph(graph)
    return instance_densest_subgraph(graph, _family(h))


def enumerate_all_clique_densest_subgraphs(
    graph: Graph, h: int, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield every h-clique-densest subgraph exactly once (Theorem 4).

    For ``h = 2`` this delegates to the edge-density enumeration, as a
    2-clique is an edge.
    """
    if h == 2:
        return enumerate_all_densest_subgraphs(graph, limit)
    return enumerate_instance_densest_subgraphs(graph, _family(h), limit)


def all_clique_densest_subgraphs(
    graph: Graph, h: int, limit: Optional[int] = None
) -> List[FrozenSet[Node]]:
    """Return all h-clique-densest subgraphs as a list."""
    return list(enumerate_all_clique_densest_subgraphs(graph, h, limit))


def maximum_sized_clique_densest_subgraph(
    graph: Graph, h: int
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*_h, nodes)`` of the maximum-sized h-clique-densest subgraph."""
    if h == 2:
        return maximum_sized_densest_subgraph(graph)
    return maximum_sized_instance_densest_subgraph(graph, _family(h))


def maximum_clique_density(graph: Graph, h: int) -> Fraction:
    """Return rho*_h, the maximum h-clique density over all subgraphs."""
    return clique_densest_subgraph(graph, h).density
