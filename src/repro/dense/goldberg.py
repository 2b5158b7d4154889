"""Goldberg's exact maximum-edge-density algorithm [1] (Section III-A).

Binary search on a density guess ``alpha``: the flow network of Example 4
(source -> v with capacity deg(v); v -> t with capacity 2*alpha; each graph
edge as opposing unit arcs) has a minimum s-t cut of capacity

    c(S) = 2m + 2|V1| (alpha - rho(V1)),   V1 = S cap V,

so a subgraph denser than ``alpha`` exists iff the max flow is < 2m.  Edge
densities are rationals with denominator <= n, so two distinct densities
differ by at least 1/(n(n-1)); once the search interval is narrower, the
candidate min-cut side is exactly a densest subgraph.

All capacities are scaled by the denominator of ``alpha`` so Dinic runs in
exact integer arithmetic (see DESIGN.md on why exactness matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Tuple

from ..flow.maxflow import max_flow, min_cut_source_side
from ..flow.network import FlowNetwork
from ..graph.graph import Graph, Node
from .kcore import k_core
from .peeling import peel_edge_density

SOURCE = ("__source__",)
SINK = ("__sink__",)


def build_edge_density_network(graph: Graph, alpha: Fraction) -> FlowNetwork:
    """Build Goldberg's flow network for density guess ``alpha``.

    Capacities are scaled by ``alpha.denominator`` to stay integral:
    ``c(s, v) = q * deg(v)``, ``c(v, t) = 2 p``, graph edges ``q`` each way,
    where ``alpha = p / q``.
    """
    alpha = Fraction(alpha)
    q = alpha.denominator
    p = alpha.numerator
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    for node in graph:
        network.add_arc(SOURCE, node, q * graph.degree(node))
        network.add_arc(node, SINK, 2 * p)
    for u, v in graph.edges():
        network.add_arc_pair(u, v, q, q)
    return network


@dataclass(frozen=True)
class DensestResult:
    """An exact densest-subgraph answer.

    ``density`` is the exact maximum density (rho*_e here; rho*_h or
    rho*_psi from :mod:`repro.dense.instance_density`); ``nodes`` is one
    node set achieving it.  On a graph with no edge (h-clique, pattern
    instance) ``density`` is 0 and ``nodes`` is empty (the paper's
    convention: an empty world has no densest subgraph -- see Table I,
    world G1).
    """

    density: Fraction
    nodes: FrozenSet[Node]


def _has_denser_subgraph(
    graph: Graph, alpha: Fraction
) -> Tuple[bool, Optional[FrozenSet[Node]]]:
    """Return (exists subgraph with rho > alpha, witness node set or None)."""
    network = build_edge_density_network(graph, alpha)
    target = 2 * graph.number_of_edges() * alpha.denominator
    value = max_flow(network, SOURCE, SINK)
    if value >= target:
        return False, None
    side = set(min_cut_source_side(network, SOURCE))
    witness = frozenset(node for node in graph if node in side)
    return True, witness


def densest_subgraph(graph: Graph) -> DensestResult:
    """Return the exact maximum edge density and one densest subgraph.

    Follows the paper's pipeline: peel for a lower bound ``rho~``, shrink to
    the ceil(rho~)-core, then binary-search with Goldberg's network.
    """
    if graph.number_of_edges() == 0:
        return DensestResult(Fraction(0), frozenset())
    peel = peel_edge_density(graph)
    core = k_core(graph, -(-peel.density.numerator // peel.density.denominator))
    if core.number_of_edges() == 0:  # defensive; cannot happen for rho~ >= 1/2
        core = graph
    n = core.number_of_nodes()
    lo = peel.density
    hi = Fraction(n - 1, 2) if n > 1 else Fraction(0)
    if hi < lo:
        hi = lo
    best_nodes = peel.nodes
    # distinct densities a/b, c/d with b, d <= n differ by >= 1/n^2
    gap = Fraction(1, n * n) if n > 1 else Fraction(1)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2
        exists, witness = _has_denser_subgraph(core, alpha)
        if exists:
            assert witness is not None and witness
            lo = Fraction(
                core.subgraph(witness).number_of_edges(), len(witness)
            )
            best_nodes = witness
        else:
            hi = alpha
    density = Fraction(graph.subgraph(best_nodes).number_of_edges(), len(best_nodes))
    return DensestResult(density, frozenset(best_nodes))


def maximum_edge_density(graph: Graph) -> Fraction:
    """Return rho*_e, the maximum edge density over all subgraphs."""
    return densest_subgraph(graph).density
