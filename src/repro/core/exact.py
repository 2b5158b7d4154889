"""Exact (#P-hard) reference solvers by full possible-world enumeration.

Computing tau(U) exactly is #P-hard (Theorem 1), so these solvers
enumerate all ``2^m`` possible worlds -- exactly what the paper does to
ground-truth its approximations on tiny synthetic graphs (Section VI-H,
Table XV, Figs. 17-18) and what reproduces Table I.

Only use on graphs with at most ~20 edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..graph.graph import Node
from ..graph.uncertain import UncertainGraph
from .measures import DensityMeasure, EdgeDensity
from .mpds import rank_top_k
from .results import MPDSResult, NDSResult, NodeSet


def exact_candidate_probabilities(
    graph: UncertainGraph,
    measure: Optional[DensityMeasure] = None,
) -> Dict[NodeSet, float]:
    """Return tau(U) for every node set with tau(U) > 0, exactly.

    Enumerates all possible worlds; in each, all densest subgraphs.
    """
    measure = measure or EdgeDensity()
    taus: Dict[NodeSet, float] = {}
    for world, probability in graph.possible_worlds():
        for nodes in measure.all_densest(world):
            taus[nodes] = taus.get(nodes, 0.0) + probability
    return taus


def exact_tau(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    measure: Optional[DensityMeasure] = None,
) -> float:
    """Return the exact densest subgraph probability tau(U) (Definition 4)."""
    measure = measure or EdgeDensity()
    target = frozenset(nodes)
    total = 0.0
    for world, probability in graph.possible_worlds():
        densest = measure.all_densest(world)
        if target in densest:
            total += probability
    return total


def exact_gamma(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    measure: Optional[DensityMeasure] = None,
) -> float:
    """Return the exact containment probability gamma(U) (Definition 5)."""
    measure = measure or EdgeDensity()
    target = frozenset(nodes)
    total = 0.0
    for world, probability in graph.possible_worlds():
        maximal = measure.maximum_sized_densest(world)
        if maximal is not None and target <= maximal:
            total += probability
    return total


def exact_top_k_mpds(
    graph: UncertainGraph,
    k: int = 1,
    measure: Optional[DensityMeasure] = None,
) -> MPDSResult:
    """Return the exact top-k MPDS (Problem 2) by full enumeration."""
    taus = exact_candidate_probabilities(graph, measure)
    worlds_with_densest = sum(1 for _ in taus)  # informational only
    return MPDSResult(
        top=rank_top_k(taus.items(), k),
        candidates=dict(taus),
        theta=0,
        worlds_with_densest=worlds_with_densest,
        densest_counts=[],
    )


def exact_top_k_nds(
    graph: UncertainGraph,
    k: int = 1,
    min_size: int = 2,
    measure: Optional[DensityMeasure] = None,
) -> NDSResult:
    """Return the exact top-k NDS (Problem 3) by full enumeration.

    Computes gamma(U) for every subset of the union of maximum-sized
    densest subgraphs (only such subsets can have positive gamma), keeps
    the closed ones of size >= ``min_size``, and ranks by gamma.
    """
    measure = measure or EdgeDensity()
    worlds: List[Tuple[NodeSet, float]] = []
    for world, probability in graph.possible_worlds():
        maximal = measure.maximum_sized_densest(world)
        if maximal is not None:
            worlds.append((maximal, probability))
    if not worlds:
        return NDSResult(top=[], theta=0, transactions=0)
    # gamma is determined by the containing maximal sets; closed sets are
    # exactly intersections of non-empty groups of maximal sets
    from ..itemsets.tfp import naive_closed_itemsets

    closed = naive_closed_itemsets([list(m) for m, _ in worlds], min_size)
    scored = [
        (
            frozenset(itemset.items),
            sum(p for maximal, p in worlds if itemset.items <= maximal),
        )
        for itemset in closed
    ]
    return NDSResult(
        top=rank_top_k(scored, k), theta=0, transactions=len(worlds)
    )


def exact_expected_densities(
    graph: UncertainGraph,
    node_sets: Iterable[Iterable[Node]],
    measure: Optional[DensityMeasure] = None,
) -> Dict[NodeSet, float]:
    """Return exact expected densities for given node sets (Table I's EED row).

    Works for any measure by full world enumeration; for edge density the
    closed form ``sum p(e) / |U|`` is available via
    ``UncertainGraph.expected_edge_density``.
    """
    measure = measure or EdgeDensity()
    targets = [frozenset(s) for s in node_sets]
    expected: Dict[NodeSet, float] = {t: 0.0 for t in targets}
    for world, probability in graph.possible_worlds():
        for target in targets:
            expected[target] += probability * float(
                measure.density(world, target)
            )
    return expected
