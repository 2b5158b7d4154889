"""Vectorised exact MPDS / containment solver over bitmask-encoded worlds.

The reference exact solver (:mod:`repro.core.exact`) materialises each of
the ``2^m`` possible worlds as a :class:`Graph` and runs the full
flow-based all-densest enumeration inside it -- faithful to what the
paper's Table XV benchmarks, but minutes of Python per million worlds.

This module computes the *same* exact answers orders of magnitude faster
by never materialising a world:

* a world is an ``m``-bit integer (bit ``i`` = edge ``i`` present), so
  ``numpy`` holds all worlds as one vector;
* an *instance* (an edge, an h-clique, or a pattern occurrence) is
  present in a world iff its edge mask is a submask, a single vectorised
  comparison across every world at once;
* the density of a node subset ``S`` in every world is the per-world
  count of instances whose nodes lie inside ``S``, divided by ``|S|`` --
  maximised with exact integer cross-multiplication, so ties are decided
  without floating error.

The results are bit-for-bit the same as the reference solver's (tested),
which makes exact ground truth affordable for the Fig. 17/18 accuracy
experiments on the paper's ER7/ER9-scale graphs (2^20 worlds in seconds).

Supported measures: :class:`EdgeDensity`, :class:`CliqueDensity`,
:class:`PatternDensity`.  Guards refuse graphs whose ``2^m`` worlds or
``2^n`` subsets would not fit in memory.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..cliques.enumeration import enumerate_cliques
from ..graph.graph import Edge, Node, canonical_edge
from ..graph.uncertain import UncertainGraph
from ..patterns.matching import enumerate_instances, instance_nodes
from .measures import (
    CliqueDensity,
    DensityMeasure,
    EdgeDensity,
    NodeSet,
    PatternDensity,
)
from .mpds import rank_top_k
from .results import MPDSResult

#: refuse to allocate more than this many world slots (2^26 = 512 MiB of
#: float64 probabilities)
MAX_EDGES = 26
#: refuse more than this many node subsets
MAX_NODES = 16


def _instances(
    graph: UncertainGraph, measure: DensityMeasure
) -> List[Tuple[FrozenSet[Node], Tuple[Edge, ...]]]:
    """Return (node set, edge tuple) of every instance of the measure's
    motif in the deterministic version of ``graph``."""
    world = graph.deterministic_version()
    if isinstance(measure, EdgeDensity):
        return [
            (frozenset(edge), (canonical_edge(*edge),))
            for edge in world.edges()
        ]
    if isinstance(measure, CliqueDensity):
        result = []
        for clique in enumerate_cliques(world, measure.h):
            edges = tuple(
                canonical_edge(u, v)
                for u, v in itertools.combinations(clique, 2)
            )
            result.append((frozenset(clique), edges))
        return result
    if isinstance(measure, PatternDensity):
        result = []
        for instance in enumerate_instances(world, measure.pattern):
            result.append((instance_nodes(instance), tuple(instance)))
        return result
    raise TypeError(
        f"bitmask exact solver supports edge / clique / pattern density, "
        f"not {type(measure).__name__}"
    )


class _WorldEnsemble:
    """All ``2^m`` worlds of an uncertain graph, vectorised.

    Bundles what both exact queries need: per-world probabilities, the
    per-instance presence vectors, subset iteration, and the per-world
    maximum density as an exact integer fraction (``best_num/best_den``).
    """

    def __init__(
        self,
        graph: UncertainGraph,
        measure: DensityMeasure,
        max_edges: int,
        max_nodes: int,
    ) -> None:
        self.nodes = graph.nodes()
        edges = [canonical_edge(u, v) for u, v in graph.edges()]
        n, m = len(self.nodes), len(edges)
        if m > max_edges:
            raise ValueError(
                f"{m} edges -> 2^{m} worlds exceeds the max_edges="
                f"{max_edges} guard; use the sampling estimator instead"
            )
        if n > max_nodes:
            raise ValueError(
                f"{n} nodes -> 2^{n} subsets exceeds the max_nodes="
                f"{max_nodes} guard; use the sampling estimator instead"
            )
        self.num_nodes = n
        self.empty = m == 0
        if self.empty:
            return
        edge_bit = {edge: i for i, edge in enumerate(edges)}
        self.node_bit = {node: i for i, node in enumerate(self.nodes)}

        worlds = np.arange(1 << m, dtype=np.uint64)

        # Pr(world) = prod_i [bit_i ? p_i : 1 - p_i]
        self.prob = np.ones(1 << m, dtype=np.float64)
        for u, v, p in graph.weighted_edges():
            bit = (worlds >> np.uint64(edge_bit[canonical_edge(u, v)])) \
                & np.uint64(1)
            self.prob *= np.where(bit.astype(bool), p, 1.0 - p)

        # one presence vector per instance: a world contains the instance
        # iff the instance's edge mask is a submask of the world
        self._presence: List[np.ndarray] = []
        self._instance_node_masks: List[int] = []
        for inst_nodes, inst_edges in _instances(graph, measure):
            mask = np.uint64(0)
            for edge in inst_edges:
                mask |= np.uint64(1 << edge_bit[edge])
            self._presence.append(((worlds & mask) == mask).astype(np.uint32))
            node_mask = 0
            for node in inst_nodes:
                node_mask |= 1 << self.node_bit[node]
            self._instance_node_masks.append(node_mask)

        self._zeros = np.zeros(1 << m, dtype=np.uint32)

        # per-world maximum density as the exact fraction num/den
        self.best_num = np.zeros(1 << m, dtype=np.int64)
        self.best_den = np.ones(1 << m, dtype=np.int64)
        for subset_mask, size in self.subsets():
            counts = self.counts(subset_mask)
            better = counts * self.best_den > self.best_num * size
            if better.any():
                self.best_num = np.where(better, counts, self.best_num)
                self.best_den = np.where(better, size, self.best_den)
        self.positive = self.best_num > 0

    def subsets(self) -> Iterable[Tuple[int, int]]:
        """Yield (subset bitmask, subset size) for every non-empty subset."""
        for mask in range(1, 1 << self.num_nodes):
            yield mask, bin(mask).count("1")

    def counts(self, subset_mask: int) -> np.ndarray:
        """Per-world count of instances lying inside the subset."""
        total = self._zeros
        for node_mask, present in zip(
            self._instance_node_masks, self._presence
        ):
            if node_mask & ~subset_mask == 0:
                total = total + present
        return total.astype(np.int64)

    def achieves_maximum(self, subset_mask: int, size: int) -> np.ndarray:
        """Boolean vector: subset's density equals the world's (positive)
        maximum."""
        counts = self.counts(subset_mask)
        return self.positive & (
            counts * self.best_den == self.best_num * size
        )

    def to_node_set(self, subset_mask: int) -> NodeSet:
        return frozenset(
            node for node in self.nodes
            if subset_mask >> self.node_bit[node] & 1
        )


def bitmask_candidate_probabilities(
    graph: UncertainGraph,
    measure: Optional[DensityMeasure] = None,
    max_edges: int = MAX_EDGES,
    max_nodes: int = MAX_NODES,
) -> Dict[NodeSet, float]:
    """Return tau(U) for every node set with tau(U) > 0, exactly.

    Equivalent to :func:`repro.core.exact.exact_candidate_probabilities`
    but vectorised over all ``2^m`` worlds at once.
    """
    measure = measure or EdgeDensity()
    ensemble = _WorldEnsemble(graph, measure, max_edges, max_nodes)
    if ensemble.empty:
        return {}
    taus: Dict[NodeSet, float] = {}
    for subset_mask, size in ensemble.subsets():
        achieves = ensemble.achieves_maximum(subset_mask, size)
        if achieves.any():
            tau = float(ensemble.prob[achieves].sum())
            if tau > 0.0:
                taus[ensemble.to_node_set(subset_mask)] = tau
    return taus


def bitmask_union_distribution(
    graph: UncertainGraph,
    measure: Optional[DensityMeasure] = None,
    max_edges: int = MAX_EDGES,
    max_nodes: int = MAX_NODES,
) -> Dict[NodeSet, float]:
    """Return Pr[maximum-sized densest subgraph = S] for every S, exactly.

    By the [59] generalisation the paper relies on (Algorithm 5, footnote
    5), the maximum-sized densest subgraph of a world is the union of all
    its densest node sets, and a node set lies in *some* densest subgraph
    iff it lies in that union.  This distribution is therefore the exact
    sufficient statistic for every containment query:
    ``gamma(U) = sum over S >= U of Pr[S]`` (:func:`bitmask_gamma`).
    """
    measure = measure or EdgeDensity()
    ensemble = _WorldEnsemble(graph, measure, max_edges, max_nodes)
    if ensemble.empty:
        return {}
    union = np.zeros_like(ensemble.best_num)
    for subset_mask, size in ensemble.subsets():
        achieves = ensemble.achieves_maximum(subset_mask, size)
        if achieves.any():
            union = np.where(achieves, union | subset_mask, union)
    distribution: Dict[NodeSet, float] = {}
    for union_mask in np.unique(union[ensemble.positive]):
        weight = float(
            ensemble.prob[ensemble.positive & (union == union_mask)].sum()
        )
        if weight > 0.0:
            distribution[ensemble.to_node_set(int(union_mask))] = weight
    return distribution


def bitmask_gamma(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    measure: Optional[DensityMeasure] = None,
    max_edges: int = MAX_EDGES,
    max_nodes: int = MAX_NODES,
) -> float:
    """Exact containment probability gamma(U) (Definition 5), vectorised.

    Same answer as :func:`repro.core.exact.exact_gamma` (tested).
    """
    target = frozenset(nodes)
    distribution = bitmask_union_distribution(
        graph, measure, max_edges=max_edges, max_nodes=max_nodes
    )
    return sum(
        weight for maximal, weight in distribution.items()
        if target <= maximal
    )


def bitmask_top_k_nds(
    graph: UncertainGraph,
    k: int = 1,
    min_size: int = 2,
    measure: Optional[DensityMeasure] = None,
    max_edges: int = MAX_EDGES,
    max_nodes: int = MAX_NODES,
) -> "NDSResult":
    """Exact top-k NDS (Problem 3) via the bitmask engine.

    Same result as :func:`repro.core.exact.exact_top_k_nds` (tested); the
    closed-set mining runs over the *distinct* maximum-sized densest
    subgraphs from :func:`bitmask_union_distribution` instead of one
    transaction per world, so it also scales to far more worlds.
    """
    from ..itemsets.tfp import naive_closed_itemsets
    from .results import NDSResult

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_size < 1:
        raise ValueError(f"min_size (l_m) must be >= 1, got {min_size}")
    distribution = bitmask_union_distribution(
        graph, measure, max_edges=max_edges, max_nodes=max_nodes
    )
    if not distribution:
        return NDSResult(top=[], theta=0, transactions=0)
    maximal_sets = list(distribution.items())
    closed = naive_closed_itemsets(
        [list(maximal) for maximal, _ in maximal_sets], min_size
    )
    scored = [
        (
            frozenset(itemset.items),
            sum(
                weight for maximal, weight in maximal_sets
                if itemset.items <= maximal
            ),
        )
        for itemset in closed
    ]
    return NDSResult(
        top=rank_top_k(scored, k), theta=0, transactions=len(maximal_sets)
    )


def bitmask_top_k_mpds(
    graph: UncertainGraph,
    k: int = 1,
    measure: Optional[DensityMeasure] = None,
    max_edges: int = MAX_EDGES,
    max_nodes: int = MAX_NODES,
) -> MPDSResult:
    """Exact top-k MPDS via the bitmask engine (same result object as
    :func:`repro.core.exact.exact_top_k_mpds`)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    taus = bitmask_candidate_probabilities(
        graph, measure, max_edges=max_edges, max_nodes=max_nodes
    )
    return MPDSResult(
        top=rank_top_k(taus.items(), k),
        candidates=dict(taus),
        theta=0,
        worlds_with_densest=len(taus),
        densest_counts=[],
    )
