"""Peeling approximations for densest subgraphs (Charikar [2], [19], [5]).

Iteratively removing the node of smallest (generalised) degree and keeping
the best intermediate subgraph yields:

* a 1/2-approximation of the maximum edge density (Charikar),
* a 1/h-approximation of the maximum h-clique density (Tsourakakis [19]),
* a 1/|V_psi|-approximation of the maximum pattern density (Fang et al. [5]).

Algorithms 2 and 4 use the peeled density ``rho~`` both as the lower bound
of the binary search and to shrink the graph to its (ceil(rho~), .)-core.
The heuristic methods of Section III-C also reuse the intermediate
subgraphs recorded here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cliques.enumeration import enumerate_cliques
from ..graph.graph import Graph, Node
from ..patterns.matching import enumerate_instances, instance_nodes
from ..patterns.pattern import Pattern


@dataclass(frozen=True)
class PeelingResult:
    """Outcome of a peeling run.

    Attributes
    ----------
    density:
        Best (generalised) density among all intermediate subgraphs.
    nodes:
        Node set achieving ``density``.
    trajectory:
        ``(density, size)`` of each intermediate subgraph, outermost first;
        used by the Section III-C heuristic to report all intermediate
        subgraphs denser than a threshold.
    order:
        All nodes in peeling order (first removed first); the subgraph at
        ``trajectory[i]`` is induced by ``order[i:]``.
    """

    density: Fraction
    nodes: FrozenSet[Node]
    trajectory: Tuple[Tuple[Fraction, int], ...]
    order: Tuple[Node, ...] = ()

    def prefix_nodes(self, index: int) -> FrozenSet[Node]:
        """Return the node set of the subgraph at ``trajectory[index]``."""
        return frozenset(self.order[index:])


def peel_edge_density(graph: Graph) -> PeelingResult:
    """Charikar's greedy peeling for edge density (1/2-approximation).

    Ties among minimum-degree nodes break deterministically toward the
    first-inserted node, so the peel order (and hence the returned node
    set and trajectory) is a pure function of the graph -- the contract
    that lets :func:`peel_edge_density_csr` reproduce it bit-for-bit on
    the array substrate.
    """
    if graph.number_of_nodes() == 0:
        return PeelingResult(Fraction(0), frozenset(), ())
    insertion_rank = {node: rank for rank, node in enumerate(graph)}
    degrees = {node: graph.degree(node) for node in graph}
    max_degree = max(degrees.values(), default=0)
    # lazy min-heaps per degree bucket, keyed by insertion rank (ranks are
    # distinct, so heap entries never compare the -- possibly unorderable --
    # node labels); stale entries are skipped on pop
    buckets: List[List[Tuple[int, Node]]] = [
        [] for _ in range(max_degree + 1)
    ]
    for node, degree in degrees.items():
        buckets[degree].append((insertion_rank[node], node))
    for bucket in buckets:
        heapq.heapify(bucket)
    edges_left = graph.number_of_edges()
    nodes_left = graph.number_of_nodes()
    order: List[Node] = []
    removed: set = set()
    best = Fraction(edges_left, nodes_left)
    best_size = nodes_left
    trajectory: List[Tuple[Fraction, int]] = [(best, nodes_left)]
    pointer = 0
    while nodes_left > 1:
        while True:
            bucket = buckets[pointer]
            while bucket and (
                bucket[0][1] in removed or degrees[bucket[0][1]] != pointer
            ):
                heapq.heappop(bucket)
            if bucket:
                break
            pointer += 1
        _rank, node = heapq.heappop(buckets[pointer])
        order.append(node)
        removed.add(node)
        edges_left -= degrees[node]
        nodes_left -= 1
        for neighbor in graph.neighbors(node):
            if neighbor in removed:
                continue
            d = degrees[neighbor] - 1
            degrees[neighbor] = d
            heapq.heappush(buckets[d], (insertion_rank[neighbor], neighbor))
        # removing a minimum-degree node can lower the minimum by at most 1
        pointer = max(0, pointer - 1)
        density = Fraction(edges_left, nodes_left)
        trajectory.append((density, nodes_left))
        if density > best:
            best = density
            best_size = nodes_left
    survivors = [node for node in graph if node not in set(order)]
    full_order = tuple(order) + tuple(sorted(survivors, key=repr))
    # the best subgraph consists of the last `best_size` peeled-or-surviving
    # nodes: everything except the first n - best_size removals
    drop = graph.number_of_nodes() - best_size
    best_nodes = frozenset(full_order[drop:])
    return PeelingResult(best, best_nodes, tuple(trajectory), full_order)


def _peel_arrays(
    n: int,
    indptr,
    neighbors,
) -> Tuple[List[int], List[int], int, int, int, int]:
    """Charikar peel over local CSR arrays (bucketed degree arrays).

    The array core shared by :func:`peel_edge_density_csr` and the
    engine's per-component bound stage.  Buckets are indexed by degree;
    each bucket is a lazy min-heap of local node indices, so the removed
    node is always the *smallest-index* node of minimum degree -- exactly
    the deterministic tie-break of :func:`peel_edge_density` (local index
    order equals insertion order).  Stale heap entries (from earlier
    degrees) are skipped on pop.

    Returns ``(order, edges_after, best_num, best_den, best_size,
    degeneracy)``: the removal order over all ``n`` nodes, the edge count
    after each of the ``n - 1`` removals, the best intermediate density
    as an exact ratio with its subgraph size, and the degeneracy (the
    largest minimum degree seen, an upper bound on any subgraph's edge
    density).
    """
    neighbors = neighbors.tolist()
    indptr = indptr.tolist()
    degree = [indptr[i + 1] - indptr[i] for i in range(n)]
    edges_left = sum(degree) // 2
    buckets: List[List[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for i in range(n):
        buckets[degree[i]].append(i)
    for bucket in buckets:
        heapq.heapify(bucket)
    alive = [True] * n
    order: List[int] = []
    edges_after: List[int] = []
    nodes_left = n
    best_num, best_den = edges_left, nodes_left
    best_size = nodes_left
    degeneracy = 0
    pointer = 0
    while nodes_left > 1:
        while True:
            bucket = buckets[pointer]
            while bucket and (
                not alive[bucket[0]] or degree[bucket[0]] != pointer
            ):
                heapq.heappop(bucket)
            if bucket:
                break
            pointer += 1
        node = heapq.heappop(buckets[pointer])
        if pointer > degeneracy:
            degeneracy = pointer
        alive[node] = False
        order.append(node)
        edges_left -= degree[node]
        nodes_left -= 1
        for pos in range(indptr[node], indptr[node + 1]):
            other = neighbors[pos]
            if alive[other]:
                d = degree[other] - 1
                degree[other] = d
                heapq.heappush(buckets[d], other)
        # removing a minimum-degree node can lower the minimum by at most 1
        if pointer > 0:
            pointer -= 1
        edges_after.append(edges_left)
        if edges_left * best_den > best_num * nodes_left:
            best_num, best_den = edges_left, nodes_left
            best_size = nodes_left
    for i in range(n):  # the lone survivor closes the order
        if alive[i]:
            order.append(i)
            break
    return order, edges_after, best_num, best_den, best_size, degeneracy


def peel_edge_density_csr(view) -> PeelingResult:
    """Charikar peeling on a :class:`~repro.engine.indexed.SubWorldView`.

    Array twin of :func:`peel_edge_density`: identical density, node set,
    trajectory and order for the world (or world core) the view denotes,
    without materialising a :class:`Graph`.
    """
    n = view.n
    if n == 0:
        return PeelingResult(Fraction(0), frozenset(), ())
    indptr, neighbors = view.csr()
    order, edges_after, _num, _den, best_size, _degen = _peel_arrays(
        n, indptr, neighbors
    )
    labels = view.labels()
    trajectory: List[Tuple[Fraction, int]] = [(Fraction(view.m, n), n)]
    best = trajectory[0][0]
    for removals, edges_left in enumerate(edges_after, start=1):
        density = Fraction(edges_left, n - removals)
        trajectory.append((density, n - removals))
        if density > best:
            best = density
    full_order = tuple(labels[i] for i in order)
    best_nodes = frozenset(full_order[n - best_size:])
    return PeelingResult(best, best_nodes, tuple(trajectory), full_order)


def _peel_incidences(
    graph: Graph,
    incidences: Sequence[FrozenSet[Node]],
    arity: int,
) -> PeelingResult:
    """Generic min-incidence-degree peeling; density = live count / nodes."""
    n = graph.number_of_nodes()
    if n == 0:
        return PeelingResult(Fraction(0), frozenset(), ())
    member_of: Dict[Node, List[int]] = {node: [] for node in graph}
    for index, members in enumerate(incidences):
        for node in members:
            member_of[node].append(index)
    live_count = {node: len(ids) for node, ids in member_of.items()}
    incidence_alive = [True] * len(incidences)
    node_alive = {node: True for node in graph}
    incidences_left = len(incidences)
    nodes_left = n
    best = Fraction(incidences_left, nodes_left)
    best_size = nodes_left
    order: List[Node] = []
    trajectory: List[Tuple[Fraction, int]] = [(best, nodes_left)]
    remaining = set(graph.nodes())
    while nodes_left > 1:
        node = min(remaining, key=lambda v: (live_count[v], repr(v)))
        remaining.discard(node)
        order.append(node)
        node_alive[node] = False
        for index in member_of[node]:
            if not incidence_alive[index]:
                continue
            incidence_alive[index] = False
            incidences_left -= 1
            for other in incidences[index]:
                if other != node and node_alive[other]:
                    live_count[other] -= 1
        nodes_left -= 1
        density = Fraction(incidences_left, nodes_left)
        trajectory.append((density, nodes_left))
        if density > best:
            best = density
            best_size = nodes_left
    full_order = tuple(order) + tuple(sorted(remaining, key=repr))
    drop = n - best_size
    best_nodes = frozenset(full_order[drop:])
    return PeelingResult(best, best_nodes, tuple(trajectory), full_order)


def peel_clique_density(graph: Graph, h: int) -> PeelingResult:
    """Greedy h-clique-degree peeling (1/h-approximation, [19])."""
    incidences = [frozenset(c) for c in enumerate_cliques(graph, h)]
    return _peel_incidences(graph, incidences, h)


def peel_pattern_density(graph: Graph, pattern: Pattern) -> PeelingResult:
    """Greedy pattern-degree peeling (1/|V_psi|-approximation, [5])."""
    incidences = [
        instance_nodes(instance)
        for instance in enumerate_instances(graph, pattern)
    ]
    return _peel_incidences(graph, incidences, pattern.number_of_nodes())
