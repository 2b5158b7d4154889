"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List, Set, Tuple

import pytest

from repro.graph.graph import Graph
from repro.graph.uncertain import UncertainGraph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A G(n, p) graph on nodes 0..n-1 (isolated nodes kept)."""
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def random_uncertain_graph(
    rng: random.Random, n: int, p: float, low: float = 0.05, high: float = 1.0
) -> UncertainGraph:
    """A G(n, p) topology with uniform edge probabilities."""
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v, rng.uniform(low, high))
    return graph


def brute_force_all_densest(
    graph: Graph, density_fn
) -> Tuple[Fraction, Set[frozenset]]:
    """All subsets maximising density_fn(subgraph)/|subset| (positive only)."""
    nodes = graph.nodes()
    best = Fraction(0)
    result: Set[frozenset] = set()
    for r in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            sub = graph.subgraph(subset)
            density = Fraction(density_fn(sub), r)
            if density > best:
                best = density
                result = {frozenset(subset)}
            elif density == best and best > 0:
                result.add(frozenset(subset))
    return best, result


def brute_force_min_cut(network, source, sink):
    """Smallest ``source``-``sink`` cut capacity over every source side.

    Exponential in the node count: a max-flow oracle for tiny networks
    only (max-flow min-cut theorem).
    """
    s, t = network.index_of(source), network.index_of(sink)
    inner = [i for i in range(network.number_of_nodes()) if i not in (s, t)]
    arcs = [(arc.tail, arc.head, arc.capacity) for arc in network.arcs()]
    best = None
    for bits in range(1 << len(inner)):
        side = {s} | {v for k, v in enumerate(inner) if bits >> k & 1}
        cut = sum(
            c for tail, head, c in arcs if tail in side and head not in side
        )
        if best is None or cut < best:
            best = cut
    return best


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(20230613)


@pytest.fixture
def triangle_graph() -> Graph:
    """K3 on nodes 1..3."""
    return Graph.from_edges([(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def figure1():
    """The paper's Fig. 1 uncertain graph."""
    from repro.datasets.paper_examples import figure1_graph
    return figure1_graph()
