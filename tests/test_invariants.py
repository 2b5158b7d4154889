"""Cross-module property-based invariants (hypothesis).

These tests tie the independent engines together: every solver for the same
optimum must agree, every enumeration must be consistent with its
one-answer counterpart, and every estimator output must satisfy the
definitional constraints of Section II.  Each property here crosses at
least two modules -- per-module properties live in the per-module test
files.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dense.all_densest import (
    all_densest_subgraphs,
    maximum_sized_densest_subgraph,
)
from repro.dense.clique_density import clique_densest_subgraph
from repro.dense.goldberg import densest_subgraph
from repro.dense.greedypp import greedypp_clique_densest, greedypp_densest
from repro.dense.kclistpp import kclistpp_densest
from repro.dense.peeling import peel_edge_density
from repro.flow.network import FlowNetwork
from repro.flow.maxflow import max_flow
from repro.graph.graph import Graph

from .conftest import brute_force_min_cut


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw, max_nodes: int = 9) -> Graph:
    """A random simple graph on 2..max_nodes nodes (possibly edgeless)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph(nodes=range(n))
    for (u, v), keep in zip(pairs, mask):
        if keep:
            graph.add_edge(u, v)
    return graph


@st.composite
def small_networks(draw):
    """A random flow network on 3..8 nodes with integer capacities."""
    n = draw(st.integers(min_value=3, max_value=8))
    network = FlowNetwork()
    for node in range(n):
        network.add_node(node)
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=20,
        )
    )
    for u, v, capacity in arcs:
        if u == v:
            continue
        network.add_arc(u, v, capacity)
    return network, n


# ---------------------------------------------------------------------------
# densest-subgraph engine agreement
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_peeling_within_half_of_exact(graph: Graph):
    exact = densest_subgraph(graph).density
    peel = peel_edge_density(graph).density
    assert peel <= exact
    assert 2 * peel >= exact


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_greedypp_sandwiched_between_peeling_and_exact(graph: Graph):
    exact = densest_subgraph(graph).density
    result = greedypp_densest(graph, rounds=48) if graph.number_of_edges() else None
    if result is None:
        assert exact == 0
        return
    assert result.density <= exact
    # 48 rounds are enough for exactness at <= 9 nodes
    assert result.density == exact


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_nodes=8))
def test_kclistpp_never_exceeds_flow_optimum(graph: Graph):
    exact = clique_densest_subgraph(graph, 3).density
    fw = kclistpp_densest(graph, 3, iterations=32).density
    assert fw <= exact


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_nodes=8))
def test_greedypp_clique_never_exceeds_flow_optimum(graph: Graph):
    exact = clique_densest_subgraph(graph, 3).density
    result = greedypp_clique_densest(graph, 3, rounds=32)
    assert result.density <= exact


# ---------------------------------------------------------------------------
# enumeration consistency
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(small_graphs(max_nodes=8))
def test_all_densest_contains_the_witness_and_is_distinct(graph: Graph):
    exact = densest_subgraph(graph)
    enumerated = all_densest_subgraphs(graph)
    assert len(set(enumerated)) == len(enumerated)
    if exact.density > 0:
        assert exact.nodes in enumerated
        for nodes in enumerated:
            sub = graph.subgraph(nodes)
            assert Fraction(sub.number_of_edges(), len(nodes)) == exact.density
    else:
        assert enumerated == []


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_nodes=8))
def test_maximum_sized_densest_is_union_of_all(graph: Graph):
    density, maximal = maximum_sized_densest_subgraph(graph)
    enumerated = all_densest_subgraphs(graph)
    union = frozenset().union(*enumerated) if enumerated else frozenset()
    assert maximal == union
    if density > 0:
        sub = graph.subgraph(maximal)
        assert Fraction(sub.number_of_edges(), len(maximal)) == density


# ---------------------------------------------------------------------------
# max-flow against the brute-force minimum cut
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(small_networks())
def test_dinic_matches_brute_force_min_cut(networks):
    network, n = networks
    assert max_flow(network, 0, n - 1) == brute_force_min_cut(
        network, 0, n - 1
    )


@settings(max_examples=25, deadline=None)
@given(small_networks())
def test_dinic_conserves_flow_at_internal_nodes(networks):
    network, n = networks
    max_flow(network, 0, n - 1)
    for node in range(1, n - 1):
        net_out = sum(arc.flow for arc in network.arcs_from(node))
        assert net_out == 0
