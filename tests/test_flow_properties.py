"""Property-based tests for the max-flow substrate.

The flow engines sit under every exact densest-subgraph computation, so
they get the strongest cross-validation in the suite: on arbitrary random
networks, Dinic must match a brute-force minimum cut over every source
side (and networkx's preflow-push, when installed), and the classic
LP-duality invariants (conservation, capacity, max-flow = min-cut) must
hold arc by arc.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.maxflow import max_flow, min_cut_source_side
from repro.flow.network import FlowNetwork

from .conftest import brute_force_min_cut

#: arbitrary small directed networks: arcs (tail, head, capacity) over
#: nodes 0..5, with node 0 the source and node 5 the sink
arc_lists = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.integers(1, 16),
    ),
    min_size=1,
    max_size=16,
)


def _build(arcs) -> FlowNetwork:
    network = FlowNetwork()
    for label in range(6):
        network.add_node(label)
    for tail, head, capacity in arcs:
        if tail != head:
            network.add_arc(tail, head, capacity)
    return network


@settings(deadline=None, max_examples=60)
@given(arc_lists)
def test_dinic_matches_brute_force_min_cut(arcs):
    network = _build(arcs)
    assert max_flow(network, 0, 5) == brute_force_min_cut(network, 0, 5)


@settings(deadline=None, max_examples=30)
@given(arc_lists)
def test_dinic_matches_networkx(arcs):
    networkx = pytest.importorskip("networkx")
    value = max_flow(_build(arcs), 0, 5)
    nx_graph = networkx.DiGraph()
    nx_graph.add_nodes_from(range(6))
    for tail, head, capacity in arcs:
        if tail == head:
            continue
        if nx_graph.has_edge(tail, head):
            nx_graph[tail][head]["capacity"] += capacity
        else:
            nx_graph.add_edge(tail, head, capacity=capacity)
    expected = networkx.maximum_flow_value(nx_graph, 0, 5)
    assert value == expected


@settings(deadline=None, max_examples=60)
@given(arc_lists)
def test_flow_conservation_and_capacity(arcs):
    network = _build(arcs)
    value = max_flow(network, 0, 5)
    source, sink = network.index_of(0), network.index_of(5)
    net_out = {index: 0 for index in range(network.number_of_nodes())}
    for arc in network.arcs():
        assert arc.flow <= arc.capacity
        net_out[arc.tail] += arc.flow
        net_out[arc.head] -= arc.flow
    # every arc pair contributes flow and -flow, so net_out double-counts
    assert net_out[source] == 2 * value
    assert net_out[sink] == -2 * value
    for index, balance in net_out.items():
        if index not in (source, sink):
            assert balance == 0


@settings(deadline=None, max_examples=60)
@given(arc_lists)
def test_max_flow_equals_min_cut(arcs):
    network = _build(arcs)
    value = max_flow(network, 0, 5)
    cut_side = min_cut_source_side(network, 0)
    assert 0 in cut_side and 5 not in cut_side
    side_indices = {network.index_of(label) for label in cut_side}
    crossing = sum(
        arc.capacity
        for arc in network.arcs()
        if arc.tail in side_indices and arc.head not in side_indices
        and arc.capacity > 0
    )
    # strong duality: the residual-reachability cut has capacity == flow.
    # arcs() yields both twins; reverse twins have capacity 0 and are
    # excluded above, so `crossing` counts original capacity only.
    assert crossing == value


@settings(deadline=None, max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4), st.integers(0, 4),
            st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)),
        ),
        min_size=1, max_size=10,
    )
)
def test_fraction_capacities_exact(arcs):
    """Dinic accepts exact rational capacities (needed at alpha = rho*)
    and still finds the minimum cut."""
    network = FlowNetwork()
    for label in range(5):
        network.add_node(label)
    for tail, head, capacity in arcs:
        if tail != head:
            network.add_arc(tail, head, capacity)
    value = max_flow(network, 0, 4)
    assert value == brute_force_min_cut(network, 0, 4)
    assert isinstance(value, (int, Fraction))
