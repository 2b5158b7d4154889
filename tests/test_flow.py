"""Tests for the max-flow substrate (Dinic, residual graph, indexed SCCs)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.flow.maxflow import (
    max_flow,
    min_cut_maximal_source_side,
    min_cut_source_side,
)
from repro.flow.network import FlowNetwork
from repro.flow.scc import (
    condensation_successors,
    strongly_connected_components_indexed,
)


class TestMaxFlowBasics:
    def test_single_arc(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 5)
        assert max_flow(network, "s", "t") == 5

    def test_series_bottleneck(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 10)
        network.add_arc("a", "t", 3)
        assert max_flow(network, "s", "t") == 3

    def test_parallel_paths(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 4)
        network.add_arc("a", "t", 4)
        network.add_arc("s", "b", 6)
        network.add_arc("b", "t", 6)
        assert max_flow(network, "s", "t") == 10

    def test_classic_diamond(self):
        """The textbook network where augmenting must use the cross edge."""
        network = FlowNetwork()
        network.add_arc("s", "a", 10)
        network.add_arc("s", "b", 10)
        network.add_arc("a", "b", 1)
        network.add_arc("a", "t", 10)
        network.add_arc("b", "t", 10)
        assert max_flow(network, "s", "t") == 20

    def test_disconnected_sink(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 5)
        network.add_node("t")
        assert max_flow(network, "s", "t") == 0

    def test_fraction_capacities(self):
        network = FlowNetwork()
        network.add_arc("s", "a", Fraction(1, 3))
        network.add_arc("a", "t", Fraction(1, 2))
        assert max_flow(network, "s", "t") == Fraction(1, 3)

    def test_same_source_sink_rejected(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 1)
        with pytest.raises(ValueError):
            max_flow(network, "s", "s")

    def test_negative_capacity_rejected(self):
        network = FlowNetwork()
        with pytest.raises(ValueError):
            network.add_arc("a", "b", -1)

    def test_reset_flow(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 5)
        assert max_flow(network, "s", "t") == 5
        network.reset_flow()
        assert max_flow(network, "s", "t") == 5


class TestAgainstNetworkx:
    def test_random_networks(self, rng):
        nx = pytest.importorskip("networkx")
        for trial in range(25):
            n = rng.randint(4, 10)
            network = FlowNetwork()
            nxg = nx.DiGraph()
            for node in range(n):
                network.add_node(node)
                nxg.add_node(node)
            for _ in range(rng.randint(5, 25)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                capacity = rng.randint(1, 10)
                network.add_arc(u, v, capacity)
                if nxg.has_edge(u, v):
                    nxg[u][v]["capacity"] += capacity
                else:
                    nxg.add_edge(u, v, capacity=capacity)
            value = max_flow(network, 0, n - 1)
            expected = nx.maximum_flow_value(nxg, 0, n - 1)
            assert value == expected, f"trial {trial}"


class TestMinCutSides:
    def _goldberg_like(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 2)
        network.add_arc("s", "b", 2)
        network.add_arc("a", "t", 1)
        network.add_arc("b", "t", 1)
        network.add_arc_pair("a", "b", 1, 1)
        return network

    def test_cut_sides_are_cuts(self):
        network = self._goldberg_like()
        value = max_flow(network, "s", "t")
        minimal = set(min_cut_source_side(network, "s"))
        maximal = set(min_cut_maximal_source_side(network, "t"))
        assert "s" in minimal and "t" not in minimal
        assert "s" in maximal and "t" not in maximal
        assert minimal <= maximal
        # both must be min cuts: crossing capacity == flow value
        for side in (minimal, maximal):
            crossing = sum(
                arc.capacity
                for arc in network.arcs()
                if network.label_of(arc.tail) in side
                and network.label_of(arc.head) not in side
                and arc.capacity > 0
            )
            assert crossing == value


class TestSCC:
    def test_simple_cycle(self):
        adjacency = {1: [2], 2: [3], 3: [1], 4: [1]}
        components = strongly_connected_components_indexed(
            5, adjacency, lambda v: adjacency.get(v, [])
        )
        as_sets = {frozenset(c) for c in components}
        assert as_sets == {frozenset({1, 2, 3}), frozenset({4})}

    def test_reverse_topological_emission(self):
        adjacency = {1: [2], 2: [3], 3: []}
        components = strongly_connected_components_indexed(
            5, adjacency, lambda v: adjacency.get(v, [])
        )
        order = [c[0] for c in components]
        assert order == [3, 2, 1]

    def test_condensation(self):
        adjacency = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
        components = strongly_connected_components_indexed(
            5, adjacency, lambda v: adjacency.get(v, [])
        )
        dag = condensation_successors(
            components, lambda v: adjacency.get(v, [])
        )
        index = {frozenset(c): i for i, c in enumerate(map(frozenset, components))}
        src = index[frozenset({1, 2})]
        dst = index[frozenset({3, 4})]
        assert dag[src] == [dst]
        assert dag[dst] == []

    def test_against_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(3, 30))
            ]
            adjacency = {v: [] for v in range(n)}
            for u, v in edges:
                adjacency[u].append(v)
            ours = {
                frozenset(c)
                for c in strongly_connected_components_indexed(
                    n, range(n), lambda v: adjacency[v]
                )
            }
            nxg = nx.DiGraph(edges)
            nxg.add_nodes_from(range(n))
            theirs = {frozenset(c) for c in nx.strongly_connected_components(nxg)}
            assert ours == theirs
