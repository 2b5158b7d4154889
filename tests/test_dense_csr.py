"""Differential gate for the array-native (CSR) densest-subgraph layer.

Every port in the substrate swap -- bucketed Charikar peeling, mask
k-core, the CSR push-relabel solver, and the Dinkelbach exact stage --
is pinned against its pure-Python oracle on random worlds with fixed
seeds: identical densities, node sets, trajectories, flow values and
min-cut sides, including empty, single-node and disconnected worlds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.dense.all_densest import (
    prepare_from_bound,
    prepare_from_bound_csr,
)
from repro.dense.component_enum import enumerate_independent_sets
from repro.dense.kcore import k_core
from repro.dense.peeling import peel_edge_density, peel_edge_density_csr
from repro.engine.indexed import IndexedGraph, MaskWorld, SubWorldView
from repro.engine.kernels import k_core_alive
from repro.flow.csr import CSRFlowNetwork, build_edge_density_network_csr
from repro.flow.maxflow import max_flow
from repro.flow.network import FlowNetwork
from repro.flow.push_relabel import csr_push_relabel
from repro.graph.uncertain import UncertainGraph


def random_world(rng: random.Random, n: int, p: float) -> MaskWorld:
    """A certain uncertain graph + full mask = one deterministic world."""
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v, 1.0)
    indexed = IndexedGraph.from_uncertain(graph)
    return MaskWorld(indexed, np.ones(indexed.m, dtype=bool))


def masked_world(rng: random.Random, n: int, p: float, keep: float) -> MaskWorld:
    """A random world with a random sub-mask (exercises dead edges)."""
    world = random_world(rng, n, p)
    mask = np.array(
        [rng.random() < keep for _ in range(world.indexed.m)], dtype=bool
    )
    return MaskWorld(world.indexed, mask)


class TestCSRPeeling:
    """peel_edge_density_csr must replay peel_edge_density bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
    def test_identical_on_random_worlds(self, seed, density):
        rng = random.Random(seed)
        for _ in range(12):
            world = masked_world(rng, rng.randint(2, 14), density, 0.7)
            expected = peel_edge_density(world.to_graph())
            actual = peel_edge_density_csr(world.view())
            assert actual.density == expected.density
            assert actual.nodes == expected.nodes
            assert actual.trajectory == expected.trajectory
            assert actual.order == expected.order

    def test_empty_and_singleton(self):
        rng = random.Random(0)
        empty = random_world(rng, 0, 0.0)
        assert peel_edge_density_csr(empty.view()).density == Fraction(0)
        single = random_world(rng, 1, 0.0)
        result = peel_edge_density_csr(single.view())
        assert result.density == Fraction(0)
        assert result.trajectory == ((Fraction(0), 1),)
        assert result.order == (0,)

    def test_disconnected_world(self):
        # two triangles and an isolated node: peel must match exactly
        graph = UncertainGraph()
        for node in range(7):
            graph.add_node(node)
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            graph.add_edge(u, v, 1.0)
        indexed = IndexedGraph.from_uncertain(graph)
        world = MaskWorld(indexed, np.ones(indexed.m, dtype=bool))
        expected = peel_edge_density(world.to_graph())
        actual = peel_edge_density_csr(world.view())
        assert actual == expected


class TestCSRKCore:
    """SubWorldView.k_core must equal the bucket-peeling k-core."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_node_sets_match(self, seed, k):
        rng = random.Random(seed)
        for _ in range(10):
            world = masked_world(rng, rng.randint(2, 16), 0.35, 0.8)
            core_view = world.view().k_core(k)
            expected = k_core(world.to_graph(), k)
            assert frozenset(core_view.labels()) == frozenset(
                expected.nodes()
            )
            assert core_view.m == expected.number_of_edges()

    def test_kernel_alive_masks_match_graph_core(self):
        rng = random.Random(5)
        world = masked_world(rng, 12, 0.4, 0.9)
        for k in (1, 2, 3):
            node_alive, edge_alive = k_core_alive(world.indexed, world.mask, k)
            expected = k_core(world.to_graph(), k)
            alive_labels = {
                world.indexed.nodes[i] for i in np.flatnonzero(node_alive)
            }
            # the kernel keeps isolated survivors implicit; compare cores
            assert alive_labels == set(expected.nodes()) or k <= 0


class TestCSRMaxFlow:
    """CSR push-relabel vs object Dinic on random integer networks."""

    def random_network(self, rng: random.Random):
        n = rng.randint(2, 10)
        pairs = []
        for _ in range(rng.randint(1, 24)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                pairs.append((a, b, rng.randint(0, 9), rng.randint(0, 9)))
        return n, pairs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_values_and_cut_sides_match(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n, pairs = self.random_network(rng)
            if not pairs:
                continue
            s, t = 0, n - 1
            obj = FlowNetwork()
            for i in range(n):
                obj.add_node(i)
            for a, b, cf, cb in pairs:
                obj.add_arc_pair(a, b, cf, cb)
            value_dinic = max_flow(obj, s, t)

            tails = np.array([p[0] for p in pairs])
            heads = np.array([p[1] for p in pairs])
            caps_f = np.array([p[2] for p in pairs])
            caps_b = np.array([p[3] for p in pairs])
            net = CSRFlowNetwork.from_pairs(
                n, s, t, tails, heads, caps_f, caps_b
            )
            assert csr_push_relabel(net) == value_dinic
            # the maximal min-cut side is flow-invariant: the residual
            # sets that still reach the sink agree across solvers
            coreachable = set(obj.residual_coreachable_to(t))
            assert net.coreachable_to_sink() == [
                i in coreachable for i in range(n)
            ]

    def test_twin_layout_invariants(self):
        rng = random.Random(9)
        n, pairs = self.random_network(rng)
        tails = np.array([p[0] for p in pairs])
        heads = np.array([p[1] for p in pairs])
        caps_f = np.array([p[2] for p in pairs])
        caps_b = np.array([p[3] for p in pairs])
        net = CSRFlowNetwork.from_pairs(
            n, 0, n - 1, tails, heads, caps_f, caps_b
        )
        arcs = len(net.to)
        assert arcs == 2 * len(pairs)
        for e in range(arcs):
            twin = net.twin[e]
            assert net.twin[twin] == e
            # twin of x -> y runs y -> x: its head is e's tail slice owner
            lo = np.searchsorted(net.indptr, e, side="right") - 1
            assert net.to[twin] == lo


class TestPreparedDifferential:
    """prepare_from_bound_csr vs prepare_from_bound on world cores."""

    def both_prepared(self, world: MaskWorld):
        """Build the ceil(peel)-core both ways and run both pipelines."""
        peel = peel_edge_density(world.to_graph())
        bound = peel.density
        if bound <= 0:
            return None
        k = -(-bound.numerator // bound.denominator)
        node_alive, edge_alive = k_core_alive(world.indexed, world.mask, k)
        view = SubWorldView(world.indexed, edge_alive, node_alive)
        core_graph = world.indexed.subworld_graph(edge_alive, node_alive)
        reference = prepare_from_bound(core_graph, bound)
        actual = prepare_from_bound_csr(view, bound)
        return reference, actual

    def assert_equivalent(self, reference, actual):
        assert actual.density == reference.density
        assert actual.maximal_nodes == reference.maximal_nodes
        expected_family = set(
            enumerate_independent_sets(reference.structure)
        ) if reference.structure else set()
        actual_family = set(
            enumerate_independent_sets(actual.structure)
        ) if actual.structure else set()
        assert actual_family == expected_family
        assert len(actual_family) == len(expected_family)

    @pytest.mark.parametrize("seed", [0, 2, 5, 13, 21])
    @pytest.mark.parametrize("density", [0.15, 0.3, 0.55])
    def test_random_world_cores(self, seed, density):
        rng = random.Random(seed)
        checked = 0
        for _ in range(14):
            world = masked_world(rng, rng.randint(3, 13), density, 0.75)
            pair = self.both_prepared(world)
            if pair is None:
                continue
            self.assert_equivalent(*pair)
            checked += 1
        assert checked > 0

    def test_empty_world(self):
        rng = random.Random(1)
        world = random_world(rng, 5, 0.0)
        prepared = prepare_from_bound_csr(world.view(), Fraction(0))
        assert prepared.density == Fraction(0)
        assert prepared.structure is None
        assert prepared.maximal_nodes == frozenset()

    def test_disconnected_tied_components(self):
        # two disjoint triangles tie at density 1: the family must contain
        # each triangle AND their union (cross-component merge)
        graph = UncertainGraph()
        for node in range(6):
            graph.add_node(node)
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            graph.add_edge(u, v, 1.0)
        indexed = IndexedGraph.from_uncertain(graph)
        world = MaskWorld(indexed, np.ones(indexed.m, dtype=bool))
        reference, actual = self.both_prepared(world)
        self.assert_equivalent(reference, actual)
        family = set(enumerate_independent_sets(actual.structure))
        assert frozenset({0, 1, 2}) in family
        assert frozenset({3, 4, 5}) in family
        assert frozenset(range(6)) in family
        assert actual.maximal_nodes == frozenset(range(6))

    def test_tree_world_closed_form(self):
        # a path world is a tree component: solved without any flow
        graph = UncertainGraph()
        for node in range(5):
            graph.add_node(node)
        for u in range(4):
            graph.add_edge(u, u + 1, 1.0)
        indexed = IndexedGraph.from_uncertain(graph)
        world = MaskWorld(indexed, np.ones(indexed.m, dtype=bool))
        reference, actual = self.both_prepared(world)
        self.assert_equivalent(reference, actual)
        assert actual.density == Fraction(4, 5)

    def test_mixed_tree_and_dense_components(self):
        # a triangle (density 1) plus a path (density 3/4): only the
        # triangle's component survives into the structure
        graph = UncertainGraph()
        for node in range(7):
            graph.add_node(node)
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]:
            graph.add_edge(u, v, 1.0)
        indexed = IndexedGraph.from_uncertain(graph)
        world = MaskWorld(indexed, np.ones(indexed.m, dtype=bool))
        reference, actual = self.both_prepared(world)
        self.assert_equivalent(reference, actual)
        family = set(enumerate_independent_sets(actual.structure))
        assert family == {frozenset({0, 1, 2})}


class TestSubWorldView:
    def test_components_split_and_cover(self):
        rng = random.Random(8)
        for _ in range(10):
            world = masked_world(rng, rng.randint(2, 14), 0.25, 0.7)
            view = world.view()
            components = view.components()
            # components partition exactly the non-isolated nodes
            seen = set()
            for comp in components:
                labels = set(comp.labels())
                assert not labels & seen
                seen |= labels
            graph = world.to_graph()
            non_isolated = {
                node for node in graph if graph.degree(node) > 0
            }
            assert seen == non_isolated
            assert sum(comp.m for comp in components) == view.m

    def test_materialize_matches_subworld_graph(self):
        rng = random.Random(4)
        world = masked_world(rng, 10, 0.4, 0.8)
        node_alive, edge_alive = k_core_alive(world.indexed, world.mask, 1)
        view = SubWorldView(world.indexed, edge_alive, node_alive)
        assert view.materialize() == world.indexed.subworld_graph(
            edge_alive, node_alive
        )

    def test_restrict_and_induced_edges(self):
        rng = random.Random(6)
        world = masked_world(rng, 9, 0.5, 0.9)
        view = world.view()
        keep = np.zeros(view.n, dtype=bool)
        keep[: view.n // 2] = True
        sub = view.restrict(keep)
        graph = world.to_graph().subgraph(sub.labels())
        assert sub.m == graph.number_of_edges()
        assert view.induced_edges(keep) == graph.number_of_edges()

    def test_full_graph_csr_slicing(self):
        rng = random.Random(12)
        world = masked_world(rng, 8, 0.5, 0.75)
        indexed = world.indexed
        indptr, adj_nodes, adj_edges = indexed.csr()
        graph = world.to_graph()
        for i, node in enumerate(indexed.nodes):
            alive = [
                indexed.nodes[adj_nodes[pos]]
                for pos in range(indptr[i], indptr[i + 1])
                if world.mask[adj_edges[pos]]
            ]
            assert set(alive) == set(graph.neighbors(node))
            assert len(alive) == graph.degree(node)
