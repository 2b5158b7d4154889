"""Differential gate for the warm reverse-parametric Dinkelbach solver.

:func:`repro.flow.parametric.parametric_dinkelbach` is the exact
per-component stage of the vectorised engine.  These tests pin it
against the object pipeline
(:func:`repro.dense.all_densest.prepare_from_bound` on the materialised
component, object Dinic flows) on random connected worlds: identical
``rho*``, identical (possibly re-shrunk) cores, identical maximal sets,
and a flow-invariant residual condensation -- the downstream enumeration
sees exactly the same densest-subgraph family either way.  The
bound-independence contract (any achieved density seeds the chain
without changing results) is pinned too, because the batched lockstep
peel bound relies on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.dense.all_densest import (
    _component_residual_structure,
    prepare_from_bound,
)
from repro.dense.kcore import k_core
from repro.dense.peeling import peel_edge_density_csr
from repro.engine.indexed import IndexedGraph, MaskWorld
from repro.flow.parametric import ReverseChain, parametric_dinkelbach
from repro.flow.push_relabel import csr_push_relabel
from repro.graph.uncertain import UncertainGraph


def connected_world(rng: random.Random, n: int, extra: int) -> MaskWorld:
    """A random connected certain world: spanning tree + extra edges."""
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        u = nodes[i]
        v = nodes[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    for u, v in sorted(edges):
        graph.add_edge(u, v, 1.0)
    indexed = IndexedGraph.from_uncertain(graph)
    return MaskWorld(indexed, np.ones(indexed.m, dtype=bool))


def canonical_structure(structure):
    """Order-independent form of a residual condensation."""
    components = [frozenset(c) for c in structure.components]
    return {
        (
            components[i],
            frozenset(structure.graph_nodes[i]),
            frozenset(components[j] for j in structure.descendants[i]),
        )
        for i in range(len(components))
    }


def reference_core_labels(graph, rho):
    """Nodes of the core the object pipeline finishes on at ``rho``."""
    shrunken = k_core(graph, -(-rho.numerator // rho.denominator))
    if shrunken.number_of_edges() == 0:
        return frozenset(graph.nodes())
    return frozenset(shrunken.nodes())


class TestParametricMatchesCold:
    """The warm chain must reproduce the object pipeline's cold solve."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    @pytest.mark.parametrize("extra", [0, 2, 8])
    def test_identical_rho_and_structure(self, seed, extra):
        rng = random.Random(seed)
        for _ in range(6):
            world = connected_world(rng, rng.randint(2, 12), extra)
            view = world.view()
            bound = Fraction(view.m, view.n)
            graph = view.materialize()
            w_rho, w_net, w_view = parametric_dinkelbach(view, bound)
            reference = prepare_from_bound(graph, bound)
            assert w_rho == reference.density
            assert frozenset(w_view.labels()) == reference_core_labels(
                graph, w_rho
            )
            w_structure, w_maximal = _component_residual_structure(
                w_net, w_view
            )
            assert w_maximal == reference.maximal_nodes
            assert canonical_structure(w_structure) == canonical_structure(
                reference.structure
            )

    def test_returned_network_is_max_flowed(self):
        # re-running push-relabel on the materialised forward network must
        # find zero augmenting capacity: the phase-2 drain turned the max
        # preflow into a genuine max flow before materialisation
        rng = random.Random(3)
        for _ in range(5):
            world = connected_world(rng, rng.randint(3, 10), 4)
            view = world.view()
            _rho, network, _view = parametric_dinkelbach(
                view, Fraction(view.m, view.n)
            )
            assert csr_push_relabel(network) == 0


class TestBoundIndependence:
    """Any achieved density <= rho* must seed the chain identically.

    This is the contract the batched lockstep peel bound leans on: its
    bound differs from the sequential peel's, and both must produce
    byte-identical downstream results.
    """

    @pytest.mark.parametrize("seed", [5, 17])
    def test_whole_graph_vs_peel_bound(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            world = connected_world(rng, rng.randint(3, 12), 5)
            view = world.view()
            loose = Fraction(view.m, view.n)
            tight = peel_edge_density_csr(view).density
            assert loose <= tight
            rho_a, net_a, view_a = parametric_dinkelbach(view, loose)
            rho_b, net_b, view_b = parametric_dinkelbach(view, tight)
            assert rho_a == rho_b
            assert frozenset(view_a.labels()) == frozenset(view_b.labels())
            sa, ma = _component_residual_structure(net_a, view_a)
            sb, mb = _component_residual_structure(net_b, view_b)
            assert ma == mb
            assert canonical_structure(sa) == canonical_structure(sb)


class TestSpecialShapes:
    """Closed-form-verifiable components."""

    def make_view(self, edges, n):
        graph = UncertainGraph()
        for node in range(n):
            graph.add_node(node)
        for u, v in edges:
            graph.add_edge(u, v, 1.0)
        indexed = IndexedGraph.from_uncertain(graph)
        return MaskWorld(indexed, np.ones(indexed.m, dtype=bool)).view()

    def test_single_edge(self):
        view = self.make_view([(0, 1)], 2)
        rho, _net, final = parametric_dinkelbach(view, Fraction(1, 2))
        assert rho == Fraction(1, 2)
        assert frozenset(final.labels()) == frozenset({0, 1})

    def test_triangle(self):
        view = self.make_view([(0, 1), (1, 2), (0, 2)], 3)
        rho, _net, _final = parametric_dinkelbach(view, Fraction(1, 2))
        assert rho == Fraction(1)

    def test_path_is_densest_as_a_whole(self):
        # a path (tree): rho* = (n-1)/n, achieved only by the whole tree
        n = 6
        view = self.make_view([(i, i + 1) for i in range(n - 1)], n)
        rho, net, final = parametric_dinkelbach(view, Fraction(1, 2))
        assert rho == Fraction(n - 1, n)
        _structure, maximal = _component_residual_structure(net, final)
        assert maximal == frozenset(range(n))

    def test_clique_plus_pendant_reshrinks(self):
        # K4 with a pendant node: rho* = 3/2, the ceil(rho*)-core drops
        # the pendant -- the re-shrink path must stay exact
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        view = self.make_view(edges, 5)
        rho, _net, final = parametric_dinkelbach(view, Fraction(7, 5))
        assert rho == Fraction(3, 2)
        assert frozenset(final.labels()) == frozenset({0, 1, 2, 3})


class TestChainInternals:
    """Invariants of the incremental reverse chain itself."""

    def test_increment_requires_strict_improvement(self):
        view = connected_world(random.Random(2), 6, 4).view()
        chain = ReverseChain(view, Fraction(view.m, view.n))
        chain.run()
        with pytest.raises(AssertionError):
            chain.increment(view.m, view.n)  # same alpha: delta == 0

    def test_witness_matches_heights(self):
        view = connected_world(random.Random(4), 8, 6).view()
        chain = ReverseChain(view, Fraction(1, 2))
        chain.run()
        witness = chain.witness()
        assert witness.shape == (view.n,)
        assert witness.dtype == np.bool_
        for v in range(view.n):
            assert witness[v] == (chain.height[v] < view.n)
