"""Differential tests: the shared instance-density pipeline vs. the frozen copies.

:mod:`repro.dense.instance_density` runs peel -> core -> bisection for
rho* -> network at rho* -> condensation and enumeration once, for both
h-clique density (Algorithm 6's network) and pattern density
(Algorithm 7's).  Its contract is that nothing observable changes against
the two pipelines it replaced (``tests/_instance_density_reference.py``):
the same rho*, the same ``one_densest`` witness, the same enumeration
*list* in order, the same truncated ``limit=2`` window and the same
maximum-sized set.  Both sides run in one process, so any set-iteration
order they depend on comes from the same hash seed.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dense import clique_density, pattern_density
from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern
from repro.specs import PATTERNS

from . import _instance_density_reference as reference

PATTERN_CASES = [factory() for factory in PATTERNS.values()] + [Pattern.clique(3)]


@st.composite
def graphs(draw) -> Graph:
    """0-10 nodes labelled either by ints or by strs, any edge subset."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        labels = list(range(n))
    else:
        labels = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph(nodes=labels)
    for (u, v), keep in zip(pairs, present):
        if keep:
            graph.add_edge(u, v)
    return graph


def _observables(densest, enumerate_all, maximum_sized, graph, *args):
    exact = densest(graph, *args)
    return (
        exact.density,
        exact.nodes,
        list(enumerate_all(graph, *args)),
        list(enumerate_all(graph, *args, limit=2)),
        maximum_sized(graph, *args),
    )


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from([3, 4]))
def test_clique_density_matches_reference(graph, h):
    assert _observables(
        clique_density.clique_densest_subgraph,
        clique_density.enumerate_all_clique_densest_subgraphs,
        clique_density.maximum_sized_clique_densest_subgraph,
        graph,
        h,
    ) == _observables(
        reference.clique_densest_subgraph,
        reference.enumerate_all_clique_densest_subgraphs,
        reference.maximum_sized_clique_densest_subgraph,
        graph,
        h,
    )


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from(PATTERN_CASES))
def test_pattern_density_matches_reference(graph, pattern):
    assert _observables(
        pattern_density.pattern_densest_subgraph,
        pattern_density.enumerate_all_pattern_densest_subgraphs,
        pattern_density.maximum_sized_pattern_densest_subgraph,
        graph,
        pattern,
    ) == _observables(
        reference.pattern_densest_subgraph,
        reference.enumerate_all_pattern_densest_subgraphs,
        reference.maximum_sized_pattern_densest_subgraph,
        graph,
        pattern,
    )


def test_h2_still_delegates_to_edge_density():
    """A 2-clique is an edge: the clique entry points keep delegating."""
    graph = Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
    assert _observables(
        clique_density.clique_densest_subgraph,
        clique_density.enumerate_all_clique_densest_subgraphs,
        clique_density.maximum_sized_clique_densest_subgraph,
        graph,
        2,
    ) == _observables(
        reference.clique_densest_subgraph,
        reference.enumerate_all_clique_densest_subgraphs,
        reference.maximum_sized_clique_densest_subgraph,
        graph,
        2,
    )
