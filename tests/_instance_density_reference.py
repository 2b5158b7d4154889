"""Frozen clique- and pattern-density pipelines: the differential reference.

These are :mod:`repro.dense.clique_density` (Algorithms 2/3/6) and
:mod:`repro.dense.pattern_density` (Algorithms 4/3/7) as they were
before both were folded into :mod:`repro.dense.instance_density`: two
full copies of peel -> core -> bisection for rho* -> network at rho* ->
residual condensation and enumeration.  They are kept verbatim (only
module-relative imports made absolute and the clashing private helpers
prefixed) so ``tests/test_instance_density_differential.py`` can assert
that the shared pipeline returns the same rho*, witness, enumeration
order, truncated window and maximal set.  Test-only: nothing under
``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.cliques.enumeration import (
    Clique,
    enumerate_cliques,
    sub_cliques_of_h_cliques,
)
from repro.dense.component_enum import (
    ComponentStructure,
    build_component_structure,
    enumerate_independent_sets,
)
from repro.dense.kcore import kh_core, kpsi_core
from repro.dense.peeling import peel_clique_density, peel_pattern_density
from repro.flow.maxflow import (
    max_flow,
    min_cut_maximal_source_side,
    min_cut_source_side,
)
from repro.flow.network import FlowNetwork
from repro.graph.graph import Graph, Node
from repro.patterns.matching import NodeSet, count_instances, group_instances
from repro.patterns.pattern import Pattern

SOURCE = ("__source__",)
SINK = ("__sink__",)


def _clique_label(lam: Clique) -> Tuple[str, Clique]:
    """Network label for an (h-1)-clique node (disjoint from graph nodes)."""
    return ("__clique__", lam)


def build_clique_density_network(
    graph: Graph,
    h: int,
    alpha: Fraction,
    lambdas: List[Clique],
    completions: Dict[Clique, List[Node]],
) -> FlowNetwork:
    """Construct the flow network of Algorithm 6, scaled by ``alpha``'s denominator.

    * ``c(s, v) = q * deg_G(v, h)`` (h-clique degree),
    * ``c(v, t) = h * p`` where ``alpha = p / q``,
    * ``c(lam, v) = infinity`` for each node ``v`` of the (h-1)-clique,
    * ``c(v, lam) = q`` for each ``v`` completing ``lam`` into an h-clique.
    """
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    degrees: Dict[Node, int] = {node: 0 for node in graph}
    for lam, nodes in completions.items():
        for node in nodes:
            degrees[node] += 1
    # deg(v, h) counts h-cliques containing v; each h-clique containing v
    # appears exactly once as (lam, v) with lam = clique minus v.
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    total_cliques = sum(len(nodes) for nodes in completions.values()) // h
    infinite = h * max(total_cliques, 1) * q + 1
    for node in graph:
        network.add_arc(SOURCE, node, q * degrees[node])
        network.add_arc(node, SINK, h * p)
    for lam in lambdas:
        label = _clique_label(lam)
        for member in lam:
            network.add_arc(label, member, infinite)
        for completer in completions[lam]:
            network.add_arc(completer, label, q)
    return network


@dataclass(frozen=True)
class CliqueDensestResult:
    """Exact maximum h-clique density and one witness subgraph."""

    density: Fraction
    nodes: FrozenSet[Node]


def _count_induced_cliques(graph: Graph, nodes: FrozenSet[Node], h: int) -> int:
    return sum(1 for _ in enumerate_cliques(graph.subgraph(nodes), h))


def _exists_denser(
    core: Graph,
    h: int,
    alpha: Fraction,
    lambdas: List[Clique],
    completions: Dict[Clique, List[Node]],
    mu: int,
) -> Tuple[bool, Optional[FrozenSet[Node]]]:
    """Check whether some subgraph has h-clique density > alpha (Lemma 3)."""
    network = build_clique_density_network(core, h, alpha, lambdas, completions)
    value = max_flow(network, SOURCE, SINK)
    target = h * mu * Fraction(alpha).denominator
    if value >= target:
        return False, None
    side = set(min_cut_source_side(network, SOURCE))
    witness = frozenset(node for node in core if node in side)
    return True, witness


def clique_densest_subgraph(graph: Graph, h: int) -> CliqueDensestResult:
    """Return the exact maximum h-clique density ``rho*_h`` and a witness.

    A graph with no h-clique has density 0 and an empty witness (an
    h-cliqueless world contributes to no clique-MPDS candidate).
    """
    if h == 2:
        from repro.dense.goldberg import densest_subgraph as _edge_densest
        result = _edge_densest(graph)
        return CliqueDensestResult(result.density, result.nodes)
    peel = peel_clique_density(graph, h)
    if peel.density == 0 and not any(True for _ in enumerate_cliques(graph, h)):
        return CliqueDensestResult(Fraction(0), frozenset())
    ceil_density = -(-peel.density.numerator // peel.density.denominator)
    core = kh_core(graph, max(ceil_density, 1), h)
    if core.number_of_nodes() == 0:
        core = graph
    lambdas, completions = sub_cliques_of_h_cliques(core, h)
    mu = sum(len(nodes) for nodes in completions.values()) // h
    if mu == 0:
        return CliqueDensestResult(Fraction(0), frozenset())
    n = core.number_of_nodes()
    lo = max(peel.density, Fraction(1, n))
    hi = Fraction(mu, 1)
    best_nodes = peel.nodes if peel.density > 0 else core.node_set()
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2
        exists, witness = _exists_denser(core, h, alpha, lambdas, completions, mu)
        if exists:
            assert witness
            lo = Fraction(_count_induced_cliques(core, witness, h), len(witness))
            best_nodes = witness
        else:
            hi = alpha
    density = Fraction(
        _count_induced_cliques(graph, frozenset(best_nodes), h), len(best_nodes)
    )
    return CliqueDensestResult(density, frozenset(best_nodes))


@dataclass
class _PreparedClique:
    density: Fraction
    structure: Optional[ComponentStructure]
    maximal_nodes: FrozenSet[Node]


def _clique_prepare(graph: Graph, h: int) -> _PreparedClique:
    exact = clique_densest_subgraph(graph, h)
    if exact.density == 0:
        return _PreparedClique(Fraction(0), None, frozenset())
    ceil_density = -(-exact.density.numerator // exact.density.denominator)
    core = kh_core(graph, max(ceil_density, 1), h)
    if core.number_of_nodes() == 0:
        core = graph
    lambdas, completions = sub_cliques_of_h_cliques(core, h)
    mu = sum(len(nodes) for nodes in completions.values()) // h
    network = build_clique_density_network(
        core, h, exact.density, lambdas, completions
    )
    value = max_flow(network, SOURCE, SINK)
    expected = h * mu * exact.density.denominator
    if value != expected:  # pragma: no cover - exactness guard
        raise AssertionError(
            f"max flow {value} != h mu q = {expected}; rho*_h not exact?"
        )
    graph_node_set = core.node_set()
    structure = build_component_structure(
        network, SOURCE, SINK, is_graph_node=lambda label: label in graph_node_set
    )
    maximal = frozenset(
        label
        for label in min_cut_maximal_source_side(network, SINK)
        if label in graph_node_set
    )
    return _PreparedClique(exact.density, structure, maximal)


def enumerate_all_clique_densest_subgraphs(
    graph: Graph, h: int, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield every h-clique-densest subgraph exactly once (Theorem 4).

    For ``h = 2`` this delegates to the edge-density enumeration, as a
    2-clique is an edge.
    """
    if h == 2:
        from repro.dense.all_densest import enumerate_all_densest_subgraphs
        yield from enumerate_all_densest_subgraphs(graph, limit)
        return
    prepared = _clique_prepare(graph, h)
    if prepared.structure is None:
        return
    yield from enumerate_independent_sets(prepared.structure, limit)


def all_clique_densest_subgraphs(
    graph: Graph, h: int, limit: Optional[int] = None
) -> List[FrozenSet[Node]]:
    """Return all h-clique-densest subgraphs as a list."""
    return list(enumerate_all_clique_densest_subgraphs(graph, h, limit))


def maximum_sized_clique_densest_subgraph(
    graph: Graph, h: int
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*_h, nodes)`` of the maximum-sized h-clique-densest subgraph."""
    if h == 2:
        from repro.dense.all_densest import maximum_sized_densest_subgraph
        return maximum_sized_densest_subgraph(graph)
    prepared = _clique_prepare(graph, h)
    return prepared.density, prepared.maximal_nodes


def maximum_clique_density(graph: Graph, h: int) -> Fraction:
    """Return rho*_h, the maximum h-clique density over all subgraphs."""
    return clique_densest_subgraph(graph, h).density


def _group_label(nodes: NodeSet) -> Tuple[str, NodeSet]:
    """Network label for an instance group (disjoint from graph nodes)."""
    return ("__group__", nodes)


def build_pattern_density_network(
    graph: Graph,
    pattern: Pattern,
    alpha: Fraction,
    groups: Dict[NodeSet, int],
) -> FlowNetwork:
    """Construct the flow network of Algorithm 7, scaled to integers."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    size = pattern.number_of_nodes()
    degrees: Dict[Node, int] = {node: 0 for node in graph}
    for nodes, multiplicity in groups.items():
        for node in nodes:
            degrees[node] += multiplicity
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    for node in graph:
        network.add_arc(SOURCE, node, q * degrees[node])
        network.add_arc(node, SINK, size * p)
    for nodes, multiplicity in groups.items():
        label = _group_label(nodes)
        for member in nodes:
            network.add_arc_pair(
                member,
                label,
                q * multiplicity,
                q * multiplicity * (size - 1),
            )
    return network


@dataclass(frozen=True)
class PatternDensestResult:
    """Exact maximum pattern density and one witness subgraph."""

    density: Fraction
    nodes: FrozenSet[Node]


def _pattern_exists_denser(
    core: Graph,
    pattern: Pattern,
    alpha: Fraction,
    groups: Dict[NodeSet, int],
    mu: int,
) -> Tuple[bool, Optional[FrozenSet[Node]]]:
    network = build_pattern_density_network(core, pattern, alpha, groups)
    value = max_flow(network, SOURCE, SINK)
    target = pattern.number_of_nodes() * mu * Fraction(alpha).denominator
    if value >= target:
        return False, None
    side = set(min_cut_source_side(network, SOURCE))
    witness = frozenset(node for node in core if node in side)
    return True, witness


def pattern_densest_subgraph(
    graph: Graph, pattern: Pattern
) -> PatternDensestResult:
    """Return the exact maximum pattern density ``rho*_psi`` and a witness."""
    peel = peel_pattern_density(graph, pattern)
    if peel.density == 0:
        return PatternDensestResult(Fraction(0), frozenset())
    ceil_density = -(-peel.density.numerator // peel.density.denominator)
    core = kpsi_core(graph, max(ceil_density, 1), pattern)
    if core.number_of_nodes() == 0:
        core = graph
    groups = group_instances(core, pattern)
    mu = sum(groups.values())
    if mu == 0:
        return PatternDensestResult(Fraction(0), frozenset())
    n = core.number_of_nodes()
    lo = max(peel.density, Fraction(1, n))
    hi = Fraction(mu, 1)
    best_nodes = peel.nodes
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2
        exists, witness = _pattern_exists_denser(core, pattern, alpha, groups, mu)
        if exists:
            assert witness
            lo = Fraction(
                count_instances(core.subgraph(witness), pattern), len(witness)
            )
            best_nodes = witness
        else:
            hi = alpha
    density = Fraction(
        count_instances(graph.subgraph(best_nodes), pattern), len(best_nodes)
    )
    return PatternDensestResult(density, frozenset(best_nodes))


@dataclass
class _PreparedPattern:
    density: Fraction
    structure: Optional[ComponentStructure]
    maximal_nodes: FrozenSet[Node]


def _pattern_prepare(graph: Graph, pattern: Pattern) -> _PreparedPattern:
    exact = pattern_densest_subgraph(graph, pattern)
    if exact.density == 0:
        return _PreparedPattern(Fraction(0), None, frozenset())
    ceil_density = -(-exact.density.numerator // exact.density.denominator)
    core = kpsi_core(graph, max(ceil_density, 1), pattern)
    if core.number_of_nodes() == 0:
        core = graph
    groups = group_instances(core, pattern)
    mu = sum(groups.values())
    network = build_pattern_density_network(core, pattern, exact.density, groups)
    value = max_flow(network, SOURCE, SINK)
    expected = pattern.number_of_nodes() * mu * exact.density.denominator
    if value != expected:  # pragma: no cover - exactness guard
        raise AssertionError(
            f"max flow {value} != |V_psi| mu q = {expected}; rho*_psi not exact?"
        )
    graph_node_set = core.node_set()
    structure = build_component_structure(
        network, SOURCE, SINK, is_graph_node=lambda label: label in graph_node_set
    )
    maximal = frozenset(
        label
        for label in min_cut_maximal_source_side(network, SINK)
        if label in graph_node_set
    )
    return _PreparedPattern(exact.density, structure, maximal)


def enumerate_all_pattern_densest_subgraphs(
    graph: Graph, pattern: Pattern, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield every pattern-densest subgraph exactly once (Appendix B)."""
    prepared = _pattern_prepare(graph, pattern)
    if prepared.structure is None:
        return
    yield from enumerate_independent_sets(prepared.structure, limit)


def all_pattern_densest_subgraphs(
    graph: Graph, pattern: Pattern, limit: Optional[int] = None
) -> List[FrozenSet[Node]]:
    """Return all pattern-densest subgraphs as a list."""
    return list(enumerate_all_pattern_densest_subgraphs(graph, pattern, limit))


def maximum_sized_pattern_densest_subgraph(
    graph: Graph, pattern: Pattern
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*_psi, nodes)`` of the maximum-sized pattern-densest subgraph."""
    prepared = _pattern_prepare(graph, pattern)
    return prepared.density, prepared.maximal_nodes


def maximum_pattern_density(graph: Graph, pattern: Pattern) -> Fraction:
    """Return rho*_psi, the maximum pattern density over all subgraphs."""
    return pattern_densest_subgraph(graph, pattern).density
