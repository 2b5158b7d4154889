"""The exact pipeline shared by h-clique and pattern density (Algorithms 2/4).

Algorithm 4 is "the pattern analogue of Algorithm 2": only the instances
and the flow network differ.  Both run the same steps, parameterised here
by an :class:`InstanceFamily`:

1. ``rho~`` from instance-degree peeling ([19], [5]); shrink to the
   (ceil(rho~), psi)-core;
2. compute the exact optimum ``rho*`` by bisection on the family's flow
   network (the paper uses the convex-program solver of [57]; the same
   network is exact -- see DESIGN.md substitutions);
3. build the network at ``alpha = rho*``, max-flow, condense the residual
   graph, and enumerate independent component sets (Algorithm 3,
   Theorem 4: each densest subgraph exactly once); the maximal min-cut
   source side is the maximum-sized densest subgraph.

At ``alpha = rho*`` the minimum s-t cut has capacity ``|V_psi| * mu``
(Corollary 1, Lemma 11), asserted after scaling capacities to integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..flow.maxflow import max_flow, min_cut_maximal_source_side, min_cut_source_side
from ..flow.network import FlowNetwork
from ..graph.graph import Graph, Node
from .component_enum import build_component_structure, enumerate_independent_sets
from .goldberg import SINK, SOURCE, DensestResult
from .kcore import _incidence_peeling_core
from .peeling import _peel_incidences

Incidences = List[FrozenSet[Node]]


class InstanceFamily(NamedTuple):
    """What one instance density supplies to the shared pipeline.

    ``arity`` is ``|V_psi|`` (``h`` for h-cliques); ``incidences(graph)``
    lists the node set of every instance in enumeration order; and
    ``network(core)`` returns ``(build, mu)``: ``build(alpha)`` is the
    family's flow network over ``core`` scaled by ``alpha``'s denominator,
    and ``mu`` is the number of instances in ``core``.
    """

    arity: int
    incidences: Callable[[Graph], Incidences]
    network: Callable[[Graph], Tuple[Callable[[Fraction], FlowNetwork], int]]


def _core(
    graph: Graph, incidences: Sequence[FrozenSet[Node]], density: Fraction
) -> Graph:
    """The (ceil(density), psi)-core of ``graph``, for ``density > 0``.

    Each node of a densest subgraph lies in >= rho* >= ``density`` of its
    instances (else deleting it would raise the density), so the core
    holds every densest subgraph and is never empty.
    """
    k = -(-density.numerator // density.denominator)
    return _incidence_peeling_core(graph, incidences, k)


def _density(graph: Graph, nodes: FrozenSet[Node], family: InstanceFamily) -> Fraction:
    return Fraction(len(family.incidences(graph.subgraph(nodes))), len(nodes))


def _bisect(
    graph: Graph, family: InstanceFamily, incidences: Incidences
) -> DensestResult:
    """Peel, shrink to the core, and bisect on ``alpha`` for the exact rho*."""
    peel = _peel_incidences(graph, incidences, family.arity)
    if peel.density == 0:
        return DensestResult(Fraction(0), frozenset())
    core = _core(graph, incidences, peel.density)
    build, mu = family.network(core)
    n = core.number_of_nodes()
    lo = max(peel.density, Fraction(1, n))
    hi = Fraction(mu, 1)
    best_nodes = peel.nodes
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2
        network = build(alpha)
        # a subgraph denser than alpha exists iff the min cut is below |V_psi| mu
        if max_flow(network, SOURCE, SINK) >= family.arity * mu * alpha.denominator:
            hi = alpha
            continue
        side = set(min_cut_source_side(network, SOURCE))
        best_nodes = frozenset(node for node in core if node in side)
        assert best_nodes
        lo = _density(core, best_nodes, family)
    return DensestResult(_density(graph, best_nodes, family), best_nodes)


def instance_densest_subgraph(graph: Graph, family: InstanceFamily) -> DensestResult:
    """Return the exact maximum density ``rho*`` and one witness node set.

    A graph with no instance has density 0 and an empty witness.
    """
    return _bisect(graph, family, family.incidences(graph))


def _network_at_optimum(
    graph: Graph, family: InstanceFamily
) -> Optional[Tuple[Fraction, FlowNetwork, FrozenSet[Node]]]:
    """Max-flow the family's network at ``alpha = rho*``; None when rho* is 0.

    Returns ``(rho*, network, core nodes)`` with the flow left in place.
    """
    incidences = family.incidences(graph)
    density = _bisect(graph, family, incidences).density
    if density == 0:
        return None
    core = _core(graph, incidences, density)
    build, mu = family.network(core)
    network = build(density)
    value = max_flow(network, SOURCE, SINK)
    expected = family.arity * mu * density.denominator
    if value != expected:  # pragma: no cover - exactness guard
        raise AssertionError(
            f"max flow {value} != |V_psi| mu q = {expected}; rho* not exact?"
        )
    return density, network, core.node_set()


def enumerate_instance_densest_subgraphs(
    graph: Graph, family: InstanceFamily, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield every densest node set exactly once (Algorithm 3)."""
    solved = _network_at_optimum(graph, family)
    if solved is None:
        return
    _density_value, network, nodes = solved
    structure = build_component_structure(
        network, SOURCE, SINK, is_graph_node=nodes.__contains__
    )
    yield from enumerate_independent_sets(structure, limit)


def maximum_sized_instance_densest_subgraph(
    graph: Graph, family: InstanceFamily
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*, nodes)`` of the maximum-sized densest subgraph."""
    solved = _network_at_optimum(graph, family)
    if solved is None:
        return Fraction(0), frozenset()
    density, network, nodes = solved
    maximal = min_cut_maximal_source_side(network, SINK)
    return density, frozenset(label for label in maximal if label in nodes)
