"""Enumerating *all* edge-densest subgraphs (Chang & Qiao [46]).

Line 5 of Algorithm 1 needs every node set inducing a densest subgraph in a
sampled possible world.  The pipeline (Example 4):

1. shrink to the ceil(rho~)-core (rho~ from Charikar peeling);
2. compute the exact optimum rho*_e with Goldberg's algorithm;
3. rebuild the flow network at exactly ``alpha = rho*_e`` (capacities scaled
   to integers) and compute a maximum flow -- its value is exactly ``2 m q``;
4. condense the residual graph into SCCs, drop the source/sink components,
   and enumerate independent component sets (Algorithm 3).

The maximum-sized densest subgraph (Algorithm 5, line 4) is the maximal
min-cut source side: the graph nodes that cannot reach the sink in the
residual graph; by [59] it equals the union of all densest subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, FrozenSet, Iterator, List, Optional, Tuple

from ..flow.maxflow import (
    max_flow,
    min_cut_maximal_source_side,
    min_cut_source_side,
)
from ..flow.network import FlowNetwork
from ..flow.parametric import parametric_dinkelbach
from ..graph.graph import Graph, Node
from .component_enum import (
    ComponentStructure,
    build_component_structure,
    build_component_structure_indexed,
    count_independent_sets,
    enumerate_independent_sets,
)
from .goldberg import SINK, SOURCE, build_edge_density_network, densest_subgraph
from .kcore import k_core
from .peeling import _peel_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> dense)
    from ..engine.indexed import SubWorldView


@dataclass
class _Prepared:
    """Residual structure of the edge-density network at alpha = rho*."""

    density: Fraction
    structure: Optional[ComponentStructure]
    maximal_nodes: FrozenSet[Node]


def _finalise(
    core: Graph, density: Fraction, network: Optional[FlowNetwork] = None
) -> _Prepared:
    """Residual component structure + maximal min-cut side at alpha = rho*.

    ``core`` must contain every densest subgraph and ``density`` must be
    the exact optimum.  ``network`` may carry an already max-flowed
    Goldberg network at that alpha (its flow is reused); otherwise the
    flow is computed here and checked against ``2 m q``.
    """
    if network is None:
        network = build_edge_density_network(core, density)
        value = max_flow(network, SOURCE, SINK)
        expected = 2 * core.number_of_edges() * density.denominator
        if value != expected:  # pragma: no cover - guarded by exact rho*
            raise AssertionError(
                f"max flow {value} != 2 m q = {expected}; rho* not exact?"
            )
    structure = build_component_structure(
        network, SOURCE, SINK, is_graph_node=lambda label: label in core
    )
    maximal = frozenset(
        label
        for label in min_cut_maximal_source_side(network, SINK)
        if label in core
    )
    return _Prepared(density, structure, maximal)


def _prepare(graph: Graph) -> _Prepared:
    if graph.number_of_edges() == 0:
        return _Prepared(Fraction(0), None, frozenset())
    exact = densest_subgraph(graph)
    ceil_density = -(-exact.density.numerator // exact.density.denominator)
    core = k_core(graph, ceil_density)
    if core.number_of_edges() == 0:
        core = graph
    return _finalise(core, exact.density)


def prepare_from_bound(core: Graph, lower_bound: Fraction) -> _Prepared:
    """Residual structure of a world given a pre-shrunk core and a bound.

    Fast-path twin of :func:`_prepare` used by the vectorised engine
    (:mod:`repro.engine`).  ``core`` must be the ``ceil(lower_bound)``-core
    of some possible world ``W`` and ``lower_bound`` an edge density
    *achieved* by an induced subgraph of ``W`` (so ``core`` contains every
    densest subgraph of ``W``).  Returns exactly what ``_prepare(W)``
    would, but replaces Goldberg's ~``log(n^3)``-step binary search with
    Dinkelbach iteration: run one max flow at the currently achieved
    density; either it certifies optimality, or its min cut is a strictly
    denser subgraph to iterate from.  Achieved densities form a finite
    increasing chain, so this terminates -- in practice within 2-4 flows.

    The candidate sets, the exact density, and the maximum-sized densest
    subgraph are identical to the reference pipeline's; only the *order*
    in which :func:`enumerate_all_densest_subgraphs` emits candidates may
    differ, which is observable solely under a truncating ``limit``.
    """
    if core.number_of_edges() == 0:
        return _Prepared(Fraction(0), None, frozenset())
    alpha = Fraction(lower_bound)
    while True:
        network = build_edge_density_network(core, alpha)
        target = 2 * core.number_of_edges() * alpha.denominator
        value = max_flow(network, SOURCE, SINK)
        if value >= target:
            break
        side = set(min_cut_source_side(network, SOURCE))
        witness = frozenset(node for node in core if node in side)
        alpha = Fraction(
            core.subgraph(witness).number_of_edges(), len(witness)
        )
    # alpha is now the exact rho*; rebuild on the tighter ceil(rho*)-core
    # when it differs from `core` (mirroring _prepare), otherwise reuse
    # the certifying network -- it is already max-flowed at alpha.
    ceil_density = -(-alpha.numerator // alpha.denominator)
    shrunken = k_core(core, ceil_density)
    if shrunken.number_of_edges() == 0:  # pragma: no cover - see _prepare
        shrunken = core
    if shrunken.number_of_nodes() != core.number_of_nodes():
        return _finalise(shrunken, alpha)
    return _finalise(core, alpha, network=network)


def _component_residual_structure(network, view: "SubWorldView"):
    """Condense one component's max-flowed network; return its structure
    and the component's maximal min-cut side (as label frozensets).

    The condensation is restricted to the nodes that can no longer reach
    the sink (the maximal min-cut source side plus the source's own
    region): that set is successor-closed in the residual graph and
    contains every kept component -- each kept component's closure is a
    densest subgraph, and densest subgraphs lie inside the maximal
    min-cut source side -- so Tarjan only ever walks the dense pocket
    instead of the whole network.
    """
    coreachable = network.coreachable_to_sink()
    candidates = [i for i, flag in enumerate(coreachable) if not flag]
    adjacency = network.residual_adjacency(candidates)
    structure = build_component_structure_indexed(
        network.num_nodes,
        adjacency.__getitem__,
        network.source,
        network.sink,
        view.label_of,
        lambda label: True,
        vertices=candidates,
    )
    maximal = view.label_set(i for i in candidates if i < view.n)
    return structure, maximal


def _tree_structure(view: "SubWorldView"):
    """Closed-form residual structure of a tree component.

    A tree's unique densest subgraph is the whole tree (any proper
    induced subforest with ``c`` parts has density ``(n' - c) / n' <
    (n - 1) / n``), and the residual condensation of Goldberg's network
    at ``alpha = (n - 1) / n`` is a single kept SCC holding every tree
    node.  Synthesising it skips the flow entirely -- the bulk of the
    components of a sparse sampled world are trees.
    """
    labels = frozenset(view.labels())
    return ComponentStructure([labels], [labels], [set()], [set()]), labels


def _merge_structures(structures) -> ComponentStructure:
    """Concatenate disjoint components' structures (index-shifted).

    The residual SCC DAGs of distinct connected components share no
    edges, so merging is concatenation with renumbered descendant /
    ancestor sets; the enumeration over the merged structure then emits
    exactly the unions of per-component densest subgraphs.
    """
    if len(structures) == 1:
        return structures[0]
    components: List = []
    graph_nodes: List = []
    descendants: List = []
    ancestors: List = []
    offset = 0
    for structure in structures:
        components.extend(structure.components)
        graph_nodes.extend(structure.graph_nodes)
        descendants.extend(
            {child + offset for child in s} for s in structure.descendants
        )
        ancestors.extend(
            {child + offset for child in s} for s in structure.ancestors
        )
        offset += len(structure)
    return ComponentStructure(components, graph_nodes, descendants, ancestors)


def prepare_from_bound_csr(
    view: "SubWorldView", lower_bound: Fraction
) -> _Prepared:
    """Array-native twin of :func:`prepare_from_bound` over a world view.

    Runs the same exact pipeline, but entirely on the CSR/bitmask
    substrate, decomposed by connected component:

    * tree components are solved in closed form (:func:`_tree_structure`);
    * every other component gets a bucketed Charikar peel
      (:func:`repro.dense.peeling._peel_arrays`) for an achieved local
      bound plus its degeneracy, and is skipped outright when the
      degeneracy (an upper bound on any subgraph's density) cannot reach
      the best exact density already found;
    * surviving components run Dinkelbach iteration as one warm
      push-relabel chain each
      (:func:`repro.flow.parametric.parametric_dinkelbach`), re-shrunk
      to the mask k-core at the exact density;
    * the residual structures of the components achieving ``rho*`` are
      concatenated (:func:`_merge_structures`), which reproduces the
      monolithic network's enumeration family exactly: a densest
      subgraph of a disjoint union is a union of component-densest
      subgraphs over components achieving the global optimum.

    No :class:`~repro.graph.graph.Graph` or
    :class:`~repro.flow.network.FlowNetwork` object is materialised, and
    node labels only re-enter in the returned structure's frozensets.

    The contract matches :func:`prepare_from_bound`: ``view`` must be the
    ``ceil(lower_bound)``-core of some possible world ``W`` (isolated
    nodes are tolerated and ignored) and ``lower_bound`` an edge density
    achieved by an induced subgraph of ``W``.  The returned density,
    candidate family and maximum-sized densest subgraph are
    byte-identical to the reference pipeline's; only the enumeration
    *order* of :attr:`_Prepared.structure` may differ (observable solely
    under a truncating ``limit``, which callers replay).
    """
    if view.m == 0:
        return _Prepared(Fraction(0), None, frozenset())
    components = view.components()
    solved = []  # (rho_c, max-flowed network or None for trees, comp view)
    if len(components) == 1 and components[0].m != components[0].n - 1:
        # single non-tree component: the caller's achieved global bound
        # applies to it directly, no per-component peel needed
        comp = components[0]
        solved.append(parametric_dinkelbach(comp, lower_bound))
    else:
        trees = []
        others = []
        for comp in components:
            if comp.m == comp.n - 1:
                trees.append(comp)
            else:
                indptr, neighbors = comp.csr()
                _o, _e, num, den, _size, degeneracy = _peel_arrays(
                    comp.n, indptr, neighbors
                )
                others.append((Fraction(num, den), degeneracy, comp))
        best: Optional[Fraction] = None
        for comp in trees:
            rho_c = Fraction(comp.n - 1, comp.n)
            solved.append((rho_c, None, comp))
            if best is None or rho_c > best:
                best = rho_c
        others.sort(key=lambda item: item[0], reverse=True)
        for bound_c, degeneracy, comp in others:
            if best is not None and degeneracy < best:
                continue  # cannot contain a subgraph at the best density
            core = comp.k_core(-(-bound_c.numerator // bound_c.denominator))
            if core.m == 0:  # pragma: no cover - bound is achieved in comp
                core = comp
            result = parametric_dinkelbach(core, bound_c)
            solved.append(result)
            if best is None or result[0] > best:
                best = result[0]
    rho = max(entry[0] for entry in solved)
    structures = []
    maximal = set()
    for rho_c, network, comp in solved:
        if rho_c != rho:
            continue
        if network is None:
            structure, comp_maximal = _tree_structure(comp)
        else:
            structure, comp_maximal = _component_residual_structure(
                network, comp
            )
        structures.append(structure)
        maximal |= comp_maximal
    return _Prepared(rho, _merge_structures(structures), frozenset(maximal))


def enumerate_all_densest_subgraphs(
    graph: Graph, limit: Optional[int] = None
) -> Iterator[FrozenSet[Node]]:
    """Yield the node set of every edge-densest subgraph of ``graph``.

    Each is yielded exactly once (Corollary 2 / [46]).  On an edgeless
    graph nothing is yielded (the paper's convention for empty worlds).
    ``limit`` truncates the enumeration.
    """
    prepared = _prepare(graph)
    if prepared.structure is None:
        return
    yield from enumerate_independent_sets(prepared.structure, limit)


def all_densest_subgraphs(
    graph: Graph, limit: Optional[int] = None
) -> List[FrozenSet[Node]]:
    """Return the list of all edge-densest subgraphs (see enumerate version)."""
    return list(enumerate_all_densest_subgraphs(graph, limit))


def count_densest_subgraphs(graph: Graph) -> int:
    """Return the number of edge-densest subgraphs (Table VIII statistic)."""
    prepared = _prepare(graph)
    if prepared.structure is None:
        return 0
    return count_independent_sets(prepared.structure)


def maximum_sized_densest_subgraph(
    graph: Graph,
) -> Tuple[Fraction, FrozenSet[Node]]:
    """Return ``(rho*_e, nodes)`` of the maximum-sized densest subgraph.

    Equals the union of the node sets of all densest subgraphs ([59]);
    computed directly from the maximal min-cut source side without
    enumerating (Algorithm 5 line 4 for edge density).
    """
    prepared = _prepare(graph)
    return prepared.density, prepared.maximal_nodes
