"""Differential tests: the shared push-relabel core vs. the frozen flow layer.

:class:`repro.flow.push_relabel.Preflow` is the one push-relabel core of
the CSR flow layer: :func:`~repro.flow.push_relabel.csr_push_relabel`
and the warm chain's :meth:`~repro.flow.parametric.ReverseChain.drain`
discharge through it, the chain's global relabel is its BFS, and every
network gets its arcs from :func:`repro.flow.csr.arc_layout`.  The
contract is that no flow changes against the modules it replaced
(``tests/_flow_reference.py``): the same ``rho*`` and view from
:func:`~repro.flow.parametric.parametric_dinkelbach`, list-equal
``to``/``cap``/``twin``/``indptr``, the same chain state after every
``run``, ``increment``, ``global_relabel`` and ``drain``, and the same
value and residual capacities from cold solves.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dense.peeling import _peel_arrays
from repro.engine.indexed import IndexedGraph, MaskWorld
from repro.flow import csr, parametric, push_relabel
from repro.graph.uncertain import UncertainGraph

from . import _flow_reference as reference


def random_world(rng: random.Random, n: int, extra: int, keep: float):
    """A random world on ``n`` nodes: spanning tree + extra edges, each
    edge alive with probability ``keep`` (``keep < 1`` splits it into
    several components and isolated nodes)."""
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    for u, v in sorted(edges):
        graph.add_edge(u, v, 1.0)
    indexed = IndexedGraph.from_uncertain(graph)
    alive = np.array([rng.random() < keep for _ in range(indexed.m)], dtype=bool)
    return MaskWorld(indexed, alive)


def network_lists(network):
    return (
        network.num_nodes, network.source, network.sink,
        list(network.to), list(network.cap), list(network.twin),
        list(network.indptr),
    )


def chain_state(chain):
    return (
        network_lists(chain.net), list(chain.height), list(chain.excess),
        list(chain.count_at_height), list(chain.pointers),
        list(chain.in_queue), list(chain.active), chain.num, chain.den,
        chain._heights_exact,
    )


def chain_trace(module, view, bound):
    """Drive one chain through a Dinkelbach loop; snapshot every step.

    Mirrors :func:`parametric_dinkelbach`'s loop, plus one forced
    ``global_relabel`` after the first ``run`` and a final ``drain``.
    """
    chain = module.ReverseChain(view, bound)
    trace = [("init", chain_state(chain))]
    value = chain.run()
    trace.append(("run", value, chain_state(chain)))
    chain.global_relabel()
    trace.append(("global_relabel", chain_state(chain)))
    while value < 2 * view.m * chain.den:
        member = chain.witness()
        size = int(member.sum())
        num = view.induced_edges(member) if size else 0
        if size == 0 or num * chain.den <= chain.num * size:
            chain.global_relabel()
            trace.append(("global_relabel", chain_state(chain)))
            continue
        chain.increment(num, size)
        trace.append(("increment", chain_state(chain)))
        value = chain.run()
        trace.append(("run", value, chain_state(chain)))
    chain.drain()
    trace.append(("drain", chain_state(chain)))
    trace.append(("forward", network_lists(chain.forward_network())))
    return trace


def bounds_of(view):
    """A single edge, the whole view and the Charikar peel's best set."""
    indptr, neighbors = view.csr()
    _o, _e, num, den, _size, _degeneracy = _peel_arrays(
        view.n, indptr, neighbors
    )
    return [Fraction(1, 2), Fraction(view.m, view.n), Fraction(num, den)]


def views_of(world):
    """The whole view (isolated nodes included) and each of its components."""
    view = world.view()
    if view.m == 0:
        return []
    return [view] + [c for c in view.components() if c is not view]


def assert_same_solve(view, bound):
    """``parametric_dinkelbach`` and the chain agree; True on a re-shrink."""
    new_rho, new_net, new_view = parametric.parametric_dinkelbach(view, bound)
    ref_rho, ref_net, ref_view = reference.parametric_dinkelbach(view, bound)
    assert new_rho == ref_rho
    assert new_view.n == ref_view.n
    assert new_view.labels() == ref_view.labels()
    assert network_lists(new_net) == network_lists(ref_net)
    assert new_net.coreachable_to_sink() == ref_net.coreachable_to_sink()
    assert chain_trace(parametric, view, bound) == chain_trace(
        reference, view, bound
    )
    return new_view.n != view.n


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(0, 60),
    st.sampled_from([1.0, 1.0, 0.8, 0.5]),
)
def test_parametric_dinkelbach_matches_reference(seed, n, extra, keep):
    world = random_world(random.Random(seed), n, extra, keep)
    for view in views_of(world):
        for bound in bounds_of(view):
            assert_same_solve(view, bound)


def test_sweep_covers_reshrinks_and_components():
    # a seeded sweep that must exercise the cold re-shrink path and
    # multi-component views, so the Hypothesis run above is not the only
    # witness that both shapes agree with the reference
    rng = random.Random(20)
    reshrinks = solves = split = 0
    for trial in range(120):
        keep = 1.0 if trial % 2 else 0.7
        world = random_world(rng, rng.randint(2, 40), rng.randint(0, 40), keep)
        views = views_of(world)
        split += len(views) > 1
        for view in views:
            for bound in bounds_of(view):
                solves += 1
                reshrinks += assert_same_solve(view, bound)
    assert split > 0
    assert 0 < reshrinks < solves


def test_edge_density_network_matches_reference():
    rng = random.Random(5)
    for _ in range(40):
        view = random_world(rng, rng.randint(2, 30), rng.randint(0, 30), 0.9).view()
        alpha = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        args = (view.n, view.edge_lu, view.edge_lv, view.degrees(), alpha)
        new = csr.build_edge_density_network_csr(*args)
        ref = reference.build_edge_density_network_csr(*args)
        assert network_lists(new) == network_lists(ref)
        assert push_relabel.csr_push_relabel(new) == reference.csr_push_relabel(ref)
        assert network_lists(new) == network_lists(ref)


@st.composite
def pair_networks(draw):
    """Random arc-pair arrays over 2-12 nodes, zero capacities allowed."""
    num_nodes = draw(st.integers(2, 12))
    node = st.integers(0, num_nodes - 1)
    pairs = draw(st.lists(
        st.tuples(node, node, st.integers(0, 20), st.integers(0, 20)),
        max_size=40,
    ))
    source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    columns = [np.array(c, dtype=np.int64) for c in zip(*pairs)] or [
        np.zeros(0, dtype=np.int64)
    ] * 4
    return (num_nodes, source, sink, *columns)


@settings(max_examples=500, deadline=None)
@given(pair_networks())
def test_csr_push_relabel_matches_reference(args):
    new = csr.CSRFlowNetwork.from_pairs(*args)
    ref = reference.CSRFlowNetwork.from_pairs(*args)
    assert network_lists(new) == network_lists(ref)
    assert push_relabel.csr_push_relabel(new) == reference.csr_push_relabel(ref)
    assert network_lists(new) == network_lists(ref)
    assert new.coreachable_to_sink() == ref.coreachable_to_sink()
