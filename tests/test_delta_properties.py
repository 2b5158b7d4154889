"""Algebraic properties of dynamic-store maintenance.

The column-substream contract (see :mod:`repro.delta`) makes surgery
*algebraic*: a column depends only on (root seed, edge labels, theta,
p), never on position or on other edges.  This tier pins the laws that
fall out:

* update-then-inverse-update restores the mask matrix bit for bit
  (deletes round-trip per-edge columns, at a new position);
* deltas over disjoint edge sets commute;
* a no-op delta redraws zero columns and invalidates zero evaluation
  entries (spy-counted through the summary and the stats ledger);
* budgeted (``memory_budget``) stores stay under their byte budget
  through a spill-heavy update schedule, and still match from-scratch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.delta import (
    GraphDelta,
    apply_store_delta,
    draw_dynamic_store,
    edge_column,
    edge_substream_key,
)
from repro.engine.indexed import IndexedGraph
from repro.graph.graph import canonical_edge
from repro.session import Session

from .conftest import random_uncertain_graph

THETA = 32


def _apply(graph, store, delta):
    """Apply ``delta`` to graph and store; return the outcome."""
    resolved = delta.apply(graph)
    return apply_store_delta(
        store, resolved, IndexedGraph.from_uncertain(graph)
    )


def _edge_columns(store):
    """Canonical edge labels -> boolean mask column (order-free view)."""
    indexed = store.indexed
    nodes = indexed.nodes
    masks = store.masks
    return {
        canonical_edge(nodes[indexed.edge_u[j]], nodes[indexed.edge_v[j]]):
            masks[:, j]
        for j in range(indexed.m)
    }


# ----------------------------------------------------------------------
# substream determinism
# ----------------------------------------------------------------------
def test_substream_key_is_orientation_and_process_stable():
    assert edge_substream_key("A", "B") == edge_substream_key("B", "A")
    assert edge_substream_key(3, 7) == edge_substream_key(7, 3)
    assert edge_substream_key("A", "B") != edge_substream_key("A", "C")
    # pure function of the labels: no hash() / PYTHONHASHSEED influence
    assert edge_substream_key("A", "B") == edge_substream_key("A", "B")


@pytest.mark.parametrize("kind", ("mc", "lp"))
def test_edge_column_depends_only_on_seed_labels_theta_p(kind):
    base = edge_column(kind, 9, "A", "B", 0.4, THETA)
    np.testing.assert_array_equal(
        base, edge_column(kind, 9, "B", "A", 0.4, THETA)
    )
    assert not np.array_equal(
        base, edge_column(kind, 10, "A", "B", 0.4, THETA)
    ) or base.all() or not base.any()
    assert base.shape == (THETA,)
    np.testing.assert_array_equal(
        edge_column(kind, 9, "A", "B", 1.0, THETA),
        np.ones(THETA, dtype=bool),
    )


def test_mc_updates_are_monotonically_coupled():
    """Raising p can only turn worlds on; lowering only off."""
    low = edge_column("mc", 5, "A", "B", 0.2, 256)
    high = edge_column("mc", 5, "A", "B", 0.8, 256)
    assert (low <= high).all()
    assert low.sum() < high.sum()


# ----------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ("mc", "lp"))
def test_update_then_inverse_restores_masks_bit_for_bit(kind):
    graph = random_uncertain_graph(random.Random(5), 10, 0.4)
    store = draw_dynamic_store(graph, kind=kind, theta=THETA, seed=9)
    baseline = store.masks.copy()
    edges = sorted(graph.edges())
    delta = GraphDelta(
        updates=[(edges[0][0], edges[0][1], 0.123),
                 (edges[1][0], edges[1][1], 0.987)],
        inserts=[(100, 101, 0.6)],
    )
    inverse = delta.inverse(graph)  # captured before the mutation
    _apply(graph, store, delta)
    _apply(graph, store, inverse)
    np.testing.assert_array_equal(store.masks, baseline)
    if kind == "lp":
        fresh = draw_dynamic_store(graph, kind=kind, theta=THETA, seed=9)
        np.testing.assert_array_equal(store.order_data, fresh.order_data)
        fresh.close()
    store.close()


def test_delete_round_trip_restores_columns_up_to_position():
    """A delete's inverse re-inserts at the end of the edge order: the
    column returns byte-identical, at a new index."""
    graph = random_uncertain_graph(random.Random(7), 10, 0.4)
    store = draw_dynamic_store(graph, kind="mc", theta=THETA, seed=7)
    before = {k: v.copy() for k, v in _edge_columns(store).items()}
    victim = sorted(graph.edges())[0]
    delta = GraphDelta(deletes=[victim])
    inverse = delta.inverse(graph)
    _apply(graph, store, delta)
    _apply(graph, store, inverse)
    after = _edge_columns(store)
    assert set(after) == set(before)
    for edge, column in after.items():
        np.testing.assert_array_equal(column, before[edge])
    # ...but the victim moved to the end of the edge order
    indexed = store.indexed
    nodes = indexed.nodes
    last = canonical_edge(
        nodes[indexed.edge_u[indexed.m - 1]],
        nodes[indexed.edge_v[indexed.m - 1]],
    )
    assert last == canonical_edge(*victim)
    store.close()


# ----------------------------------------------------------------------
# commutativity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ("mc", "lp"))
def test_disjoint_update_delete_deltas_commute_exactly(kind):
    """Updates keep positions and deletes close ranks, so two deltas on
    disjoint edges yield byte-identical stores in either order."""
    base = random_uncertain_graph(random.Random(13), 12, 0.4)
    edges = sorted(base.edges())
    assert len(edges) >= 4
    delta_a = GraphDelta(
        updates=[(edges[0][0], edges[0][1], 0.21)], deletes=[edges[1]]
    )
    delta_b = GraphDelta(
        updates=[(edges[2][0], edges[2][1], 0.84)], deletes=[edges[3]]
    )
    results = []
    for first, second in ((delta_a, delta_b), (delta_b, delta_a)):
        graph = base.copy()
        store = draw_dynamic_store(
            graph, kind=kind, theta=THETA, seed=13
        )
        _apply(graph, store, first)
        _apply(graph, store, second)
        results.append((store.masks, sorted(graph.edges())))
        store.close()
    np.testing.assert_array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


def test_disjoint_insert_deltas_commute_per_edge():
    """Insert order decides column position, so commutation holds at
    per-edge-column granularity (the substream contract)."""
    base = random_uncertain_graph(random.Random(17), 10, 0.3)
    delta_a = GraphDelta(inserts=[(100, 101, 0.5)])
    delta_b = GraphDelta(inserts=[(200, 201, 0.7)])
    columns = []
    for first, second in ((delta_a, delta_b), (delta_b, delta_a)):
        graph = base.copy()
        store = draw_dynamic_store(graph, kind="mc", theta=THETA, seed=17)
        _apply(graph, store, first)
        _apply(graph, store, second)
        columns.append(_edge_columns(store))
        store.close()
    assert set(columns[0]) == set(columns[1])
    for edge in columns[0]:
        np.testing.assert_array_equal(columns[0][edge], columns[1][edge])


# ----------------------------------------------------------------------
# no-op deltas
# ----------------------------------------------------------------------
def test_noop_delta_redraws_nothing_and_invalidates_nothing():
    graph = random_uncertain_graph(random.Random(19), 10, 0.4)
    with Session(graph) as session:
        # warm one dynamic store and one evaluation entry
        warm = (
            session.query().sampler("mc", theta=THETA, seed=19)
            .dynamic().top_k(2).mpds()
        )
        u, v = sorted(session.graph.edges())[0]
        same_p = session.graph.probability(u, v)
        summary = session.update(GraphDelta(updates=[(u, v, same_p)]))
        assert summary["updates"] == 0
        assert summary["noop_updates"] == 1
        assert summary["columns_redrawn"] == 0
        assert summary["worlds_flipped"] == 0
        assert summary["stores_updated"] == 0
        assert summary["evals_invalidated"] == 0
        assert session.stats["columns_redrawn"] == 0
        assert session.stats["evals_invalidated"] == 0
        # the evaluation cache survived untouched: pure hit, no patch
        before = session.stats["eval_hits"]
        again = (
            session.query().sampler("mc", theta=THETA, seed=19)
            .dynamic().top_k(2).mpds()
        )
        assert again == warm
        assert session.stats["eval_hits"] == before + 1
        assert session.stats["evals_patched"] == 0
        assert session.stats["worlds_reevaluated"] == 0


def test_empty_delta_is_a_counted_no_op():
    graph = random_uncertain_graph(random.Random(23), 8, 0.4)
    with Session(graph) as session:
        summary = session.update(GraphDelta())
        assert summary["columns_redrawn"] == 0
        assert session.stats["graph_updates"] == 1


def test_update_requires_a_graph_delta():
    graph = random_uncertain_graph(random.Random(23), 8, 0.4)
    with Session(graph) as session:
        with pytest.raises(TypeError, match="GraphDelta"):
            session.update({"updates": []})


# ----------------------------------------------------------------------
# delta validation
# ----------------------------------------------------------------------
def test_delta_rejects_malformed_rows():
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        GraphDelta(updates=[("A", "B", 1.5)])
    with pytest.raises(ValueError, match="self-loops"):
        GraphDelta(inserts=[("A", "A", 0.5)])
    with pytest.raises(ValueError, match="expected \\(u, v, p\\)"):
        GraphDelta(updates=[("A", "B")])
    with pytest.raises(ValueError, match="expected \\(u, v\\)"):
        GraphDelta(deletes=[("A", "B", 0.5)])
    with pytest.raises(ValueError, match="appears in both"):
        GraphDelta(updates=[("A", "B", 0.5)], deletes=[("B", "A")])


def test_delta_resolve_validates_against_the_graph():
    graph = random_uncertain_graph(random.Random(29), 8, 0.4)
    u, v = sorted(graph.edges())[0]
    with pytest.raises(ValueError, match="missing edge"):
        GraphDelta(updates=[(900, 901, 0.5)]).resolve(graph)
    with pytest.raises(ValueError, match="existing edge"):
        GraphDelta(inserts=[(u, v, 0.5)]).resolve(graph)
    with pytest.raises(ValueError, match="missing edge"):
        GraphDelta(deletes=[(900, 901)]).resolve(graph)
    # resolve never mutates
    before = sorted(graph.weighted_edges())
    GraphDelta(updates=[(u, v, 0.123)]).resolve(graph)
    assert sorted(graph.weighted_edges()) == before


def test_dynamic_draw_knob_validation():
    graph = random_uncertain_graph(random.Random(31), 8, 0.4)
    with pytest.raises(ValueError, match="delta-capable"):
        draw_dynamic_store(graph, kind="rss", theta=8, seed=1)
    with pytest.raises(ValueError, match="explicit seed"):
        draw_dynamic_store(graph, kind="mc", theta=8)
    with Session(graph) as session:
        with pytest.raises(ValueError, match="delta-capable"):
            session.world_store("rss", theta=8, seed=1, dynamic=True)
        with pytest.raises(ValueError, match="seed"):
            (
                session.query().sampler("mc", theta=8)
                .dynamic().top_k(1).mpds()
            )


def test_legacy_stores_are_evicted_not_maintained():
    graph = random_uncertain_graph(random.Random(37), 10, 0.4)
    with Session(graph) as session:
        session.query().sampler("rss", theta=16, seed=3).top_k(1).mpds()
        u, v = sorted(session.graph.edges())[0]
        summary = session.update(GraphDelta(updates=[(u, v, 0.05)]))
        assert summary["stores_evicted"] == 1
        assert summary["stores_updated"] == 0
        assert session.stats_snapshot()["cached_stores"] == 0
    # surgery itself refuses non-dynamic stores outright
    from repro.engine.worldstore import WorldStore

    legacy = WorldStore.from_sampler(graph, None, 8, seed=1)
    resolved = GraphDelta(
        updates=[tuple(sorted(graph.edges())[0]) + (0.5,)]
    ).resolve(graph)
    with pytest.raises(ValueError, match="dynamic store"):
        apply_store_delta(legacy, resolved, None)
    legacy.close()


# ----------------------------------------------------------------------
# budgeted stores
# ----------------------------------------------------------------------
class TestBudgetedMaintenance:
    def _budgeted(self, graph, seed, theta=64):
        full = draw_dynamic_store(
            graph, kind="mc", theta=theta, seed=seed
        )
        words = full.mask_matrix().words
        budget = 3 * words.shape[1] * 8  # a few one-row blocks
        full.close()
        return draw_dynamic_store(
            graph, kind="mc", theta=theta, seed=seed,
            memory_budget=budget,
        ), budget

    def test_spill_heavy_updates_stay_under_budget(self):
        rng = random.Random(41)
        graph = random_uncertain_graph(rng, 14, 0.4)
        store, budget = self._budgeted(graph, 41)
        assert store._pager is not None, "budget did not engage the pager"
        for step in range(4):
            edges = sorted(graph.edges())
            rng.shuffle(edges)
            delta = GraphDelta(
                updates=[
                    (u, v, round(rng.uniform(0.05, 1.0), 3))
                    for u, v in edges[:3]
                ]
            )
            _apply(graph, store, delta)
            assert store.peak_mask_bytes <= budget, (
                f"step {step}: surgery burst the budget"
            )
            fresh = draw_dynamic_store(
                graph, kind="mc", theta=64, seed=41
            )
            np.testing.assert_array_equal(store.masks, fresh.masks)
            fresh.close()
        assert store._pager.block_evictions > 0
        store.close()

    def test_structural_rebuild_repages_under_the_same_budget(self):
        rng = random.Random(43)
        graph = random_uncertain_graph(rng, 14, 0.4)
        store, budget = self._budgeted(graph, 43)
        victim = sorted(graph.edges())[0]
        delta = GraphDelta(
            deletes=[victim], inserts=[(300, 301, 0.6)]
        )
        _apply(graph, store, delta)
        assert store._pager is not None, "rebuild dropped the pager"
        assert store.memory_budget == budget
        list(store.mask_worlds())  # stream everything once
        assert store.mask_nbytes <= budget
        fresh = draw_dynamic_store(
            graph, kind="mc", theta=64, seed=43
        )
        np.testing.assert_array_equal(store.masks, fresh.masks)
        fresh.close()
        store.close()


def test_reprs_and_empty_flags():
    delta = GraphDelta(updates=[("A", "B", 0.5)])
    assert repr(delta) == "GraphDelta(updates=1, inserts=0, deletes=0)"
    assert not delta.empty
    assert GraphDelta().empty
    graph = random_uncertain_graph(random.Random(3), 8, 0.5)
    store = draw_dynamic_store(graph, kind="mc", theta=8, seed=3)
    u, v = sorted(graph.edges())[0]
    resolved = GraphDelta(updates=[(u, v, 0.999)]).apply(graph)
    outcome = apply_store_delta(
        store, resolved, IndexedGraph.from_uncertain(graph)
    )
    assert "columns_redrawn=1" in repr(outcome)
    assert "dynamic=True" in repr(store)
    store.close()


def test_edge_column_validates_kind_and_theta():
    with pytest.raises(ValueError, match="delta-capable"):
        edge_column("rss", 1, "A", "B", 0.5, 8)
    with pytest.raises(ValueError, match=">= 0"):
        edge_column("mc", 1, "A", "B", 0.5, -1)
    with pytest.raises(ValueError, match="positive"):
        draw_dynamic_store(
            random_uncertain_graph(random.Random(1), 4, 0.5),
            kind="mc", theta=0, seed=1,
        )
