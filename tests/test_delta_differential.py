"""Step-wise differential gate for dynamic-graph maintenance.

The incremental path must never be observable: after EVERY step of a
randomized update schedule (probability bumps, edge insertions, edge
deletions), an incrementally maintained dynamic store must be
byte-identical -- masks *and* the LP insertion-order sidecar -- to a
from-scratch :func:`repro.delta.draw_dynamic_store` on the mutated
graph, and a live :class:`repro.session.Session` answering warm dynamic
queries must return results equal to a cold session built on the
mutated graph, across {resident, paged} stores x {edge, clique:h=2} x
{mc, lp} x engines, including truncated ``per_world_limit`` replays.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.delta import GraphDelta, apply_store_delta, draw_dynamic_store
from repro.engine.indexed import IndexedGraph
from repro.graph.graph import canonical_edge
from repro.session import Session

from .conftest import random_uncertain_graph

THETA = 24
STEPS = 5
#: a memory budget of eight one-word rows: far below a resident store,
#: so surgery runs block by block through the spill pager
PAGED_BUDGET = 64

KINDS = ("mc", "lp")
MEASURE_SPECS = ("edge", "clique:h=2")
ENGINES = ("auto", "python")


# ----------------------------------------------------------------------
# randomized schedules
# ----------------------------------------------------------------------
def _absent_pair(rng, graph):
    """An absent (u, v) pair; falls back to a brand-new node."""
    nodes = sorted(graph.nodes())
    for _ in range(32):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return u, v
    return rng.choice(nodes), max(nodes) + 1 + rng.randrange(8)


def _random_delta(rng, graph, structural=True):
    """One randomized batch: prob bumps, plus inserts/deletes."""
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    updates = [
        (u, v, round(rng.uniform(0.05, 1.0), 3)) for u, v in edges[:2]
    ]
    inserts, deletes = [], []
    if structural:
        if len(edges) > 4:
            deletes = [edges[2]]
        u, v = _absent_pair(rng, graph)
        inserts = [(u, v, round(rng.uniform(0.1, 0.9), 3))]
    return GraphDelta(updates=updates, inserts=inserts, deletes=deletes)


def _schedule(rng, graph, steps=STEPS):
    """Yield (delta, resolved, new_indexed) while mutating ``graph``."""
    for step in range(steps):
        delta = _random_delta(rng, graph, structural=step % 2 == 1)
        resolved = delta.apply(graph)
        yield delta, resolved, IndexedGraph.from_uncertain(graph)


def _edge_columns(store):
    """Canonical edge labels -> boolean mask column, order-independent."""
    indexed = store.indexed
    nodes = indexed.nodes
    masks = store.masks
    return {
        canonical_edge(nodes[indexed.edge_u[j]], nodes[indexed.edge_v[j]]):
            masks[:, j]
        for j in range(indexed.m)
    }


# ----------------------------------------------------------------------
# store level: incremental == from-scratch after every step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", (3, 41))
@pytest.mark.parametrize("paged", (True, False))
@pytest.mark.parametrize("kind", KINDS)
def test_store_matches_from_scratch_after_every_step(kind, paged, seed):
    rng = random.Random(seed)
    graph = random_uncertain_graph(rng, 12, 0.35)
    budget = PAGED_BUDGET if paged else None
    store = draw_dynamic_store(
        graph, kind=kind, theta=THETA, seed=seed, memory_budget=budget
    )
    assert (store._pager is not None) == paged
    for step, (_delta, resolved, new_indexed) in enumerate(
        _schedule(rng, graph)
    ):
        apply_store_delta(store, resolved, new_indexed)
        fresh = draw_dynamic_store(
            graph, kind=kind, theta=THETA, seed=seed
        )
        np.testing.assert_array_equal(
            store.masks, fresh.masks,
            err_msg=f"step {step}: incremental masks diverged",
        )
        if kind == "lp":
            np.testing.assert_array_equal(
                store.order_data, fresh.order_data,
                err_msg=f"step {step}: LP order sidecar diverged",
            )
            np.testing.assert_array_equal(
                store.order_indptr, fresh.order_indptr
            )
        if paged:
            assert store.peak_mask_bytes <= PAGED_BUDGET
        fresh.close()
    store.close()


@pytest.mark.parametrize("kind", KINDS)
def test_update_only_fast_path_redraws_exactly_named_columns(kind):
    """A pure probability delta redraws one column per updated edge and
    reports exactly the worlds whose bit flipped."""
    rng = random.Random(11)
    graph = random_uncertain_graph(rng, 10, 0.4)
    store = draw_dynamic_store(graph, kind=kind, theta=48, seed=11)
    for _ in range(4):
        edges = sorted(graph.edges())
        u, v = rng.choice(edges)
        delta = GraphDelta(
            updates=[(u, v, round(rng.uniform(0.05, 1.0), 3))]
        )
        before = store.masks.copy()
        resolved = delta.apply(graph)
        outcome = apply_store_delta(
            store, resolved, IndexedGraph.from_uncertain(graph)
        )
        after = store.masks
        assert outcome.columns_redrawn == len(resolved.updates)
        expected_flips = np.flatnonzero((before != after).any(axis=1))
        np.testing.assert_array_equal(
            np.sort(outcome.flipped), expected_flips
        )
        # only the updated edge's column may differ
        changed = np.flatnonzero((before != after).any(axis=0))
        ids = _edge_columns(store)
        assert all(
            np.array_equal(after[:, j], ids[canonical_edge(u, v)])
            for j in changed
        )
        assert len(changed) <= 1
    store.close()


@pytest.mark.parametrize("kind", KINDS)
def test_structural_delta_carries_surviving_columns_byte_for_byte(kind):
    """Insert/delete rebuilds must not re-draw untouched columns."""
    rng = random.Random(29)
    graph = random_uncertain_graph(rng, 12, 0.35)
    store = draw_dynamic_store(graph, kind=kind, theta=32, seed=29)
    before = _edge_columns(store)
    edges = sorted(graph.edges())
    delta = GraphDelta(
        deletes=[edges[0]],
        inserts=[(100, 101, 0.7)],
    )
    resolved = delta.apply(graph)
    outcome = apply_store_delta(
        store, resolved, IndexedGraph.from_uncertain(graph)
    )
    assert outcome.columns_redrawn == 1  # the insert only
    after = _edge_columns(store)
    for edge, column in after.items():
        if edge in before:
            np.testing.assert_array_equal(
                column, before[edge],
                err_msg=f"surviving column {edge} was re-drawn",
            )
    assert canonical_edge(*edges[0]) not in after
    assert canonical_edge(100, 101) in after
    store.close()


# ----------------------------------------------------------------------
# session level: warm dynamic queries == cold session on mutated graph
# ----------------------------------------------------------------------
def _warm(session, kind, seed, spec, engine, limit=None):
    query = (
        session.query().sampler(kind, theta=THETA, seed=seed)
        .dynamic().measure(spec).engine(engine).top_k(2)
    )
    if limit is not None:
        query = query.per_world_limit(limit)
    return query.mpds()


@pytest.mark.parametrize("kind", KINDS)
def test_session_queries_match_cold_session_after_every_step(kind):
    seed = 17
    rng = random.Random(seed)
    graph = random_uncertain_graph(rng, 12, 0.35)
    with Session(graph) as session:
        for step in range(STEPS):
            delta = _random_delta(
                rng, session.graph, structural=step % 2 == 1
            )
            session.update(delta)
            for spec in MEASURE_SPECS:
                for engine in ENGINES:
                    warm = _warm(session, kind, seed, spec, engine)
                    with Session(session.graph.copy()) as cold:
                        reference = _warm(cold, kind, seed, spec, engine)
                    assert warm == reference, (
                        f"step {step} cell ({kind}, {spec}, {engine}) "
                        "diverged from a cold session"
                    )
        # the whole schedule maintained the store surgically: one
        # dynamic draw ever, never a resample (the first update ran
        # before any query, so no store existed for it to maintain)
        assert session.stats["dynamic_stores_built"] == 1
        assert session.stats["graph_updates"] == STEPS
        assert session.stats["stores_updated"] == STEPS - 1
        assert session.stats["columns_redrawn"] >= STEPS - 1


@pytest.mark.parametrize("kind", KINDS)
def test_session_nds_and_representations_after_updates(kind):
    seed = 53
    rng = random.Random(seed)
    graph = random_uncertain_graph(rng, 12, 0.35)
    with Session(graph) as session:
        for step in range(3):
            delta = _random_delta(rng, session.graph, structural=step == 1)
            session.update(delta)
            warm = (
                session.query().sampler(kind, theta=THETA, seed=seed)
                .dynamic().top_k(2).min_size(2).nds()
            )
            with Session(session.graph.copy()) as cold:
                reference = (
                    cold.query().sampler(kind, theta=THETA, seed=seed)
                    .dynamic().top_k(2).min_size(2).nds()
                )
            assert warm == reference, f"NDS step {step} diverged"


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_replays_survive_updates(kind):
    """``per_world_limit`` entries carry ``replayed_worlds`` that cannot
    be patched per-world; the session must drop and recompute them --
    and still match a cold session exactly."""
    seed = 71
    rng = random.Random(seed)
    graph = random_uncertain_graph(rng, 12, 0.35)
    with Session(graph) as session:
        for step in range(3):
            delta = _random_delta(rng, session.graph, structural=step == 1)
            session.update(delta)
            for limit in (1, 3):
                warm = _warm(session, kind, seed, "edge", "auto",
                             limit=limit)
                with Session(session.graph.copy()) as cold:
                    reference = _warm(cold, kind, seed, "edge", "auto",
                                      limit=limit)
                assert warm == reference
                assert warm.replayed_worlds == reference.replayed_worlds


def test_dynamic_draws_are_engine_invariant_but_distinct_from_legacy():
    """Dynamic draws are a scheme of their own: python and vectorized
    engines agree on them, and they differ (by design) from the legacy
    continuous-stream draw of the same (kind, theta, seed)."""
    graph = random_uncertain_graph(random.Random(5), 12, 0.35)
    seed = 5
    with Session(graph.copy()) as session:
        dynamic = {
            engine: _warm(session, "mc", seed, "edge", engine)
            for engine in ENGINES
        }
        assert dynamic["auto"] == dynamic["python"]
        legacy = (
            session.query().sampler("mc", theta=THETA, seed=seed)
            .measure("edge").top_k(2).mpds()
        )
        # identical candidate tallies would mean the two schemes share
        # a stream; the per-edge substream scheme is deliberately
        # distinct
        assert legacy.candidates != dynamic["auto"].candidates


# ----------------------------------------------------------------------
# fan-out over a surgically maintained store
# ----------------------------------------------------------------------
def _dynamic_json(session, spec):
    """Serialized MPDS and NDS answers over the dynamic karate draw."""
    def query():
        return (
            session.query().sampler("mc:theta=64,seed=7").dynamic()
            .measure(spec).top_k(3)
        )

    return query().mpds().to_json(), query().min_size(2).nds().to_json()


def test_fan_out_over_dynamic_store_matches_in_process_after_surgery():
    """Workers rebuild a ``WorldStore`` from the republished segments of
    a dynamic store after every update: ``workers=2`` must print, byte
    for byte, what ``workers=1`` prints on the same maintained store.

    Each step queries a measure neither session has evaluated yet, so
    the step is an evaluation miss that fans out (a repeated measure
    would patch its stale entry in-process instead)."""
    from repro.datasets import karate_club_uncertain

    graph = karate_club_uncertain(seed=2023)
    edges = sorted(graph.weighted_edges())
    deltas = [
        GraphDelta(updates=[(u, v, round(1.0 - p, 3))])
        for u, v, p in edges[:3]
    ]
    u, v = _absent_pair(random.Random(7), graph)
    deltas.append(GraphDelta(inserts=[(u, v, 0.8)]))
    measures = (
        "edge", "clique:h=3", "clique:h=2", "pattern:psi=diamond",
        "clique:h=4",
    )
    with Session(graph.copy(), workers=2) as fan, \
            Session(graph.copy(), workers=1) as seq:
        published = []
        for step, spec in enumerate(measures):
            if step:
                fan.update(deltas[step - 1])
                seq.update(deltas[step - 1])
            assert _dynamic_json(fan, spec) == _dynamic_json(seq, spec), (
                f"step {step} ({spec}): fan-out diverged from in-process"
            )
            published.append(fan.stats_snapshot()["plans_published"])
        # every update unlinked the segments; each step's fan-out
        # republished them (MPDS and NDS of one step share one plan)
        assert published == list(range(1, len(measures) + 1))
        assert fan.stats_snapshot()["dynamic_stores_built"] == 1
        assert fan.stats_snapshot()["stores_updated"] == len(deltas)
        assert seq.stats_snapshot()["plans_published"] == 0
