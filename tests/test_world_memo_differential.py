"""Step-wise differential gate for the dynamic-store world memo.

Every evaluation-cache entry over a dynamic store keeps a bounded memo
``(packed row bytes, weight) -> record`` so that a flipped world whose
edge set the entry has evaluated before (a what-if update and its
restore) takes that record instead of re-running the exact stage.  The
memo must never be observable: after EVERY step of each update stream
below, a live :class:`repro.session.Session` must print, byte for byte,
the ``to_json()`` of a from-scratch session on the mutated graph --
across what-if pairs, oscillation, ``GraphDelta.inverse`` round trips,
no-op deltas and structural deltas (whose column layout change must
empty the memo), for MPDS (k=5, ``enumerate_all=False``, a truncating
``per_world_limit``) and NDS, over {mc, lp}, a paged store and a
``workers=2`` seed.  It also pins the memo's bound and its ledger.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.delta import GraphDelta, draw_dynamic_store
from repro.session import MEMO_KEEP, MEMO_LIMIT, Session
from repro.specs import sampler_store_key

from .conftest import random_uncertain_graph

THETA = 24
SEED = 13
#: eight one-word rows: the paged store streams through its spill file
PAGED_BUDGET = 64

CELLS = {
    "mpds": lambda query: query.top_k(5).mpds(),
    "mpds-one": lambda query: query.top_k(5).enumerate_all(False).mpds(),
    "mpds-truncated": lambda query: query.top_k(5).per_world_limit(2).mpds(),
    "nds": lambda query: query.top_k(2).min_size(2).nds(),
}


def _query(session, kind):
    return session.query().sampler(kind, theta=THETA, seed=SEED).dynamic()


def _answers(session, kind, cells):
    return {name: CELLS[name](_query(session, kind)).to_json()
            for name in cells}


def _adopt_paged_store(session, kind):
    """Put a budgeted dynamic draw where the session's own would go."""
    key = sampler_store_key(kind, {}, THETA, SEED, True)
    store = draw_dynamic_store(
        session.indexed, kind=kind, theta=THETA, seed=SEED,
        memory_budget=PAGED_BUDGET,
    )
    assert store._pager is not None
    session._stores[key] = store


def _memos(session):
    """The world memos of the session's evaluation entries."""
    memos = []
    for entry in session._eval_cache.values():
        memo = entry.memo
        if memo is not None:
            memos.append(memo)
    return memos


def _moved(p):
    return round(p + 0.3, 3) if p + 0.3 <= 0.95 else round(p - 0.3, 3)


def _graph(seed=SEED):
    return random_uncertain_graph(random.Random(seed), 10, 0.45, 0.3, 0.9)


def _absent_pair(graph, rng):
    nodes = sorted(graph.nodes())
    pairs = [(u, v) for u in nodes for v in nodes
             if u < v and not graph.has_edge(u, v)]
    return rng.choice(pairs)


# ----------------------------------------------------------------------
# update streams: generators over the live graph (which every update
# mutates in place), so each delta sees the state it applies to
# ----------------------------------------------------------------------
def what_if_pairs(graph, rng, passes=2, pool=3):
    rows = rng.sample(sorted(graph.weighted_edges()), pool)
    for _ in range(passes):
        for u, v, p in rows:
            yield GraphDelta(updates=[(u, v, _moved(p))])
            yield GraphDelta(updates=[(u, v, p)])


def oscillation(graph, rng):
    """A -> B -> A -> C -> A -> B on one edge."""
    u, v, a = rng.choice(sorted(graph.weighted_edges()))
    b = _moved(a)
    c = round((a + b) / 2, 3)
    for p in (b, a, c, a, b):
        yield GraphDelta(updates=[(u, v, p)])


def inverse_round_trips(graph, rng, rounds=3):
    for step in range(rounds):
        rows = rng.sample(sorted(graph.weighted_edges()), 2)
        inserts = []
        if step == 1:
            u, v = _absent_pair(graph, rng)
            inserts = [(u, v, 0.6)]
        delta = GraphDelta(
            updates=[(u, v, _moved(p)) for u, v, p in rows],
            inserts=inserts,
        )
        inverse = delta.inverse(graph)
        yield delta
        yield inverse


def noop_and_structural(graph, rng):
    """A no-op, a what-if pair, "delete x + insert y" (same width, a
    different edge at the last column), then the pair again."""
    u, v, p = sorted(graph.weighted_edges())[0]
    yield GraphDelta(updates=[(u, v, p)])
    yield GraphDelta(updates=[(u, v, _moved(p))])
    yield GraphDelta(updates=[(u, v, p)])
    x_u, x_v, x_p = list(graph.weighted_edges())[-1]
    y_u, y_v = _absent_pair(graph, rng)
    yield GraphDelta(deletes=[(x_u, x_v)], inserts=[(y_u, y_v, x_p)])
    yield GraphDelta(updates=[(u, v, _moved(p))])
    yield GraphDelta(updates=[(u, v, p)])


STREAMS = {
    "what-if": what_if_pairs,
    "oscillation": oscillation,
    "inverse": inverse_round_trips,
    "structural": noop_and_structural,
}


def _check_stream(stream, kind, cells=tuple(CELLS), paged=False,
                  workers=1):
    """Drive one stream through a live session, comparing every cell
    with a from-scratch session after every step; returns the live
    session's stats."""
    rng = random.Random(f"{stream}:{kind}")
    with Session(_graph(), workers=workers) as live:
        if paged:
            _adopt_paged_store(live, kind)
        _answers(live, kind, cells)
        for step, delta in enumerate(STREAMS[stream](live.graph, rng)):
            live.update(delta)
            warm = _answers(live, kind, cells)
            with Session(live.graph.copy()) as cold:
                assert warm == _answers(cold, kind, cells), (
                    f"{stream} step {step} ({kind}): the warm session "
                    "diverged from a from-scratch one"
                )
        return live.stats_snapshot()


@pytest.mark.parametrize("kind", ("mc", "lp"))
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_every_step_matches_a_from_scratch_session(stream, kind):
    stats = _check_stream(stream, kind)
    assert stats["dynamic_stores_built"] == 1


@pytest.mark.parametrize("stream", ("what-if", "structural"))
def test_paged_store_matches_a_from_scratch_session(stream):
    stats = _check_stream(stream, "mc", paged=True)
    assert stats["dynamic_stores_built"] == 0
    assert stats["world_memo_hits"] > 0


def test_fan_out_seed_matches_a_from_scratch_session():
    """The full evaluation fans out over two workers; its records seed
    the memo that the in-process patches consult."""
    stats = _check_stream("what-if", "mc", cells=("mpds", "nds"),
                          workers=2)
    assert stats["plans_published"] >= 1
    assert stats["world_memo_hits"] > 0


# ----------------------------------------------------------------------
# the ledger: restores hit, hits are not evaluations, layouts reset
# ----------------------------------------------------------------------
def _step(session, delta):
    before = session.stats_snapshot()
    session.update(delta)
    _query(session, "mc").top_k(5).mpds()
    after = session.stats_snapshot()
    return {key: after[key] - before[key]
            for key in ("worlds_flipped", "worlds_reevaluated",
                        "worlds_evaluated", "world_memo_hits")}


def test_restores_hit_and_skip_evaluation():
    graph = _graph()
    rows = sorted(graph.weighted_edges())
    with Session(graph) as session:
        _query(session, "mc").top_k(5).mpds()
        for u, v, p in rows[:4]:
            moved = _step(session, GraphDelta(updates=[(u, v, _moved(p))]))
            restored = _step(session, GraphDelta(updates=[(u, v, p)]))
            # the restore returns every flipped world to a memoized mask
            assert restored["worlds_flipped"] == moved["worlds_flipped"]
            assert restored["world_memo_hits"] == restored["worlds_flipped"]
            assert restored["worlds_reevaluated"] == 0
            assert restored["worlds_evaluated"] == 0
            assert (moved["world_memo_hits"] + moved["worlds_reevaluated"]
                    == moved["worlds_flipped"])
            assert moved["worlds_evaluated"] == moved["worlds_reevaluated"]
        # a second move of the same edge finds its moved masks memoized
        u, v, p = rows[0]
        again = _step(session, GraphDelta(updates=[(u, v, _moved(p))]))
        assert again["world_memo_hits"] == again["worlds_flipped"] > 0
        assert session.stats["world_memo_hits"] > 0


def test_column_layout_change_empties_the_memo():
    """"delete x + insert y" keeps the mask width but re-lays the last
    column, so equal row bytes no longer mean equal edge sets: no
    flipped world may take a pre-update record."""
    graph = _graph()
    x_u, x_v, x_p = list(graph.weighted_edges())[-1]
    y_u, y_v = _absent_pair(graph, random.Random(1))
    with Session(graph) as session:
        _query(session, "mc").top_k(5).mpds()
        (memo,) = _memos(session)
        before = set(memo.records)
        relaid = _step(session, GraphDelta(
            deletes=[(x_u, x_v)], inserts=[(y_u, y_v, x_p)]
        ))
        assert relaid["worlds_flipped"] > 0
        assert relaid["world_memo_hits"] == 0
        assert relaid["worlds_reevaluated"] == relaid["worlds_flipped"]
        # some flipped world kept its row bytes (x and y both alive),
        # which a memo surviving the re-layout would have hit
        (memo,) = _memos(session)
        assert before & set(memo.records)
        assert len(memo.records) == len(set(memo.keys))


def test_insert_that_flips_nothing_still_empties_the_memo():
    graph = _graph()
    with Session(graph) as session:
        _query(session, "mc").top_k(5).mpds()
        u, v = _absent_pair(graph, random.Random(2))
        relaid = _step(session, GraphDelta(inserts=[(u, v, 1e-9)]))
        assert relaid["worlds_flipped"] == 0
        assert _memos(session) == []


# ----------------------------------------------------------------------
# the bound
# ----------------------------------------------------------------------
def test_drifting_stream_stays_within_the_bound():
    """>= 5 theta distinct updates: the memo trims displaced records to
    stay within MEMO_LIMIT * theta and always keeps every live one."""
    rng = random.Random(31)
    graph = _graph()
    rows = sorted(graph.weighted_edges())
    seen = set()
    trimmed = False
    with Session(graph) as live:
        _query(live, "mc").top_k(5).mpds()
        for step in range(5 * THETA):
            u, v, _p = rng.choice(rows)
            p = round(rng.uniform(0.05, 0.95), 6)
            live.update(GraphDelta(updates=[(u, v, p)]))
            warm = _query(live, "mc").top_k(5).mpds().to_json()
            with Session(live.graph.copy()) as cold:
                assert warm == _query(cold, "mc").top_k(5).mpds().to_json(), (
                    f"drift step {step} diverged from a from-scratch session"
                )
            (memo,) = _memos(live)
            seen |= set(memo.records)
            trimmed |= len(seen) > len(memo.records)
            assert len(memo.records) <= MEMO_LIMIT * THETA
            assert all(key in memo.records for key in memo.keys)
            assert set(memo.live) == set(memo.keys)
            # trimming shrinks the serialization memo along with it
            (entry,) = live._eval_cache.values()
            assert set(entry.serial.pieces) <= set(memo.sets)
        assert len(seen) > MEMO_LIMIT * THETA and trimmed
        assert MEMO_KEEP < MEMO_LIMIT


def test_records_share_interned_node_sets():
    """A record computed again holds the node set objects the memo
    already keeps, not fresh copies."""
    graph = _graph()
    u, v, p = sorted(graph.weighted_edges())[0]
    with Session(graph) as session:
        _query(session, "mc").top_k(5).mpds()
        session.update(GraphDelta(updates=[(u, v, _moved(p))]))
        _query(session, "mc").top_k(5).mpds()
        (entry,) = session._eval_cache.values()
        (memo,) = _memos(session)
        for densest_sets, _weight in entry.records:
            for nodes in densest_sets:
                assert memo.sets[nodes] is nodes


def test_concurrent_queries_patch_once():
    """Threads hitting one stale entry elect one leader: the memo is
    consulted once per flipped world, and every thread prints the
    from-scratch bytes."""
    graph = _graph()
    rows = sorted(graph.weighted_edges())[:3]
    with Session(graph) as live:
        _query(live, "mc").top_k(5).mpds()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for u, v, p in rows + rows:
                p = _moved(p) if live.graph.probability(u, v) == p else p
                before = live.stats_snapshot()
                live.update(GraphDelta(updates=[(u, v, p)]))
                texts = []

                def run():
                    texts.append(_query(live, "mc").top_k(5).mpds().to_json())

                threads = [threading.Thread(target=run) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                after = live.stats_snapshot()
                with Session(live.graph.copy()) as cold:
                    expected = _query(cold, "mc").top_k(5).mpds().to_json()
                assert texts == [expected] * len(threads)
                flipped = after["worlds_flipped"] - before["worlds_flipped"]
                assert (after["world_memo_hits"] - before["world_memo_hits"]
                        + after["worlds_reevaluated"]
                        - before["worlds_reevaluated"]) == flipped
                assert after["evals_patched"] - before["evals_patched"] == (
                    1 if flipped else 0
                )
        finally:
            sys.setswitchinterval(interval)
