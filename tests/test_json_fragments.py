"""Differential gate for piece-assembled ``to_json``.

With no keyword arguments, :meth:`SerializableResult.to_json` no longer
runs ``json.dumps`` over ``to_dict()``: an MPDS result joins each
candidate's memoized ``[node list, probability]`` piece once, with the
small fields riding on the first and last piece.  The contract is that
nothing observable changes, so every case below compares the assembled
text with the frozen serialization -- ``json.dumps`` over the dict
built afresh -- over int, str, bool and non-ASCII labels; tied,
subnormal, signed-zero, ``int``, ``numpy.float64`` and non-finite
probabilities; empty results; NDS results; sequences of results whose
probabilities change under one shared memo; session results that share
an evaluation entry's memo; and the ``kwargs`` fallback.  A ledger case
pins that the restore step of a dynamic what-if pair renders no node
list.  The last cases pin the evaluation entry's tally and pieces: a
result whose candidates were edited never poisons the entry, an update
never serves the pre-update answer, ``stats_snapshot`` gauges the
cached pieces, and a static entry keeps one piece per candidate.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.results as results
from repro.core.mpds import finalize_mpds, top_k_mpds
from repro.core.results import (
    MPDSResult,
    NDSResult,
    ScoredNodeSet,
    SerialMemo,
    SerializableResult,
)
from repro.delta import GraphDelta
from repro.session import Session

from .conftest import random_uncertain_graph


def _frozen_dict(result) -> dict:
    """The wire dict as ``to_dict`` built it before any memo existed."""
    data = {
        "kind": result.kind,
        "top": [
            {"nodes": sorted(s.nodes, key=repr), "probability": s.probability}
            for s in result.top
        ],
    }
    if isinstance(result, NDSResult):
        data.update(theta=result.theta, transactions=result.transactions)
        return data
    data["candidates"] = [
        [sorted(nodes, key=repr), p] for nodes, p in result.candidates.items()
    ]
    data.update(
        theta=result.theta,
        worlds_with_densest=result.worlds_with_densest,
        densest_counts=list(result.densest_counts),
        replayed_worlds=result.replayed_worlds,
    )
    return data


def _assert_frozen(result) -> str:
    text = result.to_json()
    assert text == json.dumps(_frozen_dict(result))
    assert text == json.dumps(result.to_dict())
    return text


LABELS = st.one_of(
    st.integers(-5, 10 ** 6),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from(["é", "日本", " ", '"q"', "\\", "\x00", "😀"]),
)
NODE_SETS = st.frozensets(LABELS, min_size=1, max_size=5)
PROBABILITIES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, 0.5, 1 / 3, 0.1 + 0.2, 5e-324, 1e-310,
        2.2250738585072014e-308, 1.7976931348623157e308,
    ]),
    st.floats(0.0, 1.0),
    st.integers(0, 3),
    st.floats(0.0, 1.0).map(np.float64),
)
NON_FINITE = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),
])
COUNTS = st.lists(st.integers(0, 10 ** 4), max_size=6)


@st.composite
def mpds_results(draw, probabilities=PROBABILITIES):
    candidates = draw(st.dictionaries(NODE_SETS, probabilities, max_size=8))
    # ties: reuse one probability across several candidates
    if candidates and draw(st.booleans()):
        tied = draw(probabilities)
        for nodes in draw(st.lists(st.sampled_from(list(candidates)))):
            candidates[nodes] = tied
    pool = [ScoredNodeSet(n, p) for n, p in candidates.items()]
    top = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
    return MPDSResult(
        top=top,
        candidates=candidates,
        theta=draw(st.integers(0, 10 ** 6)),
        worlds_with_densest=draw(st.integers(0, 10 ** 6)),
        densest_counts=draw(COUNTS),
        replayed_worlds=draw(st.integers(0, 100)),
    )


@given(result=mpds_results())
@settings(max_examples=300, deadline=None)
def test_mpds_matches_frozen_serialization(result):
    _assert_frozen(result)
    # the throwaway memo stays with the call
    assert result._memo is None


@given(result=mpds_results(
    probabilities=st.one_of(PROBABILITIES, NON_FINITE)
))
@settings(max_examples=100, deadline=None)
def test_non_finite_probabilities_encode_like_json_dumps(result):
    text = _assert_frozen(result)
    for probability in result.candidates.values():
        if probability != probability:
            assert "NaN" in text


@given(result=mpds_results())
@settings(max_examples=100, deadline=None)
def test_a_shared_memo_serializes_identically(result):
    memo = result._memo = SerialMemo()
    first = _assert_frozen(result)
    assert set(memo.pieces) == set(result.candidates)
    data = result.to_dict()
    for nodes, _probability in data["candidates"]:
        nodes.append("poison")
    # a warm memo (and a mutated to_dict copy) changes nothing
    assert _assert_frozen(result) == first


#: values whose cached piece must not serve one another
LOOKALIKES = st.sampled_from([
    0.0, -0.0, 1, 1.0, True, False, 0, np.float64(1.0), np.float64(-0.0),
    float("nan"), np.float64("nan"), float("inf"), float("-inf"),
    5e-324, 1e-310, 0.5, np.float64(0.5),
])


@given(
    sets=st.lists(NODE_SETS, min_size=1, max_size=6, unique=True),
    steps=st.lists(
        st.lists(st.one_of(st.none(), LOOKALIKES, LOOKALIKES, PROBABILITIES),
                 min_size=1, max_size=6),
        min_size=2, max_size=6,
    ),
)
@example(sets=[frozenset({1})], steps=[[0.0], [-0.0], [0.0]])
@example(
    sets=[frozenset({1})],
    steps=[[np.float64(0.0)], [np.float64(-0.0)], [0.0], [np.float64(0.0)]],
)
@example(sets=[frozenset({"a"})], steps=[[1], [1.0], [True], [1], [False]])
@example(sets=[frozenset({2})], steps=[[float("nan")], [float("nan")]])
@settings(max_examples=150, deadline=None)
def test_pieces_follow_changing_probabilities(sets, steps):
    """One memo serves a sequence of results whose candidates come,
    go and change value (``None`` drops one): every call must equal
    the frozen ``json.dumps``, so no piece is served for a value it
    was not rendered for."""
    memo = SerialMemo()
    for values in steps:
        candidates = {
            nodes: value for nodes, value in zip(sets, values)
            if value is not None
        }
        result = MPDSResult(top=[], candidates=candidates, theta=1,
                            worlds_with_densest=1)
        result._memo = memo
        _assert_frozen(result)
        for nodes, value in candidates.items():
            assert memo.pieces[nodes] == (
                value, json.dumps([sorted(nodes, key=repr), value])
            )


@given(
    top=st.lists(st.builds(ScoredNodeSet, NODE_SETS, PROBABILITIES),
                 max_size=5),
    theta=st.integers(0, 10 ** 6),
    transactions=st.integers(0, 10 ** 6),
)
@settings(max_examples=100, deadline=None)
def test_nds_matches_frozen_serialization(top, theta, transactions):
    _assert_frozen(NDSResult(top=top, theta=theta, transactions=transactions))


def test_empty_results():
    empty = MPDSResult(top=[], candidates={}, theta=0, worlds_with_densest=0)
    assert _assert_frozen(empty) == (
        '{"kind": "mpds", "top": [], "candidates": [], "theta": 0, '
        '"worlds_with_densest": 0, "densest_counts": [], '
        '"replayed_worlds": 0}'
    )
    _assert_frozen(NDSResult(top=[], theta=0, transactions=0))


@given(result=mpds_results())
@settings(max_examples=50, deadline=None)
def test_kwargs_fall_back_to_json_dumps(result):
    result._memo = SerialMemo()
    for kwargs in ({"indent": 2}, {"sort_keys": True},
                   {"indent": 2, "sort_keys": True}):
        assert result.to_json(**kwargs) == json.dumps(
            _frozen_dict(result), **kwargs
        )
    # the fallback never consults the pieces
    assert not result._memo.pieces


def test_to_json_lives_on_the_protocol_only():
    """The traced benchmark wraps ``SerializableResult.to_json``; a
    subclass override would escape it."""
    assert "to_json" in SerializableResult.__dict__
    assert "to_json" not in MPDSResult.__dict__
    assert "to_json" not in NDSResult.__dict__


# ----------------------------------------------------------------------
# session results share their evaluation entry's memo
# ----------------------------------------------------------------------
THETA = 32
SEED = 7


@pytest.fixture
def graph():
    return random_uncertain_graph(random.Random(17), 24, 0.3, 0.3, 0.9)


def _dynamic(session):
    return (
        session.query().sampler("mc", theta=THETA, seed=SEED)
        .dynamic().top_k(5)
    )


def test_session_memo_matches_one_shot(graph):
    expected = top_k_mpds(graph, k=5, theta=THETA, seed=SEED).to_json()
    with Session(graph) as session:
        for k in (5, 2, 5):
            result = (
                session.query().sampler("mc", theta=THETA, seed=SEED)
                .top_k(k).mpds()
            )
            assert result._memo is not None
            text = _assert_frozen(result)
            if k == 5:
                assert text == expected
        nds = (
            session.query().sampler("mc", theta=THETA, seed=SEED)
            .top_k(3).min_size(2).nds()
        )
        _assert_frozen(nds)


def test_dynamic_session_memo_matches_fresh_results(graph):
    rows = sorted(graph.weighted_edges())[:4]
    with Session(graph.copy()) as live:
        _dynamic(live).mpds().to_json()
        for u, v, p in rows:
            moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
            for probability in (moved, p):
                live.update(GraphDelta(updates=[(u, v, probability)]))
                warm = _dynamic(live).mpds()
                text = _assert_frozen(warm)
                (entry,) = live._eval_cache.values()
                fresh = finalize_mpds(iter(entry.records), 5)
                assert fresh._memo is None and text == fresh.to_json()
                with Session(live.graph.copy()) as cold:
                    assert text == _dynamic(cold).mpds().to_json()


def test_restore_step_fills_no_new_fragments(graph, monkeypatch):
    """A what-if pair: the perturb step brings new candidates in and
    drops others; its restore brings the dropped ones back, and every
    one of them still has its piece (the memo is bounded by the world
    memo's trim, not pruned to live candidates on each patch), so the
    restore renders no candidate's node list."""
    rendered = []

    def counting(nodes):
        rendered.append(nodes)
        return sorted(nodes, key=repr)

    monkeypatch.setattr(results, "_node_list", counting)
    rows = sorted(graph.weighted_edges())
    with Session(graph.copy()) as session:
        _dynamic(session).mpds().to_json()
        (entry,) = session._eval_cache.values()
        serial = entry.serial
        moved_any = 0
        for u, v, p in rows[:6]:
            moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
            session.update(GraphDelta(updates=[(u, v, moved)]))
            del rendered[:]
            perturbed = _dynamic(session).mpds()
            perturbed.to_json()
            moved_any += len(rendered) - len(perturbed.top)
            held = set(serial.pieces)
            session.update(GraphDelta(updates=[(u, v, p)]))
            del rendered[:]
            restored = _dynamic(session).mpds()
            text = restored.to_json()
            # only the top-k entries are listed afresh, no candidate
            assert rendered == restored.top_sets()
            assert text == json.dumps(_frozen_dict(restored))
            (entry,) = session._eval_cache.values()
            assert entry.serial is serial is restored._memo
            assert serial.pieces.keys() == held
            assert set(restored.candidates) <= held
        # the perturb steps did bring new candidates in
        assert moved_any > 0


# ----------------------------------------------------------------------
# the entry's tally: ranked once, candidates text cached once
# ----------------------------------------------------------------------
def _static(session, k=5):
    return session.query().sampler("mc", theta=THETA, seed=SEED).top_k(k).mpds()


def _tally(session):
    (entry,) = session._eval_cache.values()
    return entry.tally


def _drop_first(candidates):
    del candidates[next(iter(candidates))]


def _change_value(candidates):
    nodes = next(iter(candidates))
    candidates[nodes] = 1  # encodes as "1", unlike any float


def _reorder(candidates):
    items = list(candidates.items())[::-1]
    candidates.clear()
    candidates.update(items)


def _equal_copies(candidates):
    # equal values in new float objects: the identity check re-encodes
    for nodes, probability in list(candidates.items()):
        candidates[nodes] = float(repr(probability))


@pytest.mark.parametrize(
    "mutate", [_drop_first, _change_value, _reorder, _equal_copies]
)
def test_mutating_a_warm_result_cannot_poison_its_entry(graph, mutate):
    with Session(graph) as session:
        first = _static(session).to_json()
        tally = _tally(session)
        assert _static(session).to_json() == first
        warm = _static(session)
        assert warm._base is tally and warm.candidates is not tally.candidates
        mutate(warm.candidates)
        text = warm.to_json()
        assert text == json.dumps(warm.to_dict())
        assert text == json.dumps(_frozen_dict(warm))
        assert (text == first) == (mutate is _equal_copies)
        # the entry's tally and pieces are untouched
        assert _static(session).to_json() == first
        with Session(graph) as fresh:
            assert _static(fresh).to_json() == first


def test_warm_hits_rank_a_prefix_of_one_ranking(graph):
    with Session(graph) as session:
        for k in (2, 5, 1, 3, 5, 200):
            warm = _static(session, k)
            assert warm == top_k_mpds(graph, k=k, theta=THETA, seed=SEED)
        tally = _tally(session)
        assert len(tally.ranked) == len(tally.candidates) < 200


def test_an_update_never_serves_the_pre_update_text(graph):
    u, v, p = sorted(graph.weighted_edges())[0]
    moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
    with Session(graph.copy()) as live:
        before = _dynamic(live).mpds().to_json()
        assert _dynamic(live).mpds().to_json() == before
        old = _tally(live)
        summary = live.update(GraphDelta(updates=[(u, v, moved)]))
        assert summary["worlds_flipped"] > 0
        (entry,) = live._eval_cache.values()
        assert entry.dirty and entry.tally is old
        after = _dynamic(live).mpds()
        assert after._base is not old and after._base is _tally(live)
        text = after.to_json()
        assert [
            [sorted(nodes, key=repr), p] for nodes, p in old.candidates.items()
        ] == json.loads(before)["candidates"]
        with Session(live.graph.copy()) as scratch:
            assert text == _dynamic(scratch).mpds().to_json()
        assert json.loads(before)["candidates"] != json.loads(text)[
            "candidates"
        ]


def _gauge(session):
    snapshot = session.stats_snapshot()
    return (
        snapshot["cached_result_texts"],
        snapshot["cached_result_text_bytes"],
    )


def _pieces_bytes(result) -> int:
    """The chars of the result's candidate pieces, encoded afresh."""
    return sum(
        len(json.dumps(pair)) for pair in _frozen_dict(result)["candidates"]
    )


def test_stats_gauge_cached_result_texts(graph):
    with Session(graph.copy()) as session:
        assert _gauge(session) == (0, 0)
        static = _static(session, 3)
        static.to_dict()
        assert _gauge(session) == (0, 0)
        static_bytes = _pieces_bytes(static)
        # the first serialization caches the pieces; later ones reuse them
        static.to_json()
        assert _gauge(session) == (1, static_bytes)
        for k in range(1, 6):
            _static(session, k).to_json()
        assert _gauge(session) == (1, static_bytes)
        dynamic = _dynamic(session).mpds()
        dynamic_bytes = _pieces_bytes(dynamic)
        dynamic.to_json()
        dynamic.to_json()
        session.query().sampler("mc", theta=THETA, seed=SEED).nds()
        assert _gauge(session) == (2, static_bytes + dynamic_bytes)
        assert session.stats_snapshot()["cached_evaluations"] == 3
        rows = sorted(graph.weighted_edges())
        u, v, p = rows[0]
        moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
        # the static store and its entries are evicted with their
        # pieces; the dynamic entry's memo outlives the update and patch
        session.update(GraphDelta(updates=[(u, v, moved)]))
        assert _gauge(session) == (1, dynamic_bytes)
        patched = _dynamic(session).mpds()
        assert _gauge(session) == (1, dynamic_bytes)
        patched.to_json()
        (entry,) = [e for e in session._eval_cache.values() if e.memo]
        stale = sum(
            len(text) for nodes, (_p, text) in entry.serial.pieces.items()
            if nodes not in patched.candidates
        )
        assert _gauge(session) == (1, _pieces_bytes(patched) + stale)


def test_a_static_entry_drops_the_fragments_its_text_replaces(graph):
    """A static entry holds one piece per candidate and no other copy
    of its candidates text; an edited result still encodes its own."""
    with Session(graph.copy()) as session:
        first = _static(session).to_json()
        assert _static(session).to_json() == first
        (entry,) = session._eval_cache.values()
        assert entry.memo is None
        assert entry.serial.pieces.keys() == entry.tally.candidates.keys()
        warm = _static(session)
        assert warm.to_json() == first
        _drop_first(warm.candidates)
        text = warm.to_json()
        assert text == json.dumps(warm.to_dict())
        assert text == json.dumps(_frozen_dict(warm)) != first
        assert _static(session).to_json() == first
        # a dynamic entry's pieces outlive its patches: it keeps them
        for _ in range(3):
            _dynamic(session).mpds().to_json()
        dynamic = next(
            entry for entry in session._eval_cache.values()
            if entry.memo is not None
        )
        assert dynamic.serial.pieces
