"""Differential gate for fragment-assembled ``to_json``.

With no keyword arguments, :meth:`SerializableResult.to_json` no longer
runs ``json.dumps`` over ``to_dict()``: an MPDS result splices each
candidate's memoized JSON fragment (its repr-sorted node list) next to
its encoded probability.  The contract is that nothing observable
changes, so every case below compares the assembled text with the
frozen serialization -- ``json.dumps`` over the dict built afresh --
over int, str, bool and non-ASCII labels; tied, subnormal, signed-zero,
``int``, ``numpy.float64`` and non-finite probabilities; empty results;
NDS results; session results that share an evaluation entry's memo;
and the ``kwargs`` fallback.  A ledger case pins that the restore step
of a dynamic what-if pair serializes without filling a single new
fragment.  The last cases pin the evaluation entry's tally: a result
whose candidates were edited never reuses (or poisons) the entry's
cached candidates text, an update never serves the pre-update text,
``stats_snapshot`` gauges the cached texts, and a static entry drops
the fragments its tally text replaces (edited results still encode).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert set(memo.fragments) == set(result.candidates)
    data = result.to_dict()
    for nodes, _probability in data["candidates"]:
        nodes.append("poison")
    # a warm memo (and a mutated to_dict copy) changes nothing
    assert _assert_frozen(result) == first


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
    # the fallback never consults the fragments
    assert not result._memo.fragments


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


def test_restore_step_fills_no_new_fragments(graph):
    """A what-if pair: the perturb step brings new candidates in and
    drops others; its restore brings the dropped ones back, and every
    one of them is still serialized (the memo is bounded by the world
    memo's trim, not pruned to live candidates on each patch)."""
    rows = sorted(graph.weighted_edges())
    with Session(graph.copy()) as session:
        _dynamic(session).mpds().to_json()
        (entry,) = session._eval_cache.values()
        serial = entry.serial
        moved_any = 0
        for u, v, p in rows[:6]:
            moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
            session.update(GraphDelta(updates=[(u, v, moved)]))
            before = set(serial.fragments)
            _dynamic(session).mpds().to_json()
            moved_any += len(set(serial.fragments) - before)
            held = dict(serial.fragments)
            session.update(GraphDelta(updates=[(u, v, p)]))
            restored = _dynamic(session).mpds()
            restored.to_json()
            (entry,) = session._eval_cache.values()
            assert entry.serial is serial is restored._memo
            assert serial.fragments.keys() == held.keys()
            assert all(serial.fragments[nodes] is text
                       for nodes, text in held.items())
            assert set(restored.candidates) <= held.keys()
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
        assert tally.text is None and tally.serialized
        assert _static(session).to_json() == first
        assert tally.text is not None
        warm = _static(session)
        assert warm._base is tally and warm.candidates is not tally.candidates
        mutate(warm.candidates)
        text = warm.to_json()
        assert text == json.dumps(warm.to_dict())
        assert text == json.dumps(_frozen_dict(warm))
        assert (text == first) == (mutate is _equal_copies)
        # the entry's tally and text are untouched
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
        assert old.text == json.dumps(json.loads(before)["candidates"])
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


def test_stats_gauge_cached_result_texts(graph):
    with Session(graph.copy()) as session:
        assert _gauge(session) == (0, 0)
        static = _static(session, 3)
        assert _gauge(session) == (0, 0)
        static_bytes = len(json.dumps(static.to_dict()["candidates"]))
        # a tally serialized once holds no text; the second keeps one
        static.to_json()
        assert _gauge(session) == (0, 0)
        for k in range(1, 6):
            _static(session, k).to_json()
        assert _gauge(session) == (1, static_bytes)
        dynamic = _dynamic(session).mpds()
        dynamic_bytes = len(json.dumps(dynamic.to_dict()["candidates"]))
        dynamic.to_json()
        dynamic.to_json()
        session.query().sampler("mc", theta=THETA, seed=SEED).nds()
        assert _gauge(session) == (2, static_bytes + dynamic_bytes)
        assert session.stats_snapshot()["cached_evaluations"] == 3
        rows = sorted(graph.weighted_edges())
        u, v, p = rows[0]
        moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
        # the static store and its entries are evicted with their
        # text; the dirty dynamic entry keeps its text until patched
        session.update(GraphDelta(updates=[(u, v, moved)]))
        assert _gauge(session) == (1, dynamic_bytes)
        patched = _dynamic(session).mpds()
        assert _gauge(session) == (0, 0)
        patched.to_json()
        assert _gauge(session) == (0, 0)
        text = patched.to_json()
        assert _gauge(session) == (
            1, len(json.dumps(json.loads(text)["candidates"]))
        )


def test_a_static_entry_drops_the_fragments_its_text_replaces(graph):
    with Session(graph.copy()) as session:
        first = _static(session).to_json()
        assert _static(session).to_json() == first
        (entry,) = session._eval_cache.values()
        assert entry.memo is None and entry.tally.text is not None
        assert entry.serial.fragments
        warm = _static(session)
        # the hit after the text landed cleared the fragments
        assert not entry.serial.fragments
        assert warm.to_json() == first
        assert not entry.serial.fragments
        _drop_first(warm.candidates)
        text = warm.to_json()
        assert text == json.dumps(warm.to_dict())
        assert text == json.dumps(_frozen_dict(warm)) != first
        assert _static(session).to_json() == first
        # a dynamic entry's fragments outlive its patches: it keeps them
        for _ in range(3):
            _dynamic(session).mpds().to_json()
        dynamic = next(
            entry for entry in session._eval_cache.values()
            if entry.memo is not None
        )
        assert dynamic.tally.text is not None and dynamic.serial.fragments
