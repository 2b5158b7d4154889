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
fragment.
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
