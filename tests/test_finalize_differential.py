"""Differential and safety tests for MPDS finalize and serialization.

:func:`repro.core.mpds.finalize_mpds` ranks candidates by ``(-p, size)``
first and builds the repr tie-break key only for the candidates at the
rank-k boundary.  Its contract is that nothing observable changes: the
same top-k, estimates and counters as the frozen full-sort reference
(``tests/_finalize_reference.py``), compared as ``to_json()`` bytes.

The second half pins the serialization memo that a session's
evaluation-cache entry shares with the MPDS results it serves: it hands
out copies, stays within the world memo's interned node sets across
updates, and takes no part in equality, ``repr`` or the wire
round-trip.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mpds import finalize_mpds, rank_top_k
from repro.core.results import MPDSResult
from repro.delta import GraphDelta
from repro.session import MEMO_LIMIT, Session

from ._finalize_reference import reference_finalize_mpds
from .conftest import random_uncertain_graph


class SameRepr:
    """A node label whose distinct instances all share one ``repr``:
    sets of them tie on the full rank key, so only input order can
    separate them."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return "SameRepr()"


TWINS = tuple(SameRepr(tag) for tag in "xyz")


def _label_json(obj):
    """``json.dumps`` default that tells :class:`SameRepr` twins apart."""
    if isinstance(obj, SameRepr):
        return f"same-repr:{obj.tag}"
    raise TypeError(type(obj).__name__)


def _json(result: MPDSResult) -> str:
    return result.to_json(default=_label_json)


LABELS = st.one_of(
    st.integers(0, 5), st.sampled_from(["a", "b", "10", "2"]),
    st.sampled_from(TWINS),
)
#: few distinct weights and sizes, so ties in p and len are common
WEIGHTS = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0])


@st.composite
def records_and_k(draw):
    """MPDS world records over a small candidate pool, plus a ``k``
    that is 1, the candidate count, above it, or anywhere between."""
    pool = draw(st.lists(
        st.frozensets(LABELS, min_size=1, max_size=4), min_size=1,
        max_size=10,
    ))
    records = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(pool), max_size=4), WEIGHTS),
        max_size=12,
    ))
    records = [(list(dict.fromkeys(sets)), weight)
               for sets, weight in records]
    count = len({nodes for sets, _ in records for nodes in sets})
    k = draw(st.one_of(
        st.just(1), st.just(max(count, 1)),
        st.integers(count + 1, count + 3), st.integers(1, max(count, 1)),
    ))
    return records, k


@given(case=records_and_k())
@settings(max_examples=300, deadline=None)
def test_matches_full_sort_reference(case):
    records, k = case
    result = finalize_mpds(iter(records), k)
    reference = reference_finalize_mpds(iter(records), k)
    assert _json(result) == _json(reference)
    # JSON cannot tell equal-repr twins' sets apart by order alone
    assert result.top == reference.top
    assert list(result.candidates) == list(reference.candidates)


def _tied(size: int, base: int) -> frozenset:
    return frozenset(range(base, base + size))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 50])
def test_ties_straddling_rank_k(k):
    """Equal p and equal size across the boundary: the repr key and
    then input order decide, exactly as in the full sort."""
    sets = [_tied(2, 10), _tied(3, 0), _tied(2, 2), _tied(2, 0),
            frozenset(["b", 1]), frozenset([1, "b", 7]),
            frozenset([TWINS[1], 0]), frozenset([TWINS[0], 0])]
    records = [([nodes], 0.5) for nodes in sets] + [([sets[1]], 0.5)]
    result = finalize_mpds(iter(records), k)
    reference = reference_finalize_mpds(iter(records), k)
    assert _json(result) == _json(reference)
    assert result.top == reference.top


# ----------------------------------------------------------------------
# the tally patched across record changes
# ----------------------------------------------------------------------
A, B, C, D, E = (frozenset({1, 2}), frozenset({3}), frozenset({TWINS[0], 0}),
                 frozenset({TWINS[1], 0}), frozenset({"a", "b"}))
FIRST = [[A, B], [C], [A, D]]
#: shared sets, a first-seen world moving later (A, C) and earlier (A),
#: a top-k exit (A), sets that vanish and come back (C, D) and twins
#: tied on the full rank key at rank k
STEPS = [({0: [B]}, 1), ({0: [A, B], 1: [C, D]}, 2), ({1: [], 2: []}, 3),
         ({1: [D, C], 2: [C, E]}, 5), ({0: [C], 1: [D], 2: []}, 1),
         ({0: [], 2: [C]}, 1)]


@st.composite
def patch_streams(draw):
    """Per-world weights (equal, all zero, or unequal as RSS gives),
    first records, and steps that each replace some worlds' records
    and ask for a ``k``."""
    pool = draw(st.lists(st.frozensets(LABELS, min_size=1, max_size=3),
                         min_size=1, max_size=8, unique=True))
    theta = draw(st.integers(1, 6))
    weights = draw(
        st.sampled_from([[1 / theta] * theta, [0.0] * theta])
        | st.lists(WEIGHTS, min_size=theta, max_size=theta)
    )
    record = st.lists(st.sampled_from(pool), max_size=4, unique=True)
    first = [draw(record) for _ in range(theta)]
    steps = draw(st.lists(st.tuples(
        st.dictionaries(st.integers(0, theta - 1), record, max_size=theta),
        st.integers(1, len(pool) + 2),
    ), min_size=1, max_size=6))
    return weights, first, steps


def _text(result):
    """``to_json()`` through the group texts, or ``None`` for twins."""
    try:
        return result.to_json()
    except TypeError:
        return None


def _matches_rebuild(result, records, k) -> None:
    reference = reference_finalize_mpds(iter(records), k)
    assert _json(result) == _json(reference)
    assert _text(result) == _text(reference)
    assert result.top == reference.top
    assert list(result.candidates) == list(reference.candidates)


@given(stream=patch_streams())
@example(stream=([1 / 3] * 3, FIRST, STEPS))
@example(stream=([0.25, 0.5, 1 / 3], FIRST, STEPS))
@example(stream=([0.0] * 3, FIRST, STEPS))
@settings(max_examples=60, deadline=None)
def test_patched_tally_matches_a_rebuild(stream):
    """Each patch moves the tally to the new records; the result, and a
    larger k ranked from the patched tally, equal the frozen reference
    rebuilt from scratch, and the pre-patch result still serializes to
    its own candidates."""
    weights, first, steps = stream
    records = list(zip(first, weights))
    result = finalize_mpds(records, 1)
    for updates, k in steps:
        before, text = result, _text(result)
        records = list(records)
        for i, sets in updates.items():
            records[i] = (list(sets), weights[i])
        result = finalize_mpds(records, k, base=before._base,
                               changed=set(updates) | {0})
        assert not before._base.patchable
        _matches_rebuild(result, records, k)
        _matches_rebuild(finalize_mpds(result._base, k + 2), records, k + 2)
        assert _text(before) == text


@pytest.mark.parametrize("k", [-2, 0, 1, 3, 4, 9])
def test_rank_top_k_slices_like_a_full_sort(k):
    scored = [(frozenset([3, 1]), 0.5), (frozenset([2]), 0.5),
              (frozenset([0, 1]), 0.5), (frozenset([5]), 0.75)]
    full = sorted(scored, key=lambda item: (
        -item[1], len(item[0]), sorted(map(repr, item[0]))
    ))
    assert [(s.nodes, s.probability) for s in rank_top_k(scored, k)] == (
        full[:k]
    )


@pytest.fixture(scope="module")
def bench_records():
    """Algorithm 1's records for the bench-graph store: every candidate
    ties on p, so the top-k is decided by size and repr alone."""
    from benchmarks.bench_engine import _bench_graph
    from repro.core.measures import EdgeDensity
    from repro.core.parallel import evaluate_records

    with Session(_bench_graph()) as session:
        store = session.world_store("mc", theta=160, seed=7)
        records, _replayed = evaluate_records(
            "mpds", *store.world_stream(EdgeDensity(), "auto")
        )
    return records


@pytest.mark.parametrize("k", [1, 5, 278, 279, 10_000])
def test_bench_store_matches_reference(bench_records, k):
    result = finalize_mpds(iter(bench_records), k)
    reference = reference_finalize_mpds(iter(bench_records), k)
    assert len(result.candidates) == 279
    assert result.to_json() == reference.to_json()


# ----------------------------------------------------------------------
# the serialization memo
# ----------------------------------------------------------------------
THETA = 32


def _query(session: Session) -> MPDSResult:
    return (
        session.query().sampler("mc", theta=THETA, seed=7)
        .dynamic().top_k(5).mpds()
    )


@pytest.fixture
def dense_graph():
    return random_uncertain_graph(random.Random(17), 24, 0.3, 0.3, 0.9)


def test_mutating_to_dict_output_cannot_poison_the_memo(dense_graph):
    with Session(dense_graph) as session:
        result = _query(session)
        expected = result.to_json()
        data = result.to_dict()
        for nodes, _probability in data["candidates"]:
            nodes.reverse()
            nodes.append("poison")
        data["top"][0]["nodes"].clear()
        assert result.to_json() == expected
        # a later warm hit serializes through the same memo
        assert _query(session).to_json() == expected


def _entry(session: Session):
    """The session's one evaluation-cache entry."""
    (entry,) = session._eval_cache.values()
    return entry


def test_memo_stays_bounded_across_update_pairs(dense_graph):
    rows = sorted(dense_graph.weighted_edges())
    pool = random.Random(5).sample(rows, 6)
    with Session(dense_graph.copy()) as session:
        _query(session).to_json()
        seen = set()
        for step in range(12):
            u, v, p = pool[step % len(pool)]
            moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
            for probability in (moved, p):
                session.update(GraphDelta(updates=[(u, v, probability)]))
                text = _query(session).to_json()
                entry = _entry(session)
                live = {nodes for sets, _ in entry.records for nodes in sets}
                held = {
                    nodes
                    for sets, _ in entry.memo.records.values()
                    for nodes in sets
                }
                # to_json filled every candidate; the memo holds only
                # sets the world memo interns, within its record bound
                assert live <= set(entry.serial.pieces)
                assert set(entry.serial.pieces) <= set(entry.memo.sets)
                assert set(entry.memo.sets) == held
                assert len(entry.memo.records) <= MEMO_LIMIT * THETA
                seen |= live
        # candidates came and went, so only the bound kept the memo small
        assert session.stats["evals_patched"] > 0 and len(seen) > len(live)
    with Session(dense_graph.copy()) as scratch:
        assert _query(scratch).to_json() == text


def test_memo_is_invisible_to_equality_repr_and_round_trip(dense_graph):
    with Session(dense_graph) as session:
        result = _query(session)
        records = _entry(session).records
    fresh = finalize_mpds(iter(records), 5)
    before = repr(result)
    result.to_dict()
    assert result._memo.lists and fresh._memo is None
    assert result == fresh
    assert repr(result) == before == repr(fresh)
    assert "_memo" not in before
    assert MPDSResult.from_json(result.to_json()) == result
    assert MPDSResult.from_dict(result.to_dict()) == result
    assert result.to_json() == fresh.to_json()


def test_threads_fill_one_memo_consistently(dense_graph):
    """Server threads serialize warm hits through one shared memo and
    one tally: concurrent fills of the pieces and the tally's group
    texts must all produce the same bytes and leave exactly the entry's
    candidates behind."""
    with Session(dense_graph) as session:
        result = _query(session)
        expected = finalize_mpds(iter(_entry(session).records), 5).to_json()
        memo = _entry(session).serial.pieces
        texts = []

        def serialize():
            for _ in range(3):
                texts.append(_query(session).to_json())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                memo.clear()
                parts = _entry(session).tally.parts
                parts[:] = [None] * len(parts)
                threads = [threading.Thread(target=serialize)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert texts == [expected] * 48
        assert set(memo) == set(result.candidates)
