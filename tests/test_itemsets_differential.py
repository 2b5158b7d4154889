"""Differential tests: the vectorized TFP miner against the scalar one.

The miner in :mod:`repro.itemsets.tfp` screens extension candidates in
batched numpy passes over a dense item x tid matrix.  Its contract is that
nothing observable changes: the same closed itemsets, in the same order,
with byte-identical supports.  Two sources of databases check it against
the frozen scalar miner (``tests/_tfp_reference.py``):

* Hypothesis-generated weighted databases with duplicate and empty
  transactions and mixed string/int items;
* the real NDS transactions of the bench-graph store (``mc:theta=160``,
  ``seed=7``), i.e. what Algorithm 5 mines when serving.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.tfp import (
    all_closed_itemsets,
    naive_closed_itemsets,
    top_k_closed_itemsets,
)

from ._tfp_reference import reference_top_k_closed_itemsets

HUGE_K = 1 << 60

ITEMS = st.one_of(st.integers(0, 6), st.sampled_from(["a", "b", "c", "d"]))
#: mostly awkward binary fractions, so summation order shows in the floats
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 1 / 3, 0.7, 2.5, 1e-17, 1e16]),
    st.floats(min_value=0.0, max_value=1e3),
)


@st.composite
def databases(draw):
    """A (transactions, weights-or-None) pair with repeats and empties."""
    distinct = draw(st.lists(st.lists(ITEMS, max_size=6), max_size=8))
    transactions = list(distinct)
    if distinct:
        repeats = draw(
            st.lists(st.integers(0, len(distinct) - 1), max_size=6)
        )
        transactions += [list(distinct[i]) for i in repeats]
    transactions = draw(st.permutations(transactions))
    weighted = draw(st.booleans())
    weights = (
        draw(st.lists(WEIGHTS, min_size=len(transactions),
                      max_size=len(transactions)))
        if weighted else None
    )
    return transactions, weights


def _fingerprint(mined):
    return [(c.items, repr(c.support)) for c in mined]


def _exact_fingerprint(mined):
    """Also pins each itemset's iteration (insertion) order."""
    return [(tuple(c.items), repr(c.support)) for c in mined]


@pytest.mark.parametrize("min_length", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 7, HUGE_K])
@given(database=databases())
@settings(max_examples=40, deadline=None)
def test_matches_scalar_reference(k, min_length, database):
    transactions, weights = database
    mined = top_k_closed_itemsets(transactions, k, min_length, weights)
    reference = reference_top_k_closed_itemsets(
        transactions, k, min_length, weights
    )
    assert _exact_fingerprint(mined) == _exact_fingerprint(reference)


@pytest.mark.parametrize("min_length", [1, 2, 3])
@given(database=databases())
@settings(max_examples=40, deadline=None)
def test_full_lattice_matches_weighted_oracle(min_length, database):
    """Every closed itemset, weighted supports equal float for float."""
    transactions, weights = database
    mined = all_closed_itemsets(transactions, min_length, weights)
    oracle = naive_closed_itemsets(transactions, min_length, weights)
    assert _fingerprint(mined) == _fingerprint(oracle)


@pytest.fixture(scope="module")
def bench_transactions():
    """Algorithm 5's transaction database for the bench-graph store."""
    from benchmarks.bench_engine import _bench_graph
    from repro.core.measures import EdgeDensity
    from repro.core.nds import accumulate_transactions, evaluate_transactions
    from repro.session import Session

    with Session(_bench_graph()) as session:
        store = session.world_store("mc", theta=160, seed=7)
        worlds, loop_measure, _ = store.world_stream(EdgeDensity(), "auto")
        transactions, weights, _, _ = accumulate_transactions(
            evaluate_transactions(worlds, loop_measure)
        )
    return transactions, weights


@pytest.mark.parametrize("k,min_length", [(1, 2), (2, 2), (5, 2), (10, 3)])
def test_bench_store_matches_scalar_reference(bench_transactions, k, min_length):
    transactions, weights = bench_transactions
    mined = top_k_closed_itemsets(transactions, k, min_length, weights)
    reference = reference_top_k_closed_itemsets(
        transactions, k, min_length, weights
    )
    assert len(mined) == k
    assert _exact_fingerprint(mined) == _exact_fingerprint(reference)
