"""Tests for TFP-style top-k closed frequent itemset mining."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.tfp import (
    all_closed_itemsets,
    naive_closed_itemsets,
    top_k_closed_itemsets,
)


class TestBasics:
    def test_empty_database(self):
        assert top_k_closed_itemsets([], 3) == []

    def test_single_transaction(self):
        result = top_k_closed_itemsets([["a", "b"]], 5)
        assert len(result) == 1
        assert result[0].items == frozenset({"a", "b"})
        assert result[0].support == 1.0

    def test_textbook_example(self):
        transactions = [
            ["a", "b", "c"],
            ["a", "b"],
            ["a", "c"],
            ["a"],
        ]
        closed = {c.items: c.support for c in all_closed_itemsets(transactions)}
        assert closed == {
            frozenset({"a"}): 4.0,
            frozenset({"a", "b"}): 2.0,
            frozenset({"a", "c"}): 2.0,
            frozenset({"a", "b", "c"}): 1.0,
        }

    def test_min_length_filter(self):
        transactions = [["a", "b", "c"], ["a", "b"], ["a"]]
        result = all_closed_itemsets(transactions, min_length=2)
        assert all(len(c.items) >= 2 for c in result)
        assert frozenset({"a", "b"}) in {c.items for c in result}

    def test_top_k_ordering(self):
        transactions = [["a"], ["a"], ["a", "b"], ["b", "c"]]
        result = top_k_closed_itemsets(transactions, 2)
        supports = [c.support for c in result]
        assert supports == sorted(supports, reverse=True)
        assert result[0].items == frozenset({"a"})

    def test_weighted_supports(self):
        transactions = [["a", "b"], ["a"]]
        weights = [0.25, 0.5]
        result = all_closed_itemsets(transactions, weights=weights)
        by_items = {c.items: c.support for c in result}
        assert by_items[frozenset({"a"})] == pytest.approx(0.75)
        assert by_items[frozenset({"a", "b"})] == pytest.approx(0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            top_k_closed_itemsets([["a"]], 0)
        with pytest.raises(ValueError):
            top_k_closed_itemsets([["a"]], 1, min_length=0)


class TestWeightValidation:
    """Weights must pair up with transactions and be finite, >= 0."""

    MINERS = [
        lambda t, w: top_k_closed_itemsets(t, 2, weights=w),
        lambda t, w: all_closed_itemsets(t, weights=w),
        lambda t, w: naive_closed_itemsets(t, weights=w),
    ]

    @pytest.mark.parametrize("mine", MINERS)
    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], []])
    def test_length_mismatch_raises(self, mine, weights):
        # zip() used to drop the unpaired transactions silently
        with pytest.raises(ValueError, match="weights for"):
            mine([["a", "b"], ["a"]], weights)

    @pytest.mark.parametrize("mine", MINERS)
    def test_negative_weight_raises(self, mine):
        with pytest.raises(ValueError, match="non-negative"):
            mine([["a", "b"], ["a"]], [0.5, -0.25])

    @pytest.mark.parametrize("mine", MINERS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_raises(self, mine, bad):
        with pytest.raises(ValueError, match="finite"):
            mine([["a", "b"], ["a"]], [bad, 1.0])

    def test_empty_transactions_keep_their_weight_slot(self):
        result = all_closed_itemsets([[], ["a"], []], weights=[5.0, 0.5, 7.0])
        assert [(c.items, c.support) for c in result] == [
            (frozenset({"a"}), 0.5)
        ]

    def test_zero_weights_are_allowed(self):
        result = all_closed_itemsets([["a", "b"], ["a"]], weights=[0.0, 0.0])
        assert {c.items for c in result} == {
            frozenset({"a"}), frozenset({"a", "b"})
        }
        assert all(c.support == 0.0 for c in result)

    def test_generators_are_read_once(self):
        # all_closed_itemsets used to exhaust a generator before mining it
        transactions = (t for t in [["a", "b"], ["a"]])
        weights = (w for w in [0.25, 0.5])
        result = all_closed_itemsets(transactions, weights=weights)
        assert {c.items: c.support for c in result} == {
            frozenset({"a"}): 0.75, frozenset({"a", "b"}): 0.25,
        }

    def test_weighted_supports_are_exact_against_oracle(self):
        transactions = [["a", "b"], ["a", "c"], ["a", "b", "c"], ["a"]]
        weights = [0.1, 0.2, 0.7, 1 / 3]
        mined = all_closed_itemsets(transactions, weights=weights)
        oracle = naive_closed_itemsets(transactions, weights=weights)
        assert [(c.items, repr(c.support)) for c in mined] == [
            (c.items, repr(c.support)) for c in oracle
        ]


class TestAgainstOracle:
    def test_random_databases(self, rng):
        for trial in range(60):
            n_items = rng.randint(2, 7)
            transactions = [
                rng.sample(range(n_items), rng.randint(1, n_items))
                for _ in range(rng.randint(1, 10))
            ]
            for min_length in (1, 2):
                oracle = {
                    (c.items, c.support)
                    for c in naive_closed_itemsets(transactions, min_length)
                }
                mined = {
                    (c.items, c.support)
                    for c in all_closed_itemsets(transactions, min_length)
                }
                assert mined == oracle, trial

    def test_top_k_supports_match_oracle(self, rng):
        for trial in range(30):
            n_items = rng.randint(2, 6)
            transactions = [
                rng.sample(range(n_items), rng.randint(1, n_items))
                for _ in range(rng.randint(2, 9))
            ]
            oracle = naive_closed_itemsets(transactions, 1)
            for k in (1, 2, 4):
                mined = top_k_closed_itemsets(transactions, k, 1)
                want = sorted((c.support for c in oracle), reverse=True)[:k]
                assert [c.support for c in mined] == want


class TestClosednessInvariants:
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=5),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_results_are_closed(self, transactions):
        """No returned itemset has a superset with equal support."""
        mined = all_closed_itemsets(transactions)
        by_items = {c.items: c.support for c in mined}
        counts: dict = {}
        for t in transactions:
            if t:
                key = frozenset(t)
                counts[key] = counts.get(key, 0) + 1
        all_items = {i for t in counts for i in t}
        for items, sup in by_items.items():
            for extra in all_items - items:
                superset_support = sum(
                    c for t, c in counts.items() if items | {extra} <= t
                )
                assert superset_support < sup

    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=4),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_transaction_is_covered(self, transactions):
        """Each distinct transaction itself is a closed itemset."""
        mined = {c.items for c in all_closed_itemsets(transactions)}
        for transaction in transactions:
            if transaction:
                closure_members = [
                    c for c in mined if frozenset(transaction) <= c
                ]
                assert closure_members, transaction
