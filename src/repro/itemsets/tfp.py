"""Top-k closed frequent itemset mining with a minimum length (TFP [47]).

Algorithm 5 reduces NDS discovery to this problem: transactions are the
maximum-sized densest subgraphs of sampled worlds, items are graph nodes,
and the top-k closed node sets of size >= ``l_m`` with the highest supports
are exactly the top-k NDS estimates.

The miner is a vertical-format (tidset) depth-first search in the style of
CHARM, with the two signature ingredients of TFP:

* closedness by *closure*: every explored itemset is extended to its
  closure (all items shared by its supporting transactions), so only closed
  itemsets are generated;
* *dynamic support raising*: a bounded top-k pool of closed itemsets of
  length >= ``l_m`` raises the minimum support as it fills, pruning the
  search (support is anti-monotone).

Transactions may repeat; they are deduplicated up-front with counts, so the
tidsets range over distinct transactions and supports are weighted.

The tidsets live in a dense boolean item x tid matrix whose rows are in
search order, so each DFS node screens all its extension candidates in one
batched numpy pass.  Supports are summed left to right in ascending tid
order (:func:`_ordered_sums`), the same float sequence a scalar loop over
the set tids produces, so results are exact and independent of batching.
A brute-force oracle (:func:`naive_closed_itemsets`) backs the tests.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Item = Hashable
Itemset = FrozenSet[Item]


@dataclass(frozen=True)
class ClosedItemset:
    """A closed itemset with its (weighted) support."""

    items: Itemset
    support: float


def _deduplicate(
    transactions: Iterable[Iterable[Item]],
    weights: Optional[Sequence[float]] = None,
) -> Tuple[List[Itemset], List[float]]:
    """Collapse duplicate transactions, accumulating weights (default 1).

    Weights must be parallel to ``transactions``, finite and
    non-negative: support raising relies on support being anti-monotone,
    and the miner's ordered summation relies on a missing transaction
    adding ``+0.0`` to a non-negative running sum.
    """
    transactions = list(transactions)
    if weights is None:
        weights = [1.0] * len(transactions)
    else:
        weights = list(weights)
        if len(weights) != len(transactions):
            raise ValueError(
                f"got {len(weights)} weights for "
                f"{len(transactions)} transactions"
            )
        for weight in weights:
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"weights must be finite and non-negative, got {weight!r}"
                )
    counts: Dict[Itemset, float] = {}
    for transaction, weight in zip(transactions, weights):
        key = frozenset(transaction)
        if key:
            counts[key] = counts.get(key, 0.0) + weight
    uniques = list(counts)
    return uniques, [counts[u] for u in uniques]


def _ordered_sums(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row-wise weighted supports, summed left to right in tid order.

    ``np.cumsum`` accumulates sequentially (unlike the pairwise
    ``np.sum``), so each row total is the same float as a scalar loop
    over the row's set tids; a clear tid adds ``+0.0``, which leaves a
    non-negative running sum unchanged.  Accumulates in place, so the
    only float temporary is one rows-shaped matrix.
    """
    sums = np.where(rows, weight, 0.0)
    np.cumsum(sums, axis=1, out=sums)
    return sums[:, -1].copy()


class _TopKPool:
    """Bounded pool of the k best (support, itemset) pairs seen so far."""

    def __init__(self, k: int) -> None:
        self._k = k
        self._heap: List[Tuple[float, int, Itemset]] = []
        self._tiebreak = itertools.count()

    def offer(self, itemset: Itemset, support: float) -> None:
        entry = (support, next(self._tiebreak), itemset)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
        elif support > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def min_support(self) -> float:
        """Current support threshold: 0 until the pool is full."""
        if len(self._heap) < self._k:
            return 0.0
        return self._heap[0][0]

    def results(self) -> List[ClosedItemset]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], sorted(map(repr, e[2]))))
        return [ClosedItemset(items, support) for support, _, items in ordered]


def top_k_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    k: int,
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Return the top-k closed itemsets of length >= ``min_length``.

    Ordered by decreasing support.  ``weights`` (parallel to
    ``transactions``) makes supports weighted sums -- Algorithm 5 passes the
    sampler weights so RSS-sampled transactions are combined correctly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    uniques, counts = _deduplicate(transactions, weights)
    if not uniques:
        return []

    # vertical layout: a dense item x tid matrix, rows in first-seen order
    index: Dict[Item, int] = {}
    for transaction in uniques:
        for item in transaction:
            index.setdefault(item, len(index))
    seen = list(index)
    membership = np.zeros((len(seen), len(uniques)), dtype=bool)
    for tid, transaction in enumerate(uniques):
        membership[[index[item] for item in transaction], tid] = True
    weight = np.asarray(counts, dtype=np.float64)

    # search order: ascending support, then repr; rows permuted to match
    item_support = _ordered_sums(membership, weight).tolist()
    rank = sorted(
        range(len(seen)), key=lambda i: (item_support[i], repr(seen[i]))
    )
    matrix = membership[rank]
    del membership
    # a closure (boolean over search positions) read in first-seen order,
    # so itemsets are built in the same insertion order as the item index
    first_seen = np.argsort(rank)
    pool = _TopKPool(k)

    def explore(
        tids: np.ndarray, closure: np.ndarray, support: float, core_position: int
    ) -> None:
        """LCM-style DFS: each closed itemset is generated exactly once.

        ``tids`` lists the supporting transactions (ascending) and
        ``closure`` marks every item they share.  An extension by the item
        at ``position > core_position`` is kept only if it is
        *prefix-preserving*: the new closure must not acquire any item
        ordered before it that the old closure lacked (Uno et al.'s
        ppc-extension); this makes the search tree a spanning tree of the
        closed-itemset lattice.  Candidates are screened in one batched
        pass; the survivors are then visited in position order, exactly as
        a scalar loop would visit them.
        """
        if np.count_nonzero(closure) >= min_length:
            members = np.flatnonzero(closure[first_seen]).tolist()
            pool.offer(frozenset(seen[i] for i in members), support)
        start = core_position + 1
        candidates = start + np.flatnonzero(~closure[start:])
        if not candidates.size:
            return
        # only the current tids' columns: every other tid is clear in each
        # intersection, and skipping a +0.0 leaves the ordered sum as is
        rows = matrix[np.ix_(candidates, tids)]
        supports = _ordered_sums(rows, weight[tids])
        # TFP support raising: the threshold only grows, so a candidate
        # below it now can never enter the top-k
        keep = rows.any(axis=1) & (supports >= pool.min_support())
        survivors = candidates[keep].tolist()
        survivor_supports = supports[keep].tolist()
        del rows, supports, keep, candidates
        for position, new_support in zip(survivors, survivor_supports):
            if new_support < pool.min_support():
                continue
            new_tids = tids[matrix[position, tids]]
            new_closure = matrix[:, new_tids].all(axis=1)
            if np.array_equal(new_closure[:position], closure[:position]):
                explore(new_tids, new_closure, new_support, position)

    root_support = float(np.cumsum(weight)[-1])
    explore(np.arange(len(uniques)), matrix.all(axis=1), root_support, -1)
    return pool.results()


def all_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Return *all* closed itemsets of length >= ``min_length``.

    Convenience wrapper used by analyses that need the full closed lattice
    (e.g. the l_m sensitivity sweep of Fig. 20); equivalent to asking for a
    huge k.
    """
    transactions = list(transactions)
    if weights is not None:
        weights = list(weights)
    uniques, _ = _deduplicate(transactions, weights)
    bound = 1 << min(len(uniques), 60)
    return top_k_closed_itemsets(transactions, bound, min_length, weights)


def naive_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Brute-force oracle: closed itemsets are intersections of transactions.

    The closed sets of a transaction database are exactly the non-empty
    intersections of non-empty subsets of (distinct) transactions; this
    computes them by BFS over pairwise intersections.  Exponential in the
    worst case -- tests only.  Supports are summed one by one in
    deduplicated-transaction order, the miner's order, so weighted
    supports compare exactly.
    """
    uniques, counts = _deduplicate(transactions, weights)
    closed: set = set(uniques)
    frontier = set(uniques)
    while frontier:
        additions: set = set()
        for candidate in frontier:
            for transaction in uniques:
                meet = candidate & transaction
                if meet and meet not in closed:
                    additions.add(meet)
        closed |= additions
        frontier = additions
    results = []
    for itemset in closed:
        if len(itemset) < min_length:
            continue
        support = 0.0
        for transaction, count in zip(uniques, counts):
            if itemset <= transaction:
                support += count
        results.append(ClosedItemset(itemset, support))
    results.sort(key=lambda c: (-c.support, sorted(map(repr, c.items))))
    return results
