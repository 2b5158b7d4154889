"""Frozen scalar TFP miner: the reference for the differential tests.

This is the bit-walking tidset miner that :mod:`repro.itemsets.tfp` used
before it moved to a dense item x tid matrix.  It is kept verbatim (apart
from sharing the deduplication and top-k pool of the production module)
so ``tests/test_itemsets_differential.py`` can assert that the vectorized
miner returns the same itemsets, supports and order, float for float.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.itemsets.tfp import (
    ClosedItemset,
    Item,
    Itemset,
    _deduplicate,
    _TopKPool,
)


def reference_top_k_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    k: int,
    min_length: int = 1,
    weights: Optional[Sequence[float]] = None,
) -> List[ClosedItemset]:
    """Top-k closed itemsets by the scalar LCM-style tidset DFS."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    uniques, counts = _deduplicate(transactions, weights)
    if not uniques:
        return []

    # vertical layout: item -> bitmask of supporting transactions
    tid_of_item: Dict[Item, int] = {}
    for tid, transaction in enumerate(uniques):
        bit = 1 << tid
        for item in transaction:
            tid_of_item[item] = tid_of_item.get(item, 0) | bit

    def support_of(mask: int) -> float:
        total = 0.0
        tid = 0
        while mask:
            if mask & 1:
                total += counts[tid]
            mask >>= 1
            tid += 1
        return total

    full_mask = (1 << len(uniques)) - 1
    items = sorted(tid_of_item, key=lambda it: (support_of(tid_of_item[it]), repr(it)))
    order = {item: position for position, item in enumerate(items)}
    pool = _TopKPool(k)

    def closure_of(mask: int) -> Itemset:
        return frozenset(
            item for item, item_mask in tid_of_item.items()
            if mask & ~item_mask == 0
        )

    def explore(current_mask: int, closure: Itemset, core_position: int) -> None:
        if len(closure) >= min_length:
            pool.offer(closure, support_of(current_mask))
        for position in range(core_position + 1, len(items)):
            item = items[position]
            if item in closure:
                continue
            new_mask = current_mask & tid_of_item[item]
            if not new_mask:
                continue
            support = support_of(new_mask)
            if support < pool.min_support():
                continue
            new_closure = closure_of(new_mask)
            prefix_ok = all(
                other in closure
                for other in new_closure
                if order[other] < position
            )
            if prefix_ok:
                explore(new_mask, new_closure, position)

    explore(full_mask, closure_of(full_mask), -1)
    return pool.results()
