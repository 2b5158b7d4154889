"""Fixed chunk grid + the stream drain that fills a world store.

The parallel substrate shards a world store's sampled worlds over a
*chunk grid*: contiguous fixed-size blocks whose boundaries depend only
on the world count (:func:`plan_blocks`), never on the worker count.
Workers claim whole blocks and the parent merges per-block results in
block order, which is what makes estimates invariant to ``workers``.
The memory-budget pager of :mod:`repro.engine.worldstore` spills along
the same grid.

Every store is filled by :func:`drain_mask_stream`: one of the
vectorised samplers is driven through its *continuous* RNG stream and
the resulting mask / insertion-order / weight arrays are kept in stream
order.  Every block of the grid then holds the byte-identical worlds a
sequential run evaluates, for Monte Carlo as well as Lazy Propagation
(whose geometric-jump stream cannot be split mid-flight) and Recursive
Stratified Sampling (whose stratum trial streams span blocks).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .lazy import VectorizedLazyPropagationSampler
from .sampler import VectorizedMonteCarloSampler
from .stratified import VectorizedStratifiedSampler

#: the chunk grid has at most this many blocks (a multiple of every
#: plausible worker count, small enough that per-block overhead is noise
#: and large enough that dynamic block claiming load-balances well)
DEFAULT_BLOCKS = 64


def plan_blocks(
    total: int, max_blocks: int = DEFAULT_BLOCKS
) -> List[Tuple[int, int]]:
    """Partition ``range(total)`` into the fixed chunk grid.

    Returns ``[(start, stop), ...]`` -- at most ``max_blocks`` contiguous
    blocks of equal size (the last may be shorter).  The grid is a pure
    function of ``total``: the same world count always yields the same
    block boundaries, regardless of how many workers later claim them.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if max_blocks < 1:
        raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
    size = -(-total // max_blocks)
    return [
        (start, min(start + size, total)) for start in range(0, total, size)
    ]


def drain_mask_stream(
    sampler, theta: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Run a vectorised sampler's whole stream into flat arrays.

    Returns ``(masks, weights, order_data, order_indptr)``:

    * ``masks`` -- ``(T, m)`` boolean world matrix, in stream order;
    * ``weights`` -- ``(T,)`` float64 estimator weights;
    * ``order_data`` / ``order_indptr`` -- the per-world edge insertion
      sequences (LP schedule order, RSS fixed-then-free order) as one
      flat int64 array sliced by ``order_indptr[i]:order_indptr[i+1]``,
      or ``(None, None)`` for Monte Carlo, whose insertion order is edge
      index order and needs no sidecar.

    ``T`` is the *actual* world count (RSS may emit slightly more or
    fewer than ``theta``); the chunk grid must be planned over ``T``.
    Draining advances the sampler's RNG exactly as drawing ``theta``
    worlds one by one would, so the arrays are byte-identical to the
    worlds the sampler itself produces.
    """
    if isinstance(sampler, VectorizedMonteCarloSampler):
        masks = sampler.edge_masks(theta)
        weights = np.full(theta, 1.0 / theta, dtype=np.float64)
        return masks, weights, None, None
    if not isinstance(
        sampler, (VectorizedLazyPropagationSampler, VectorizedStratifiedSampler)
    ):
        raise ValueError(
            "drain_mask_stream supports the vectorised MC/LP/RSS samplers; "
            f"got {type(sampler).__name__}"
        )
    mask_rows: List[np.ndarray] = []
    weights_list: List[float] = []
    orders: List[np.ndarray] = []
    for weighted in sampler.mask_worlds(theta):
        world = weighted.graph
        mask_rows.append(world.mask)
        weights_list.append(weighted.weight)
        orders.append(
            world.order
            if world.order is not None
            else np.flatnonzero(world.mask)
        )
    masks = (
        np.stack(mask_rows)
        if mask_rows
        else np.zeros((0, sampler.indexed.m), dtype=bool)
    )
    weights = np.asarray(weights_list, dtype=np.float64)
    order_indptr = np.zeros(len(orders) + 1, dtype=np.int64)
    np.cumsum([len(order) for order in orders], out=order_indptr[1:])
    order_data = (
        np.concatenate(orders)
        if orders
        else np.zeros(0, dtype=np.int64)
    ).astype(np.int64, copy=False)
    return masks, weights, order_data, order_indptr
