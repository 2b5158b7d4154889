"""Array-native hot kernels over (index arrays, edge masks).

These replace the per-world Python loops of the estimator pipeline with
``np.bincount``-based array passes:

* :func:`world_degrees` / :func:`batch_world_degrees` -- degree counts of
  one world / a whole batch of worlds;
* :func:`k_core_alive` / :func:`batch_k_core_alive` -- iterative k-core
  peeling as boolean masks, per world (the pre-filter for mask-native
  clique/pattern density evaluation) or over a whole batch;
* :func:`batch_peel_bounds` -- bucketed Charikar peel bounds for a whole
  batch of worlds (achieved densities, the exact stage's Dinkelbach
  seeds).

All kernels take an :class:`~repro.engine.indexed.IndexedGraph` plus a
boolean edge mask and never materialise :class:`Graph` objects.  The
batch kernels also accept a bit-packed matrix
(:class:`repro.engine.bitset.PackedMasks`); cross-world aggregates
(per-world edge counts, per-edge world counts, expected degrees) then
run straight off the uint64 words -- 8x less memory traffic than the
boolean byte matrix -- while the per-world peels unpack in bounded
blocks.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .bitset import PackedMasks, column_counts, row_popcounts
from .indexed import IndexedGraph

_INF = np.iinfo(np.int64).max

#: a batch of world masks: boolean ``(theta, m)`` or packed words
EdgeMasks = Union[np.ndarray, PackedMasks]


def world_degrees(indexed: IndexedGraph, edge_mask: np.ndarray) -> np.ndarray:
    """Return the per-node degree vector of one world (``np.bincount``)."""
    n = indexed.n
    u = indexed.edge_u[edge_mask]
    v = indexed.edge_v[edge_mask]
    return np.bincount(u, minlength=n) + np.bincount(v, minlength=n)


def batch_world_degrees(
    indexed: IndexedGraph, edge_masks: EdgeMasks
) -> np.ndarray:
    """Return a ``(theta, n)`` degree matrix for a batch of worlds.

    Packed batches are unpacked in bounded row blocks, so the transient
    boolean matrix stays small regardless of ``theta``.
    """
    if isinstance(edge_masks, PackedMasks):
        theta = len(edge_masks)
        counts = np.zeros((theta, indexed.n), dtype=np.int64)
        block = max(1, min(theta, 1024))
        for lo in range(0, theta, block):
            rows = edge_masks.rows(lo, min(lo + block, theta))
            counts[lo:lo + block] = batch_world_degrees(indexed, rows)
        return counts
    theta = edge_masks.shape[0]
    counts = np.zeros((theta, indexed.n), dtype=np.int64)
    world_idx, edge_idx = np.nonzero(edge_masks)
    np.add.at(counts, (world_idx, indexed.edge_u[edge_idx]), 1)
    np.add.at(counts, (world_idx, indexed.edge_v[edge_idx]), 1)
    return counts


def batch_world_edge_counts(edge_masks: EdgeMasks) -> np.ndarray:
    """Alive-edge count of every world: ``(theta,)`` ``int64``.

    The cross-world aggregate where packing pays off most: packed
    batches answer with word popcounts
    (:func:`repro.engine.bitset.row_popcounts`) and never touch a
    boolean byte, matching ``masks.sum(axis=1)`` exactly.
    """
    if isinstance(edge_masks, PackedMasks):
        return edge_masks.row_popcounts()
    return np.asarray(edge_masks).sum(axis=1, dtype=np.int64)


def edge_world_counts(edge_masks: EdgeMasks) -> np.ndarray:
    """Per-edge world counts: in how many sampled worlds is each edge alive?

    ``(m,)`` ``int64``; the packed twin of ``masks.sum(axis=0)``
    (:func:`repro.engine.bitset.column_counts` unpacks in bounded
    blocks).  ``counts / theta`` is each edge's empirical marginal --
    the cross-world frequency vector the degree aggregates build on.
    """
    if isinstance(edge_masks, PackedMasks):
        return column_counts(edge_masks.words, edge_masks.m)
    return np.asarray(edge_masks).sum(axis=0, dtype=np.int64)


def batch_k_core_alive(
    indexed: IndexedGraph, edge_masks: EdgeMasks, k: Union[int, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Peel a whole ``(theta, m)`` batch of worlds to their k-cores at once.

    Returns ``(node_alive, edge_alive)`` of shapes ``(theta, n)`` and
    ``(theta, m)``; row ``t`` equals :func:`k_core_alive` on world ``t``.
    All worlds peel in lockstep (a world that has converged simply stops
    changing), so the pass count is the maximum peel depth of the batch.
    ``k`` may be a scalar or a ``(theta,)`` vector of per-world orders
    (the batched estimator pre-pass peels each world to the core of its
    own ceil(peel bound)).

    The streaming estimator loop pre-filters clique/pattern worlds one at
    a time via :func:`k_core_alive` (worlds are consumed lazily to keep
    adopted sampler RNGs in sync); this batch variant serves pipelines
    that already hold a full ``(theta, m)`` mask matrix.  A packed batch
    is unpacked once up front -- the peel mutates its working copy, so
    the boolean matrix is the working representation either way.
    """
    if isinstance(edge_masks, PackedMasks):
        edge_masks = edge_masks.to_bool()
    u, v = indexed.edge_u, indexed.edge_v
    theta = edge_masks.shape[0]
    edge_alive = edge_masks.copy()
    node_alive = np.ones((theta, indexed.n), dtype=bool)
    k = np.asarray(k, dtype=np.int64)
    if not (k > 0).any():
        return node_alive, edge_alive
    threshold = k if k.ndim else np.full(theta, int(k), dtype=np.int64)
    while True:
        degree = batch_world_degrees(indexed, edge_alive)
        dead = node_alive & (degree < threshold[:, None])
        if not dead.any():
            return node_alive, edge_alive
        node_alive &= ~dead
        edge_alive &= node_alive[:, u] & node_alive[:, v]


def batch_peel_bounds(
    indexed: IndexedGraph, edge_masks: EdgeMasks
) -> Tuple[np.ndarray, np.ndarray]:
    """Bucketed Charikar peel bounds for a whole batch of worlds at once.

    Lockstep across worlds: every round, each unfinished world deletes
    *all* of its alive minimum-degree nodes (the batched variant of the
    sequential bucket peel -- same family of achieved densities, removal
    granularity one bucket instead of one node).  Returns ``(nums,
    dens)`` ``(theta,)`` ``int64`` arrays where ``nums[t] / dens[t]`` is
    the densest prefix seen for world ``t`` -- an **achieved** edge
    density of an induced subgraph, hence a valid Dinkelbach seed that
    the bound-independence contract of
    :func:`repro.dense.all_densest.prepare_from_bound_csr` accepts
    without changing any result.  Edgeless worlds report ``0 / 1``.

    Degree updates are incremental (only edges deleted this round are
    re-binned), so total work is ``O(rounds * theta * n + theta * m)``.
    """
    if isinstance(edge_masks, PackedMasks):
        edge_masks = edge_masks.to_bool()
    u, v = indexed.edge_u, indexed.edge_v
    theta = edge_masks.shape[0]
    n = indexed.n
    edge_alive = edge_masks.copy()
    node_alive = np.ones((theta, n), dtype=bool)
    degree = batch_world_degrees(indexed, edge_alive)
    edges_left = edge_alive.sum(axis=1, dtype=np.int64)
    nodes_left = np.full(theta, n, dtype=np.int64)
    nums = edges_left.copy()
    dens = nodes_left.copy()
    live = edges_left > 0
    nums[~live] = 0
    dens[~live] = 1
    while live.any():
        # per-world minimum alive degree (finished worlds stay put)
        masked = np.where(node_alive, degree, _INF)
        min_degree = masked.min(axis=1)
        kill = node_alive & (degree == min_degree[:, None]) & live[:, None]
        node_alive &= ~kill
        gone = edge_alive & ~(node_alive[:, u] & node_alive[:, v])
        edge_alive &= ~gone
        world_idx, edge_idx = np.nonzero(gone)
        np.subtract.at(degree, (world_idx, u[edge_idx]), 1)
        np.subtract.at(degree, (world_idx, v[edge_idx]), 1)
        edges_left -= np.bincount(world_idx, minlength=theta)
        nodes_left -= kill.sum(axis=1, dtype=np.int64)
        better = live & (edges_left * dens > nums * nodes_left)
        nums[better] = edges_left[better]
        dens[better] = nodes_left[better]
        live &= edges_left > 0
    return nums, dens


def k_core_alive(
    indexed: IndexedGraph, edge_mask: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(node_alive, edge_alive)`` masks of the world's k-core.

    Iteratively deletes nodes of degree < k (isolated nodes included for
    any k >= 1), which converges to the same node set as the bucket
    peeling in :func:`repro.dense.kcore.k_core`.
    """
    u, v = indexed.edge_u, indexed.edge_v
    edge_alive = edge_mask.copy()
    node_alive = np.ones(indexed.n, dtype=bool)
    if k <= 0:
        return node_alive, edge_alive
    while True:
        degree = world_degrees(indexed, edge_alive)
        dead = node_alive & (degree < k)
        if not dead.any():
            return node_alive, edge_alive
        node_alive &= ~dead
        edge_alive &= node_alive[u] & node_alive[v]
