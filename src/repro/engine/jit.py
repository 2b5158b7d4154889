"""Optional numba JIT tier for the two irreducible per-world hot loops.

The vectorised engine batches every stage it can across worlds
(:func:`repro.engine.kernels.batch_peel_bounds`,
:func:`repro.engine.kernels.batch_k_core_alive`), but two loops resist
batching because their control flow is data-dependent per world: the
bucketed Charikar peel (:func:`repro.dense.peeling._peel_arrays`) and
the FIFO push-relabel discharge of the warm parametric chain
(:meth:`repro.flow.parametric.ReverseChain.run`).  This module provides
flat-``int64``-array ports of both, written in nopython-compatible
style:

* when **numba is installed**, :func:`maybe_jit` compiles them
  (``engine='jit'`` requests the tier explicitly; ``engine='auto'``
  upgrades to it automatically -- see
  :func:`repro.engine.estimators.resolve_engine`);
* when it is **not**, the same functions run interpreted and the tier is
  never activated by the engine resolver (``engine='jit'`` falls back to
  ``'vectorized'``), but the ports remain importable and testable -- the
  differential tests compare them against the classic list-based
  implementations with the tier forced on, so correctness does not
  depend on having numba anywhere.

Activation is a :class:`~contextvars.ContextVar` (:func:`use_jit`), so
concurrent sessions/threads of the serve daemon can run different tiers
simultaneously.  The hooks convert between the list-based solver state
and ``int64`` arrays at the call boundary; conversion raises
``OverflowError`` for capacities beyond ``int64`` (the parametric
chain's common denominator grows multiplicatively), in which case the
caller silently stays on the exact python path.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "maybe_jit",
    "use_jit",
    "jit_active",
    "peel_csr",
    "phase1_discharge",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    _njit = None
    HAVE_NUMBA = False


def maybe_jit(func):
    """``numba.njit(cache=True)`` when available, identity otherwise."""
    if HAVE_NUMBA:  # pragma: no cover - exercised only with numba
        return _njit(cache=True)(func)
    return func


_TIER: ContextVar[bool] = ContextVar("repro_jit_tier", default=False)


def jit_active() -> bool:
    """Is the JIT tier requested for the current context?"""
    return _TIER.get()


@contextmanager
def use_jit(enabled: bool = True):
    """Activate (or deactivate) the JIT tier for the enclosed block.

    The engine sets this around the exact per-world stage when the
    resolved engine is ``'jit'``; tests force it on without numba to
    exercise the ports interpreted.
    """
    token = _TIER.set(bool(enabled))
    try:
        yield
    finally:
        _TIER.reset(token)


# ----------------------------------------------------------------------
# bucketed Charikar peel (flat-array port of peeling._peel_arrays)
# ----------------------------------------------------------------------
@maybe_jit
def _heap_push(heap: np.ndarray, size: int, key: int) -> int:
    heap[size] = key
    i = size
    while i > 0:
        parent = (i - 1) >> 1
        if heap[parent] <= heap[i]:
            break
        heap[parent], heap[i] = heap[i], heap[parent]
        i = parent
    return size + 1


@maybe_jit
def _heap_pop(heap: np.ndarray, size: int):
    top = heap[0]
    size -= 1
    heap[0] = heap[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        child = left
        right = left + 1
        if right < size and heap[right] < heap[left]:
            child = right
        if heap[i] <= heap[child]:
            break
        heap[i], heap[child] = heap[child], heap[i]
        i = child
    return top, size


@maybe_jit
def peel_csr(n: int, indptr: np.ndarray, neighbors: np.ndarray):
    """Charikar peel over local CSR arrays; flat twin of ``_peel_arrays``.

    One lazy min-heap keyed by ``degree * n + index`` replaces the
    per-degree bucket heaps: the minimum key is exactly (minimum alive
    degree, smallest index), the same deterministic tie-break, so the
    removal order -- and everything derived from it -- is identical.
    Returns ``(order, edges_after, best_num, best_den, best_size,
    degeneracy)`` with the two sequences as ``int64`` arrays.
    """
    degree = np.empty(n, np.int64)
    edges2 = 0
    for i in range(n):
        degree[i] = indptr[i + 1] - indptr[i]
        edges2 += degree[i]
    edges_left = edges2 // 2
    heap = np.empty(n + neighbors.shape[0] + 1, np.int64)
    size = 0
    for i in range(n):
        size = _heap_push(heap, size, degree[i] * n + i)
    alive = np.ones(n, np.bool_)
    order = np.empty(n, np.int64)
    edges_after = np.empty(n - 1 if n > 1 else 0, np.int64)
    nodes_left = n
    best_num = edges_left
    best_den = nodes_left
    best_size = nodes_left
    degeneracy = 0
    idx = 0
    while nodes_left > 1:
        while True:
            key, size = _heap_pop(heap, size)
            node = key % n
            d = key // n
            if alive[node] and degree[node] == d:
                break
        if d > degeneracy:
            degeneracy = d
        alive[node] = False
        order[idx] = node
        edges_left -= degree[node]
        nodes_left -= 1
        for pos in range(indptr[node], indptr[node + 1]):
            other = neighbors[pos]
            if alive[other]:
                nd = degree[other] - 1
                degree[other] = nd
                size = _heap_push(heap, size, nd * n + other)
        edges_after[idx] = edges_left
        idx += 1
        if edges_left * best_den > best_num * nodes_left:
            best_num = edges_left
            best_den = nodes_left
            best_size = nodes_left
    for i in range(n):
        if alive[i]:
            order[idx] = i
            break
    return order, edges_after, best_num, best_den, best_size, degeneracy


# ----------------------------------------------------------------------
# FIFO push-relabel phase-1 discharge (flat-array port)
# ----------------------------------------------------------------------
@maybe_jit
def _rebuild_phase1(
    to: np.ndarray, cap: np.ndarray, twin: np.ndarray, indptr: np.ndarray,
    excess: np.ndarray, height: np.ndarray, count_at_height: np.ndarray,
    pointers: np.ndarray, in_queue: np.ndarray, queue: np.ndarray,
    source: int, sink: int, num_nodes: int,
) -> int:
    """Exact-height global relabel; rebuild the FIFO queue.  Returns qtail."""
    infinity = 2 * num_nodes
    for i in range(num_nodes):
        height[i] = infinity
    height[sink] = 0
    height[source] = num_nodes
    bfs = np.empty(num_nodes, np.int64)
    bfs_head = 0
    bfs_tail = 0
    bfs[bfs_tail] = sink
    bfs_tail += 1
    while bfs_head < bfs_tail:
        v = bfs[bfs_head]
        bfs_head += 1
        dist = height[v] + 1
        for e in range(indptr[v], indptr[v + 1]):
            u = to[e]
            if cap[twin[e]] > 0 and height[u] == infinity:
                height[u] = dist
                bfs[bfs_tail] = u
                bfs_tail += 1
    for level in range(2 * num_nodes + 2):
        count_at_height[level] = 0
    qtail = 0
    for i in range(num_nodes):
        count_at_height[height[i]] += 1
        pointers[i] = indptr[i]
        if (
            excess[i] > 0 and i != source and i != sink
            and height[i] < num_nodes
        ):
            in_queue[i] = True
            queue[qtail] = i
            qtail += 1
        else:
            in_queue[i] = False
    return qtail


@maybe_jit
def phase1_discharge(
    to: np.ndarray, cap: np.ndarray, twin: np.ndarray, indptr: np.ndarray,
    excess: np.ndarray, height: np.ndarray, count_at_height: np.ndarray,
    pointers: np.ndarray, in_queue: np.ndarray, queue: np.ndarray,
    qhead: int, qtail: int, source: int, sink: int, num_nodes: int,
) -> int:
    """Run the FIFO phase-1 discharge to quiescence; return ``excess[sink]``.

    The flat twin of :meth:`repro.flow.parametric.ReverseChain.run`:
    current-arc pointers, inlined relabel, gap heuristic, periodic global
    relabeling, nodes parked at ``height >= num_nodes`` left alone.  All
    state arrays are mutated in place, so the caller can resume the same
    chain later (warm parametric continuation) or read the height cut.
    ``queue`` is a ring buffer of capacity ``num_nodes + 1`` holding the
    active nodes in ``[qhead, qtail)``.
    """
    qsize = queue.shape[0]
    infinity = 2 * num_nodes
    relabels_since_global = 0
    while qhead != qtail:
        node = queue[qhead]
        qhead += 1
        if qhead == qsize:
            qhead = 0
        in_queue[node] = False
        node_height = height[node]
        if node_height >= num_nodes:
            continue
        limit = indptr[node + 1]
        node_excess = excess[node]
        e = pointers[node]
        clean = True
        while node_excess > 0:
            if e >= limit:
                old = node_height
                smallest = infinity
                for a in range(indptr[node], limit):
                    if cap[a] > 0:
                        h = height[to[a]]
                        if h < smallest:
                            smallest = h
                node_height = smallest + 1
                height[node] = node_height
                count_at_height[old] -= 1
                count_at_height[node_height] += 1
                e = indptr[node]
                if count_at_height[old] == 0 and old < num_nodes:
                    for other in range(num_nodes):
                        oh = height[other]
                        if old < oh <= num_nodes and other != source:
                            count_at_height[oh] -= 1
                            height[other] = num_nodes + 1
                            count_at_height[num_nodes + 1] += 1
                    node_height = height[node]
                relabels_since_global += 1
                if relabels_since_global >= num_nodes:
                    relabels_since_global = 0
                    excess[node] = node_excess
                    qtail = _rebuild_phase1(
                        to, cap, twin, indptr, excess, height,
                        count_at_height, pointers, in_queue, queue,
                        source, sink, num_nodes,
                    )
                    qhead = 0
                    clean = False
                    break
                if node_height >= num_nodes:
                    excess[node] = node_excess
                    clean = False
                    break
                continue
            residual = cap[e]
            if residual > 0:
                head = to[e]
                if node_height == height[head] + 1:
                    delta = node_excess if node_excess < residual \
                        else residual
                    cap[e] = residual - delta
                    cap[twin[e]] += delta
                    node_excess -= delta
                    excess[head] += delta
                    if (
                        not in_queue[head]
                        and head != source
                        and head != sink
                        and excess[head] > 0
                    ):
                        in_queue[head] = True
                        queue[qtail] = head
                        qtail += 1
                        if qtail == qsize:
                            qtail = 0
                    continue
            e += 1
        if clean:
            excess[node] = node_excess
            pointers[node] = e
    return excess[sink]
