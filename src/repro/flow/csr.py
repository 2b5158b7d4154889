"""Integer flow networks on flat CSR arrays (the engine's hot substrate).

:class:`~repro.flow.network.FlowNetwork` stores one Python ``Arc`` object
per direction, which is what the per-world exact stage of the vectorised
engine used to spend most of its time allocating and chasing.  This module
is the array twin: arcs live in flat lists sorted by tail node, so the
arcs out of node ``v`` occupy the contiguous slice
``indptr[v]:indptr[v + 1]`` of ``to`` / ``cap`` / ``twin`` -- one list
index per access, no object hops.  ``cap`` holds *residual* capacities:
pushing ``delta`` along arc ``e`` is ``cap[e] -= delta;
cap[twin[e]] += delta``, and a residual-graph query is just
``cap[e] > 0``.

All capacities are Python ints (exact; the Goldberg construction scales by
the density denominator, see :mod:`repro.dense.goldberg`), so the solved
flows and min cuts are byte-identical to the object-based
:mod:`repro.flow.maxflow` results: max flow values are unique, and the
minimal / maximal min-cut sides and the residual SCC condensation are
invariant across maximum flows (Picard-Queyranne), whichever solver
produced them.

Every CSR max flow comes from one push-relabel core,
:class:`repro.flow.push_relabel.Preflow`: the warm parametric chain
(:class:`repro.flow.parametric.ReverseChain`, the engine's per-component
exact stage) drains through its discharge loop, and so does
:func:`repro.flow.push_relabel.csr_push_relabel` (the chain's cold solve
after a core re-shrink).  Every network gets its arcs from
:func:`arc_layout`; Goldberg's arc pairs come from :func:`goldberg_pairs`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np


class CSRFlowNetwork:
    """A flow network over nodes ``0..num_nodes-1`` in flat arrays.

    ``source`` and ``sink`` are ordinary node indices.  Arc ``e``'s
    reverse twin is ``twin[e]``; ``cap`` is mutated in place by the
    solvers and holds residual capacities at all times.
    """

    __slots__ = ("num_nodes", "source", "sink", "to", "cap", "twin", "indptr")

    def __init__(
        self,
        num_nodes: int,
        source: int,
        sink: int,
        to: List[int],
        cap: List[int],
        twin: List[int],
        indptr: List[int],
    ) -> None:
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.to = to
        self.cap = cap
        self.twin = twin
        self.indptr = indptr

    @classmethod
    def from_pairs(
        cls,
        num_nodes: int,
        source: int,
        sink: int,
        pair_tail: np.ndarray,
        pair_head: np.ndarray,
        cap_forward: np.ndarray,
        cap_backward: np.ndarray,
    ) -> "CSRFlowNetwork":
        """Build from arc-pair arrays (tails, heads, capacities; int64)."""
        order, _position, heads, twin, indptr = arc_layout(
            num_nodes, pair_tail, pair_head
        )
        caps = _interleave(cap_forward, cap_backward)[order].tolist()
        return cls(num_nodes, source, sink, heads, caps, twin, indptr)

    # ------------------------------------------------------------------
    # residual structure (valid after a max-flow computation)
    # ------------------------------------------------------------------
    def residual_adjacency(self, nodes: Iterable[int]) -> List[List[int]]:
        """Heads of the positive-residual arcs out of each of ``nodes``.

        Returns a full-size table (indexed by node id, empty outside
        ``nodes``) so repeated traversals -- Tarjan visits every arc
        twice -- read plain lists.  Successors come in arc order.
        """
        to, cap, indptr = self.to, self.cap, self.indptr
        adjacency: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for node in nodes:
            adjacency[node] = [
                to[e]
                for e in range(indptr[node], indptr[node + 1])
                if cap[e] > 0
            ]
        return adjacency

    def coreachable_to_sink(self) -> List[bool]:
        """Per-node flags: can still reach ``sink`` in the residual graph.

        The complement is the *maximal* min-cut source side.  Walks arcs
        backwards through the stored twins: ``y -> x`` has positive
        residual iff ``cap[twin[e]] > 0`` for the arc ``e = x -> y``.
        """
        to, cap, twin, indptr = self.to, self.cap, self.twin, self.indptr
        seen = [False] * self.num_nodes
        seen[self.sink] = True
        stack = [self.sink]
        while stack:
            node = stack.pop()
            for e in range(indptr[node], indptr[node + 1]):
                if cap[twin[e]] > 0 and not seen[to[e]]:
                    seen[to[e]] = True
                    stack.append(to[e])
        return seen


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """``even`` at the even slots, ``odd`` at the odd ones (int64)."""
    out = np.empty(2 * len(even), dtype=np.int64)
    out[0::2] = even
    out[1::2] = odd
    return out


def arc_layout(
    num_nodes: int, pair_tail: np.ndarray, pair_head: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[int], List[int], List[int]]:
    """Tail-sorted CSR layout of the arc pairs ``pair_tail -> pair_head``.

    Pair ``k`` contributes its forward arc ``2 k`` and its reverse arc
    ``2 k + 1``; a stable sort by tail puts arc ``a`` at
    ``position[a]`` (``order`` is the inverse permutation).  Returns
    ``(order, position, heads, twin, indptr)``, the last three as the
    plain lists :class:`CSRFlowNetwork` stores.
    """
    arc_tail = _interleave(pair_tail, pair_head)
    arc_head = _interleave(pair_head, pair_tail)
    order = np.argsort(arc_tail, kind="stable")
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    # the original twin of arc a is a ^ 1; resolve it to sorted positions
    twin = position[order ^ 1]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(arc_tail, minlength=num_nodes))
    return (
        order, position, arc_head[order].tolist(), twin.tolist(),
        indptr.tolist(),
    )


def goldberg_pairs(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    degrees: np.ndarray,
    num: int,
    den: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Goldberg's edge-density arc pairs at ``alpha = num / den``.

    Source ``s = n``, sink ``t = n + 1``; the pairs are
    ``[s -> v for v, v -> t for v, every graph edge]`` with
    ``c(s, v) = den * deg(v)``, ``c(v, t) = 2 num`` and every graph edge
    a ``den``/``den`` twin pair.  Returns
    ``(pair_tail, pair_head, cap_forward, cap_backward)`` (int64).
    """
    m = len(edge_u)
    locals_ = np.arange(n, dtype=np.int64)
    pair_tail = np.concatenate([
        np.full(n, n, dtype=np.int64), locals_,
        np.asarray(edge_u, dtype=np.int64),
    ])
    pair_head = np.concatenate([
        locals_, np.full(n, n + 1, dtype=np.int64),
        np.asarray(edge_v, dtype=np.int64),
    ])
    cap_forward = np.concatenate([
        den * np.asarray(degrees, dtype=np.int64),
        np.full(n, 2 * num, dtype=np.int64),
        np.full(m, den, dtype=np.int64),
    ])
    cap_backward = np.concatenate([
        np.zeros(2 * n, dtype=np.int64), np.full(m, den, dtype=np.int64),
    ])
    return pair_tail, pair_head, cap_forward, cap_backward


def build_edge_density_network_csr(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    degrees: np.ndarray,
    alpha: Fraction,
) -> CSRFlowNetwork:
    """Goldberg's edge-density network over local node arrays.

    The array twin of :func:`repro.dense.goldberg.build_edge_density_network`
    with the same scaled integer capacities (``alpha = p / q``, pairs
    from :func:`goldberg_pairs`): source ``s = n``, sink ``t = n + 1``.
    """
    alpha = Fraction(alpha)
    return CSRFlowNetwork.from_pairs(
        n + 2, n, n + 1,
        *goldberg_pairs(
            n, edge_u, edge_v, degrees, alpha.numerator, alpha.denominator
        ),
    )
