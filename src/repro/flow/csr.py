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

Two solvers produce CSR max flows: the warm parametric chain
(:class:`repro.flow.parametric.ReverseChain`, the engine's per-component
exact stage) and :func:`repro.flow.push_relabel.csr_push_relabel` (its
cold solve after a core re-shrink).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List

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
        pairs = len(pair_tail)
        arc_tail = np.empty(2 * pairs, dtype=np.int64)
        arc_head = np.empty(2 * pairs, dtype=np.int64)
        arc_cap = np.empty(2 * pairs, dtype=np.int64)
        arc_tail[0::2] = pair_tail
        arc_tail[1::2] = pair_head
        arc_head[0::2] = pair_head
        arc_head[1::2] = pair_tail
        arc_cap[0::2] = cap_forward
        arc_cap[1::2] = cap_backward
        order = np.argsort(arc_tail, kind="stable")
        # position of each original arc after the sort, so twins resolve
        # to sorted positions: original twin of arc a is a ^ 1
        position = np.empty(2 * pairs, dtype=np.int64)
        position[order] = np.arange(2 * pairs)
        twin = position[order ^ 1]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(arc_tail, minlength=num_nodes))
        return cls(
            num_nodes,
            source,
            sink,
            arc_head[order].tolist(),
            arc_cap[order].tolist(),
            twin.tolist(),
            indptr.tolist(),
        )

    # ------------------------------------------------------------------
    # residual structure (valid after a max-flow computation)
    # ------------------------------------------------------------------
    def residual_successors(self, node: int) -> Iterator[int]:
        """Yield heads of positive-residual arcs out of ``node``."""
        to, cap = self.to, self.cap
        for e in range(self.indptr[node], self.indptr[node + 1]):
            if cap[e] > 0:
                yield to[e]

    def residual_adjacency(self, nodes: Iterable[int]) -> List[List[int]]:
        """Materialised :meth:`residual_successors` lists for ``nodes``.

        Returns a full-size table (indexed by node id, empty outside
        ``nodes``) so repeated traversals -- Tarjan visits every arc
        twice -- skip the per-arc generator machinery.  Successor order
        matches :meth:`residual_successors` exactly.
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


def build_edge_density_network_csr(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    degrees: np.ndarray,
    alpha: Fraction,
) -> CSRFlowNetwork:
    """Goldberg's edge-density network over local node arrays.

    The array twin of :func:`repro.dense.goldberg.build_edge_density_network`
    with the same scaled integer capacities (``alpha = p / q``): source
    ``s = n``, sink ``t = n + 1``, ``c(s, v) = q * deg(v)``,
    ``c(v, t) = 2p``, and every graph edge as a ``q``/``q`` twin pair.
    """
    alpha = Fraction(alpha)
    q = alpha.denominator
    p = alpha.numerator
    m = len(edge_u)
    source = n
    sink = n + 1
    locals_ = np.arange(n, dtype=np.int64)
    pair_tail = np.concatenate(
        [np.full(n, source, dtype=np.int64), locals_, edge_u]
    )
    pair_head = np.concatenate(
        [locals_, np.full(n, sink, dtype=np.int64), edge_v]
    )
    cap_forward = np.concatenate(
        [
            q * degrees.astype(np.int64),
            np.full(n, 2 * p, dtype=np.int64),
            np.full(m, q, dtype=np.int64),
        ]
    )
    cap_backward = np.concatenate(
        [
            np.zeros(2 * n, dtype=np.int64),
            np.full(m, q, dtype=np.int64),
        ]
    )
    return CSRFlowNetwork.from_pairs(
        n + 2, source, sink, pair_tail, pair_head, cap_forward, cap_backward
    )
