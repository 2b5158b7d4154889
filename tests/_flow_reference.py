"""Frozen CSR flow layer: the differential reference for ``repro.flow``.

These are :mod:`repro.flow.csr`, :mod:`repro.flow.push_relabel` and
:mod:`repro.flow.parametric` as they were before the warm parametric
chain and :func:`csr_push_relabel` were folded onto one push-relabel
core (``repro.flow.push_relabel.Preflow``): the chain's own drain loop,
three copies of the BFS relabel, four copies of the tail-sorted arc
layout and three copies of Goldberg's arc pairs.  The three modules are
concatenated verbatim (only the module docstrings dropped, the
module-relative imports made absolute or resolved in-file) so
``tests/test_flow_differential.py`` can assert that the shared core
returns the same flow values, residual capacities, chain states, exact
densities and views.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.indexed import SubWorldView

__all__ = [
    "CSRFlowNetwork",
    "ReverseChain",
    "build_edge_density_network_csr",
    "csr_push_relabel",
    "parametric_dinkelbach",
]


# ---- repro/flow/csr.py ----------------------------------------------


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


# ---- repro/flow/push_relabel.py -------------------------------------


def csr_push_relabel(network: CSRFlowNetwork) -> int:
    """Push a maximum flow through a :class:`CSRFlowNetwork`; return its value.

    Mutates ``network.cap`` in place (it holds residual capacities), so
    the residual queries on the network are valid afterwards.  FIFO
    queue, current-arc pointers, gap heuristic, arcs in tail-sorted lists
    with an explicit ``twin`` array -- plus *global relabeling*: heights
    are periodically recomputed as exact residual BFS distances
    (``d(v, t)``, or ``n + d(v, s)`` for nodes that can no longer reach
    the sink), which is what keeps the excess-return phase from climbing
    heights one relabel at a time on Goldberg's star-shaped networks.
    """
    n = network.num_nodes
    s = network.source
    t = network.sink
    if s == t:
        raise ValueError("source and sink must differ")
    to = network.to
    cap = network.cap
    twin = network.twin
    indptr = network.indptr

    height = [0] * n
    excess = [0] * n
    count_at_height = [0] * (2 * n + 2)

    active: deque = deque()
    in_queue = [False] * n
    push_queue = active.append

    # saturate every arc out of the source
    for e in range(indptr[s], indptr[s + 1]):
        delta = cap[e]
        if delta <= 0:
            continue
        cap[e] = 0
        cap[twin[e]] += delta
        head = to[e]
        excess[head] += delta
        excess[s] -= delta

    pointers = [0] * n

    def global_relabel() -> None:
        """Set heights to exact residual BFS distances; rebuild the queue."""
        infinity = 2 * n
        for i in range(n):
            height[i] = infinity
        height[t] = 0
        height[s] = n
        # backward BFS from the sink, d(v, t), then from the source,
        # n + d(v, s), over residual arcs u -> v (the twins of v -> u)
        for start in (t, s):
            queue = deque([start])
            while queue:
                v = queue.popleft()
                dist = height[v] + 1
                for e in range(indptr[v], indptr[v + 1]):
                    u = to[e]
                    if cap[twin[e]] > 0 and height[u] == infinity:
                        height[u] = dist
                        queue.append(u)
        for level in range(2 * n + 2):
            count_at_height[level] = 0
        for i in range(n):
            count_at_height[height[i]] += 1
            pointers[i] = indptr[i]
            in_queue[i] = False
        active.clear()
        for i in range(n):
            if excess[i] > 0 and i != s and i != t and height[i] < infinity:
                in_queue[i] = True
                push_queue(i)

    global_relabel()
    relabels_since_global = 0

    def relabel(node: int) -> None:
        old = height[node]
        smallest = 2 * n
        for e in range(indptr[node], indptr[node + 1]):
            if cap[e] > 0 and height[to[e]] < smallest:
                smallest = height[to[e]]
        height[node] = smallest + 1
        count_at_height[old] -= 1
        count_at_height[smallest + 1] += 1
        pointers[node] = indptr[node]
        # gap heuristic: a now-empty level below n disconnects everything
        # above it from the sink; lift those nodes past n in one step
        if count_at_height[old] == 0 and old < n:
            for other in range(n):
                if old < height[other] <= n and other != s:
                    count_at_height[height[other]] -= 1
                    height[other] = n + 1
                    count_at_height[n + 1] += 1

    while active:
        node = active.popleft()
        in_queue[node] = False
        limit = indptr[node + 1]
        node_excess = excess[node]
        while node_excess > 0:
            e = pointers[node]
            if e >= limit:
                excess[node] = node_excess
                relabel(node)
                relabels_since_global += 1
                if relabels_since_global >= n:
                    relabels_since_global = 0
                    global_relabel()
                    node_excess = 0  # re-queued (if still routable) above
                    break
                node_excess = excess[node]
                if height[node] > 2 * n:  # pragma: no cover - defensive
                    break
                continue
            head = to[e]
            residual = cap[e]
            if residual > 0 and height[node] == height[head] + 1:
                delta = node_excess if node_excess < residual else residual
                cap[e] = residual - delta
                cap[twin[e]] += delta
                node_excess -= delta
                excess[head] += delta
                if (
                    not in_queue[head]
                    and head != s
                    and head != t
                    and excess[head] > 0
                ):
                    in_queue[head] = True
                    push_queue(head)
            else:
                pointers[node] = e + 1
        else:
            excess[node] = node_excess
        if (  # pragma: no cover - defensive re-queue
            excess[node] > 0 and not in_queue[node] and node != s and node != t
        ):
            in_queue[node] = True
            push_queue(node)
    return excess[t]


# ---- repro/flow/parametric.py ---------------------------------------

#: outer-iteration cap; Dinkelbach over a finite density set converges in
#: far fewer steps, so hitting this means a witness stopped improving
_MAX_ROUNDS = 10_000


def _reverse_layout(
    n: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arc layout shared by the reversed network and its forward twin.

    Returns ``(pair_tail, pair_head, order, position, twin)`` for the
    *forward* pair list ``[s->v x n, v->t x n, edges x m]`` -- the exact
    pair order :func:`build_edge_density_network_csr` uses -- where
    ``order``/``position``/``twin`` describe the **reversed** network's
    stable-sorted arc layout (pair ``k``'s reversed forward arc lands at
    ``position[2 k]``).
    """
    source = n
    sink = n + 1
    locals_ = np.arange(n, dtype=np.int64)
    pair_tail = np.concatenate(
        [np.full(n, source, dtype=np.int64), locals_, edge_u]
    )
    pair_head = np.concatenate(
        [locals_, np.full(n, sink, dtype=np.int64), edge_v]
    )
    pairs = len(pair_tail)
    arc_tail = np.empty(2 * pairs, dtype=np.int64)
    # reversed orientation: the pair's forward arc runs head -> tail
    arc_tail[0::2] = pair_head
    arc_tail[1::2] = pair_tail
    order = np.argsort(arc_tail, kind="stable")
    position = np.empty(2 * pairs, dtype=np.int64)
    position[order] = np.arange(2 * pairs)
    twin = position[order ^ 1]
    return pair_tail, pair_head, order, position, twin


class ReverseChain:
    """One warm Dinkelbach chain over a component's reversed network.

    Drives phase-1 FIFO push-relabel with persistent heights across
    ``alpha`` increments; :meth:`finish` drains the parked excess and
    materialises the max-flowed forward network.
    """

    __slots__ = (
        "view", "n", "net", "num", "den", "_position", "_pair_tail",
        "_pair_head", "height", "excess", "count_at_height", "pointers",
        "in_queue", "active", "_src_arcs", "_heights_exact",
        "_np_topology",
    )

    def __init__(self, view: "SubWorldView", bound: Fraction) -> None:
        self.view = view
        n = view.n
        self.n = n
        alpha = Fraction(bound)
        self.num, self.den = alpha.numerator, alpha.denominator
        degrees = view.degrees().astype(np.int64)
        pair_tail, pair_head, order, position, twin = _reverse_layout(
            n, view.edge_lu.astype(np.int64), view.edge_lv.astype(np.int64)
        )
        m = view.m
        cap_forward = np.concatenate([
            self.den * degrees,
            np.full(n, 2 * self.num, dtype=np.int64),
            np.full(m, self.den, dtype=np.int64),
        ])
        cap_backward = np.concatenate([
            np.zeros(2 * n, dtype=np.int64),
            np.full(m, self.den, dtype=np.int64),
        ])
        arc_cap = np.empty(2 * len(pair_tail), dtype=np.int64)
        arc_cap[0::2] = cap_forward
        arc_cap[1::2] = cap_backward
        arc_head = np.empty(2 * len(pair_tail), dtype=np.int64)
        arc_head[0::2] = pair_tail  # reversed: forward arc ends at the tail
        arc_head[1::2] = pair_head
        indptr = np.zeros(n + 3, dtype=np.int64)
        arc_tail = np.empty(2 * len(pair_tail), dtype=np.int64)
        arc_tail[0::2] = pair_head
        arc_tail[1::2] = pair_tail
        indptr[1:] = np.cumsum(np.bincount(arc_tail, minlength=n + 2))
        # source' = t (= n + 1), sink' = s (= n)
        self.net = CSRFlowNetwork(
            n + 2, n + 1, n,
            arc_head[order].tolist(), arc_cap[order].tolist(),
            twin.tolist(), indptr.tolist(),
        )
        self._position = position
        self._pair_tail = pair_tail
        self._pair_head = pair_head
        nodes = self.net.num_nodes
        self.height = [0] * nodes
        self.excess: List[int] = [0] * nodes
        self.count_at_height = [0] * (2 * nodes + 2)
        self.pointers = [0] * nodes
        self.in_queue = [False] * nodes
        self.active: deque = deque()
        # saturate every source' arc (t -> v), remembering each arc: the
        # alpha increments re-touch exactly these
        net = self.net
        cap, twin_l, to, ind = net.cap, net.twin, net.to, net.indptr
        src = net.source
        self._src_arcs = [0] * n
        for e in range(ind[src], ind[src + 1]):
            head = to[e]
            self._src_arcs[head] = e
            delta = cap[e]
            if delta <= 0:
                continue
            cap[e] = 0
            cap[twin_l[e]] += delta
            self.excess[head] += delta
            self.excess[src] -= delta
        self._np_topology = None
        # analytic initial heights, exactly what the BFS of
        # :meth:`global_relabel` would compute on the fresh preflow:
        # every incident node owns a residual degree arc straight to the
        # sink' (v -> s, cap den * deg(v)), so its distance is 1;
        # isolated nodes are unreachable (infinity); sink' is 0 and
        # source' is pinned at ``nodes``.
        infinity = 2 * nodes
        sink = self.net.sink
        height = self.height
        height[:] = [infinity] * nodes
        height[sink] = 0
        height[src] = nodes
        deg_l = degrees.tolist()
        for v in range(n):
            if deg_l[v] > 0:
                height[v] = 1
        count_at_height = self.count_at_height
        for h in height:
            count_at_height[h] += 1
        self.pointers[:] = ind[:nodes]
        excess = self.excess
        in_queue = self.in_queue
        active = self.active
        for v in range(n):
            if excess[v] > 0 and height[v] < nodes:
                in_queue[v] = True
                active.append(v)
        self._heights_exact = True

    # ------------------------------------------------------------------
    # height maintenance
    # ------------------------------------------------------------------
    def global_relabel(self) -> None:
        """Exact residual BFS distances to the sink'; rebuild the queue."""
        net = self.net
        nodes = net.num_nodes
        s, t = net.source, net.sink
        to, cap, twin, indptr = net.to, net.cap, net.twin, net.indptr
        height = self.height
        infinity = 2 * nodes
        height[:] = [infinity] * nodes
        height[t] = 0
        height[s] = nodes
        queue = deque([t])
        while queue:
            v = queue.popleft()
            dist = height[v] + 1
            for e in range(indptr[v], indptr[v + 1]):
                u = to[e]
                if cap[twin[e]] > 0 and height[u] == infinity:
                    height[u] = dist
                    queue.append(u)
        count_at_height = self.count_at_height
        count_at_height[:] = [0] * (2 * nodes + 2)
        for h in height:
            count_at_height[h] += 1
        self.pointers[:] = indptr[:nodes]
        excess = self.excess
        in_queue = self.in_queue
        active = self.active
        active.clear()
        in_queue[:] = [False] * nodes
        for i in range(nodes):
            if excess[i] > 0 and i != s and i != t and height[i] < nodes:
                in_queue[i] = True
                active.append(i)
        self._heights_exact = True

    # ------------------------------------------------------------------
    # phase-1 discharge (resumable)
    # ------------------------------------------------------------------
    def run(self) -> int:
        """FIFO phase-1 discharge to quiescence; return the flow value.

        Heights, pointers and parked excess persist across calls, which
        is what makes the chain warm: an :meth:`increment` enqueues only
        the fresh excess and ``run`` picks up from the previous state.
        """
        net = self.net
        nodes = net.num_nodes
        s, t = net.source, net.sink
        to, cap, twin, indptr = net.to, net.cap, net.twin, net.indptr
        height = self.height
        excess = self.excess
        count_at_height = self.count_at_height
        pointers = self.pointers
        in_queue = self.in_queue
        active = self.active
        infinity = 2 * nodes
        relabels_since_global = 0
        pop = active.popleft
        push = active.append
        dirty = bool(active)
        while active:
            node = pop()
            in_queue[node] = False
            node_height = height[node]
            if node_height >= nodes:
                continue
            limit = indptr[node + 1]
            node_excess = excess[node]
            e = pointers[node]
            while node_excess > 0:
                if e >= limit:
                    # ---- relabel (inlined: the hot loop) ----
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
                    if count_at_height[old] == 0 and old < nodes:
                        # gap: everything between the empty level and the
                        # cut is disconnected from the sink'
                        for other in range(nodes):
                            oh = height[other]
                            if old < oh <= nodes and other != s:
                                count_at_height[oh] -= 1
                                height[other] = nodes + 1
                                count_at_height[nodes + 1] += 1
                        node_height = height[node]
                    relabels_since_global += 1
                    if relabels_since_global >= nodes:
                        relabels_since_global = 0
                        excess[node] = node_excess
                        self.global_relabel()
                        node_excess = 0
                        break
                    if node_height >= nodes:
                        excess[node] = node_excess
                        node_excess = 0
                        break
                    continue
                residual = cap[e]
                if residual > 0:
                    head = to[e]
                    if node_height == height[head] + 1:
                        delta = (
                            node_excess if node_excess < residual
                            else residual
                        )
                        cap[e] = residual - delta
                        cap[twin[e]] += delta
                        node_excess -= delta
                        excess[head] += delta
                        # non-terminal excess is never negative, so the
                        # freshly increased excess[head] is positive
                        if not in_queue[head] and head != s and head != t:
                            in_queue[head] = True
                            push(head)
                        continue
                e += 1
            else:
                excess[node] = node_excess
                pointers[node] = e
        if dirty:
            self._heights_exact = False
        return self.excess[t]

    # ------------------------------------------------------------------
    # parametric update
    # ------------------------------------------------------------------
    def witness(self) -> np.ndarray:
        """Graph nodes below the cut: the candidate improving node set."""
        # heights are bounded by 2 * nodes + 1: int64 is always safe
        heights = np.array(self.height[: self.n], dtype=np.int64)
        return heights < self.net.num_nodes

    def increment(self, num: int, den: int) -> None:
        """Raise ``alpha`` to ``num / den`` and re-arm the discharge.

        Rescales every residual capacity and excess to the common
        denominator, then saturates the per-node source'-arc increment
        ``2 (num Q - P den)`` as fresh excess -- the GGT parametric
        step.  Heights are untouched (see the module docstring for why
        that is sound).
        """
        net = self.net
        cap = net.cap
        twin = net.twin
        excess = self.excess
        height = self.height
        in_queue = self.in_queue
        active = self.active
        nodes = net.num_nodes
        src = net.source
        if den != 1:
            cap[:] = [c * den for c in cap]
            excess[:] = [x * den for x in excess]
        delta = 2 * (num * self.den - self.num * den)
        if delta <= 0:  # pragma: no cover - guarded by the improving witness
            raise AssertionError(
                f"alpha increment {num}/{den} does not improve "
                f"{self.num}/{self.den}"
            )
        excess[src] -= delta * self.n
        for v in range(self.n):
            e = self._src_arcs[v]
            cap[twin[e]] += delta
            excess[v] += delta
            if height[v] < nodes and excess[v] > 0 and not in_queue[v]:
                in_queue[v] = True
                active.append(v)
        self.num, self.den = num * self.den, self.den * den

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Phase 2: return parked excess to the source' (preflow -> flow).

        Mirrors :func:`repro.flow.push_relabel.csr_push_relabel`: heights
        become ``d(v, sink')``, or ``nodes + d(v, source')`` when the sink' is
        unreachable, and every excess node discharges until conservation
        holds -- after which the residual capacities describe a valid
        maximum flow.
        """
        net = self.net
        nodes = net.num_nodes
        s, t = net.source, net.sink
        to, cap, twin, indptr = net.to, net.cap, net.twin, net.indptr
        excess = self.excess
        height = self.height
        count_at_height = self.count_at_height
        pointers = self.pointers
        in_queue = self.in_queue
        active = self.active
        infinity = 2 * nodes

        def relabel_all() -> None:
            height[:] = [infinity] * nodes
            height[t] = 0
            height[s] = nodes
            for start in (t, s):
                queue = deque([start])
                while queue:
                    v = queue.popleft()
                    dist = height[v] + 1
                    for e in range(indptr[v], indptr[v + 1]):
                        u = to[e]
                        if cap[twin[e]] > 0 and height[u] == infinity:
                            height[u] = dist
                            queue.append(u)
            count_at_height[:] = [0] * (2 * nodes + 2)
            for h in height:
                count_at_height[h] += 1
            pointers[:] = indptr[:nodes]
            active.clear()
            in_queue[:] = [False] * nodes
            for i in range(nodes):
                if excess[i] > 0 and i != s and i != t \
                        and height[i] < infinity:
                    in_queue[i] = True
                    active.append(i)

        relabel_all()
        relabels_since_global = 0
        while active:
            node = active.popleft()
            in_queue[node] = False
            limit = indptr[node + 1]
            node_excess = excess[node]
            while node_excess > 0:
                e = pointers[node]
                if e >= limit:
                    old = height[node]
                    smallest = infinity
                    for a in range(indptr[node], limit):
                        if cap[a] > 0 and height[to[a]] < smallest:
                            smallest = height[to[a]]
                    height[node] = smallest + 1
                    count_at_height[old] -= 1
                    count_at_height[smallest + 1] += 1
                    pointers[node] = indptr[node]
                    relabels_since_global += 1
                    if relabels_since_global >= nodes:
                        relabels_since_global = 0
                        excess[node] = node_excess
                        relabel_all()
                        node_excess = 0
                        break
                    if height[node] > 2 * nodes:  # pragma: no cover
                        break
                    continue
                head = to[e]
                residual = cap[e]
                if residual > 0 and height[node] == height[head] + 1:
                    delta = node_excess if node_excess < residual \
                        else residual
                    cap[e] = residual - delta
                    cap[twin[e]] += delta
                    node_excess -= delta
                    excess[head] += delta
                    if (
                        not in_queue[head]
                        and head != s
                        and head != t
                        and excess[head] > 0
                    ):
                        in_queue[head] = True
                        active.append(head)
                else:
                    pointers[node] = e + 1
            else:
                excess[node] = node_excess
        self._heights_exact = False

    def forward_network(self) -> CSRFlowNetwork:
        """Materialise the max-flowed *forward* Goldberg network.

        Pair ``k``'s forward residual in ``N`` equals its reversed
        forward residual in ``N'`` (and likewise the backward arcs), so
        the caps transfer index-by-index; the arc layout is rebuilt with
        the exact stable-sort :func:`build_edge_density_network_csr`
        uses, making the result indistinguishable from a cold max-flowed
        forward network (up to the residual flow's non-canonical
        interior, which no flow-invariant query observes).
        """
        n = self.n
        pair_tail, pair_head = self._pair_tail, self._pair_head
        rev_position = self._position
        rev_cap = self.net.cap
        pairs = len(pair_tail)
        arc_tail = np.empty(2 * pairs, dtype=np.int64)
        arc_head = np.empty(2 * pairs, dtype=np.int64)
        arc_tail[0::2] = pair_tail
        arc_tail[1::2] = pair_head
        arc_head[0::2] = pair_head
        arc_head[1::2] = pair_tail
        order = np.argsort(arc_tail, kind="stable")
        position = np.empty(2 * pairs, dtype=np.int64)
        position[order] = np.arange(2 * pairs)
        twin = position[order ^ 1]
        indptr = np.zeros(n + 3, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(arc_tail, minlength=n + 2))
        # permute on plain lists: numpy scalar indexing per arc is the
        # dominant cost here, and the caps may exceed int64 anyway
        position_l = position.tolist()
        rev_position_l = rev_position.tolist()
        caps = [0] * (2 * pairs)
        for k in range(2 * pairs):
            caps[position_l[k]] = rev_cap[rev_position_l[k]]
        return CSRFlowNetwork(
            n + 2, n, n + 1,
            arc_head[order].tolist(), caps, twin.tolist(), indptr.tolist(),
        )


def parametric_dinkelbach(
    view: "SubWorldView", bound: Fraction
) -> Tuple[Fraction, CSRFlowNetwork, "SubWorldView"]:
    """Exact ``rho*`` of a connected component via one warm chain.

    Same contract as the cold-restart Dinkelbach loop (``bound`` is a
    positive achieved density ``<= rho*``; returns ``(rho*, max-flowed
    forward network, possibly re-shrunk view)``), same results (residual
    queries are flow-invariant), one warm push-relabel chain instead of
    one cold flow per iteration.
    """
    chain = ReverseChain(view, bound)
    value = chain.run()
    rounds = 0
    while value < 2 * view.m * chain.den:
        rounds += 1
        if rounds > _MAX_ROUNDS:  # pragma: no cover - defensive
            raise AssertionError("parametric Dinkelbach failed to converge")
        member = chain.witness()
        size = int(member.sum())
        num = view.induced_edges(member) if size else 0
        if size == 0 or num * chain.den <= chain.num * size:
            if chain._heights_exact:  # pragma: no cover - defensive
                raise AssertionError(
                    "exact min-cut witness failed to improve alpha"
                )
            # stale heights produced a non-improving set: make them
            # exact, after which {h < n} is a true min-cut side and
            # must improve (value below target means alpha < rho*)
            chain.global_relabel()
            continue
        chain.increment(num, size)
        value = chain.run()
    alpha = Fraction(chain.num, chain.den)
    ceil_density = -(-alpha.numerator // alpha.denominator)
    shrunken = view.k_core(ceil_density)
    if shrunken.m == 0:  # pragma: no cover - see prepare_from_bound
        shrunken = view
    if shrunken.n != view.n:
        # tighter core at the exact density: mirror the classic path and
        # solve the (much smaller) network cold
        view = shrunken
        network = build_edge_density_network_csr(
            view.n, view.edge_lu, view.edge_lv, view.degrees(), alpha
        )
        value = csr_push_relabel(network)
        expected = 2 * view.m * alpha.denominator
        if value != expected:  # pragma: no cover - guarded by exact rho*
            raise AssertionError(
                f"max flow {value} != 2 m q = {expected}; rho* not exact?"
            )
        return alpha, network, view
    chain.drain()
    return alpha, chain.forward_network(), view
