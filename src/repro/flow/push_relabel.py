"""FIFO push-relabel maximum flow over flat CSR networks.

:func:`csr_push_relabel` is the classic Goldberg-Tarjan FIFO
push-relabel algorithm over the flat-array
:class:`~repro.flow.csr.CSRFlowNetwork`: arcs are plain list entries
instead of Python objects.  The vectorised engine's warm parametric
chain (:func:`repro.flow.parametric.parametric_dinkelbach`) calls it to
solve a component cold when the exact density re-shrinks the component
to a tighter core.  Its tests pin it against the object Dinic
:func:`repro.flow.maxflow.max_flow`.

It runs on exact ``int`` capacities and leaves the network carrying a
valid maximum flow, so all residual-graph queries (min-cut sides, SCC
condensation) work afterwards -- and return flow-invariant answers,
whichever solver ran.

Implementation notes: FIFO active-node queue, per-node current-arc
pointers, the gap heuristic (when a height level empties, every node
above it is lifted past ``n``), which matters on the star-shaped networks
Goldberg's construction produces, and periodic global relabeling.
"""

from __future__ import annotations

from collections import deque

from .csr import CSRFlowNetwork


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
