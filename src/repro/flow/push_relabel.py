"""FIFO push-relabel maximum flow over flat CSR networks.

:class:`Preflow` is the one Goldberg-Tarjan FIFO push-relabel core over
the flat-array :class:`~repro.flow.csr.CSRFlowNetwork`: arcs are plain
list entries instead of Python objects.  :func:`csr_push_relabel`
saturates the source and discharges; the vectorised engine's warm
parametric chain (:class:`repro.flow.parametric.ReverseChain`)
subclasses :class:`Preflow`, drains its parked excess through the same
:meth:`Preflow.discharge` and relabels through the same
:meth:`Preflow.relabel_to_distances`.  The chain calls
:func:`csr_push_relabel` to solve a component cold when the exact
density re-shrinks the component to a tighter core.  Its tests pin it
against the object Dinic :func:`repro.flow.maxflow.max_flow`.

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
from typing import Iterable, List

from .csr import CSRFlowNetwork


class Preflow:
    """Push-relabel state over a :class:`CSRFlowNetwork`.

    ``excess`` and ``height`` are per node, ``count_at_height`` counts
    the nodes at each height (for the gap heuristic), ``pointers`` holds
    each node's current arc and ``active`` is the FIFO queue of nodes
    with excess (``in_queue`` flags its members).  The methods mutate
    ``net.cap`` in place, so it always holds residual capacities.
    """

    __slots__ = (
        "net", "excess", "height", "count_at_height", "pointers",
        "in_queue", "active",
    )

    def __init__(self, net: CSRFlowNetwork) -> None:
        if net.source == net.sink:
            raise ValueError("source and sink must differ")
        nodes = net.num_nodes
        self.net = net
        self.excess: List[int] = [0] * nodes
        self.height = [0] * nodes
        self.count_at_height = [0] * (2 * nodes + 2)
        self.pointers = [0] * nodes
        self.in_queue = [False] * nodes
        self.active: deque = deque()

    def saturate_source(self) -> None:
        """Push every source arc's full capacity into its head's excess."""
        net = self.net
        s = net.source
        to, cap, twin = net.to, net.cap, net.twin
        excess = self.excess
        for e in range(net.indptr[s], net.indptr[s + 1]):
            delta = cap[e]
            if delta <= 0:
                continue
            cap[e] = 0
            cap[twin[e]] += delta
            excess[to[e]] += delta
            excess[s] -= delta

    def relabel_to_distances(self, starts: Iterable[int]) -> None:
        """Set heights to exact residual BFS distances; rebuild the queue.

        The sink sits at 0 and the source at ``nodes``; a backward
        residual BFS from each of ``starts`` in turn gives every node it
        reaches first its distance plus the start's height (``d(v, t)``,
        then ``nodes + d(v, s)`` when ``starts`` is ``(sink, source)``).
        Unreached nodes stay at ``2 nodes`` and leave the queue.
        """
        net = self.net
        nodes = net.num_nodes
        s, t = net.source, net.sink
        to, cap, twin, indptr = net.to, net.cap, net.twin, net.indptr
        height = self.height
        excess = self.excess
        in_queue = self.in_queue
        active = self.active
        infinity = 2 * nodes
        height[:] = [infinity] * nodes
        height[t] = 0
        height[s] = nodes
        # residual arcs u -> v are the twins of the stored v -> u
        for start in starts:
            queue = deque([start])
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
        active.clear()
        in_queue[:] = [False] * nodes
        for i in range(nodes):
            if excess[i] > 0 and i != s and i != t and height[i] < infinity:
                in_queue[i] = True
                active.append(i)

    def discharge(self) -> int:
        """Discharge every excess node to conservation; return the flow value.

        Starts from exact two-terminal distances, then runs the FIFO loop
        with current-arc pointers, the gap heuristic and a global
        relabel after every ``nodes`` relabels -- which is what keeps the
        excess-return phase from climbing heights one relabel at a time
        on Goldberg's star-shaped networks.
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
        self.relabel_to_distances((t, s))
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
                    # gap heuristic: a now-empty level below n disconnects
                    # everything above it from the sink; lift those nodes
                    # past n in one step
                    if count_at_height[old] == 0 and old < nodes:
                        for other in range(nodes):
                            if old < height[other] <= nodes and other != s:
                                count_at_height[height[other]] -= 1
                                height[other] = nodes + 1
                                count_at_height[nodes + 1] += 1
                    relabels_since_global += 1
                    if relabels_since_global >= nodes:
                        relabels_since_global = 0
                        excess[node] = node_excess
                        self.relabel_to_distances((t, s))
                        node_excess = 0  # re-queued (if still routable)
                        break
                    if height[node] > infinity:  # pragma: no cover
                        excess[node] = node_excess
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
            if (  # pragma: no cover - defensive re-queue
                excess[node] > 0 and not in_queue[node]
                and node != s and node != t
            ):
                in_queue[node] = True
                active.append(node)
        return excess[t]


def csr_push_relabel(network: CSRFlowNetwork) -> int:
    """Push a maximum flow through a :class:`CSRFlowNetwork`; return its value.

    Mutates ``network.cap`` in place (it holds residual capacities), so
    the residual queries on the network are valid afterwards: saturate
    every source arc, then :meth:`Preflow.discharge`.
    """
    preflow = Preflow(network)
    preflow.saturate_source()
    return preflow.discharge()
