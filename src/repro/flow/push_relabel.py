"""FIFO push-relabel maximum flow over flat CSR networks.

:class:`Preflow` is the one Goldberg-Tarjan FIFO push-relabel core over
the flat-array :class:`~repro.flow.csr.CSRFlowNetwork`: arcs are plain
list entries instead of Python objects.  Its :meth:`Preflow.discharge`
is the flow layer's only push-relabel loop, run in one of two phases:
phase 1 parks nodes cut off from the sink and leaves a maximum preflow;
phase 2 returns every excess to conservation and leaves a maximum flow.
:func:`csr_push_relabel` saturates the source and runs phase 2.  The
vectorised engine's warm parametric chain
(:class:`repro.flow.parametric.ReverseChain`) subclasses
:class:`Preflow`: it resumes phase 1 after every ``alpha`` increment,
drains its parked excess with phase 2 and relabels through the same
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

    def discharge(self, phase1: bool = False) -> int:
        """Discharge the FIFO queue to quiescence; return the flow value.

        The one push-relabel loop of the flow layer: current-arc
        pointers, the gap heuristic and a global relabel after every
        ``nodes`` relabels -- which is what keeps the excess-return
        phase from climbing heights one relabel at a time on Goldberg's
        star-shaped networks.  It runs in two phases:

        * phase 2 (the default) starts from exact two-terminal distances
          and discharges every excess node to conservation, so the
          network ends up carrying a maximum flow;
        * ``phase1=True`` resumes from the current heights and queue (no
          initial relabel), relabels from the sink alone, and *parks* a
          node once its height reaches ``nodes``: its excess stays and it
          leaves the queue, so the result is a maximum preflow.  This is
          the warm step of :class:`repro.flow.parametric.ReverseChain`.

        A parked node keeps its stale current-arc pointer; phase 2 parks
        only past ``2 * nodes`` (no residual path to either terminal),
        which a maximum preflow never produces.
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
        if phase1:
            starts = (t,)
            park = nodes
        else:
            starts = (t, s)
            park = infinity + 1
            self.relabel_to_distances(starts)
        relabels_since_global = 0
        pop = active.popleft
        push = active.append
        while active:
            node = pop()
            in_queue[node] = False
            node_height = height[node]
            if node_height >= park:
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
                        # gap: a now-empty level below n disconnects
                        # everything above it from the sink; lift those
                        # nodes past n in one step
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
                        self.relabel_to_distances(starts)
                        node_excess = 0  # re-queued (if still routable)
                        break
                    if node_height >= park:
                        excess[node] = node_excess
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
            if (  # pragma: no cover - defensive re-queue
                not phase1 and excess[node] > 0 and not in_queue[node]
            ):
                in_queue[node] = True
                push(node)
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
