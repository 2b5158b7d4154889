"""Dinic's maximum-flow algorithm over object flow networks.

Dinic's algorithm repeatedly builds a BFS level graph and saturates a
blocking flow with iterative DFS.  It terminates for arbitrary non-negative
rational capacities (the level structure strictly grows), which is what the
exact-density constructions need.

:func:`max_flow` runs on the object :class:`~repro.flow.network.FlowNetwork`.
The python engine and custom measures solve on it, and it is the reference
the flat-array push-relabel core (:class:`repro.flow.push_relabel.Preflow`,
behind :func:`~repro.flow.push_relabel.csr_push_relabel` and the warm
chain's drain) is tested against.  Max-flow values are unique and min-cut
sides / residual SCCs are flow-invariant, so either solver serves every
downstream query.

Complexity is ``O(V^2 E)`` in general and much better on the unit-ish
networks that arise here; the graphs in this reproduction are laptop-scale.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from .network import Arc, Capacity, FlowNetwork, NetNode


def max_flow(network: FlowNetwork, source: NetNode, sink: NetNode) -> Capacity:
    """Push a maximum flow from ``source`` to ``sink``; return its value.

    The network's arcs are mutated in place (their ``flow`` attributes),
    leaving the residual graph available for inspection.  Call
    ``network.reset_flow()`` first to recompute from scratch.
    """
    s = network.index_of(source)
    t = network.index_of(sink)
    if s == t:
        raise ValueError("source and sink must differ")
    n = network.number_of_nodes()
    total: Capacity = 0
    while True:
        level = _bfs_levels(network, s, t, n)
        if level[t] < 0:
            return total
        # iterative DFS blocking flow with per-node arc pointers
        pointers = [0] * n
        while True:
            pushed = _dfs_push(network, s, t, level, pointers)
            if pushed is None:
                break
            total = total + pushed


def _bfs_levels(network: FlowNetwork, s: int, t: int, n: int) -> List[int]:
    level = [-1] * n
    level[s] = 0
    queue = deque([s])
    while queue:
        node = queue.popleft()
        for arc in network.arcs_from(node):
            if arc.residual() > 0 and level[arc.head] < 0:
                level[arc.head] = level[node] + 1
                queue.append(arc.head)
    return level


def _dfs_push(
    network: FlowNetwork,
    s: int,
    t: int,
    level: List[int],
    pointers: List[int],
) -> Optional[Capacity]:
    """Find one augmenting path in the level graph; push its bottleneck.

    Returns the pushed amount, or ``None`` when the level graph admits no
    further augmenting path (blocking flow reached).
    """
    path: List[Arc] = []
    node = s
    while True:
        if node == t:
            bottleneck = min(arc.residual() for arc in path)
            for arc in path:
                arc.flow = arc.flow + bottleneck
                arc.reverse.flow = arc.reverse.flow - bottleneck
            return bottleneck
        arcs = network.arcs_from(node)
        advanced = False
        while pointers[node] < len(arcs):
            arc = arcs[pointers[node]]
            if arc.residual() > 0 and level[arc.head] == level[node] + 1:
                path.append(arc)
                node = arc.head
                advanced = True
                break
            pointers[node] += 1
        if advanced:
            continue
        # dead end: retreat
        level[node] = -1
        if not path:
            return None
        dead = path.pop()
        node = dead.tail
        pointers[node] += 1


def min_cut_source_side(
    network: FlowNetwork, source: NetNode
) -> List[NetNode]:
    """Return the *minimal* min-cut source side after a max-flow run.

    These are the labels reachable from ``source`` in the residual graph.
    """
    return network.residual_reachable_from(source)


def min_cut_maximal_source_side(
    network: FlowNetwork, sink: NetNode
) -> List[NetNode]:
    """Return the *maximal* min-cut source side after a max-flow run.

    By min-cut structure theory the maximal source side is the complement of
    the set of nodes that can still reach the sink in the residual graph.
    The paper uses this to extract the maximum-sized densest subgraph
    (Algorithm 5 line 4; see also [59]).
    """
    coreachable = set(network.residual_coreachable_to(sink))
    return [label for label in network.labels() if label not in coreachable]
