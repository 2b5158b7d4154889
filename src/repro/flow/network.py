"""Flow networks with exact capacities and full residual access.

The densest-subgraph machinery (Goldberg's algorithm [1], the all-densest
enumeration of Chang & Qiao [46], and the paper's Algorithms 2/4) needs more
than a max-flow *value*: it inspects the residual graph under a maximum flow
(saturated arcs, reachability, strongly connected components).  This module
therefore stores arcs explicitly and exposes the residual structure.

Capacities may be ``int`` or ``fractions.Fraction`` -- the algorithms only
use comparison, addition and subtraction, so exact rational arithmetic works
throughout.  Exactness matters: "zero residual capacity" must be decided
exactly for the SCC enumeration to be correct (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Union

Capacity = Union[int, "Fraction"]  # noqa: F821 - Fraction accepted duck-typed
NetNode = Hashable


class Arc:
    """A directed arc with a capacity, current flow, and its reverse twin."""

    __slots__ = ("tail", "head", "capacity", "flow", "reverse")

    def __init__(self, tail: int, head: int, capacity: Capacity) -> None:
        self.tail = tail
        self.head = head
        self.capacity = capacity
        self.flow: Capacity = 0
        self.reverse: "Arc" = None  # type: ignore[assignment]

    def residual(self) -> Capacity:
        """Return the residual capacity ``capacity - flow``."""
        return self.capacity - self.flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Arc({self.tail}->{self.head}, cap={self.capacity}, flow={self.flow})"


class FlowNetwork:
    """A directed flow network over arbitrary hashable node labels.

    ``add_arc(u, v, cap)`` creates the arc and its zero-capacity residual
    twin.  ``add_arc_pair`` creates two opposite arcs with independent
    capacities (the paper's constructions, e.g. Algorithm 6 lines 3-4, list
    both directions explicitly; a reverse capacity of 0 is exactly the
    residual twin).
    """

    def __init__(self) -> None:
        self._index: Dict[NetNode, int] = {}
        self._labels: List[NetNode] = []
        self._adjacency: List[List[Arc]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: NetNode) -> int:
        """Register ``label`` (idempotent); return its internal index."""
        if label in self._index:
            return self._index[label]
        index = len(self._labels)
        self._index[label] = index
        self._labels.append(label)
        self._adjacency.append([])
        return index

    def add_arc(self, tail: NetNode, head: NetNode, capacity: Capacity) -> Arc:
        """Add a directed arc ``tail -> head`` (reverse twin capacity 0)."""
        return self.add_arc_pair(tail, head, capacity, 0)

    def add_arc_pair(
        self,
        tail: NetNode,
        head: NetNode,
        capacity: Capacity,
        reverse_capacity: Capacity,
    ) -> Arc:
        """Add opposite arcs ``tail -> head`` / ``head -> tail``.

        Returns the forward arc; its ``reverse`` attribute is the other one.
        """
        if capacity < 0 or reverse_capacity < 0:
            raise ValueError("capacities must be non-negative")
        t = self.add_node(tail)
        h = self.add_node(head)
        forward = Arc(t, h, capacity)
        backward = Arc(h, t, reverse_capacity)
        forward.reverse = backward
        backward.reverse = forward
        self._adjacency[t].append(forward)
        self._adjacency[h].append(backward)
        return forward

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, label: NetNode) -> bool:
        return label in self._index

    def number_of_nodes(self) -> int:
        """Return the number of registered nodes."""
        return len(self._labels)

    def index_of(self, label: NetNode) -> int:
        """Return the internal index of ``label``."""
        return self._index[label]

    def label_of(self, index: int) -> NetNode:
        """Return the label at internal ``index``."""
        return self._labels[index]

    def labels(self) -> List[NetNode]:
        """Return all node labels in index order."""
        return list(self._labels)

    def arcs_from(self, index: int) -> List[Arc]:
        """Return the (mutable) arc list out of internal node ``index``."""
        return self._adjacency[index]

    def arcs(self) -> Iterator[Arc]:
        """Iterate over every arc (forward and residual twins)."""
        for arc_list in self._adjacency:
            yield from arc_list

    def reset_flow(self) -> None:
        """Zero out all flows."""
        for arc in self.arcs():
            arc.flow = 0

    # ------------------------------------------------------------------
    # residual structure (valid after a max-flow computation)
    # ------------------------------------------------------------------
    def residual_successors(self, index: int) -> Iterator[int]:
        """Yield nodes reachable by one positive-residual arc from ``index``."""
        for arc in self._adjacency[index]:
            if arc.residual() > 0:
                yield arc.head

    def residual_reachable_from(self, source: NetNode) -> List[NetNode]:
        """Return labels reachable from ``source`` in the residual graph."""
        start = self._index[source]
        seen = [False] * len(self._labels)
        seen[start] = True
        stack = [start]
        while stack:
            node = stack.pop()
            for arc in self._adjacency[node]:
                if arc.residual() > 0 and not seen[arc.head]:
                    seen[arc.head] = True
                    stack.append(arc.head)
        return [self._labels[i] for i, flag in enumerate(seen) if flag]

    def residual_coreachable_to(self, sink: NetNode) -> List[NetNode]:
        """Return labels that can reach ``sink`` in the residual graph.

        Uses the reverse residual relation: ``u`` can reach ``v`` through an
        arc iff that arc has positive residual; we walk arcs backwards via
        the stored twins.
        """
        target = self._index[sink]
        seen = [False] * len(self._labels)
        seen[target] = True
        stack = [target]
        while stack:
            node = stack.pop()
            # arc.reverse runs node -> arc.head's tail? walk incoming arcs:
            # incoming arcs of `node` are exactly the reverses of arcs in
            # adjacency[node]; arc t->node has positive residual iff
            # arc.reverse (stored at node) has residual() > 0 on its twin.
            for arc in self._adjacency[node]:
                twin = arc.reverse
                if twin.residual() > 0 and not seen[twin.tail]:
                    seen[twin.tail] = True
                    stack.append(twin.tail)
        return [self._labels[i] for i, flag in enumerate(seen) if flag]
