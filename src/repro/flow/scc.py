"""Strongly connected components of directed graphs (iterative Tarjan).

Used to condense the residual graph of a maximum flow into its SCC DAG
(line 7 of Algorithms 2 and 4; the [46] enumeration for edge density).

Object flow networks are condensed over their node indices too
(:func:`repro.dense.component_enum.build_component_structure`).  The
implementation is iterative so deep residual graphs do not hit Python's
recursion limit.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List

Vertex = Hashable


def strongly_connected_components_indexed(
    num_nodes: int,
    vertices: Iterable[int],
    successors: Callable[[int], Iterable[int]],
) -> List[List[int]]:
    """Return the SCCs of the graph given by ``vertices`` and ``successors``.

    Vertices are integers in ``[0, num_nodes)``, so the Tarjan
    bookkeeping lives in flat lists.  Components are returned in reverse
    topological order of the condensation (every edge of the SCC DAG goes
    from a later component to an earlier one in the returned list), which
    is the order Tarjan's algorithm emits.
    """
    UNSEEN = -1
    index_counter = 0
    indices = [UNSEEN] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: List[int] = []
    components: List[List[int]] = []

    for root in vertices:
        if indices[root] != UNSEEN:
            continue
        work = [(root, iter(successors(root)))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            vertex, successor_iter = work[-1]
            advanced = False
            for child in successor_iter:
                if indices[child] == UNSEEN:
                    indices[child] = lowlink[child] = index_counter
                    index_counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if on_stack[child]:
                    if indices[child] < lowlink[vertex]:
                        lowlink[vertex] = indices[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
            if lowlink[vertex] == indices[vertex]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
    return components


def condensation_successors(
    components: List[List[Vertex]],
    successors: Callable[[Vertex], Iterable[Vertex]],
) -> List[List[int]]:
    """Return adjacency lists of the SCC DAG (component index -> indices).

    Component indices refer to positions in ``components``.  Parallel edges
    are deduplicated; self-loops (intra-component edges) are dropped.
    """
    component_of: Dict[Vertex, int] = {}
    for i, component in enumerate(components):
        for vertex in component:
            component_of[vertex] = i
    dag: List[List[int]] = [[] for _ in components]
    seen_pairs = set()
    for i, component in enumerate(components):
        for vertex in component:
            for child in successors(vertex):
                j = component_of[child]
                if j != i and (i, j) not in seen_pairs:
                    seen_pairs.add((i, j))
                    dag[i].append(j)
    return dag
