"""Integer-indexed array view of an :class:`UncertainGraph`.

The pure-Python estimators re-walk the label-keyed adjacency structure for
every sampled world.  :class:`IndexedGraph` extracts, once per uncertain
graph, the only things the hot loops need:

* ``nodes`` -- the node labels in insertion order, so index ``i`` stands
  for ``nodes[i]`` everywhere downstream;
* ``edge_u`` / ``edge_v`` -- the endpoints of edge ``j`` as int arrays, in
  ``weighted_edges()`` order (the order the Monte Carlo sampler flips
  edges in, which keeps seeded streams aligned);
* ``probs`` -- the edge existence probabilities as a float array.

A *possible world* is then just a boolean mask over the edge axis, and
:meth:`IndexedGraph.csr` adds a reusable CSR adjacency (``indptr`` /
``indices`` + owning edge ids) computed once per uncertain graph, so any
world's or subworld's adjacency is an alive-mask slice of shared arrays.
:class:`SubWorldView` packages such a slice as compact local index
arrays -- the representation the array-native densest-subgraph layer
(:mod:`repro.dense`, :mod:`repro.flow.csr`) consumes directly, replacing
``to_graph()`` for internal callers.

For the oracle path, the :meth:`world_graph` adapter converts a mask
back into a :class:`Graph` with exactly the same node/edge insertion
sequence the pure-Python sampler would have produced, so every
downstream measure and solver works unchanged on either representation.
"""

from __future__ import annotations

import pickle
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph, Node
from ..graph.uncertain import UncertainGraph


class IndexedGraph:
    """Array-of-edges view of an uncertain graph (see module docstring)."""

    __slots__ = ("nodes", "node_index", "edge_u", "edge_v", "probs", "_csr",
                 "edge_ids")

    def __init__(
        self,
        nodes: List[Node],
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        self.nodes = nodes
        self.node_index: Dict[Node, int] = {
            node: i for i, node in enumerate(nodes)
        }
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.probs = probs
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: canonical edge labels -> edge id, filled by :mod:`repro.delta`
        self.edge_ids: Optional[dict] = None

    @classmethod
    def from_uncertain(cls, graph: UncertainGraph) -> "IndexedGraph":
        """Extract index arrays from ``graph`` (once; O(n + m))."""
        nodes = graph.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        us: List[int] = []
        vs: List[int] = []
        ps: List[float] = []
        for u, v, p in graph.weighted_edges():
            us.append(index[u])
            vs.append(index[v])
            ps.append(p)
        return cls(
            nodes,
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ps, dtype=np.float64),
        )

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of uncertain edges."""
        return len(self.edge_u)

    # ------------------------------------------------------------------
    # CSR view
    # ------------------------------------------------------------------
    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the cached ``(indptr, adj_nodes, adj_edges)`` CSR view.

        Both directions of every uncertain edge are stored: the incidence
        slice of node ``i`` is ``indptr[i]:indptr[i + 1]``, listing the
        neighbour in ``adj_nodes`` and the owning edge index in
        ``adj_edges``.  A possible world (or any subworld) is an edge
        mask, so its adjacency is the same slice filtered by
        ``edge_alive[adj_edges]`` -- no per-world structure is built.
        Computed once per uncertain graph (O(m log m)).
        """
        if self._csr is None:
            m = self.m
            tails = np.concatenate([self.edge_u, self.edge_v])
            heads = np.concatenate([self.edge_v, self.edge_u])
            owners = np.concatenate([np.arange(m), np.arange(m)])
            order = np.argsort(tails, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(np.bincount(tails, minlength=self.n))
            self._csr = (indptr, heads[order], owners[order])
        return self._csr

    # ------------------------------------------------------------------
    # shared-memory views
    # ------------------------------------------------------------------
    def shared_payload(self) -> Dict[str, np.ndarray]:
        """Return the arrays a worker process needs to rebuild this graph.

        Everything heavy as flat arrays -- endpoints, probabilities and
        the *already computed* CSR adjacency, so attaching processes
        never redo the :meth:`csr` sort -- plus the node labels as one
        pickled ``uint8`` blob (labels are arbitrary hashables; they are
        the only non-array state).  Feed the dict to
        :func:`repro.engine.shm.pack_arrays` and rebuild on the other
        side with :meth:`from_shared_payload`.
        """
        indptr, adj_nodes, adj_edges = self.csr()
        labels = np.frombuffer(
            pickle.dumps(self.nodes, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        )
        return {
            "edge_u": self.edge_u,
            "edge_v": self.edge_v,
            "probs": self.probs,
            "csr_indptr": indptr,
            "csr_nodes": adj_nodes,
            "csr_edges": adj_edges,
            "labels": labels,
        }

    @classmethod
    def from_shared_payload(
        cls, arrays: Dict[str, np.ndarray]
    ) -> "IndexedGraph":
        """Rebuild an :class:`IndexedGraph` over attached payload arrays.

        Zero-copy: the endpoint / probability / CSR arrays of the
        returned graph *are* the attached views (keep the segment mapped
        while the graph is in use); only the label list and the
        label -> index dict are reconstructed per process.
        """
        nodes = pickle.loads(arrays["labels"].tobytes())
        out = cls(nodes, arrays["edge_u"], arrays["edge_v"], arrays["probs"])
        out._csr = (
            arrays["csr_indptr"],
            arrays["csr_nodes"],
            arrays["csr_edges"],
        )
        return out

    # ------------------------------------------------------------------
    # mask -> Graph adapters
    # ------------------------------------------------------------------
    def world_graph(
        self, edge_mask: np.ndarray, order: Optional[np.ndarray] = None
    ) -> Graph:
        """Materialise the possible world selected by ``edge_mask``.

        Replays the exact insertion sequence of
        :meth:`UncertainGraph.sample_world` / ``MonteCarloSampler`` (all
        nodes first, then the present edges in index order), so the
        resulting :class:`Graph` is indistinguishable from a sampled one.

        ``order``, when given, overrides the edge insertion sequence: it
        must list exactly the present edge indices, in the order the
        originating pure-Python sampler would have inserted them.  LP
        inserts edges in schedule order and RSS fixed-present-then-free,
        so replaying their order keeps even the adjacency-set internals
        (and hence any iteration-order-sensitive downstream tie-breaking)
        identical across engines.
        """
        world = Graph()
        nodes = self.nodes
        for node in nodes:
            world.add_node(node)
        if order is None:
            order = np.flatnonzero(edge_mask)
        for j in order:
            world.add_edge(nodes[self.edge_u[j]], nodes[self.edge_v[j]])
        return world

    def subworld_graph(
        self, edge_mask: np.ndarray, node_alive: np.ndarray
    ) -> Graph:
        """Materialise the subgraph of a world induced by ``node_alive``.

        Only alive nodes are added (no isolated periphery), in index
        order; edges must have both endpoints alive to survive.  Used to
        hand the vectorised engine's shrunken world cores to the exact
        flow machinery.
        """
        world = Graph()
        nodes = self.nodes
        for i in np.flatnonzero(node_alive):
            world.add_node(nodes[i])
        keep = edge_mask & node_alive[self.edge_u] & node_alive[self.edge_v]
        for j in np.flatnonzero(keep):
            world.add_edge(nodes[self.edge_u[j]], nodes[self.edge_v[j]])
        return world

    def node_set(self, node_alive: np.ndarray) -> FrozenSet[Node]:
        """Translate a boolean node mask back to a label frozenset."""
        return frozenset(self.nodes[i] for i in np.flatnonzero(node_alive))

    def to_uncertain(self) -> UncertainGraph:
        """Rebuild the uncertain graph (round-trips nodes, edges, probs)."""
        graph = UncertainGraph()
        for node in self.nodes:
            graph.add_node(node)
        for j in range(self.m):
            graph.add_edge(
                self.nodes[self.edge_u[j]],
                self.nodes[self.edge_v[j]],
                float(self.probs[j]),
            )
        return graph

    def __repr__(self) -> str:
        return f"IndexedGraph(n={self.n}, m={self.m})"


class MaskWorld:
    """A possible world as (indexed graph, boolean edge mask).

    Lightweight stand-in for a :class:`Graph` inside the vectorised
    estimator loop; :meth:`to_graph` materialises it on demand for
    measures that need the object form.  ``order`` optionally records the
    pure-Python sampler's edge insertion sequence (see
    :meth:`IndexedGraph.world_graph`) so the materialised graph is
    indistinguishable from the one that sampler would have built.

    ``prepped`` optionally carries the batched pre-pass results for this
    world (peel bound and core masks computed across a whole chunk of
    worlds at once by :func:`repro.engine.estimators.primed_world_stream`);
    ``None`` means the estimator computes them per world as before.
    """

    __slots__ = ("indexed", "mask", "order", "prepped", "_graph")

    def __init__(
        self,
        indexed: IndexedGraph,
        mask: np.ndarray,
        order: Optional[np.ndarray] = None,
    ) -> None:
        self.indexed = indexed
        self.mask = mask
        self.order = order
        self.prepped = None
        self._graph: Optional[Graph] = None

    def to_graph(self) -> Graph:
        """Materialise (and cache) the full world graph."""
        if self._graph is None:
            self._graph = self.indexed.world_graph(self.mask, self.order)
        return self._graph

    def view(self) -> "SubWorldView":
        """Array view of the whole world (all nodes alive)."""
        return SubWorldView(
            self.indexed,
            self.mask,
            np.ones(self.indexed.n, dtype=bool),
        )

    def __repr__(self) -> str:
        return (
            f"MaskWorld(n={self.indexed.n}, "
            f"edges={int(self.mask.sum())}/{self.indexed.m})"
        )


class SubWorldView:
    """Array view of a node-induced subgraph of one possible world.

    The internal replacement for materialising worlds: where the engine
    previously handed ``MaskWorld.to_graph()`` /
    ``IndexedGraph.subworld_graph`` results to the densest-subgraph
    machinery, it now passes this view and the machinery works on the
    compact integer arrays directly.  ``edge_alive`` is automatically
    restricted to edges with both endpoints in ``node_alive``, mirroring
    the induced-subgraph semantics of :meth:`IndexedGraph.subworld_graph`
    (alive-but-isolated nodes are kept and count toward densities).

    Local node ``i`` stands for global node ``nodes_global[i]`` (in index
    order, so local order equals the materialised graph's insertion
    order); local edge ``j`` stands for global edge ``edge_ids[j]``.
    """

    __slots__ = (
        "indexed",
        "edge_alive",
        "node_alive",
        "nodes_global",
        "local_of",
        "edge_ids",
        "edge_lu",
        "edge_lv",
        "_csr",
    )

    def __init__(
        self,
        indexed: IndexedGraph,
        edge_alive: np.ndarray,
        node_alive: np.ndarray,
    ) -> None:
        self.indexed = indexed
        edge_alive = (
            edge_alive
            & node_alive[indexed.edge_u]
            & node_alive[indexed.edge_v]
        )
        self.edge_alive = edge_alive
        self.node_alive = node_alive
        self.nodes_global = np.flatnonzero(node_alive)
        local_of = np.full(indexed.n, -1, dtype=np.int64)
        local_of[self.nodes_global] = np.arange(len(self.nodes_global))
        self.local_of = local_of
        self.edge_ids = np.flatnonzero(edge_alive)
        self.edge_lu = local_of[indexed.edge_u[self.edge_ids]]
        self.edge_lv = local_of[indexed.edge_v[self.edge_ids]]
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n(self) -> int:
        """Number of alive nodes."""
        return len(self.nodes_global)

    @property
    def m(self) -> int:
        """Number of alive edges."""
        return len(self.edge_ids)

    def degrees(self) -> np.ndarray:
        """Per-local-node degree vector."""
        n = self.n
        return np.bincount(self.edge_lu, minlength=n) + np.bincount(
            self.edge_lv, minlength=n
        )

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return cached local ``(indptr, neighbors)`` adjacency arrays.

        Sliced out of the shared :meth:`IndexedGraph.csr` view by the
        alive-edge mask -- no per-view sort: the surviving arcs of the
        graph-wide CSR are already grouped by (global, hence local)
        tail, so the view's adjacency is a boolean compress plus a
        prefix-sum over the shared ``indptr``.
        """
        if self._csr is None:
            full_indptr, adj_nodes, adj_edges = self.indexed.csr()
            alive_arc = self.edge_alive[adj_edges]
            prefix = np.zeros(len(alive_arc) + 1, dtype=np.int64)
            np.cumsum(alive_arc, out=prefix[1:])
            counts = prefix[full_indptr[1:]] - prefix[full_indptr[:-1]]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts[self.nodes_global], out=indptr[1:])
            neighbors = self.local_of[adj_nodes[alive_arc]]
            self._csr = (indptr, neighbors)
        return self._csr

    # ------------------------------------------------------------------
    # shrinking
    # ------------------------------------------------------------------
    def restrict(self, keep_local: np.ndarray) -> "SubWorldView":
        """Return the view induced by the local boolean mask ``keep_local``."""
        node_alive = np.zeros(self.indexed.n, dtype=bool)
        node_alive[self.nodes_global[keep_local]] = True
        return SubWorldView(self.indexed, self.edge_alive, node_alive)

    def k_core(self, k: int) -> "SubWorldView":
        """Return the view of this view's k-core (empty-core safe)."""
        if k <= 0:
            return self
        from .kernels import k_core_alive

        node_alive, edge_alive = k_core_alive(self.indexed, self.edge_alive, k)
        return SubWorldView(self.indexed, edge_alive, node_alive & self.node_alive)

    def induced_edges(self, member_local: np.ndarray) -> int:
        """Count alive edges with both endpoints in the local boolean mask."""
        return int((member_local[self.edge_lu] & member_local[self.edge_lv]).sum())

    def components(self) -> List["SubWorldView"]:
        """Split into connected components (nodes with no alive edge dropped).

        Returned in ascending order of each component's smallest global
        node index.  Densest-subgraph work decomposes component-wise (a
        densest subgraph of a disjoint union intersects each component in
        either nothing or a densest subgraph of that component), which is
        what lets the exact stage run many small flows instead of one
        large one.
        """
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(self.edge_lu.tolist(), self.edge_lv.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        roots: Dict[int, int] = {}
        touched = np.zeros(self.n, dtype=bool)
        touched[self.edge_lu] = True
        touched[self.edge_lv] = True
        comp_of = np.full(self.n, -1, dtype=np.int64)
        for i in np.flatnonzero(touched):
            root = find(int(i))
            comp_of[i] = roots.setdefault(root, len(roots))
        if len(roots) == 1 and bool(touched.all()):
            return [self]  # one component covering the whole view
        # each component view carries full-graph masks (its k_core() /
        # materialize() need them), so the split costs O(C * (n + m));
        # fine while C stays laptop-scale, the common giant-component
        # case above is O(1)
        views = []
        for comp in range(len(roots)):
            node_alive = np.zeros(self.indexed.n, dtype=bool)
            node_alive[self.nodes_global[comp_of == comp]] = True
            views.append(SubWorldView(self.indexed, self.edge_alive, node_alive))
        return views

    # ------------------------------------------------------------------
    # label boundary (array world -> hashable node labels)
    # ------------------------------------------------------------------
    def label_of(self, local: int) -> Node:
        """Return the node label of local index ``local``."""
        return self.indexed.nodes[self.nodes_global[local]]

    def labels(self) -> List[Node]:
        """Return the labels of all alive nodes, in local index order."""
        nodes = self.indexed.nodes
        return [nodes[g] for g in self.nodes_global]

    def label_set(self, local_indices) -> FrozenSet[Node]:
        """Translate local node indices to a label frozenset."""
        nodes = self.indexed.nodes
        nodes_global = self.nodes_global
        return frozenset(nodes[nodes_global[i]] for i in local_indices)

    def materialize(self) -> Graph:
        """Materialise the view as a :class:`Graph` (oracle / fallbacks)."""
        return self.indexed.subworld_graph(self.edge_alive, self.node_alive)

    def __repr__(self) -> str:
        return f"SubWorldView(n={self.n}, m={self.m})"
