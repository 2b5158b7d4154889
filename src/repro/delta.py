"""Dynamic uncertain graphs: deltas, per-edge substreams, store surgery.

Production uncertain graphs churn -- edge probabilities drift, edges
appear and disappear -- but the sampling estimators assume a static
graph: any change used to force a full resample and a cold
:class:`~repro.session.Session`.  This module makes a session
*maintainable* under churn:

* :class:`GraphDelta` describes one batch of probability updates, edge
  insertions and edge deletions (validated, canonicalised, invertible);
* **dynamic world stores** (:func:`draw_dynamic_store`) draw each
  edge's mask column from its own seed-keyed RNG substream, so a
  probability update re-draws exactly one column in place
  (:func:`apply_store_delta`) instead of resampling ``theta * m``
  Bernoulli outcomes;
* the column diff reports exactly which worlds flipped, which is what
  lets :meth:`repro.session.Session.update` invalidate only the
  evaluation-cache records of flipped worlds.

Column-substream determinism contract
-------------------------------------
A dynamic store's column for edge ``(u, v)`` is a pure function of
``(root seed, canonical edge labels, theta, p)`` -- never of the edge's
*position* or of any other edge.  The substream is derived with the
``numpy.random.SeedSequence`` spawn-key idiom, applied per edge: the
spawn key is a 64-bit BLAKE2b digest of the canonical label
pair (stable across processes and across insertions/deletions that
shift edge *indices*; ``hash()`` would vary with ``PYTHONHASHSEED``).
Consequences, which the step-wise differential tier
(``tests/test_delta_differential.py``) pins after every step of a
randomized update schedule:

* an incrementally maintained store is **byte-identical** to a
  from-scratch dynamic store drawn on the mutated graph;
* under ``mc``, a probability update re-thresholds the *same* uniforms
  (monotone coupling), so exactly the worlds whose uniform lies between
  the old and new probability flip;
* disjoint-edge deltas commute, and update-then-inverse-update restores
  the masks bit for bit (a deleted edge re-inserts at the *end* of the
  edge order, so delete round-trips restore columns up to position).

Dynamic draws are a distinct sampling scheme: they are deterministic
and engine-invariant like the continuous-stream draws, but **not**
byte-identical to them (a single RNG stream makes single-column
surgery impossible by construction).  ``mc`` and ``lp`` are
delta-capable; ``rss`` stratifies on the global edge set and is not --
continuous-stream (non-dynamic) stores of any kind are evicted on
update and re-drawn on demand.

Insertion-order contract: a dynamic ``lp`` store's per-world insertion
order is ascending edge id -- a pure function of the mask row -- and
the order sidecar is rebuilt from the masks after surgery, so replay
order survives maintenance byte-identically too.
"""

from __future__ import annotations

import copy
import hashlib
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph.graph import Node, canonical_edge
from .graph.uncertain import UncertainGraph

#: sampler kinds whose dynamic (per-edge substream) twin exists
DYNAMIC_KINDS = ("mc", "lp")

_SEED_MASK = (1 << 64) - 1


# ----------------------------------------------------------------------
# per-edge substreams
# ----------------------------------------------------------------------
def edge_substream_key(u: Node, v: Node) -> int:
    """Stable 64-bit substream key for an undirected edge.

    A BLAKE2b digest of the canonical label pair's ``repr`` -- stable
    across processes, interpreter runs and edge reindexing, which is
    exactly what lets a column be re-drawn (or verified) years after
    the store was built.
    """
    a, b = canonical_edge(u, v)
    digest = hashlib.blake2b(
        repr((a, b)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _column_generator(seed: int, u: Node, v: Node) -> np.random.Generator:
    """The edge's decorrelated generator (SeedSequence spawn-key idiom)."""
    sequence = np.random.SeedSequence(
        entropy=int(seed) & _SEED_MASK,
        spawn_key=(edge_substream_key(u, v),),
    )
    return np.random.Generator(np.random.PCG64(sequence))


def edge_column(
    kind: str, seed: int, u: Node, v: Node, probability: float, theta: int
) -> np.ndarray:
    """One edge's ``(theta,)`` boolean mask column from its substream.

    ``mc`` draws ``theta`` uniforms and thresholds them (``u < p``) --
    the monotone coupling that makes probability updates flip only the
    worlds between the old and new threshold.  ``lp`` runs the edge's
    geometric renewal process (gap ``1 + floor(log(1-u) / log(1-p))``,
    the Lazy Propagation jump) marking each occurrence round.
    """
    if kind not in DYNAMIC_KINDS:
        raise ValueError(
            f"sampler kind {kind!r} is not delta-capable; dynamic draws "
            f"support {list(DYNAMIC_KINDS)}"
        )
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    probability = float(probability)
    rng = _column_generator(seed, u, v)
    if kind == "mc":
        return rng.random(theta) < probability
    column = np.zeros(theta, dtype=bool)
    if probability >= 1.0:
        column[:] = True
        return column
    if probability <= 0.0:  # pragma: no cover - p in (0, 1] is validated
        return column
    log_one_minus_p = math.log(1.0 - probability)
    position = -1
    while True:
        position += 1 + int(
            math.log(1.0 - rng.random()) / log_one_minus_p
        )
        if position >= theta:
            return column
        column[position] = True


def _orders_from_rows(
    rows: Iterator[np.ndarray], count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending-edge-id order sidecar (data, indptr) from mask rows."""
    data: List[np.ndarray] = []
    indptr = np.zeros(count + 1, dtype=np.int64)
    total = 0
    for i, row in enumerate(rows):
        alive = np.flatnonzero(row).astype(np.int64)
        data.append(alive)
        total += len(alive)
        indptr[i + 1] = total
    order_data = (
        np.concatenate(data) if data else np.zeros(0, dtype=np.int64)
    )
    return order_data, indptr


def draw_dynamic_store(
    graph,
    kind: str = "mc",
    theta: int = 160,
    seed: Optional[int] = None,
    memory_budget: Optional[int] = None,
):
    """Draw a from-scratch *dynamic* world store, column by column.

    ``graph`` is an :class:`~repro.graph.uncertain.UncertainGraph` or a
    prepared :class:`~repro.engine.indexed.IndexedGraph`.  Every column
    comes from its edge's substream, so the result is byte-identical to
    any incrementally maintained store that went through the same net
    deltas -- the from-scratch twin the differential tier compares
    against.
    """
    from .engine.indexed import IndexedGraph
    from .engine.worldstore import WorldStore

    if kind not in DYNAMIC_KINDS:
        raise ValueError(
            f"sampler kind {kind!r} is not delta-capable; dynamic draws "
            f"support {list(DYNAMIC_KINDS)}"
        )
    if seed is None:
        raise ValueError("dynamic draws require an explicit seed")
    if theta < 1:
        raise ValueError(f"theta must be positive, got {theta}")
    indexed = (
        graph
        if isinstance(graph, IndexedGraph)
        else IndexedGraph.from_uncertain(graph)
    )
    nodes = indexed.nodes
    masks = np.zeros((theta, indexed.m), dtype=bool)
    for j in range(indexed.m):
        u = nodes[indexed.edge_u[j]]
        v = nodes[indexed.edge_v[j]]
        masks[:, j] = edge_column(
            kind, seed, u, v, float(indexed.probs[j]), theta
        )
    weights = np.full(theta, 1.0 / theta, dtype=np.float64)
    order_data = order_indptr = None
    if kind == "lp":
        order_data, order_indptr = _orders_from_rows(iter(masks), theta)
    return WorldStore(
        indexed, masks, weights, order_data, order_indptr,
        kind=kind, theta=theta, seed=seed, memory_budget=memory_budget,
        dynamic=True,
    )


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
class GraphDelta:
    """One batch of uncertain-graph mutations, validated and invertible.

    ``updates`` are ``(u, v, p)`` triples re-weighting existing edges,
    ``inserts`` are ``(u, v, p)`` triples adding new edges (endpoints
    may be new nodes), ``deletes`` are ``(u, v)`` pairs removing edges
    (the endpoints stay, matching
    :meth:`UncertainGraph.condition(present=False) <repro.graph.uncertain.UncertainGraph.condition>`).
    Probabilities must lie in ``(0, 1]``; an edge may appear in at most
    one group.  Edges are canonicalised on construction, so
    ``GraphDelta(updates=[("B", "A", 0.5)])`` and the ``("A", "B")``
    spelling are the same delta.
    """

    __slots__ = ("updates", "inserts", "deletes")

    def __init__(
        self,
        updates: Iterable[Sequence] = (),
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
    ) -> None:
        self.updates = self._weighted_rows("updates", updates)
        self.inserts = self._weighted_rows("inserts", inserts)
        self.deletes = self._bare_rows("deletes", deletes)
        seen = {}
        for group, rows in (
            ("updates", self.updates),
            ("inserts", self.inserts),
            ("deletes", self.deletes),
        ):
            for row in rows:
                edge = (row[0], row[1])
                if edge in seen:
                    raise ValueError(
                        f"edge {edge!r} appears in both {seen[edge]!r} "
                        f"and {group!r} of one delta"
                    )
                seen[edge] = group

    @staticmethod
    def _weighted_rows(group, rows) -> Tuple[Tuple[Node, Node, float], ...]:
        out = []
        for row in rows:
            row = tuple(row)
            if len(row) != 3:
                raise ValueError(
                    f"malformed {group} row {row!r} (expected (u, v, p))"
                )
            u, v, p = row
            if u == v:
                raise ValueError(f"self-loops are not supported: {u!r}")
            p = float(p)
            if not 0.0 < p <= 1.0:
                raise ValueError(
                    f"edge probability must be in (0, 1], got {p!r} "
                    f"in {group} row for {(u, v)!r}"
                )
            a, b = canonical_edge(u, v)
            out.append((a, b, p))
        return tuple(out)

    @staticmethod
    def _bare_rows(group, rows) -> Tuple[Tuple[Node, Node], ...]:
        out = []
        for row in rows:
            row = tuple(row)
            if len(row) != 2:
                raise ValueError(
                    f"malformed {group} row {row!r} (expected (u, v))"
                )
            out.append(canonical_edge(row[0], row[1]))
        return tuple(out)

    @property
    def empty(self) -> bool:
        """Whether this delta names no edges at all."""
        return not (self.updates or self.inserts or self.deletes)

    def resolve(self, graph: UncertainGraph) -> "ResolvedDelta":
        """Validate against ``graph`` without mutating it.

        Updates of missing edges, inserts of existing edges and deletes
        of missing edges all raise; updates that leave the probability
        unchanged are filtered out (counted as ``noop_updates`` -- a
        no-op delta redraws zero columns).
        """
        updates = []
        noops = 0
        for u, v, p in self.updates:
            if not graph.has_edge(u, v):
                raise ValueError(f"cannot update missing edge {(u, v)!r}")
            if graph.probability(u, v) == p:
                noops += 1
            else:
                updates.append((u, v, p))
        for u, v, _p in self.inserts:
            if graph.has_edge(u, v):
                raise ValueError(
                    f"cannot insert existing edge {(u, v)!r} "
                    "(use updates to change its probability)"
                )
        deletes = []
        for u, v in self.deletes:
            if not graph.has_edge(u, v):
                raise ValueError(f"cannot delete missing edge {(u, v)!r}")
            deletes.append((u, v, graph.probability(u, v)))
        return ResolvedDelta(
            tuple(updates), self.inserts, tuple(deletes), noops
        )

    def apply(self, graph: UncertainGraph) -> "ResolvedDelta":
        """Resolve against ``graph`` and mutate it in place.

        Inserted edges land at the *end* of the insertion order (the
        edge-id order the engine indexes), deletions close ranks, and
        probability updates keep their edge's position.
        """
        resolved = self.resolve(graph)
        for u, v, p in resolved.updates:
            graph.set_probability(u, v, p)
        for u, v, _old in resolved.deletes:
            graph.remove_edge(u, v)
        for u, v, p in resolved.inserts:
            graph.add_edge(u, v, p)
        return resolved

    def inverse(self, graph: UncertainGraph) -> "GraphDelta":
        """The delta that undoes this one on ``graph``.

        Must be computed **before** :meth:`apply` (it captures the
        current probabilities).  Probability updates and inserts
        round-trip the mask matrix bit for bit; a delete's inverse
        re-inserts at the end of the edge order, so its column returns
        byte-identical but at a new position.
        """
        resolved = self.resolve(graph)
        return GraphDelta(
            updates=tuple(
                (u, v, graph.probability(u, v))
                for u, v, _p in resolved.updates
            ),
            inserts=resolved.deletes,
            deletes=tuple((u, v) for u, v, _p in self.inserts),
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(updates={len(self.updates)}, "
            f"inserts={len(self.inserts)}, deletes={len(self.deletes)})"
        )


class ResolvedDelta:
    """A :class:`GraphDelta` validated against one concrete graph.

    ``updates`` carry only *effective* probability changes
    (``noop_updates`` counts the filtered ones), and ``deletes`` carry
    the pre-deletion probability -- everything surgery and inversion
    need, captured before the graph mutates.
    """

    __slots__ = ("updates", "inserts", "deletes", "noop_updates")

    def __init__(self, updates, inserts, deletes, noop_updates) -> None:
        self.updates = updates
        self.inserts = inserts
        self.deletes = deletes
        self.noop_updates = noop_updates

    @property
    def empty(self) -> bool:
        """No effective mutation at all (possibly only no-op updates)."""
        return not (self.updates or self.inserts or self.deletes)


# ----------------------------------------------------------------------
# store surgery
# ----------------------------------------------------------------------
class DeltaOutcome:
    """What one store's surgery did: columns redrawn + flipped worlds."""

    __slots__ = ("columns_redrawn", "flipped")

    def __init__(self, columns_redrawn: int, flipped: np.ndarray) -> None:
        self.columns_redrawn = columns_redrawn
        self.flipped = flipped

    def __repr__(self) -> str:
        return (
            f"DeltaOutcome(columns_redrawn={self.columns_redrawn}, "
            f"worlds_flipped={len(self.flipped)})"
        )


def _edge_ids(indexed) -> dict:
    """Canonical edge labels -> edge id, for one IndexedGraph (cached
    on it, and shared by its :func:`reweighted_index` twins)."""
    ids = indexed.edge_ids
    if ids is None:
        nodes = indexed.nodes
        ids = indexed.edge_ids = {
            canonical_edge(nodes[u], nodes[v]): j
            for j, (u, v) in enumerate(zip(indexed.edge_u.tolist(),
                                           indexed.edge_v.tolist()))
        }
    return ids


def reweighted_index(indexed, updates):
    """``indexed`` after the probability ``updates`` of a delta with no
    inserts or deletes: the layout stays, so only ``probs`` is copied
    (labels, endpoints, the CSR and the edge-id map are shared)."""
    ids = _edge_ids(indexed)
    twin = copy.copy(indexed)
    twin.probs = indexed.probs.copy()
    for u, v, p in updates:
        twin.probs[ids[(u, v)]] = p
    return twin


def apply_store_delta(store, resolved: ResolvedDelta, new_indexed):
    """Surgically bring one dynamic store in line with an applied delta.

    ``store.indexed`` must still describe the *pre*-delta graph and
    ``new_indexed`` the post-delta one.  Pure probability updates take
    the in-place fast path -- each affected column is re-drawn from its
    substream and written into the packed words (budgeted stores stream
    block by block through the pager, staying under their budget).
    Structural deltas rebuild the column layout: surviving columns are
    carried over byte-for-byte, updated/inserted ones drawn fresh,
    deleted ones dropped.  Returns a :class:`DeltaOutcome` whose
    ``flipped`` indices are exactly the worlds whose edge sets changed
    (the evaluation-cache invalidation granularity).
    """
    if not getattr(store, "dynamic", False):
        raise ValueError(
            "apply_store_delta requires a dynamic store (legacy "
            "continuous-stream draws cannot be incrementally maintained)"
        )
    theta = store.count
    old_ids = _edge_ids(store.indexed)
    flipped = np.zeros(theta, dtype=bool)
    redrawn = 0
    if not (resolved.inserts or resolved.deletes):
        for u, v, p in resolved.updates:
            column = edge_column(store.kind, store.seed, u, v, p, theta)
            flips = store.set_column(old_ids[(u, v)], column)
            flipped[flips] = True
            redrawn += 1
        if store.kind == "lp" and flipped.any():
            store.rebuild_orders()
        store.indexed = new_indexed
        return DeltaOutcome(redrawn, np.flatnonzero(flipped))

    # structural path: rebuild the column layout (documented as a full
    # transient materialisation -- insert/delete change the mask width,
    # which in-place word surgery cannot express)
    old_masks = store.masks
    updated = {(u, v): p for u, v, p in resolved.updates}
    inserted = {(u, v) for u, v, _p in resolved.inserts}
    new_nodes = new_indexed.nodes
    new_masks = np.zeros((theta, new_indexed.m), dtype=bool)
    for j in range(new_indexed.m):
        u = new_nodes[new_indexed.edge_u[j]]
        v = new_nodes[new_indexed.edge_v[j]]
        edge = canonical_edge(u, v)
        if edge in inserted or edge in updated:
            column = edge_column(
                store.kind, store.seed, u, v,
                float(new_indexed.probs[j]), theta,
            )
            redrawn += 1
            if edge in inserted:
                flipped |= column
            else:
                flipped |= column != old_masks[:, old_ids[edge]]
        else:
            column = old_masks[:, old_ids[edge]]
        new_masks[:, j] = column
    for u, v, _old in resolved.deletes:
        flipped |= old_masks[:, old_ids[(u, v)]]
    order_data = order_indptr = None
    if store.kind == "lp":
        order_data, order_indptr = _orders_from_rows(
            iter(new_masks), theta
        )
    store.replace_contents(new_masks, order_data, order_indptr, new_indexed)
    return DeltaOutcome(redrawn, np.flatnonzero(flipped))
