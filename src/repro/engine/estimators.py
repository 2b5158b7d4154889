"""Wiring of the vectorised engine into Algorithm 1 / Algorithm 5.

The estimator loops in :mod:`repro.core.mpds` / :mod:`repro.core.nds`
iterate ``(world, weight)`` pairs and query a :class:`DensityMeasure`.
The vectorised path keeps those loops intact and swaps the two
collaborators:

* the sampler becomes the vectorised twin of whichever strategy was
  requested -- :class:`VectorizedMonteCarloSampler`,
  :class:`VectorizedLazyPropagationSampler` or
  :class:`VectorizedStratifiedSampler` -- yielding :class:`MaskWorld`
  views drawn from numpy batches that replay the pure-Python sampler's
  exact MT19937 stream;
* the measure becomes :class:`EngineMeasure`, which answers edge-density
  queries entirely on the CSR/bitmask substrate (peel bound, k-core
  shrink, per-component Dinkelbach flows and residual condensation over
  :class:`SubWorldView` arrays -- zero ``to_graph()`` calls), pre-filters
  clique/pattern worlds to the core that provably contains every densest
  set before materialising them, and falls back to the full materialised
  world (``MaskWorld.to_graph``) only for custom measures and
  tie-breaking-sensitive queries.

Because the batch samplers replay the pure-Python samplers' exact
Bernoulli/geometric streams and the fast measure paths provably return
the same candidate sets, both engines produce identical estimates for the
same seed.  Worlds whose enumeration hits ``per_world_limit`` fall back
to the python path (counted in :attr:`EngineMeasure.replayed_worlds`), so
even the truncated subset matches byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..core.measures import (
    CliqueDensity,
    DensityMeasure,
    EdgeDensity,
    NodeSet,
    PatternDensity,
)
from ..dense.all_densest import (
    _Prepared,
    enumerate_independent_sets,
    prepare_from_bound_csr,
)
from ..dense.peeling import _peel_arrays
from ..graph.graph import Graph
from ..sampling.lazy_propagation import LazyPropagationSampler
from ..sampling.monte_carlo import MonteCarloSampler
from ..sampling.stratified import RecursiveStratifiedSampler
from .indexed import MaskWorld, SubWorldView
from .kernels import batch_k_core_alive, batch_peel_bounds, k_core_alive
from .lazy import VectorizedLazyPropagationSampler
from .sampler import VectorizedMonteCarloSampler
from .stratified import VectorizedStratifiedSampler

ENGINES = ("auto", "python", "vectorized", "jit")

#: resolved engines that run the mask-native (vectorised) pipeline
VECTOR_ENGINES = ("vectorized",)

#: how many worlds the batched pre-pass buffers and primes at once
#: (peel bounds and k-cores for the whole chunk in a handful of numpy
#: passes instead of one python loop iteration per world)
PRIME_CHUNK = 64

#: sampler types the vectorised engine can replay byte-for-byte
_VECTORIZABLE_SAMPLERS = (
    MonteCarloSampler,
    VectorizedMonteCarloSampler,
    LazyPropagationSampler,
    VectorizedLazyPropagationSampler,
    RecursiveStratifiedSampler,
    VectorizedStratifiedSampler,
)

#: measure types with a mask-native fast path (exact type match: a
#: subclass may change semantics the fast paths do not know about)
_FAST_MEASURES = (EdgeDensity, CliqueDensity, PatternDensity)

#: vectorised twin constructors by registry kind -- the engine-side
#: column of :data:`repro.specs.SAMPLER_KINDS`.  Each accepts
#: ``(graph_or_indexed, seed, **params)``; a new sampler kind must be
#: registered here as well as there (the session's cached-store path
#: resolves twins through this table)
VECTOR_SAMPLER_KINDS = {
    "mc": VectorizedMonteCarloSampler,
    "lp": VectorizedLazyPropagationSampler,
    "rss": VectorizedStratifiedSampler,
}


def resolve_engine(engine: str, sampler, measure: DensityMeasure) -> str:
    """Decide which engine a ``top_k_mpds`` / ``top_k_nds`` call uses.

    ``auto`` picks the vectorised engine whenever the combination is a
    guaranteed byte-identical drop-in: any of the three paper samplers
    (MC -- the default --, LP, RSS, or their vectorised twins) combined
    with any of the three paper measures (:class:`EdgeDensity`,
    :class:`CliqueDensity`, :class:`PatternDensity`).  Custom sampler or
    measure *types* fall back to the pure-Python path because the engine
    cannot vouch for their replay semantics.  ``vectorized`` forces the
    engine for any measure (unknown measures run through the
    mask->Graph adapter) but still requires one of the replayable
    samplers.  ``python`` always uses the original path.  ``jit`` is an
    accepted alias of ``vectorized``.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    replayable = is_replayable(sampler)
    if engine == "python":
        return "python"
    if engine in ("vectorized", "jit"):
        if not replayable:
            raise ValueError(
                f"engine={engine!r} supports MC, LP and RSS sampling only; "
                f"got sampler {type(sampler).__name__}"
            )
        return "vectorized"
    if replayable and type(measure) in _FAST_MEASURES:
        return "vectorized"
    return "python"


def is_replayable(sampler) -> bool:
    """Whether the vectorised twins replay ``sampler``'s stream exactly.

    ``None`` (the default Monte Carlo) and the three paper samplers or
    their twins qualify; the match is on the exact type, because a
    subclass may override ``worlds`` with semantics no twin knows.
    """
    return sampler is None or type(sampler) in _VECTORIZABLE_SAMPLERS


def vectorized_sampler(graph, sampler, seed: Optional[int]):
    """Build the batch sampler mirroring what the python path would use.

    With no explicit sampler this replicates ``MonteCarloSampler(graph,
    seed)``; an explicit pure-Python MC/LP/RSS sampler is adopted
    mid-stream (same worlds it would have produced next, with its RNG and
    ``memory_units`` bookkeeping kept in sync); a vectorised sampler is
    used as-is.
    """
    if sampler is None:
        return VectorizedMonteCarloSampler(graph, seed)
    if isinstance(
        sampler,
        (
            VectorizedMonteCarloSampler,
            VectorizedLazyPropagationSampler,
            VectorizedStratifiedSampler,
        ),
    ):
        return sampler
    if isinstance(sampler, MonteCarloSampler):
        return VectorizedMonteCarloSampler.from_monte_carlo(sampler)
    if isinstance(sampler, LazyPropagationSampler):
        return VectorizedLazyPropagationSampler.from_lazy_propagation(sampler)
    if isinstance(sampler, RecursiveStratifiedSampler):
        return VectorizedStratifiedSampler.from_stratified(sampler)
    raise ValueError(
        f"no vectorised twin for sampler {type(sampler).__name__}"
    )


def primed_world_stream(
    worlds: Iterable,
    engine_measure: "EngineMeasure",
    chunk: int = PRIME_CHUNK,
) -> Iterator:
    """Batch-prime a weighted :class:`MaskWorld` stream, chunk by chunk.

    Pulls up to ``chunk`` worlds at a time and runs the cheap filtering
    stages for the whole chunk in a few numpy passes
    (:meth:`EngineMeasure.prime_batch`: batched degree counts, lockstep
    bucketed peel bounds, per-world-k k-cores), attaching the results to
    each world's ``prepped`` slot -- the estimator loop downstream then
    skips its per-world python bound/core stages and goes straight to
    the exact solver on the pre-shrunk core.  Worlds are still yielded
    in order (buffering never reorders or drops), so estimates are
    byte-identical to the unprimed stream.
    """
    worlds = iter(worlds)
    while True:
        buffered = list(islice(worlds, chunk))
        if not buffered:
            return
        engine_measure.prime_batch(
            [w.graph for w in buffered if isinstance(w.graph, MaskWorld)]
        )
        yield from buffered


def measure_core_k(measure: DensityMeasure) -> Optional[int]:
    """Return the k-core order that provably contains every densest set.

    * ``CliqueDensity(h)``: every h-clique (and hence every clique-densest
      set, whose nodes each sit in an h-clique *within the set*) survives
      (h-1)-core peeling;
    * ``PatternDensity(psi)``: every instance induces minimum degree
      >= delta_min(psi) on its own nodes, so it survives
      delta_min(psi)-core peeling;
    * anything else: ``None`` (no safe pre-filter known).

    Densities of subsets of the core are unchanged (the core is induced),
    so enumerating densest subgraphs over the filtered world returns
    exactly the full world's family.
    """
    if type(measure) is CliqueDensity:
        return measure.h - 1
    if type(measure) is PatternDensity:
        pattern_graph = measure.pattern.graph()
        return min(pattern_graph.degree(node) for node in pattern_graph)
    return None


class EngineMeasure(DensityMeasure):
    """Adapter measure answering :class:`MaskWorld` queries.

    Edge-density queries run array-native end to end: a bucketed
    Charikar peel bounds the density, a mask k-core shrink drops the
    sparse periphery, and :func:`prepare_from_bound_csr` finishes
    exactly on the CSR substrate (per-component Dinkelbach flows, tree
    components in closed form) -- the sampled world is never
    materialised.  Clique/pattern-density queries pre-filter the mask to
    the core guaranteed to contain every densest set
    (:func:`measure_core_k`) before materialising only that shrunken
    world for the exact per-world machinery.  All other measures (and
    the tie-breaking-sensitive ``one_densest``) delegate to the wrapped
    measure on the fully materialised world, which is byte-identical to
    the world the python engine would have sampled.

    ``replayed_worlds`` counts the worlds whose (possibly) truncated
    enumeration was replayed through the pure-Python path to keep the
    ``per_world_limit`` subset byte-identical across engines.

    ``worlds_primed`` / ``worlds_filtered`` count worlds served by the
    batched pre-pass and worlds dismissed as edgeless before any exact
    work.
    """

    def __init__(self, inner: DensityMeasure) -> None:
        self.inner = inner
        self.name = inner.name
        self._fast = type(inner) is EdgeDensity
        self._core_k = measure_core_k(inner)
        self.replayed_worlds = 0
        self.worlds_primed = 0
        self.worlds_filtered = 0

    # ------------------------------------------------------------------
    # batched pre-pass (chunk-at-a-time cheap stages)
    # ------------------------------------------------------------------
    def prime_batch(self, worlds: List[MaskWorld]) -> None:
        """Run the cheap filtering stages for a chunk of worlds at once.

        Edge-density measures get their bucketed peel bound and
        ceil(bound)-core masks (lockstep across the chunk:
        :func:`repro.engine.kernels.batch_peel_bounds` +
        :func:`repro.engine.kernels.batch_k_core_alive` with per-world
        ``k``); clique/pattern measures get their fixed
        :func:`measure_core_k` core masks.  Results land in each world's
        ``prepped`` slot, which :meth:`_prepared` / ``_filtered_world``
        consume instead of re-deriving them one world at a time.  The
        batched peel removes whole minimum-degree buckets per round, so
        its bound can differ from the sequential peel's -- both are
        achieved densities, and :func:`prepare_from_bound_csr` results
        are bound-independent, so every estimate stays byte-identical.
        """
        if not worlds:
            return
        indexed = worlds[0].indexed
        worlds = [w for w in worlds if w.indexed is indexed]
        masks = np.stack([w.mask for w in worlds])
        if self._fast:
            nums, dens = batch_peel_bounds(indexed, masks)
            cores = -(-nums // dens)  # ceil; edgeless rows give k = 0
            node_alive, edge_alive = batch_k_core_alive(
                indexed, masks, cores
            )
            for i, world in enumerate(worlds):
                if nums[i] <= 0:
                    world.prepped = (0, 1, None, None)
                elif edge_alive[i].any():
                    world.prepped = (
                        int(nums[i]), int(dens[i]),
                        node_alive[i], edge_alive[i],
                    )
                else:  # pragma: no cover - see prepare_from_bound
                    world.prepped = (
                        int(nums[i]), int(dens[i]),
                        np.ones(indexed.n, dtype=bool), world.mask,
                    )
        elif self._core_k is not None:
            node_alive, edge_alive = batch_k_core_alive(
                indexed, masks, self._core_k
            )
            for i, world in enumerate(worlds):
                world.prepped = (node_alive[i], edge_alive[i])
        else:
            return
        self.worlds_primed += len(worlds)

    # ------------------------------------------------------------------
    # mask-native edge-density pipeline
    # ------------------------------------------------------------------
    def _prepared(self, world: MaskWorld) -> Optional[_Prepared]:
        """Exact residual structure of a mask world, or None if edgeless.

        Fully array-native: the world never leaves the CSR/bitmask
        substrate (no :class:`Graph`, no object flow network) -- the
        bucketed Charikar peel bound, the k-core shrink, the Dinkelbach
        flows and the residual condensation all run on index arrays, and
        node labels only reappear in the returned structure's frozensets.

        A world primed by the batched pre-pass (``world.prepped`` set by
        :meth:`prime_batch`) skips straight to the exact stage on its
        precomputed bound and core masks; only unprimed worlds pay the
        per-world bound stage here.
        """
        indexed = world.indexed
        primed = world.prepped if self._fast else None
        if primed is not None:
            num, den, node_alive, edge_alive = primed
            if num <= 0:
                self.worlds_filtered += 1
                return None
        else:
            if not world.mask.any():
                self.worlds_filtered += 1
                return None
            view = world.view()
            indptr, neighbors = view.csr()
            _order, _edges, num, den, _size, _degen = _peel_arrays(
                view.n, indptr, neighbors
            )
            if num <= 0:  # pragma: no cover - edges imply a positive bound
                self.worlds_filtered += 1
                return None
            k = -(-num // den)
            node_alive, edge_alive = k_core_alive(indexed, world.mask, k)
            if not edge_alive.any():  # pragma: no cover - see
                # prepare_from_bound
                node_alive = np.ones(indexed.n, dtype=bool)
                edge_alive = world.mask
        core = SubWorldView(indexed, edge_alive, node_alive)
        return prepare_from_bound_csr(core, Fraction(num, den))

    # ------------------------------------------------------------------
    # clique/pattern pre-filtering
    # ------------------------------------------------------------------
    def _filtered_world(self, world: MaskWorld) -> Graph:
        """Materialise only the core that can contain densest sets."""
        primed = world.prepped
        if primed is not None and len(primed) == 2:
            node_alive, edge_alive = primed
        else:
            node_alive, edge_alive = k_core_alive(
                world.indexed, world.mask, self._core_k
            )
        return SubWorldView(world.indexed, edge_alive, node_alive).materialize()

    def all_densest(
        self, world: MaskWorld, limit: Optional[int] = None
    ) -> List[NodeSet]:
        if self._fast:
            prepared = self._prepared(world)
            if prepared is None or prepared.structure is None:
                return []
            densest = list(
                enumerate_independent_sets(prepared.structure, limit)
            )
        elif self._core_k is not None:
            densest = self.inner.all_densest(self._filtered_world(world), limit)
        else:
            return self.inner.all_densest(world.to_graph(), limit)
        if limit is not None and len(densest) >= limit:
            # enumeration (possibly) truncated: within-world order is not
            # part of the fast paths' contract, so replay the python path
            # on the identical materialised world to keep the *truncated
            # subset* byte-identical across engines
            self.replayed_worlds += 1
            return self.inner.all_densest(world.to_graph(), limit)
        return densest

    def one_densest(self, world: MaskWorld) -> Optional[NodeSet]:
        # tie-breaking must match the python engine's binary search, so
        # this always runs on the materialised (identical) world
        return self.inner.one_densest(world.to_graph())

    def maximum_sized_densest(self, world: MaskWorld) -> Optional[NodeSet]:
        if self._fast:
            prepared = self._prepared(world)
            if prepared is None or prepared.density <= 0:
                return None
            return prepared.maximal_nodes
        if self._core_k is not None:
            # the maximal densest set (a maximal min-cut side) is unique,
            # and the filtered core preserves the whole densest family
            return self.inner.maximum_sized_densest(self._filtered_world(world))
        return self.inner.maximum_sized_densest(world.to_graph())

    def density(self, world: MaskWorld, nodes) -> Fraction:
        if self._fast:
            # induced edge density straight off the mask: count alive
            # edges with both endpoints in `nodes` (exact, label-free)
            indexed = world.indexed
            node_list = [
                n for n in dict.fromkeys(nodes) if n in indexed.node_index
            ]
            if not node_list:
                return Fraction(0)
            member = np.zeros(indexed.n, dtype=bool)
            member[[indexed.node_index[node] for node in node_list]] = True
            inside = (
                world.mask
                & member[indexed.edge_u]
                & member[indexed.edge_v]
            )
            return Fraction(int(inside.sum()), len(node_list))
        return self.inner.density(world.to_graph(), nodes)

    def __repr__(self) -> str:
        return f"EngineMeasure({self.inner!r})"
