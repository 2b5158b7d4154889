"""Vectorised possible-world engine (numpy batch sampling + array worlds).

The sampling estimators (Algorithms 1 and 5) spend their time drawing
possible worlds and solving a densest-subgraph problem in each.  This
subsystem replaces the pure-Python inner machinery with array-native
stages while returning **identical estimates for the same seed**:

1. :class:`IndexedGraph` extracts integer node indices, endpoint arrays
   and a probability vector once per uncertain graph; a world becomes a
   boolean edge mask.
2. Each sampling strategy has a vectorised twin replaying the exact
   MT19937 stream of its pure-Python counterpart:
   :class:`VectorizedMonteCarloSampler` draws all ``theta * m`` Bernoulli
   trials in one ``rng.random((theta, m)) < p`` call;
   :class:`VectorizedLazyPropagationSampler` draws each round's
   geometric-jump gaps as one batch and keeps the next-occurrence
   schedule in arrays; :class:`VectorizedStratifiedSampler` replays the
   deterministic stratum tree and draws each stratum's free-edge trial
   matrix in one call.
3. Per-world evaluation never leaves the array substrate for edge
   density: each :class:`MaskWorld` becomes a :class:`SubWorldView`
   (compact local index arrays over the shared CSR adjacency), gets a
   bucketed Charikar peel bound + mask k-core shrink, and finishes
   exactly through
   :func:`repro.dense.all_densest.prepare_from_bound_csr` --
   per-connected-component Dinkelbach iteration (~1-3 first-phase CSR
   push-relabel flows on integer capacities instead of a ~25-step
   binary search), tree components in closed form, and the residual
   SCC condensation restricted to the dense pocket.  No ``Graph`` or
   object ``FlowNetwork`` is materialised on that path.  Clique/pattern
   worlds are pre-filtered to the core that provably contains every
   densest set and only that shrunken core is materialised for the
   exact per-world machinery.

When does the vectorised path activate?
---------------------------------------
``top_k_mpds`` / ``top_k_nds`` / the ``core.parallel`` wrappers accept
``engine="auto" | "python" | "vectorized" | "jit"``:

* ``auto`` (default) -- vectorised for every guaranteed byte-identical
  combination: {MC (default), LP, RSS} x {EdgeDensity, CliqueDensity,
  PatternDensity}.  Custom sampler or measure types run the original
  pure-Python path.
* ``vectorized`` -- force the vectorised engine; unknown measures still
  work through the mask -> :class:`Graph` adapter
  (:meth:`IndexedGraph.world_graph`), but the sampler must be MC, LP or
  RSS (or a vectorised twin).
* ``jit`` -- an accepted alias of ``vectorized``.
* ``python`` -- force the original path (e.g. for timing comparisons:
  see ``benchmarks/bench_engine.py``).

On top of the per-world exact stage, the vectorised engine evaluates
cheap stages *batched across worlds*: :func:`primed_world_stream`
buffers a chunk of sampled worlds, stacks their edge masks and runs
the bound / shrink stages (:func:`batch_peel_bounds`,
:func:`batch_k_core_alive`) for the whole chunk in a handful of numpy
calls, so the per-world python loop only performs the exact stage.

Estimates are byte-identical across engines for a fixed seed; the
differential harness in ``tests/test_engine_differential.py`` sweeps
sampler x measure x seed x engine to prove it.  A world whose
densest-subgraph enumeration hits ``per_world_limit`` is replayed
through the pure-Python path (within-world enumeration *order* is not
part of the fast path's contract) and counted in the result's
``replayed_worlds``, so even truncated candidate subsets match exactly.
"""

from .blocks import DEFAULT_BLOCKS, drain_mask_stream, plan_blocks
from .indexed import IndexedGraph, MaskWorld, SubWorldView
from .shm import attach_arrays, close_attachment, pack_arrays
from .kernels import (
    batch_k_core_alive,
    batch_peel_bounds,
    batch_world_degrees,
    k_core_alive,
    world_degrees,
)
from .lazy import VectorizedLazyPropagationSampler
from .sampler import (
    VectorizedMonteCarloSampler,
    randomstate_like,
    write_back_state,
)
from .stratified import VectorizedStratifiedSampler
from .worldstore import WorldStore
from .estimators import (
    ENGINES,
    VECTOR_ENGINES,
    EngineMeasure,
    is_replayable,
    measure_core_k,
    primed_world_stream,
    resolve_engine,
    vectorized_sampler,
)

__all__ = [
    "DEFAULT_BLOCKS",
    "drain_mask_stream",
    "plan_blocks",
    "attach_arrays",
    "close_attachment",
    "pack_arrays",
    "IndexedGraph",
    "MaskWorld",
    "SubWorldView",
    "VectorizedMonteCarloSampler",
    "VectorizedLazyPropagationSampler",
    "VectorizedStratifiedSampler",
    "WorldStore",
    "randomstate_like",
    "write_back_state",
    "world_degrees",
    "batch_world_degrees",
    "k_core_alive",
    "batch_k_core_alive",
    "batch_peel_bounds",
    "ENGINES",
    "VECTOR_ENGINES",
    "EngineMeasure",
    "is_replayable",
    "measure_core_k",
    "primed_world_stream",
    "resolve_engine",
    "vectorized_sampler",
]
