"""Shared-memory parallel sampling substrate (Algorithms 1 and 5).

The sampled worlds of Algorithm 1 / Algorithm 5 are independent, so the
per-world densest-subgraph work parallelises embarrassingly.  Earlier
revisions forked a fresh pool per call, pickled the whole
:class:`UncertainGraph` into every chunk, rebuilt the CSR index in every
worker, and let the chunking follow the worker count -- so changing
``workers`` changed the estimates.  This module replaces that with a
substrate built around three invariants:

1. **A persistent, spawn-safe worker pool.**  One pool is created
   lazily, kept across calls (grown if a later call asks for more
   workers) and shut down at interpreter exit.  A call requesting
   *fewer* workers than the pool holds reuses it but keeps at most
   ``workers`` blocks in flight, so the requested concurrency cap is
   honoured either way.  Workers never inherit parent state; everything
   they need arrives by shared memory or tiny picklable task tuples.
2. **Shared-memory graph and world arrays.**  The parent publishes the
   graph's endpoint / probability / CSR arrays (plus the sampled world
   masks and LP/RSS insertion orders) as :mod:`multiprocessing`
   shared-memory segments (:mod:`repro.engine.shm`); a task ships only
   segment names and a byte layout, and workers attach zero-copy
   (cached per segment, so a 64-block run attaches twice, not 64
   times).  The masks ship as the store's bit-packed uint64 words.
3. **A worker-count-invariant chunk grid.**  The ``theta`` worlds are
   sharded over fixed contiguous blocks (:func:`repro.engine.blocks.
   plan_blocks` -- a pure function of the world count).  Workers claim
   whole blocks dynamically; the parent reassembles per-block records
   in grid order and feeds them through the *same* accumulation code
   the sequential estimators use (:func:`repro.core.mpds.finalize_mpds`
   / :func:`repro.core.nds.accumulate_transactions`).  Every float is
   therefore added in the same sequence as a sequential run.

Determinism contract
--------------------
The fan-out evaluates a :class:`repro.engine.worldstore.WorldStore` --
the same store an in-process query evaluates -- so the worlds each
block sees are byte-identical to the worlds a sequential run replays.
For a fixed ``seed`` (or a seeded MC/LP/RSS ``sampler`` instance) the
store is drained from the sampler's *continuous* RNG stream, and
``parallel_top_k_mpds(..., seed=s, workers=w)`` returns
**byte-identical** results for every ``w`` -- including ``workers=1``,
which evaluates in-process -- and matches ``top_k_mpds(..., seed=s)``
exactly.  This covers Monte Carlo, Lazy Propagation (geometric-jump
stream) and Recursive Stratified Sampling (stratum trial streams).
Unseeded runs draw a transient store from fresh entropy in the parent;
they promise no reproducibility, only well-formed estimates.

Merging preserves unbiasedness (Lemma 1 applies per world) -- but the
stronger property above makes that moot: the parallel estimate *is* the
sequential estimate.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..graph.uncertain import UncertainGraph
from .measures import DensityMeasure
from .results import MPDSResult, NDSResult

#: (start, stop) world-index ranges of the chunk grid
BlockPlan = List[Tuple[int, int]]

#: one finished block: (block index, per-world records, replayed count)
BlockOutput = Tuple[int, list, int]


def resolve_workers(workers: Union[int, str]) -> int:
    """Resolve a ``workers`` request to a concrete process count.

    ``"auto"`` asks the host: the scheduler affinity mask when the
    platform exposes one (containers and taskset-restricted jobs report
    their real allowance, not the machine's), else ``os.cpu_count()``,
    never below 1 -- so a 1-core host gets a sequential run instead of
    two processes thrashing one core.  Integers pass through unchanged
    (including invalid ones: the caller owns the ``>= 1`` validation and
    its error message).
    """
    if workers == "auto":
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux hosts
            return max(1, os.cpu_count() or 1)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(
            f"workers must be an integer or 'auto', got {workers!r}"
        )
    return workers


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_PROCS = 0


def _ensure_pool(workers: int) -> multiprocessing.pool.Pool:
    """Return the persistent spawn pool, growing it if needed.

    The pool is created once and reused across calls (spawned workers
    pay their interpreter start-up a single time); asking for more
    workers than the current pool has replaces it with a larger one.
    """
    global _POOL, _POOL_PROCS
    if _POOL is None or _POOL_PROCS < workers:
        shutdown_pool()
        context = multiprocessing.get_context("spawn")
        _POOL = context.Pool(processes=workers)
        _POOL_PROCS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none is running).

    Called automatically at interpreter exit; useful in tests or after
    a worker crash left the pool unusable.
    """
    global _POOL, _POOL_PROCS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_PROCS = 0


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# worker-side segment cache
# ----------------------------------------------------------------------
#: segment name -> (shm, attached arrays, IndexedGraph or None); small
#: LRU so long-lived workers do not accumulate mappings across calls
_SEGMENTS: Dict[str, tuple] = {}
_SEGMENT_CAP = 4


def _attached_entry(name: str, layout, want_graph: bool):
    """Attach (or reuse) a published segment inside a worker."""
    from ..engine.indexed import IndexedGraph
    from ..engine.shm import attach_arrays, close_attachment

    entry = _SEGMENTS.get(name)
    if entry is None:
        shm, arrays = attach_arrays(name, layout)
        graph = IndexedGraph.from_shared_payload(arrays) if want_graph else None
        _SEGMENTS[name] = entry = (shm, arrays, graph)
        stale = [key for key in _SEGMENTS if key != name]
        while len(_SEGMENTS) > _SEGMENT_CAP and stale:
            old_shm, old_arrays, old_graph = _SEGMENTS.pop(stale.pop(0))
            del old_arrays, old_graph
            close_attachment(old_shm)
    elif want_graph and entry[2] is None:  # pragma: no cover - defensive
        shm, arrays, _ = entry
        _SEGMENTS[name] = entry = (
            shm, arrays, IndexedGraph.from_shared_payload(arrays)
        )
    return entry


# ----------------------------------------------------------------------
# per-block evaluation (runs in workers; also used in-process by tests)
# ----------------------------------------------------------------------
def _block_records(
    indexed,
    masks: np.ndarray,
    order_data: Optional[np.ndarray],
    order_indptr: Optional[np.ndarray],
    lo: int,
    hi: int,
    measure: DensityMeasure,
    engine: str,
    enumerate_all: bool,
    per_world_limit: Optional[int],
    mode: str,
) -> Tuple[list, int]:
    """Evaluate world rows ``lo:hi`` of ``masks`` into per-world records.

    ``engine`` must already be resolved to ``"vectorized"``, ``"jit"``
    or ``"python"``.  The vector tiers evaluate :class:`MaskWorld`
    views through an :class:`EngineMeasure` (batched cheap stages via
    :func:`primed_world_stream`); the python path replays
    each world's exact insertion sequence into a :class:`Graph` and
    queries the plain measure -- both byte-identical to what the
    sequential estimator computes for the same worlds, with one
    exception: a world whose densest-family enumeration (possibly) hit
    ``per_world_limit`` is recorded as the sentinel ``None``.  The
    truncated *window* of an enumeration is order-sensitive, and
    enumeration order over string-labelled worlds depends on the
    process's hash seed -- so those few worlds must be re-evaluated in
    the parent process (:func:`_replay_truncated`), where the hash seed
    matches the sequential run by construction.  Returns ``(records,
    replayed_worlds)``.
    """
    from ..engine.estimators import (
        VECTOR_ENGINES,
        EngineMeasure,
        primed_world_stream,
    )
    from ..engine.indexed import MaskWorld
    from ..sampling.base import WeightedWorld
    from .mpds import evaluate_worlds
    from .nds import evaluate_transactions

    vector = engine in VECTOR_ENGINES
    loop_measure = (
        EngineMeasure(measure, tier=engine) if vector else measure
    )

    def block_worlds() -> Iterator[WeightedWorld]:
        for i in range(lo, hi):
            order = (
                order_data[order_indptr[i]:order_indptr[i + 1]]
                if order_data is not None
                else None
            )
            if vector:
                world = MaskWorld(indexed, masks[i], order=order)
            else:
                world = indexed.world_graph(masks[i], order)
            # weights are merged in the parent; per-block weight is unused
            yield WeightedWorld(world, 0.0)

    worlds = (
        primed_world_stream(block_worlds(), loop_measure)
        if vector
        else block_worlds()
    )
    if mode == "nds":
        records = [
            maximal
            for maximal, _ in evaluate_transactions(worlds, loop_measure)
        ]
        return records, 0
    records: list = []
    for densest_sets, _ in evaluate_worlds(
        worlds, loop_measure, enumerate_all, per_world_limit
    ):
        if (
            enumerate_all
            and per_world_limit is not None
            and len(densest_sets) >= per_world_limit
        ):
            # (possibly) truncated enumeration: defer the order-sensitive
            # window to the parent.  The engine's own replay counter (if
            # any) already ticked, exactly as in a sequential run.
            records.append(None)
        else:
            records.append(densest_sets)
    replayed = (
        loop_measure.replayed_worlds if vector else 0
    )
    return records, replayed


def _evaluate_block(task) -> BlockOutput:
    """Worker entry point: evaluate one chunk-grid block.

    ``task`` is a small picklable tuple; all heavy inputs arrive by
    shared memory.
    """
    (
        block_index,
        start,
        stop,
        graph_name,
        graph_layout,
        job_name,
        job_layout,
        mode,
        measure,
        engine,
        enumerate_all,
        per_world_limit,
    ) = task
    from ..engine.shm import masks_from_payload

    _shm, _arrays, indexed = _attached_entry(
        graph_name, graph_layout, want_graph=True
    )
    _job_shm, job_arrays, _ = _attached_entry(
        job_name, job_layout, want_graph=False
    )
    records, replayed = _block_records(
        indexed,
        masks_from_payload(job_arrays),
        job_arrays.get("order_data"),
        job_arrays.get("order_indptr"),
        start,
        stop,
        measure, engine, enumerate_all, per_world_limit, mode,
    )
    return block_index, records, replayed


def _replay_truncated(
    store,
    outputs: List[BlockOutput],
    measure: DensityMeasure,
    per_world_limit: Optional[int],
) -> None:
    """Re-evaluate sentinel (truncation-hit) worlds in the parent.

    A truncated densest-family enumeration returns an order-sensitive
    *window*, and enumeration order over hash-containers follows the
    per-process hash seed -- so workers flag such worlds instead of
    answering (see :func:`_block_records`) and the parent, whose hash
    seed is the one a sequential run would have used, replays them
    through the same materialised-world python path the sequential
    engines use, rebuilding each world from the store's mask rows.
    Mutates ``outputs`` in place.
    """
    from ..engine.blocks import plan_blocks

    blocks = plan_blocks(store.count)
    for block_index, records, _replayed in outputs:
        start, _stop = blocks[block_index]
        for offset, record in enumerate(records):
            if record is not None:
                continue
            i = start + offset
            world = store.indexed.world_graph(store.mask_row(i), store.order(i))
            records[offset] = measure.all_densest(world, per_world_limit)


# ----------------------------------------------------------------------
# deterministic merge (block order, sequential accumulation code)
# ----------------------------------------------------------------------
def _records_in_grid_order(
    blocks: BlockPlan,
    weights: np.ndarray,
    outputs: Iterable[BlockOutput],
) -> Tuple[Iterator[Tuple[object, float]], List[int]]:
    """Reassemble per-block outputs into the sequential record stream.

    ``outputs`` may arrive in *any* order (workers race) and are sorted
    back onto the grid; each world record is re-paired with its global
    estimator weight.  Returns the ordered record iterator plus the
    per-block replay counts.  Raises ``ValueError`` on missing,
    duplicated or mis-sized blocks -- the merge refuses to fabricate an
    estimate from a partial grid.
    """
    by_index: Dict[int, list] = {}
    replayed: List[int] = [0] * len(blocks)
    for block_index, records, block_replayed in outputs:
        if block_index in by_index:
            raise ValueError(f"duplicate block {block_index} in merge")
        if not 0 <= block_index < len(blocks):
            raise ValueError(f"unknown block {block_index} in merge")
        start, stop = blocks[block_index]
        if len(records) != stop - start:
            raise ValueError(
                f"block {block_index} returned {len(records)} records, "
                f"expected {stop - start}"
            )
        by_index[block_index] = records
        replayed[block_index] = block_replayed
    if len(by_index) != len(blocks):
        missing = sorted(set(range(len(blocks))) - set(by_index))
        raise ValueError(f"merge is missing blocks {missing}")

    def ordered() -> Iterator[Tuple[object, float]]:
        for block_index, (start, _stop) in enumerate(blocks):
            for offset, record in enumerate(by_index[block_index]):
                yield record, float(weights[start + offset])

    return ordered(), replayed


# ----------------------------------------------------------------------
# publication + dispatch
# ----------------------------------------------------------------------
def _close_segments(segments: List) -> None:
    """Close and unlink raw shared-memory segments, ignoring races."""
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


class PublishedGraph:
    """One graph payload published to shared memory.

    The graph segment is store-independent: a
    :class:`repro.session.Session` publishes it **once** and shares it
    across every world store's fan-outs (workers cache attachments per
    segment name, so warm queries re-attach nothing).
    """

    __slots__ = ("name", "layout", "_segments")

    def __init__(self, shm, layout) -> None:
        self.name = shm.name
        self.layout = layout
        self._segments = [shm]

    @classmethod
    def publish(cls, indexed) -> "PublishedGraph":
        """Pack an :class:`IndexedGraph`'s payload into shared memory."""
        from ..engine.shm import pack_arrays

        return cls(*pack_arrays(indexed.shared_payload()))

    def close(self) -> None:
        """Close and unlink the graph segment (idempotent)."""
        segments, self._segments = self._segments, []
        _close_segments(segments)


class PublishedPlan:
    """A store's shared-memory segments, reusable across dispatches.

    Publishing (packing the store's world arrays -- and, unless a shared
    graph segment is passed, the graph payload -- into
    :mod:`multiprocessing` shared memory) is the per-store setup cost
    of a fan-out.  A :class:`repro.session.Session` keeps the published
    segments of cached stores alive so every warm query reuses them,
    and unlinks a transient store's segments when its dispatch ends.
    :meth:`close` unlinks only what this plan owns.
    """

    __slots__ = ("graph_name", "graph_layout", "job_name", "job_layout",
                 "_segments")

    def __init__(self, graph: PublishedGraph, job_shm, job_layout,
                 owns_graph: bool) -> None:
        self.graph_name = graph.name
        self.graph_layout = graph.layout
        self.job_name = job_shm.name
        self.job_layout = job_layout
        self._segments = [job_shm]
        if owns_graph:
            self._segments.append(graph)

    @classmethod
    def publish(
        cls, store, graph: Optional[PublishedGraph] = None
    ) -> "PublishedPlan":
        """Pack a world store's arrays (and, unless ``graph`` is given,
        its graph payload) into shared memory.

        The masks ship as the store's uint64 words, unpacked lazily per
        world inside the workers.
        """
        from ..engine.shm import mask_payload, pack_arrays

        owns_graph = graph is None
        if owns_graph:
            graph = PublishedGraph.publish(store.indexed)
        job_arrays = mask_payload(store.mask_matrix())
        if store.order_data is not None:
            job_arrays["order_data"] = store.order_data
            job_arrays["order_indptr"] = store.order_indptr
        try:
            job_shm, job_layout = pack_arrays(job_arrays)
        except BaseException:
            if owns_graph:
                graph.close()
            raise
        return cls(graph, job_shm, job_layout, owns_graph)

    def close(self) -> None:
        """Close and unlink the owned segments (idempotent).

        A shared (session-owned) graph segment is left alone -- its
        owner closes it.
        """
        segments, self._segments = self._segments, []
        for shm in segments:
            if isinstance(shm, PublishedGraph):
                shm.close()
            else:
                _close_segments([shm])


def dispatch_blocks(
    store,
    published: PublishedPlan,
    workers: int,
    mode: str,
    measure: DensityMeasure,
    engine: str,
    enumerate_all: bool,
    per_world_limit: Optional[int],
) -> List[BlockOutput]:
    """Fan a store's chunk grid out over the persistent pool.

    ``published`` must hold the store's segments (see
    :class:`PublishedPlan`); ``engine`` must already be resolved.  At
    most ``workers`` blocks are kept in flight.
    """
    from ..engine.blocks import plan_blocks

    tasks = [
        (
            block_index,
            start,
            stop,
            published.graph_name,
            published.graph_layout,
            published.job_name,
            published.job_layout,
            mode,
            measure,
            engine,
            enumerate_all,
            per_world_limit,
        )
        for block_index, (start, stop) in enumerate(plan_blocks(store.count))
    ]
    window = min(workers, len(tasks))
    pool = _ensure_pool(window)
    # bounded dispatch: the persistent pool may be larger than this
    # call's `workers` (it grows but never shrinks), so cap the
    # number of outstanding tasks at `workers` instead of flooding
    # every pool process with work
    outputs: List[BlockOutput] = []
    pending: List = []
    for task in tasks:
        pending.append(pool.apply_async(_evaluate_block, (task,)))
        if len(pending) >= window:
            outputs.append(pending.pop(0).get())
    while pending:
        outputs.append(pending.pop(0).get())
    return outputs


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def parallel_top_k_mpds(
    graph: UncertainGraph,
    k: int = 1,
    theta: int = 160,
    measure: Optional[DensityMeasure] = None,
    sampler=None,
    seed: Optional[int] = None,
    workers: Union[int, str] = "auto",
    enumerate_all: bool = True,
    per_world_limit: Optional[int] = 100_000,
    engine: str = "auto",
) -> MPDSResult:
    """Algorithm 1 fanned out over the shared-memory substrate.

    Thin shim over a closing one-shot :class:`repro.session.Session`
    query (use a session directly to reuse sampled worlds and published
    substrates across queries).  For a fixed ``seed`` (or seeded
    MC/LP/RSS ``sampler``) the result is **byte-identical** for every
    ``workers`` value and equal to :func:`repro.core.mpds.top_k_mpds`
    with the same arguments -- the blocks evaluate slices of one world
    store and merge through the sequential accumulation code (see the
    module docstring for the full determinism contract).
    ``workers="auto"`` (default) sizes the fan-out to the host's usable
    cores (:func:`resolve_workers`) -- a 1-core host runs sequentially;
    ``workers=1`` evaluates in-process.
    """
    from ..session import Session

    with Session(graph, engine=engine) as session:
        return (
            session.query()
            .sampler(sampler, theta=theta, seed=seed)
            .measure(measure)
            .top_k(k)
            .workers(workers)
            .enumerate_all(enumerate_all)
            .per_world_limit(per_world_limit)
            .mpds()
        )


def parallel_top_k_nds(
    graph: UncertainGraph,
    k: int = 1,
    min_size: int = 2,
    theta: int = 640,
    measure: Optional[DensityMeasure] = None,
    sampler=None,
    seed: Optional[int] = None,
    workers: Union[int, str] = "auto",
    engine: str = "auto",
) -> NDSResult:
    """Algorithm 5 fanned out over the shared-memory substrate.

    Thin shim over a closing one-shot :class:`repro.session.Session`
    query.  Workers return their blocks' per-world maximum-sized
    densest subgraphs; the parent reassembles the transaction stream in
    grid order, re-runs the sequential accumulation and mines the
    merged database once -- byte-identical to
    :func:`repro.core.nds.top_k_nds` for a fixed seed, for every
    ``workers`` value.  ``workers="auto"`` (default) sizes the fan-out
    to the host's usable cores (:func:`resolve_workers`);
    ``workers=1`` evaluates in-process.
    """
    from ..session import Session

    with Session(graph, engine=engine) as session:
        return (
            session.query()
            .sampler(sampler, theta=theta, seed=seed)
            .measure(measure)
            .top_k(k)
            .min_size(min_size)
            .workers(workers)
            .nds()
        )
