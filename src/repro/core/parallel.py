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
   masks, estimator weights and LP/RSS insertion orders) as
   :mod:`multiprocessing` shared-memory segments
   (:mod:`repro.engine.shm`); a task ships only segment names and a
   byte layout, and workers attach zero-copy (cached per segment, so a
   64-block run attaches twice, not 64 times).  The masks ship as the
   store's bit-packed uint64 words; a worker wraps the attached arrays
   in a :class:`repro.engine.worldstore.WorldStore` and evaluates its
   block through :func:`evaluate_records`, the same seam every
   in-process evaluation uses.
3. **A worker-count-invariant chunk grid.**  The ``theta`` worlds are
   sharded over fixed contiguous blocks (:func:`repro.engine.blocks.
   plan_blocks` -- a pure function of the world count).  Workers claim
   whole blocks dynamically; the parent reassembles the weighted
   per-block records in grid order and feeds them through the *same*
   accumulation code the sequential estimators use
   (:func:`repro.core.mpds.finalize_mpds` /
   :func:`repro.core.nds.accumulate_transactions`).  Every float is
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
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..graph.uncertain import UncertainGraph
from .measures import DensityMeasure
from .mpds import evaluate_worlds
from .nds import evaluate_transactions
from .results import MPDSResult, NDSResult

#: (start, stop) world-index ranges of the chunk grid
BlockPlan = List[Tuple[int, int]]

#: one finished block: (block index, weighted records, replayed count)
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
# world evaluation (the one seam: in-process, per block, per replay)
# ----------------------------------------------------------------------
def evaluate_records(
    mode: str,
    worlds,
    loop_measure: DensityMeasure,
    engine_measure,
    enumerate_all: bool = True,
    per_world_limit: Optional[int] = 100_000,
) -> Tuple[list, int]:
    """Evaluate a world stream into weighted per-world records.

    The single world-evaluation seam shared by session queries, fan-out
    blocks, stale-record patching, truncation replay, the ``*_from_store``
    functions and the Lemma 1 estimators.  ``(worlds, loop_measure,
    engine_measure)`` is what :meth:`WorldStore.world_stream` returns
    (a custom sampler's stream pairs with the plain measure and
    ``engine_measure=None``).  MPDS records are ``(densest_sets,
    weight)`` (Algorithm 1); NDS records are ``(maximal set or None,
    weight)`` (Algorithm 5), and NDS ignores ``enumerate_all`` /
    ``per_world_limit``.  Returns ``(records, replayed)``, where
    ``replayed`` counts the truncated enumerations the engine re-ran on
    the python path.
    """
    if mode == "mpds":
        records = list(evaluate_worlds(
            worlds, loop_measure, enumerate_all, per_world_limit
        ))
    elif mode == "nds":
        records = list(evaluate_transactions(worlds, loop_measure))
    else:
        raise ValueError(f"mode must be 'mpds' or 'nds', got {mode!r}")
    # read after the stream is consumed: the engine counts replays as it
    # evaluates
    if engine_measure is None:
        return records, 0
    return records, engine_measure.replayed_worlds


def transient_records(
    mode: str,
    graph: UncertainGraph,
    sampler,
    theta: int,
    measure: DensityMeasure,
    seed: Optional[int] = None,
) -> list:
    """Draw ``theta`` worlds into a transient store and evaluate them.

    The Lemma 1 estimators and the experiment drivers' transaction
    collection sum weights over these records.  ``sampler`` is an
    MC/LP/RSS instance or ``None`` for ``MonteCarloSampler(graph,
    seed)``; MPDS enumeration is unbounded.  The store is closed before
    returning.
    """
    from ..engine.worldstore import WorldStore

    store = WorldStore.from_sampler(graph, sampler, theta, seed=seed)
    try:
        records, _replayed = evaluate_records(
            mode, *store.world_stream(measure), True, None
        )
    finally:
        store.close()
    return records


def _block_records(
    store,
    start: int,
    stop: int,
    measure: DensityMeasure,
    engine: str,
    enumerate_all: bool,
    per_world_limit: Optional[int],
    mode: str,
) -> Tuple[list, int]:
    """Evaluate worlds ``start:stop`` of ``store`` into weighted records.

    ``engine`` must already be resolved.  Records are byte-identical to
    what the in-process evaluation computes for the same worlds, with
    one exception: a world whose densest-family enumeration (possibly)
    hit ``per_world_limit`` is recorded as the sentinel ``None``.  The
    truncated *window* of an enumeration is order-sensitive, and
    enumeration order over string-labelled worlds depends on the
    process's hash seed -- so those few worlds must be re-evaluated in
    the parent process (:func:`_replay_truncated`), where the hash seed
    matches the sequential run by construction.  The engine's own
    replay counter already ticked for them, exactly as in a sequential
    run.  Returns ``(records, replayed_worlds)``.
    """
    records, replayed = evaluate_records(
        mode,
        *store.world_stream(measure, engine, subset=range(start, stop)),
        enumerate_all, per_world_limit,
    )
    if mode == "mpds" and enumerate_all and per_world_limit is not None:
        records = [
            None if len(record[0]) >= per_world_limit else record
            for record in records
        ]
    return records, replayed


def _evaluate_block(task) -> BlockOutput:
    """Worker entry point: evaluate one chunk-grid block.

    ``task`` is a small picklable tuple; all heavy inputs arrive by
    shared memory and are wrapped, zero-copy, in a :class:`WorldStore`.
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
    from ..engine.worldstore import WorldStore

    _shm, _arrays, indexed = _attached_entry(
        graph_name, graph_layout, want_graph=True
    )
    _job_shm, job, _ = _attached_entry(job_name, job_layout, want_graph=False)
    store = WorldStore(
        indexed, masks_from_payload(job), job["weights"],
        job.get("order_data"), job.get("order_indptr"),
    )
    try:
        records, replayed = _block_records(
            store, start, stop,
            measure, engine, enumerate_all, per_world_limit, mode,
        )
    finally:
        store.close()
    return block_index, records, replayed


def _replay_truncated(
    store,
    records: list,
    measure: DensityMeasure,
    per_world_limit: Optional[int],
) -> None:
    """Re-evaluate sentinel (truncation-hit) worlds in the parent.

    A truncated densest-family enumeration returns an order-sensitive
    *window*, and enumeration order over hash-containers follows the
    per-process hash seed -- so workers flag such worlds instead of
    answering (see :func:`_block_records`) and the parent, whose hash
    seed is the one a sequential run would have used, replays them on
    the python engine the sequential engines fall back to.  ``records``
    is the grid-ordered record list; it is patched in place.
    """
    truncated = [i for i, record in enumerate(records) if record is None]
    if not truncated:
        return
    fresh, _replayed = evaluate_records(
        "mpds", *store.world_stream(measure, "python", subset=truncated),
        True, per_world_limit,
    )
    for i, record in zip(truncated, fresh):
        records[i] = record


# ----------------------------------------------------------------------
# deterministic merge (block order, sequential accumulation code)
# ----------------------------------------------------------------------
def _records_in_grid_order(
    blocks: BlockPlan,
    outputs: Iterable[BlockOutput],
) -> Tuple[list, int]:
    """Reassemble per-block outputs into the sequential record list.

    ``outputs`` may arrive in *any* order (workers race) and are sorted
    back onto the grid.  Returns the ordered records plus the total
    replay count.  Raises ``ValueError`` on missing, duplicated or
    mis-sized blocks -- the merge refuses to fabricate an estimate from
    a partial grid.
    """
    by_index: Dict[int, list] = {}
    replayed = 0
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
        replayed += block_replayed
    if len(by_index) != len(blocks):
        missing = sorted(set(range(len(blocks))) - set(by_index))
        raise ValueError(f"merge is missing blocks {missing}")
    ordered = [
        record for index in range(len(blocks)) for record in by_index[index]
    ]
    return ordered, replayed


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
        job_arrays["weights"] = store.weights
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
) -> Tuple[list, int]:
    """Fan a store's chunk grid out over the persistent pool.

    ``published`` must hold the store's segments (see
    :class:`PublishedPlan`); ``engine`` must already be resolved.  At
    most ``workers`` blocks are kept in flight.  Returns ``(records,
    replayed)`` exactly as :func:`evaluate_records` returns them for
    the whole store in-process: the blocks are merged in grid order and
    truncated worlds are replayed here, in the parent.
    """
    from ..engine.blocks import plan_blocks

    blocks = plan_blocks(store.count)
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
        for block_index, (start, stop) in enumerate(blocks)
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
    records, replayed = _records_in_grid_order(blocks, outputs)
    _replay_truncated(store, records, measure, per_world_limit)
    return records, replayed


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
