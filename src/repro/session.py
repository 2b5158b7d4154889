"""Session/Query API: amortize sampling and substrate prep across queries.

The estimators' dominant serving workload is many queries -- different
``k``, ``min_size``, measure, MPDS vs NDS, worker counts -- against the
*same* uncertain graph.  A :class:`Session` owns the substrates those
queries share:

* the **indexed graph** (endpoint/probability arrays + cached CSR),
  built on first use and shared by every query and every world store;
* a seed-keyed **world store cache**: each distinct
  ``(sampler, theta, seed)`` draw is sampled exactly once
  (:class:`repro.engine.worldstore.WorldStore`) and replayed by every
  later query that names it -- zero resampling;
* a per-(mode, store, measure, engine, enumerate_all,
  per_world_limit) **evaluation cache**: the per-world densest-family /
  transaction records are computed once, so a warm query that only
  varies ``k`` or ``min_size`` replays records through the cheap
  finalize stage instead of re-solving every world (a different
  measure, mode, ``enumerate_all`` or ``per_world_limit`` re-evaluates,
  but still reuses the sampled worlds), and an NDS ``(k, min_size)``
  asked before copies its mined result instead of mining again;
* the **published shared-memory segments** for parallel queries: the
  graph payload and each store's world arrays are packed once and kept
  alive for the session, so warm fan-outs ship only tiny task tuples
  (and the persistent worker pool re-attaches nothing).

Queries are built with a chainable :class:`Query`::

    with Session(graph) as session:
        q = session.query().sampler("mc", theta=160, seed=7)
        best = q.measure("edge").top_k(5).mpds()
        cliquey = session.query().sampler("mc", theta=160, seed=7) \\
            .measure("clique:h=3").top_k(5).mpds()       # same worlds
        nuclei = session.query().sampler("mc", theta=160, seed=7) \\
            .min_size(3).top_k(5).nds()                  # same worlds

Sampler and measure arguments accept registry spec strings
(:mod:`repro.specs`: ``"mc:theta=160"``, ``"lp"``, ``"clique:h=3"``),
plain instances, or ``None`` for the defaults.

One pipeline
------------
Every query draws its worlds into a bit-packed :class:`WorldStore` and
evaluates that store into weighted per-world records -- in-process, or
over the published chunk-grid fan-out when ``workers > 1``, both
through :func:`repro.core.parallel.evaluate_records` -- before the
finalize stage ranks them (MPDS) or mines them (NDS).  Seeded spec
draws are cached in the session.  Unseeded draws and MC/LP/RSS
sampler *instances* (adopted mid-stream through
:func:`repro.engine.estimators.vectorized_sampler`, so the instance's
RNG advances exactly as if it had drawn the worlds itself) get a
*transient* store, closed -- with any segment it published -- when the
query ends.  Only a custom sampler type the engine cannot replay feeds
its own ``worlds(theta)`` stream, through the same evaluate and
finalize functions (python engine, in-process only).

Byte-identity contract
----------------------
A warm query's estimates are **byte-identical** to the equivalent
one-shot ``top_k_mpds`` / ``top_k_nds`` / ``parallel_top_k_*`` call
with the same seed: the store is drained from the sampler's continuous
RNG stream and replayed worlds rebuild the very objects a sampler would
have produced (``tests/test_session_differential.py`` pins every
sampler x measure x engine x workers cell).  The free functions are
themselves thin shims over a closing one-shot session, so there is
exactly one implementation to trust.

Unseeded queries (``seed=None``) resample on every execution -- the
store cache is *seed-keyed* by design; give the sampler a seed to share
worlds across queries.

Dynamic graphs: :meth:`Session.update` applies a
:class:`repro.delta.GraphDelta` to the session's graph in place.
Queries marked :meth:`Query.dynamic` draw per-edge-substream stores
(:mod:`repro.delta`) that updates maintain *surgically* -- only the
affected mask columns are re-drawn, and only the evaluation-cache
records of worlds that actually flipped are re-computed (lazily, on
the next query) -- unless the entry evaluated that world's edge set
before, in which case the record comes from the entry's world memo
(:class:`_WorldMemo`).  Continuous-stream stores cannot be maintained
column-wise (one RNG stream spans all edges), so an update evicts them
along with their evaluations; they re-draw on demand.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from .core.measures import DensityMeasure, EdgeDensity
from .core.mpds import finalize_mpds
from .core.nds import accumulate_transactions, finalize_nds
from .core.parallel import evaluate_records
from .core.results import MPDSResult, MPDSTally, NDSResult, SerialMemo
from .graph.uncertain import UncertainGraph
from .specs import (
    build_measure,
    check_count_knob,
    check_int_knob,
    parse_sampler_spec,
    sampler_store_key,
)

def _vector_sampler(kind: str, indexed, seed: Optional[int], params: dict):
    """Build a registry kind's vectorised twin over the session's shared
    :class:`IndexedGraph` (so nothing is re-indexed per draw)."""
    from .engine.estimators import VECTOR_SAMPLER_KINDS

    twin = VECTOR_SAMPLER_KINDS.get(kind)
    if twin is None:  # pragma: no cover - parse_sampler_spec gates kinds
        raise ValueError(f"unknown sampler kind {kind!r}")
    return twin(indexed, seed, **params)


def _close_published(published: List) -> None:
    """Finalizer target: unlink a session's published segments."""
    while published:
        published.pop().close()


def _check_dynamic_draw(kind, params, seed) -> None:
    """Validate a dynamic draw request (mc/lp, seeded, no params)."""
    from .delta import DYNAMIC_KINDS

    if kind not in DYNAMIC_KINDS:
        raise ValueError(
            f"sampler kind {kind!r} is not delta-capable; dynamic draws "
            f"support {list(DYNAMIC_KINDS)}"
        )
    if params:
        raise ValueError(
            f"dynamic draws accept no sampler parameters, got "
            f"{sorted(params)}"
        )
    if seed is None:
        raise ValueError(
            "dynamic draws require an explicit seed (the per-edge "
            "substreams are keyed on it)"
        )


#: a world memo holds at most ``MEMO_LIMIT * theta`` records; an
#: overflow trims the least recently used displaced records down to
#: ``MEMO_KEEP * theta``
MEMO_LIMIT = 4
MEMO_KEEP = 3

#: an eval entry memoizes the mined NDS results of at most
#: ``NDS_MEMO_LIMIT`` ``(k, min_size)`` shapes; an overflow trims the
#: least recently used shapes down to ``NDS_MEMO_KEEP``
NDS_MEMO_LIMIT = 32
NDS_MEMO_KEEP = 24


def _world_key(store, i: int) -> Tuple[bytes, float]:
    """World ``i``'s memo key: its packed edge mask and its weight."""
    return store.row_bytes(i), float(store.weights[i])


class _WorldMemo:
    """Per-world records of one dynamic-store evaluation, by edge set.

    A record is a pure function of its world's edge set, its weight and
    the evaluation key, so a world that returns to an edge set it held
    before (a what-if update and its restore) can take the record
    computed then instead of re-running the exact stage.  ``records``
    maps a :func:`_world_key` to its record in least-recently-used
    order.  ``keys[i]`` is the key world ``i`` held when its current
    record was computed, and ``live`` counts the worlds holding each
    key.  Live records are never trimmed; a store holds ``theta``
    worlds, so at most ``theta`` records are live.  ``sets`` interns
    the node sets the records hold (a record computed again shares the
    sets the memo keeps); the entry's ``serial`` keeps no other sets.

    Keys compare packed rows, which only means "same edge set" within
    one column layout: an insert or delete changes the layout, and
    :meth:`Session.update` drops the memo (the next patch seeds one).
    """

    __slots__ = ("family", "records", "keys", "live", "sets", "limit",
                 "keep", "serial")

    def __init__(self, mode: str, store, records: list, serial) -> None:
        self.family = mode == "mpds"
        self.limit = MEMO_LIMIT * store.count
        self.keep = MEMO_KEEP * store.count
        self.records: Dict[Tuple[bytes, float], tuple] = {}
        self.sets: dict = {}
        self.keys = [_world_key(store, i) for i in range(store.count)]
        self.live = Counter(self.keys)
        for i, key in enumerate(self.keys):
            records[i] = self.put(key, records[i])
        self.serial: SerialMemo = serial
        serial.retain(self.sets)

    def get(self, key) -> Optional[tuple]:
        """The record memoized under ``key`` (refreshing its recency),
        or ``None``."""
        record = self.records.pop(key, None)
        if record is not None:
            self.records[key] = record
        return record

    def put(self, key, record: tuple) -> tuple:
        """Memoize ``record`` under ``key``; return it with its node
        sets replaced by the interned equal ones."""
        sets, weight = record
        intern = self.sets.setdefault
        if self.family:
            sets = [intern(nodes, nodes) for nodes in sets]
        elif sets is not None:
            sets = intern(sets, sets)
        record = (sets, weight)
        self.records.pop(key, None)
        self.records[key] = record
        return record

    def move(self, i: int, key) -> None:
        """World ``i`` now holds ``key``."""
        old = self.keys[i]
        self.live[old] -= 1
        if not self.live[old]:
            del self.live[old]
        self.live[key] += 1
        self.keys[i] = key

    def trim(self) -> None:
        """Past ``limit`` records, drop the least recently used
        displaced ones down to ``keep``, re-intern what is left and
        drop the node sets no longer interned from ``serial``."""
        if len(self.records) <= self.limit:
            return
        excess = len(self.records) - self.keep
        for key in list(self.records):
            if not excess:
                break
            if key not in self.live:
                del self.records[key]
                excess -= 1
        self.sets = {}
        for key, record in list(self.records.items()):
            self.put(key, record)
        self.serial.retain(self.sets)


@dataclass(eq=False)
class _EvalEntry:
    """One evaluation-cache entry: per-world ``records``, their
    ``replayed`` count and the ``dirty`` worlds that updates flipped.

    A query that hits a dirty entry looks each dirty world's edge set
    up in ``memo`` (the :class:`_WorldMemo`; ``None`` over a
    continuous-stream store or after an insert or delete) and evaluates
    only the misses: records are per-world, so the splice is
    byte-identical to a full pass.  Updates drop entries that replayed
    truncated worlds.  MPDS results serialize through ``serial``, which
    keeps one text piece per candidate and outlives patches; the world
    memo bounds it.

    ``tally`` is the k-independent half of an MPDS finalize (the
    :class:`MPDSTally`), built by the leader that evaluated the entry;
    hits only rank.  The leader that patches a dirty entry hands its
    tally to the new entry through ``finalize_mpds``, which applies
    only the flipped worlds' record changes, and only then publishes
    the new entry.

    ``mined`` maps an NDS query's exact ``(k, min_size)`` to the
    :class:`NDSResult` the first hit of that shape mined, so a later
    hit copies it instead of mining again (a smaller k is no prefix of
    a larger one: the miner settles ties at the pool threshold by
    arrival order).  It keeps at most ``NDS_MEMO_LIMIT`` shapes.

    A dirty entry is never served, and its patch builds a new entry
    without mined results; the stale tally keeps what its own results
    serialize but can no longer be patched.
    """

    records: list
    replayed: int
    memo: Optional[_WorldMemo]
    serial: SerialMemo
    dirty: set = field(default_factory=set)
    tally: Optional[MPDSTally] = None
    mined: Dict[Tuple[int, int], NDSResult] = field(default_factory=dict)


def _measure_key(measure: DensityMeasure) -> Optional[Tuple]:
    """Evaluation-cache key component identifying a measure, or ``None``.

    The bundled measures all have value-style reprs
    (``CliqueDensity(h=3)``), so equal configurations hit the same
    cache line.  Two traps are handled explicitly:

    * a measure type that inherits ``object.__repr__`` has only an
      *address* identity -- an address can be reused by a different
      measure after garbage collection, so such measures opt out of
      evaluation caching entirely (``None``: every query re-evaluates;
      the world store is still reused);
    * ``PatternDensity``'s repr names only ``pattern.name``, and two
      structurally different patterns may share a name -- the pattern's
      canonical edge list joins the key so they cannot collide.

    Wrapping measures (``HeuristicMeasure``) key on their wrapped
    measure recursively, inheriting both rules.
    """
    cls = type(measure)
    if cls.__repr__ is object.__repr__:
        return None
    key: Tuple = (cls.__module__, cls.__qualname__, repr(measure))
    pattern = getattr(measure, "pattern", None)
    if pattern is not None:
        edges = getattr(pattern, "edges", None)
        if not callable(edges):  # pragma: no cover - defensive
            return None
        key += (tuple(edges()),)
    base = getattr(measure, "base", None)
    if isinstance(base, DensityMeasure):
        base_key = _measure_key(base)
        if base_key is None:
            return None
        key += (base_key,)
    return key


class Session:
    """Prepared substrates + world store cache for repeated queries.

    Parameters
    ----------
    graph:
        The uncertain graph every query runs against.
    engine:
        Default engine for queries (``"auto" | "python" | "vectorized" |
        "jit"``); individual queries may override it.  ``jit`` is an
        alias of ``vectorized``.  Estimates are identical either way.
    workers:
        Default worker count for queries (``1`` = sequential,
        ``"auto"`` = host-sized fan-out, or an explicit count).

    World stores hold bit-packed uint64 mask words (8x less memory than
    a boolean byte matrix, published as 8x smaller segments).  A
    one-shot caller uses the session as a context manager
    (``with Session(graph) as s:``) so every store and segment is
    released when the block ends.

    Memory model: the caches grow with query *diversity* and are never
    evicted -- every distinct seeded ``(sampler, theta, seed)`` draw
    pins its ``(T, m)`` mask matrix (see ``WorldStore.nbytes``), and
    every distinct (draw, measure, engine, knobs) combination pins its
    per-world records (MPDS ones also a tally and the canonical list
    and JSON piece of each candidate they serialized, which
    ``stats_snapshot`` gauges as
    ``cached_result_texts`` / ``cached_result_text_bytes``; NDS ones
    the mined result of at most ``NDS_MEMO_LIMIT`` ``(k, min_size)``
    shapes, gauged as ``cached_nds_results``; entries
    over dynamic stores also a world memo of at most
    ``MEMO_LIMIT * theta`` records, which bounds those pieces too),
    until :meth:`close`.  Size sessions to a working set (typically
    one or a few draws queried many ways -- where the amortization
    lives); for unbounded-diversity traffic, close and recreate
    sessions at natural boundaries rather than holding one forever.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        engine: str = "auto",
        workers: Union[int, str] = 1,
    ) -> None:
        self.graph = graph
        self.engine = engine
        self.workers = workers
        self._indexed = None
        #: guards every cache, the stats dict and the in-flight tables;
        #: never held while sampling or evaluating worlds (single-flight
        #: followers wait on per-key events instead, so distinct draws
        #: still sample concurrently)
        self._lock = threading.RLock()
        #: store key -> Event set when the leader's draw lands (or fails)
        self._store_flights: Dict[Tuple, threading.Event] = {}
        #: eval key -> Event set when the leader's records land (or fail)
        self._eval_flights: Dict[Tuple, threading.Event] = {}
        self._stores: Dict[Tuple, object] = {}
        #: (store key, measure key, engine, ...) -> ``_EvalEntry``
        self._eval_cache: Dict[Tuple, _EvalEntry] = {}
        self._graph_segment = None
        self._published: Dict[Tuple, object] = {}
        #: shared container so the finalizer never references ``self``
        self._published_segments: List = []
        self._finalizer = weakref.finalize(
            self, _close_published, self._published_segments
        )
        self.stats = {
            "queries": 0,
            "stores_built": 0,
            "store_hits": 0,
            "worlds_sampled": 0,
            "worlds_evaluated": 0,
            "eval_hits": 0,
            "plans_published": 0,
            # admission/coalescing ledger: arrivals that waited on an
            # in-flight identical draw / evaluation instead of redoing it
            # (single-flight -- the serving tier's batching counters)
            "store_waits": 0,
            "eval_waits": 0,
            # dynamic-graph maintenance ledger (Session.update): how
            # many deltas were applied, how much work surgery actually
            # did (columns re-drawn in place, worlds whose edge sets
            # flipped), and what it cost the caches (evaluations marked
            # stale or dropped, stale entries patched lazily, flipped
            # worlds re-evaluated during patching and flipped worlds
            # whose record came from the world memo instead,
            # continuous-stream stores evicted)
            "graph_updates": 0,
            "dynamic_stores_built": 0,
            "stores_updated": 0,
            "stores_evicted": 0,
            "columns_redrawn": 0,
            "worlds_flipped": 0,
            "evals_invalidated": 0,
            "evals_patched": 0,
            "worlds_reevaluated": 0,
            "world_memo_hits": 0,
            # MPDS tally ledger: patches moved to new records, world
            # groups they rebuilt, and rankings over every candidate
            "tally_patches": 0,
            "tally_groups_rebuilt": 0,
            "tally_full_ranks": 0,
        }

    # ------------------------------------------------------------------
    # bookkeeping (thread-safe: sessions are shared by server threads)
    # ------------------------------------------------------------------
    def _bump(self, counter: str, n: int = 1) -> None:
        """Increment one stats counter under the session lock."""
        with self._lock:
            self.stats[counter] += n

    def stats_snapshot(self) -> dict:
        """A consistent copy of :attr:`stats` (safe to read while other
        threads are querying), plus the current cache sizes."""
        with self._lock:
            snapshot = dict(self.stats)
            snapshot["cached_stores"] = len(self._stores)
            snapshot["cached_evaluations"] = len(self._eval_cache)
            snapshot["cached_nds_results"] = sum(
                len(entry.mined) for entry in self._eval_cache.values()
            )
            # a patch hands its memo on, so count each memo once
            memos = dict.fromkeys(
                entry.serial for entry in self._eval_cache.values()
                if entry.serial.pieces
            )
        snapshot["cached_result_texts"] = len(memos)
        snapshot["cached_result_text_bytes"] = sum(
            len(text) for memo in memos
            for _p, text in list(memo.pieces.values())
        )
        return snapshot

    def has_store(self, key: Tuple) -> bool:
        """Whether a draw (a :func:`repro.specs.sampler_store_key`) is
        already cached -- the admission layer's warm/cold probe."""
        with self._lock:
            return key in self._stores

    # ------------------------------------------------------------------
    # substrates
    # ------------------------------------------------------------------
    @property
    def indexed(self):
        """The session's shared :class:`IndexedGraph` (built once)."""
        if self._indexed is None:
            from .engine.indexed import IndexedGraph

            indexed = IndexedGraph.from_uncertain(self.graph)
            with self._lock:
                if self._indexed is None:
                    self._indexed = indexed
        return self._indexed

    def world_store(
        self,
        sampler: str = "mc",
        theta: int = 160,
        seed: Optional[int] = None,
        dynamic: bool = False,
        **params,
    ):
        """Return the cached world store for a draw, sampling on miss.

        ``sampler`` is a registry spec (``"mc"``, ``"lp"``,
        ``"rss:r=4"``; a ``theta=``/``seed=`` carried in the spec
        overrides the keyword).  Seeded draws are cached under
        ``(kind, params, theta, seed, dynamic)``; unseeded draws are
        sampled fresh each call (the cache is seed-keyed by design) and
        belong to the caller, who closes them.  ``dynamic=True`` draws
        the per-edge
        substream twin (:mod:`repro.delta`) that
        :meth:`Session.update` maintains surgically.
        """
        kind, spec_params = parse_sampler_spec(sampler)
        spec_params.update(params)
        context = f"sampler spec {sampler!r}"
        if "theta" in spec_params:
            theta = check_int_knob(
                context, "theta", spec_params.pop("theta"), positive=True
            )
        if "seed" in spec_params:
            seed = check_int_knob(context, "seed", spec_params.pop("seed"))
        theta = check_int_knob(context, "theta", theta, positive=True)
        if dynamic:
            _check_dynamic_draw(kind, spec_params, seed)
        return self._store_for(kind, spec_params, theta, seed, dynamic)

    def _store_for(
        self,
        kind: str,
        params: dict,
        theta: int,
        seed: Optional[int],
        dynamic: bool = False,
    ):
        """Return the cached store for a draw -- **single-flight**.

        Concurrent requests for the *same* ``(kind, params, theta,
        seed, dynamic)`` draw coalesce: the first arrival (the leader)
        samples, later arrivals wait on its in-flight event and then
        take the cache hit (counted in ``stats["store_waits"]``)
        instead of resampling.  Distinct draws never wait on each other
        -- the session lock is held only for cache/table bookkeeping,
        never while sampling.
        """
        if seed is None:
            return self._draw_store(kind, params, theta, seed, dynamic)
        key = sampler_store_key(kind, params, theta, seed, dynamic)
        while True:
            with self._lock:
                store = self._stores.get(key)
                if store is not None:
                    self.stats["store_hits"] += 1
                    return store
                flight = self._store_flights.get(key)
                if flight is None:
                    flight = threading.Event()
                    self._store_flights[key] = flight
                    leader = True
                else:
                    leader = False
                    self.stats["store_waits"] += 1
            if not leader:
                # wait for the leader's draw, then re-read the cache (a
                # failed draw leaves it empty and this arrival retries
                # as the new leader -- errors re-raise from the sampler)
                flight.wait()
                continue
            try:
                store = self._draw_store(kind, params, theta, seed, dynamic)
                with self._lock:
                    self._stores[key] = store
                return store
            finally:
                with self._lock:
                    self._store_flights.pop(key, None)
                flight.set()

    def _draw_store(self, kind, params, theta, seed, dynamic=False):
        """Sample one draw into a fresh store (counts it in stats)."""
        from .engine.worldstore import WorldStore

        if dynamic:
            from .delta import draw_dynamic_store

            store = draw_dynamic_store(
                self.indexed, kind=kind, theta=theta, seed=seed
            )
        else:
            vec = _vector_sampler(kind, self.indexed, seed, params)
            store = WorldStore.from_vectorized(vec, theta, kind=kind, seed=seed)
        with self._lock:
            self.stats["stores_built"] += 1
            if dynamic:
                self.stats["dynamic_stores_built"] += 1
            self.stats["worlds_sampled"] += store.count
        return store

    def _published_graph(self):
        """Publish the graph payload once; every store's fan-out shares it."""
        from .core.parallel import PublishedGraph

        indexed = self.indexed
        with self._lock:
            if self._graph_segment is None:
                self._graph_segment = PublishedGraph.publish(indexed)
                self._published_segments.append(self._graph_segment)
            return self._graph_segment

    def _published_plan(self, key: Optional[Tuple], store):
        """Publish a store's fan-out arrays once; reuse across queries.

        ``key=None`` marks a transient store: its plan is never cached
        and the caller closes it once the dispatch ends.  A store drawn
        over a foreign index (a sampler instance built on another
        graph) publishes its own graph payload with it.
        """
        from .core.parallel import PublishedPlan

        graph_segment = (
            self._published_graph() if store.indexed is self.indexed else None
        )
        with self._lock:
            published = self._published.get(key)
            if published is None:
                published = PublishedPlan.publish(store, graph=graph_segment)
                self.stats["plans_published"] += 1
                if key is not None:
                    self._published[key] = published
                    self._published_segments.append(published)
            return published

    # ------------------------------------------------------------------
    # dynamic-graph maintenance
    # ------------------------------------------------------------------
    def update(self, delta) -> dict:
        """Apply a :class:`repro.delta.GraphDelta` to the live session.

        The graph is mutated in place and every session substrate is
        brought in line *incrementally* where the representation allows
        it:

        * **dynamic stores** (per-edge substream draws) are surgically
          maintained -- only the columns of updated/inserted edges are
          re-drawn (``columns_redrawn``), and the column diffs report
          exactly which worlds flipped (``worlds_flipped``);
        * **evaluation caches** over dynamic stores are invalidated at
          world granularity: entries are marked stale with their dirty
          world set and re-evaluated lazily on the next hit (only the
          flipped worlds replay);
        * **continuous-stream stores** cannot be maintained
          column-wise, so they are evicted with their evaluations and
          re-drawn on demand;
        * published shared-memory segments describe pre-update arrays
          and are unlinked (warm fan-outs republish).

        Not safe to run concurrently with in-flight queries on the
        same session -- the serving tier drains admissions first
        (``POST /graphs/<name>/update``).  Returns a summary dict of
        the counters this update moved.
        """
        from .delta import GraphDelta, apply_store_delta, reweighted_index

        if not isinstance(delta, GraphDelta):
            raise TypeError(
                f"Session.update expects a GraphDelta, "
                f"got {type(delta).__name__}"
            )
        with self._lock:
            if self._store_flights or self._eval_flights:
                raise RuntimeError(
                    "Session.update cannot run concurrently with "
                    "in-flight queries; drain them first (the serving "
                    "tier's admission gate does exactly that)"
                )
            resolved = delta.apply(self.graph)
            self.stats["graph_updates"] += 1
            summary = {
                "updates": len(resolved.updates),
                "noop_updates": resolved.noop_updates,
                "inserts": len(resolved.inserts),
                "deletes": len(resolved.deletes),
                "columns_redrawn": 0,
                "worlds_flipped": 0,
                "stores_updated": 0,
                "stores_evicted": 0,
                "evals_invalidated": 0,
            }
            if resolved.empty:
                # a no-op delta touches nothing: zero columns redrawn,
                # zero evaluations invalidated (pinned by the property
                # tier)
                return summary
            if self._indexed is None:
                # no query ever indexed the graph, so no store, eval
                # entry or published segment can exist either
                return summary
            from .engine.indexed import IndexedGraph

            # an insert or delete re-lays the mask columns, so packed
            # rows no longer name the edge sets the world memos saw
            relaid = bool(resolved.inserts or resolved.deletes)
            new_indexed = (
                IndexedGraph.from_uncertain(self.graph) if relaid
                else reweighted_index(self._indexed, resolved.updates)
            )
            self._indexed = new_indexed
            updated_flips: Dict[Tuple, set] = {}
            evicted = set()
            for key in list(self._stores):
                store = self._stores[key]
                if getattr(store, "dynamic", False):
                    outcome = apply_store_delta(store, resolved, new_indexed)
                    summary["columns_redrawn"] += outcome.columns_redrawn
                    summary["worlds_flipped"] += len(outcome.flipped)
                    summary["stores_updated"] += 1
                    updated_flips[key] = {int(i) for i in outcome.flipped}
                else:
                    del self._stores[key]
                    store.close()
                    evicted.add(key)
                    summary["stores_evicted"] += 1
            for ekey, entry in list(self._eval_cache.items()):
                flips = updated_flips.get(ekey[1])
                if flips is not None and relaid:
                    # even a delta that flips no world moves columns
                    entry.memo = None
                if ekey[1] in evicted or (flips and entry.replayed):
                    # (a truncated entry's replay attribution is not
                    # per-world, so a spliced total would lie)
                    del self._eval_cache[ekey]
                elif flips:
                    entry.dirty.update(flips)
                else:
                    continue
                summary["evals_invalidated"] += 1
            for counter in ("columns_redrawn", "worlds_flipped",
                            "stores_updated", "stores_evicted",
                            "evals_invalidated"):
                self.stats[counter] += summary[counter]
            # published segments snapshot pre-update arrays; unlink them
            self._graph_segment = None
            self._published.clear()
        _close_published(self._published_segments)
        return summary

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self) -> "Query":
        """Start a chainable query against this session's graph."""
        return Query(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release cached stores and unlink published shared memory.

        Idempotent -- and not terminal: a session stays usable after
        ``close()`` (later queries simply refill the caches and publish
        fresh segments, which a further ``close()`` -- or the GC /
        interpreter-exit finalizer, which drains the same shared list --
        releases again).
        """
        with self._lock:
            # stores own spill files / packed buffers: release them now
            # rather than leaving cleanup to GC timing (update() closes
            # evicted stores for the same reason)
            for store in self._stores.values():
                store.close()
            self._stores.clear()
            self._eval_cache.clear()
            self._graph_segment = None
            self._published.clear()
        _close_published(self._published_segments)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            stores = len(self._stores)
        return (
            f"Session(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()}, "
            f"stores={stores}, engine={self.engine!r})"
        )


class Query:
    """Chainable query builder; terminal calls are :meth:`mpds` / :meth:`nds`.

    Every setter returns ``self``.  Unset knobs fall back to the
    session's defaults (engine, workers) or the estimators' historical
    defaults (``theta=160`` for MPDS, ``640`` for NDS, ``k=1``,
    ``min_size=2``).
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._sampler_kind = "mc"
        self._sampler_params: dict = {}
        self._sampler_instance = None
        self._theta: Optional[int] = None
        self._seed: Optional[int] = None
        self._measure: Optional[DensityMeasure] = None
        self._k = 1
        self._min_size = 2
        self._engine: Optional[str] = None
        self._workers: Optional[Union[int, str]] = None
        self._enumerate_all = True
        self._per_world_limit: Optional[int] = 100_000
        self._dynamic = False

    # ------------------------------------------------------------------
    # chainable setters
    # ------------------------------------------------------------------
    def sampler(
        self,
        sampler=None,
        *,
        theta: Optional[int] = None,
        seed: Optional[int] = None,
        **params,
    ) -> "Query":
        """Choose the sampler: a spec string, an instance, or ``None``.

        Spec strings come from the :mod:`repro.specs` registry
        (``"mc"``, ``"lp"``, ``"rss:r=4"``); ``theta=``/``seed=`` may
        ride in the spec or as keywords (the spec wins on conflict,
        matching :meth:`Session.world_store` and the CLI flags).
        ``None`` keeps the default Monte Carlo.  A :class:`WorldSampler`
        *instance* carries mutable RNG state, so its draw is never
        cached: an MC/LP/RSS instance is adopted into a transient store
        (its RNG advances exactly as if it had drawn the worlds), and a
        custom sampler type streams ``worlds(theta)`` in-process.
        """
        if sampler is None:
            self._sampler_instance = None
            self._sampler_kind = "mc"
            self._sampler_params = dict(params)
        elif isinstance(sampler, str):
            kind, spec_params = parse_sampler_spec(sampler)
            spec_params.update(params)
            # spec-carried knobs win over the keywords, the same
            # precedence Session.world_store and the CLI flags use
            context = f"sampler spec {sampler!r}"
            spec_theta = check_int_knob(
                context, "theta", spec_params.pop("theta", None),
                positive=True,
            )
            spec_seed = check_int_knob(
                context, "seed", spec_params.pop("seed", None)
            )
            if spec_theta is not None:
                theta = spec_theta
            if spec_seed is not None:
                seed = spec_seed
            self._sampler_instance = None
            self._sampler_kind = kind
            self._sampler_params = spec_params
        else:
            if params:
                raise ValueError(
                    "cannot pass constructor parameters with a sampler "
                    "instance"
                )
            self._sampler_instance = sampler
        if theta is not None:
            self._theta = check_int_knob(
                "Query.sampler", "theta", theta, positive=True
            )
        if seed is not None:
            self._seed = check_int_knob("Query.sampler", "seed", seed)
        return self

    def measure(self, measure=None, **params) -> "Query":
        """Choose the density measure: spec string, instance, or ``None``
        (edge density).  Spec strings come from :mod:`repro.specs`
        (``"edge"``, ``"clique:h=3"``, ``"pattern:psi=diamond"``,
        ``"surplus:alpha=0.33"``)."""
        if measure is None and not params:
            self._measure = None
        else:
            self._measure = build_measure(measure, **params)
        return self

    def theta(self, theta: int) -> "Query":
        """Set the sampled world count (a positive integer)."""
        self._theta = check_int_knob(
            "Query.theta", "theta", theta, positive=True
        )
        return self

    def seed(self, seed: Optional[int]) -> "Query":
        """Set the sampling seed (seeded draws are cached per session)."""
        self._seed = check_int_knob("Query.seed", "seed", seed)
        return self

    def top_k(self, k: int) -> "Query":
        """Set how many node sets to return (a positive integer).

        Validated here, in the builder, with the spec-registry rules
        (``bool`` rejected, ``k >= 1``) -- a bad ``k`` used to survive
        until deep in finalize.
        """
        self._k = check_count_knob("Query.top_k", "k", k)
        return self

    def min_size(self, min_size: int) -> "Query":
        """Set ``l_m``, the minimum returned node-set size (NDS only;
        a positive integer, validated in the builder)."""
        self._min_size = check_count_knob(
            "Query.min_size", "min_size (l_m)", min_size
        )
        return self

    def engine(self, engine: str) -> "Query":
        """Override the session's engine for this query."""
        self._engine = engine
        return self

    def workers(self, workers: Union[int, str]) -> "Query":
        """Override the session's worker count (``1``, N, or ``"auto"``)."""
        self._workers = workers
        return self

    def enumerate_all(self, enumerate_all: bool) -> "Query":
        """Record all densest subgraphs per world (Table IX ablation)."""
        self._enumerate_all = enumerate_all
        return self

    def per_world_limit(self, limit: Optional[int]) -> "Query":
        """Cap the densest subgraphs enumerated per world (a positive
        integer, or ``None`` for unbounded; validated in the builder)."""
        self._per_world_limit = check_count_knob(
            "Query.per_world_limit", "per_world_limit", limit, optional=True
        )
        return self

    def dynamic(self, dynamic: bool = True) -> "Query":
        """Draw this query's worlds from per-edge seed-keyed substreams.

        Dynamic draws (:mod:`repro.delta`) survive
        :meth:`Session.update` surgically -- a probability update
        re-draws one mask column instead of evicting the store.  They
        are deterministic and engine/worker-invariant like the
        continuous-stream draws, but **not** byte-identical to the
        one-shot estimators
        (a continuous RNG stream cannot be maintained column-wise).
        Requires an explicit seed; ``mc``/``lp`` kinds only.
        """
        self._dynamic = bool(dynamic)
        return self

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def mpds(self) -> MPDSResult:
        """Run Algorithm 1 (top-k MPDS) with the configured knobs."""
        return self._execute("mpds")

    def nds(self) -> NDSResult:
        """Run Algorithm 5 (top-k NDS) with the configured knobs."""
        return self._execute("nds")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, mode: str):
        session = self._session
        theta = self._theta
        if theta is None:
            theta = 160 if mode == "mpds" else 640
        engine = self._engine if self._engine is not None else session.engine
        measure = self._measure or EdgeDensity()

        workers_requested = self._workers
        if workers_requested is None and session.workers != 1:
            workers_requested = session.workers
        workers = 1
        if workers_requested is not None:
            from .core.parallel import resolve_workers

            workers = resolve_workers(workers_requested)
            if workers < 1:
                raise ValueError(
                    f"workers must be >= 1, got {workers_requested}"
                )

        session._bump("queries")
        if self._dynamic:
            if self._sampler_instance is not None:
                raise ValueError(
                    "dynamic draws cannot use a sampler instance "
                    "(their substreams are derived from the seed)"
                )
            _check_dynamic_draw(
                self._sampler_kind, self._sampler_params, self._seed
            )
        if theta == 1:
            # a one-world grid cannot fan out: evaluate in-process
            workers = 1
        from .engine.estimators import is_replayable, resolve_engine

        instance = self._sampler_instance
        if not is_replayable(instance):
            return self._custom_execute(mode, measure, engine, theta, workers)
        resolved = resolve_engine(engine, None, measure)
        if instance is None and self._seed is not None:
            return self._cached_execute(mode, measure, resolved, theta,
                                        workers)
        store = self._transient_store(theta)
        try:
            records, replayed = self._records(
                mode, store, None, measure, resolved, workers
            )
        finally:
            store.close()
        return self._finalize(mode, records, replayed)

    def _knobs(self, mode: str) -> Tuple[bool, Optional[int]]:
        """``(enumerate_all, per_world_limit)`` as the evaluation uses
        them: NDS ignores both, so it keys and ships the neutral pair."""
        if mode == "mpds":
            return self._enumerate_all, self._per_world_limit
        return True, None

    def _cached_execute(self, mode, measure, resolved, theta, workers):
        """Serve a seeded spec query from the session caches, filling
        them on miss.

        Layered reuse: an evaluation-cache hit replays the per-world
        records straight through finalize (no sampling, no world
        evaluation); a miss falls back to the world store (no sampling)
        and evaluates in-process or over the published fan-out.

        Cacheable evaluations are **single-flight** like the store
        draws: concurrent identical queries elect one leader to
        evaluate, later arrivals wait and replay its records
        (``stats["eval_waits"]``), so a burst of identical requests
        costs one evaluation, not N.
        """
        session = self._session
        skey = sampler_store_key(
            self._sampler_kind, self._sampler_params, theta, self._seed,
            self._dynamic,
        )
        mkey = _measure_key(measure)
        ekey = (
            None
            if mkey is None
            else (mode, skey, mkey, resolved) + self._knobs(mode)
        )

        def evaluate(stale: Optional[_EvalEntry]) -> _EvalEntry:
            store = session._store_for(
                self._sampler_kind, self._sampler_params, theta, self._seed,
                self._dynamic,
            )
            if stale is None:
                records, replayed = self._records(
                    mode, store, skey, measure, resolved, workers
                )
                session._bump("worlds_evaluated", len(records))
                memo, serial = None, SerialMemo()
                if ekey is not None and store.dynamic and not replayed:
                    memo = _WorldMemo(mode, store, records, serial)
                return _EvalEntry(records, replayed, memo, serial)
            # per-world records make the splice exact: unflipped worlds
            # keep their pre-update records, a dirty world whose edge set
            # the memo holds takes that record, and the misses replay
            # through the same seams a full pass uses.  A dirty entry
            # always has replayed == 0 (truncated ones are dropped on
            # update) and memoized records come from batches that
            # replayed none, so the misses' replay count is the new total.
            records = list(stale.records)
            memo, serial = stale.memo, stale.serial
            dirty = misses = sorted(stale.dirty)
            if memo is not None:
                misses = []
                for index in dirty:
                    key = _world_key(store, index)
                    memo.move(index, key)
                    record = memo.get(key)
                    if record is None:
                        misses.append(index)
                    else:
                        records[index] = record
            replayed = 0
            if misses:
                fresh, replayed = self._records(
                    mode, store, skey, measure, resolved, 1, subset=misses
                )
                for index, record in zip(misses, fresh):
                    if memo is not None and not replayed:
                        record = memo.put(memo.keys[index], record)
                    records[index] = record
            if memo is not None:
                memo.trim()
            elif not replayed:
                # the column layout moved: key every world afresh
                memo = _WorldMemo(mode, store, records, serial)
            with session._lock:
                session.stats["evals_patched"] += 1
                session.stats["worlds_reevaluated"] += len(misses)
                session.stats["worlds_evaluated"] += len(misses)
                session.stats["world_memo_hits"] += len(dirty) - len(misses)
            return _EvalEntry(records, replayed, memo, serial)

        if ekey is None:
            entry = evaluate(None)
            return self._finalize(mode, entry.records, entry.replayed)
        while True:
            with session._lock:
                entry = session._eval_cache.get(ekey)
                if entry is not None and not entry.dirty:
                    session.stats["eval_hits"] += 1
                    break
                flight = session._eval_flights.get(ekey)
                leader = flight is None
                if leader:
                    flight = session._eval_flights[ekey] = threading.Event()
                else:
                    session.stats["eval_waits"] += 1
            if not leader:
                flight.wait()
                continue
            try:
                # the leader finalizes before publishing, so the stale
                # entry's tally moves to the patched one exactly once
                stale, entry = entry, evaluate(entry)  # None, or dirty
                result = self._finalize(mode, entry.records,
                                        entry.replayed, entry, stale)
                with session._lock:
                    session._eval_cache[ekey] = entry
                return result
            finally:
                with session._lock:
                    session._eval_flights.pop(ekey, None)
                flight.set()
        return self._finalize(mode, entry.records, entry.replayed, entry)

    def _transient_store(self, theta: int):
        """Draw an uncached store: an unseeded spec draw, or an MC/LP/RSS
        sampler instance adopted mid-stream (its RNG and bookkeeping
        advance exactly as if it had drawn the worlds itself)."""
        from .engine.worldstore import WorldStore

        session = self._session
        instance = self._sampler_instance
        if instance is None:
            vec = _vector_sampler(
                self._sampler_kind, session.indexed, None,
                self._sampler_params,
            )
            store = WorldStore.from_vectorized(
                vec, theta, kind=self._sampler_kind
            )
        else:
            store = WorldStore.from_sampler(session.graph, instance, theta)
        # uncached draw: count it so session stats stay truthful
        session._bump("worlds_sampled", store.count)
        return store

    def _custom_execute(self, mode, measure, engine, theta, workers):
        """Evaluate a custom (non-replayable) sampler's own world stream.

        The engine cannot replay such a sampler into a store, so its
        ``worlds(theta)`` feed the same evaluate -> finalize functions
        in-process on the python engine; the fan-out, which ships
        stored worlds to its workers, cannot take it.
        """
        from .engine.estimators import resolve_engine

        instance = self._sampler_instance
        if workers > 1:
            raise ValueError(
                "the parallel substrate shards the MC, LP and RSS "
                "sampling streams only; no vectorised twin for sampler "
                f"{type(instance).__name__}"
            )
        # raises for the vector engines, which replay MC/LP/RSS only
        resolve_engine(engine, instance, measure)
        records, replayed = self._evaluate(
            mode, instance.worlds(theta), measure, None
        )
        self._session._bump("worlds_sampled", len(records))
        return self._finalize(mode, records, replayed)

    def _records(self, mode, store, skey, measure, resolved, workers,
                 subset=None):
        """Evaluate a store (or only its ``subset`` worlds) into
        weighted per-world records: over the published fan-out when
        ``workers > 1``, else in-process.

        The fan-out returns exactly the list the in-process evaluation
        produces, so both fill the same evaluation cache and finalize
        identically.  A transient store (``skey=None``) unlinks its
        segment when the dispatch ends, successful or not.
        """
        if workers == 1 or subset is not None:
            return self._evaluate(
                mode, *store.world_stream(measure, resolved, subset=subset)
            )
        from .core.parallel import dispatch_blocks

        published = self._session._published_plan(skey, store)
        try:
            return dispatch_blocks(
                store, published, workers, mode, measure, resolved,
                *self._knobs(mode),
            )
        finally:
            if skey is None:
                published.close()

    def _evaluate(self, mode, worlds, loop_measure, engine_measure):
        """Evaluate a world stream in-process into ``(records,
        replayed)`` through :func:`repro.core.parallel.evaluate_records`."""
        return evaluate_records(
            mode, worlds, loop_measure, engine_measure, *self._knobs(mode)
        )

    def _finalize(self, mode, records, replayed, entry=None, stale=None):
        """Finalize records into a result.  From a cached ``entry``, an
        MPDS query ranks the entry's tally (building it on the first
        hit, by patching the ``stale`` entry's tally when the entry
        replaces one) and serializes through the entry's memo, and an
        NDS query copies the result its shape mined before (mining it
        on the first hit)."""
        if mode == "mpds":
            tally = entry.tally if entry is not None else None
            ledger = Counter()
            result = finalize_mpds(
                records if tally is None else tally, self._k,
                base=stale.tally if stale is not None else None,
                changed=stale.dirty if stale is not None else (),
                ledger=ledger,
            )
            result.replayed_worlds = replayed
            with self._session._lock:
                for key, n in ledger.items():
                    self._session.stats[key] += n
            if entry is not None:
                entry.tally = result._base
                result._memo = entry.serial
            return result
        shape, lock = (self._k, self._min_size), self._session._lock
        if entry is not None:
            with lock:
                mined = entry.mined.pop(shape, None)
                if mined is not None:
                    entry.mined[shape] = mined  # now most recently used
                    return replace(mined, top=list(mined.top))
        transactions, weights, total_weight, actual_theta = (
            accumulate_transactions(iter(records))
        )
        result = finalize_nds(
            transactions, weights, total_weight, actual_theta,
            self._k, self._min_size,
        )
        if entry is not None:
            # racing first hits each store an equal result
            with lock:
                entry.mined[shape] = replace(result, top=list(result.top))
                if len(entry.mined) > NDS_MEMO_LIMIT:
                    for stale in list(entry.mined)[:-NDS_MEMO_KEEP]:
                        del entry.mined[stale]
        return result

    def __repr__(self) -> str:
        sampler = (
            type(self._sampler_instance).__name__
            if self._sampler_instance is not None
            else self._sampler_kind
        )
        return (
            f"Query(sampler={sampler!r}, theta={self._theta}, "
            f"seed={self._seed}, k={self._k})"
        )
