"""Session/Query API semantics: spec registry, store caching, the
zero-resampling contract (spy-asserted), the per-entry memo of mined
NDS results (a warm repeat does not mine), result serialization, and
the ``workers="auto"`` resolution."""

from __future__ import annotations

import json
import random

import pytest

from repro.core import CliqueDensity, EdgeDensity, PatternDensity
from repro.core.extensions import EdgeSurplus
from repro.core.heuristics import HeuristicMeasure
from repro.core.mpds import mpds_from_store, top_k_mpds
from repro.core.nds import nds_from_store, top_k_nds
from repro.core.results import (
    MPDSResult,
    NDSResult,
    ScoredNodeSet,
    result_from_dict,
    result_from_json,
)
from repro.engine.worldstore import WorldStore
from repro.sampling import (
    LazyPropagationSampler,
    MonteCarloSampler,
    RecursiveStratifiedSampler,
)
from repro.session import Query, Session
from repro.specs import (
    build_measure,
    build_sampler,
    parse_sampler_spec,
    parse_spec,
    split_sampler_spec,
)

from .conftest import random_uncertain_graph


@pytest.fixture
def graph():
    return random_uncertain_graph(random.Random(3), 24, 0.2)


# ----------------------------------------------------------------------
# spec registry
# ----------------------------------------------------------------------
class TestSpecs:
    def test_parse_spec_values(self):
        name, params = parse_spec("rss:r=4,max_depth=2,frac=0.5,flag=true")
        assert name == "rss"
        assert params == {"r": 4, "max_depth": 2, "frac": 0.5, "flag": True}

    def test_parse_spec_bare_name_and_case(self):
        assert parse_spec("MC") == ("mc", {})
        assert parse_spec("Clique:h=3") == ("clique", {"h": 3})

    def test_parse_spec_rejects_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec("mc:oops")
        with pytest.raises(ValueError, match="empty spec"):
            parse_spec("   ")

    def test_sampler_spec_vocabulary(self):
        assert parse_sampler_spec("LP") == ("lp", {})
        with pytest.raises(ValueError, match="unknown sampler"):
            parse_sampler_spec("metropolis")

    def test_split_sampler_spec_extracts_query_knobs(self):
        kind, theta, seed, params = split_sampler_spec(
            "rss:theta=80,seed=9,r=3"
        )
        assert (kind, theta, seed) == ("rss", 80, 9)
        assert params == {"r": 3}

    def test_split_sampler_spec_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="theta must be an integer"):
            split_sampler_spec("mc:theta=1.5")
        # bool subclasses int; theta=true must not mean "1 world"
        with pytest.raises(ValueError, match="theta must be an integer"):
            split_sampler_spec("mc:theta=true")
        with pytest.raises(ValueError, match="seed must be an integer"):
            split_sampler_spec("mc:seed=false")

    def test_build_sampler_kinds(self, graph):
        assert isinstance(build_sampler("mc", graph, 1), MonteCarloSampler)
        assert isinstance(
            build_sampler("lp", graph, 1), LazyPropagationSampler
        )
        assert isinstance(
            build_sampler("rss", graph, 1, r=3), RecursiveStratifiedSampler
        )
        with pytest.raises(ValueError, match="unknown sampler"):
            build_sampler("nope", graph)

    def test_build_measure_specs(self):
        assert isinstance(build_measure(), EdgeDensity)
        assert isinstance(build_measure("edge"), EdgeDensity)
        clique = build_measure("clique:h=4")
        assert isinstance(clique, CliqueDensity) and clique.h == 4
        pattern = build_measure("pattern:psi=2-star")
        assert isinstance(pattern, PatternDensity)
        surplus = build_measure("surplus:alpha=0.25")
        assert isinstance(surplus, EdgeSurplus)

    def test_build_measure_overrides_and_heuristic(self):
        clique = build_measure("clique", h=5)
        assert clique.h == 5
        wrapped = build_measure("edge", heuristic=True)
        assert isinstance(wrapped, HeuristicMeasure)

    def test_build_measure_passthrough_and_errors(self):
        measure = CliqueDensity(3)
        assert build_measure(measure) is measure
        with pytest.raises(ValueError, match="unknown measure"):
            build_measure("volume")
        with pytest.raises(ValueError, match="does not accept"):
            build_measure("edge:h=3")
        with pytest.raises(ValueError, match="unknown pattern"):
            build_measure("pattern:psi=pentagon")


# ----------------------------------------------------------------------
# world store
# ----------------------------------------------------------------------
class TestWorldStore:
    def test_store_replays_one_shot_result(self, graph):
        store = WorldStore.from_sampler(graph, None, 32, seed=5)
        assert store.count == 32
        result = mpds_from_store(store, k=3)
        assert result == top_k_mpds(graph, k=3, theta=32, seed=5)
        nds = nds_from_store(store, k=2, min_size=2)
        assert nds == top_k_nds(graph, k=2, theta=32, seed=5)

    def test_store_replay_is_repeatable(self, graph):
        store = WorldStore.from_sampler(graph, None, 24, seed=8)
        first = mpds_from_store(store, k=2)
        second = mpds_from_store(store, k=2)
        assert first == second

    def test_store_python_engine_replay(self, graph):
        store = WorldStore.from_sampler(graph, None, 24, seed=8)
        assert mpds_from_store(store, k=2, engine="python") == top_k_mpds(
            graph, k=2, theta=24, seed=8, engine="python"
        )

    def test_store_orders_for_lp(self, graph):
        sampler = LazyPropagationSampler(graph, 4)
        store = WorldStore.from_sampler(graph, sampler, 16, seed=4)
        assert store.kind == "lp"
        assert store.order_data is not None
        assert store.nbytes > 0
        assert "lp" in repr(store)

    def test_store_validations(self, graph):
        store = WorldStore.from_sampler(graph, None, 8, seed=1)
        with pytest.raises(ValueError, match="k must be"):
            mpds_from_store(store, k=0)
        with pytest.raises(ValueError, match="min_size"):
            nds_from_store(store, k=1, min_size=0)


# ----------------------------------------------------------------------
# session semantics
# ----------------------------------------------------------------------
class TestSession:
    def test_store_cached_across_queries_and_algorithms(self, graph):
        with Session(graph) as session:
            session.query().sampler("mc", theta=24, seed=7).top_k(2).mpds()
            session.query().sampler("mc", theta=24, seed=7).top_k(5).mpds()
            session.query().sampler("mc", theta=24, seed=7).nds()
            session.query().sampler(
                "mc", theta=24, seed=7
            ).measure("clique:h=2").mpds()
            stats = session.stats
        assert stats["stores_built"] == 1
        # the k=5 re-query is served by the evaluation cache *before*
        # the store is consulted; nds and the clique measure re-evaluate
        # and hit the store
        assert stats["store_hits"] == 2
        assert stats["eval_hits"] == 1
        assert stats["worlds_sampled"] == 24
        assert stats["queries"] == 4

    def test_k_variants_hit_the_evaluation_cache(self, graph):
        with Session(graph) as session:
            for k in (1, 2, 3, 4):
                session.query().sampler("mc", theta=24, seed=7).top_k(k).mpds()
            assert session.stats["eval_hits"] == 3
            assert session.stats["worlds_evaluated"] == 24

    def test_distinct_draws_get_distinct_stores(self, graph):
        with Session(graph) as session:
            session.query().sampler("mc", theta=24, seed=7).mpds()
            session.query().sampler("mc", theta=24, seed=8).mpds()
            session.query().sampler("mc", theta=32, seed=7).mpds()
            session.query().sampler("lp", theta=24, seed=7).mpds()
            assert session.stats["stores_built"] == 4
            assert session.stats["store_hits"] == 0

    def test_second_query_does_zero_sampling_work(self, graph, monkeypatch):
        """The acceptance spy: after the first query populates the
        store, no sampling entry point runs again -- not the drain, not
        any batch draw, not a pure-Python world loop."""
        import repro.engine.blocks as blocks
        from repro.engine.lazy import VectorizedLazyPropagationSampler
        from repro.engine.sampler import VectorizedMonteCarloSampler
        from repro.engine.stratified import VectorizedStratifiedSampler
        from repro.sampling.base import WorldSampler

        reference = top_k_mpds(graph, k=2, theta=24, seed=7)
        with Session(graph) as session:
            first = session.query().sampler(
                "mc", theta=24, seed=7
            ).top_k(2).mpds()

            def forbid(name):
                def _fail(*args, **kwargs):
                    raise AssertionError(f"warm query called {name}")
                return _fail

            monkeypatch.setattr(
                blocks, "drain_mask_stream", forbid("drain_mask_stream")
            )
            monkeypatch.setattr(
                VectorizedMonteCarloSampler, "edge_masks",
                forbid("edge_masks"),
            )
            monkeypatch.setattr(
                VectorizedMonteCarloSampler, "mask_worlds",
                forbid("mask_worlds"),
            )
            monkeypatch.setattr(
                VectorizedLazyPropagationSampler, "mask_worlds",
                forbid("lp mask_worlds"),
            )
            monkeypatch.setattr(
                VectorizedStratifiedSampler, "mask_worlds",
                forbid("rss mask_worlds"),
            )
            monkeypatch.setattr(
                MonteCarloSampler, "worlds", forbid("python worlds")
            )
            # same seed/theta, different k, measure and algorithm: all
            # must be served from the session caches
            second = session.query().sampler(
                "mc", theta=24, seed=7
            ).top_k(5).mpds()
            third = session.query().sampler(
                "mc", theta=24, seed=7
            ).measure("clique:h=2").top_k(2).mpds()
            fourth = session.query().sampler("mc", theta=24, seed=7).nds()
            assert session.stats["stores_built"] == 1
            assert session.stats["store_hits"] + session.stats["eval_hits"] == 3
        assert first.top and second.top  # sanity: queries really ran
        assert third is not None and fourth is not None
        assert first == reference

    def test_unseeded_queries_resample(self, graph):
        """The cache is seed-keyed: unseeded queries stream fresh worlds
        every time and leave nothing behind to be wrongly reused."""
        with Session(graph) as session:
            session.query().sampler("mc", theta=8).mpds()
            session.query().sampler("mc", theta=8).mpds()
            assert session.stats["stores_built"] == 0
            assert not session._stores and not session._eval_cache

    def test_sampler_instances_stream_without_caching(self, graph):
        sampler = MonteCarloSampler(graph, 5)
        with Session(graph) as session:
            result = session.query().sampler(
                sampler, theta=16, seed=5
            ).top_k(2).mpds()
            assert session.stats["stores_built"] == 0
        assert result == top_k_mpds(
            graph, k=2, theta=16, sampler=MonteCarloSampler(graph, 5)
        )

    def test_indexed_graph_shared_across_stores(self, graph):
        with Session(graph) as session:
            session.query().sampler("mc", theta=8, seed=1).mpds()
            session.query().sampler("lp", theta=8, seed=1).mpds()
            stores = list(session._stores.values())
        assert len(stores) == 2
        assert stores[0].indexed is stores[1].indexed
        assert stores[0].indexed is session.indexed

    def test_world_store_accepts_spec_strings(self, graph):
        with Session(graph) as session:
            a = session.world_store("mc:theta=16,seed=3")
            b = session.world_store("mc", theta=16, seed=3)
            assert a is b
            assert a.count == 16

    def test_close_is_idempotent_and_repr(self, graph):
        session = Session(graph)
        session.query().sampler("mc", theta=8, seed=1).mpds()
        assert "stores=1" in repr(session)
        session.close()
        session.close()

    def test_close_releases_cached_stores(self, graph):
        """close() must close every cached store (spill files, packed
        buffers) rather than leave cleanup to GC timing -- the RES303
        finding repro-lint surfaced."""

        class _ClosableStore:
            closed = 0

            def close(self):
                self.closed += 1

        session = Session(graph)
        session.query().sampler("mc", theta=8, seed=1).mpds()
        fake = _ClosableStore()
        with session._lock:
            session._stores[("fake", "store", "key")] = fake
        session.close()
        assert fake.closed == 1
        with session._lock:
            assert session._stores == {}

    def test_query_validations_match_legacy(self, graph):
        with Session(graph) as session:
            with pytest.raises(ValueError, match="k must be >= 1, got 0"):
                session.query().top_k(0).mpds()
            with pytest.raises(ValueError, match="min_size"):
                session.query().min_size(0).nds()
            with pytest.raises(ValueError, match="theta must be positive"):
                session.query().theta(0).workers(2).mpds()
            with pytest.raises(ValueError, match="workers must be >= 1"):
                session.query().workers(0).mpds()
            with pytest.raises(ValueError, match="engine must be one of"):
                session.query().engine("warp").sampler(
                    "mc", theta=4, seed=1
                ).mpds()

    def test_query_sampler_argument_forms(self, graph):
        query = Session(graph).query()
        assert query.sampler("rss:r=3", theta=8, seed=2) is query
        with pytest.raises(ValueError, match="constructor parameters"):
            query.sampler(MonteCarloSampler(graph, 1), r=3)
        with pytest.raises(ValueError, match="theta must be an integer"):
            Session(graph).query().sampler("mc:theta=true")
        with pytest.raises(ValueError, match="seed must be an integer"):
            Session(graph).world_store("mc:seed=true")
        assert "rss" in repr(query) or "Query" in repr(query)

    def test_default_repr_measure_skips_eval_cache(self, graph):
        """A measure whose repr is an object address must not share
        evaluation-cache lines (addresses get reused); it re-evaluates
        per query while still reusing the sampled worlds."""

        class AddressOnlyMeasure(EdgeDensity):
            __repr__ = object.__repr__

        with Session(graph) as session:
            first = session.query().sampler("mc", theta=16, seed=2) \
                .measure(AddressOnlyMeasure()).top_k(2).mpds()
            second = session.query().sampler("mc", theta=16, seed=2) \
                .measure(AddressOnlyMeasure()).top_k(2).mpds()
            assert session.stats["stores_built"] == 1
            assert session.stats["eval_hits"] == 0
            assert session.stats["worlds_evaluated"] == 32
        assert first == second

    def test_same_named_patterns_do_not_share_eval_cache(self, graph):
        """Two structurally different patterns can share a name;
        PatternDensity's repr alone must not alias their cache lines."""
        from repro.core.mpds import top_k_mpds as one_shot
        from repro.patterns.pattern import Pattern

        path = Pattern("custom", [(0, 1), (1, 2)])
        triangle = Pattern("custom", [(0, 1), (1, 2), (0, 2)])
        with Session(graph) as session:
            first = session.query().sampler("mc", theta=16, seed=2) \
                .measure(PatternDensity(path)).top_k(2).mpds()
            second = session.query().sampler("mc", theta=16, seed=2) \
                .measure(PatternDensity(triangle)).top_k(2).mpds()
            assert session.stats["eval_hits"] == 0
        assert first == one_shot(
            graph, k=2, theta=16, seed=2, measure=PatternDensity(path)
        )
        assert second == one_shot(
            graph, k=2, theta=16, seed=2, measure=PatternDensity(triangle)
        )

    def test_heuristic_max_sets_do_not_share_eval_cache(self, graph):
        """HeuristicMeasure's repr carries max_sets, so differently
        capped heuristics cannot alias a warm cache line."""
        from repro.core.mpds import top_k_mpds as one_shot

        wide = HeuristicMeasure(EdgeDensity(), max_sets=8)
        narrow = HeuristicMeasure(EdgeDensity(), max_sets=1)
        with Session(graph) as session:
            first = session.query().sampler("mc", theta=30, seed=5) \
                .measure(wide).top_k(2).mpds()
            second = session.query().sampler("mc", theta=30, seed=5) \
                .measure(narrow).top_k(2).mpds()
            assert session.stats["eval_hits"] == 0
        assert first == one_shot(
            graph, k=2, theta=30, seed=5,
            measure=HeuristicMeasure(EdgeDensity(), max_sets=8),
        )
        assert second == one_shot(
            graph, k=2, theta=30, seed=5,
            measure=HeuristicMeasure(EdgeDensity(), max_sets=1),
        )

    def test_sampler_spec_wins_over_keywords(self, graph):
        """Query.sampler and Session.world_store resolve spec-vs-keyword
        conflicts the same way: the spec wins."""
        with Session(graph) as session:
            result = session.query().sampler(
                "mc:theta=12,seed=9", theta=50, seed=1
            ).top_k(1).mpds()
            assert result.theta == 12
            store = session.world_store("mc:theta=12,seed=9", theta=50,
                                        seed=1)
            assert store.count == 12 and store.seed == 9
            assert session.stats["stores_built"] == 1  # same draw: shared

    def test_streaming_queries_count_sampled_worlds(self, graph):
        """Uncached (unseeded / instance-sampler) queries still report
        their sampling work in session stats."""
        with Session(graph) as session:
            session.query().sampler("mc", theta=8).mpds()
            session.query().sampler("mc", theta=8).nds()
            assert session.stats["worlds_sampled"] == 16
            assert session.stats["stores_built"] == 0

    def test_heuristic_wrapper_keys_on_wrapped_measure(self, graph):
        """HeuristicMeasure(PatternDensity(...)) must inherit the
        pattern-structure keying through the wrapper."""
        from repro.core.heuristics import HeuristicMeasure
        from repro.patterns.pattern import Pattern
        from repro.session import _measure_key

        path = HeuristicMeasure(PatternDensity(Pattern("x", [(0, 1)])))
        tri = HeuristicMeasure(
            PatternDensity(Pattern("x", [(0, 1), (1, 2), (0, 2)]))
        )
        assert _measure_key(path) != _measure_key(tri)

    def test_session_usable_after_close(self, graph):
        """close() is not terminal: later queries refill the caches and
        publish fresh segments, and a second close() releases them."""
        session = Session(graph)
        session.query().sampler("mc", theta=16, seed=2).workers(2).mpds()
        assert session._published_segments
        session.close()
        assert not session._published_segments
        result = session.query().sampler(
            "mc", theta=16, seed=2
        ).workers(2).top_k(2).mpds()
        assert session._published_segments  # republished after close
        session.close()
        assert not session._published_segments
        assert result == top_k_mpds(graph, k=2, theta=16, seed=2)

    def test_graph_segment_published_once_across_stores(self, graph):
        """The graph payload is store-independent: parallel queries over
        several draws share one published graph segment."""
        from repro.core.parallel import PublishedGraph

        with Session(graph) as session:
            session.query().sampler("mc", theta=16, seed=1).workers(2).mpds()
            session.query().sampler("mc", theta=16, seed=2).workers(2).mpds()
            session.query().sampler("mc", theta=12, seed=1).workers(2).nds()
            graphs = [
                segment for segment in session._published_segments
                if isinstance(segment, PublishedGraph)
            ]
            assert len(graphs) == 1
            assert session.stats["plans_published"] == 3

    def test_session_default_workers_apply(self, graph):
        with Session(graph, workers=2) as session:
            result = session.query().sampler(
                "mc", theta=16, seed=3
            ).top_k(2).mpds()
        assert result == top_k_mpds(graph, k=2, theta=16, seed=3)


# ----------------------------------------------------------------------
# the per-entry memo of mined NDS results
# ----------------------------------------------------------------------
NDS_THETA = 64
NDS_SEED = 1


@pytest.fixture(scope="module")
def karate():
    from repro.datasets import karate_club_uncertain

    return karate_club_uncertain(seed=2023)


def _nds(session, k, min_size=2, dynamic=False):
    query = session.query().sampler("mc", theta=NDS_THETA, seed=NDS_SEED)
    if dynamic:
        query = query.dynamic()
    return query.top_k(k).min_size(min_size).nds()


def _nds_entry(session):
    (entry,) = session._eval_cache.values()
    return entry


def _append(top):
    top.append(ScoredNodeSet(frozenset({"poison"}), 1.0))


def _replace_first(top):
    top[0] = ScoredNodeSet(frozenset({"poison"}), 1.0)


class TestNDSMemo:
    #: (7, 2) ties at its pool threshold: its top is not the first 7 of
    #: (12, 2)'s, so each shape must be mined on its own
    SHAPES = [(7, 2), (12, 2), (7, 2), (2, 3), (1, 2), (12, 2), (2, 3)]

    def test_warm_hits_match_a_fresh_session_and_one_shot(self, karate):
        texts = {}
        with Session(karate) as session:
            for k, min_size in self.SHAPES:
                text = _nds(session, k, min_size).to_json()
                if (k, min_size) not in texts:
                    with Session(karate) as fresh:
                        assert _nds(fresh, k, min_size).to_json() == text
                    assert top_k_nds(
                        karate, k=k, min_size=min_size, theta=NDS_THETA,
                        seed=NDS_SEED,
                    ).to_json() == text
                    texts[k, min_size] = text
                assert text == texts[k, min_size]
            assert session.stats_snapshot()["cached_nds_results"] == 4
        tie = json.loads(texts[7, 2])["top"]
        wider = json.loads(texts[12, 2])["top"]
        assert tie[-1]["probability"] == wider[7]["probability"]
        assert tie != wider[:7]

    @pytest.mark.parametrize("mutate", [_append, list.clear, _replace_first])
    def test_mutating_a_result_cannot_poison_the_memo(self, karate, mutate):
        with Session(karate) as session:
            miss = _nds(session, 3)
            expected = miss.to_json()
            mutate(miss.top)
            hit = _nds(session, 3)
            assert hit.to_json() == expected
            assert hit.top is not miss.top
            mutate(hit.top)
            assert _nds(session, 3).to_json() == expected

    def test_the_memo_stays_within_its_cap(self, karate, monkeypatch):
        import repro.session as session_module

        shapes = [(k, m) for m in (2, 3) for k in range(1, 20)]
        assert len(shapes) > session_module.NDS_MEMO_LIMIT
        with Session(karate) as session:
            texts = {}
            for k, min_size in shapes:
                texts[k, min_size] = _nds(session, k, min_size).to_json()
                size = len(_nds_entry(session).mined)
                assert size <= session_module.NDS_MEMO_LIMIT
            assert size >= session_module.NDS_MEMO_KEEP
            assert session.stats_snapshot()["cached_nds_results"] == size
            # the least recently used shapes went first
            assert (1, 2) not in _nds_entry(session).mined
            assert (19, 3) in _nds_entry(session).mined
            mined = []
            monkeypatch.setattr(session_module, "finalize_nds",
                                _counting(mined))
            for k, min_size in shapes:
                assert _nds(session, k, min_size).to_json() == \
                    texts[k, min_size]
            # every trimmed shape was mined again, and answered right
            assert mined and len(_nds_entry(session).mined) <= \
                session_module.NDS_MEMO_LIMIT

    def test_a_dynamic_entry_starts_empty_after_an_update(self, karate):
        from repro.delta import GraphDelta

        rows = sorted(karate.weighted_edges())[:3]
        with Session(karate.copy()) as live:
            _nds(live, 3, dynamic=True)
            for u, v, p in rows:
                moved = p + 0.25 if p + 0.25 <= 0.95 else p - 0.25
                summary = live.update(GraphDelta(updates=[(u, v, moved)]))
                if summary["worlds_flipped"]:
                    assert _nds_entry(live).dirty
                text = _nds(live, 3, dynamic=True).to_json()
                assert list(_nds_entry(live).mined) == [(3, 2)]
                with Session(live.graph.copy()) as scratch:
                    assert _nds(scratch, 3, dynamic=True).to_json() == text

    def test_threads_sharing_one_shape_get_equal_results(self, karate):
        import threading

        with Session(karate) as session:
            _nds(session, 1)  # the records are cached; (5, 2) is not
            results, barrier = [], threading.Barrier(4)

            def worker():
                barrier.wait()
                results.append(_nds(session, 5).to_json())

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 4 and len(set(results)) == 1
            assert results[0] == _nds(session, 5).to_json()
            assert session.stats_snapshot()["cached_nds_results"] == 2

    def test_a_warm_repeat_does_not_mine(self, karate, monkeypatch):
        import repro.session as session_module

        mined = []
        monkeypatch.setattr(session_module, "finalize_nds", _counting(mined))
        with Session(karate) as session:
            first = _nds(session, 4).to_json()
            assert len(mined) == 1
            for _ in range(3):
                assert _nds(session, 4).to_json() == first
            assert len(mined) == 1
            _nds(session, 4, min_size=3)
            assert len(mined) == 2


def _counting(calls):
    from repro.core.nds import finalize_nds

    def counted(*args):
        calls.append(args[-2:])
        return finalize_nds(*args)

    return counted


# ----------------------------------------------------------------------
# result serialization protocol
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_mpds_round_trip(self, graph):
        result = top_k_mpds(graph, k=3, theta=24, seed=9)
        result.replayed_worlds = 2  # exercise the counter round-trip
        rebuilt = MPDSResult.from_dict(result.to_dict())
        assert rebuilt == result
        via_json = MPDSResult.from_json(result.to_json())
        assert via_json == result
        assert via_json.candidates == result.candidates
        assert via_json.densest_counts == result.densest_counts
        assert via_json.replayed_worlds == 2

    def test_nds_round_trip(self, graph):
        result = top_k_nds(graph, k=2, theta=24, seed=9)
        rebuilt = NDSResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.transactions == result.transactions
        assert rebuilt.theta == result.theta

    def test_scored_node_set_round_trip(self):
        scored = ScoredNodeSet(frozenset({"B", "A"}), 0.25)
        data = scored.to_dict()
        assert data["nodes"] == ["A", "B"]
        assert ScoredNodeSet.from_dict(data) == scored

    def test_kind_dispatch(self, graph):
        mpds = top_k_mpds(graph, k=1, theta=8, seed=1)
        nds = top_k_nds(graph, k=1, theta=8, seed=1)
        assert result_from_dict(mpds.to_dict()) == mpds
        assert result_from_json(nds.to_json()) == nds
        with pytest.raises(ValueError, match="unknown result kind"):
            result_from_dict({"kind": "zds"})
        with pytest.raises(ValueError, match="cannot rebuild"):
            MPDSResult.from_dict(nds.to_dict())

    def test_json_is_actually_json(self, graph):
        text = top_k_mpds(graph, k=2, theta=8, seed=1).to_json()
        payload = json.loads(text)
        assert payload["kind"] == "mpds"
        assert isinstance(payload["top"], list)


def test_probability_updates_reweight_the_index():
    """A delta with only probability updates copies the index's
    ``probs`` with the updates written and shares the rest of the
    layout; the result equals a rebuild from the mutated graph, and an
    insert still rebuilds."""
    import numpy as np

    from repro.delta import GraphDelta
    from repro.engine.indexed import IndexedGraph

    rng = random.Random(23)
    graph = random_uncertain_graph(rng, 30, 0.2, 0.3, 0.9)
    rows = list(graph.weighted_edges())
    with Session(graph.copy()) as live:
        live.query().sampler("mc", theta=16, seed=3).dynamic().top_k(3).mpds()
        first = live.indexed
        for _ in range(12):
            before = live.indexed
            old_probs, csr = before.probs.copy(), before.csr()
            updates = [
                (u, v, round(rng.uniform(0.05, 1.0), 6))
                for u, v, _p in rng.sample(rows, rng.randint(1, 3))
            ]
            live.update(GraphDelta(updates=updates))
            patched = live.indexed
            fresh = IndexedGraph.from_uncertain(live.graph)
            assert patched.nodes == fresh.nodes
            assert patched.node_index == fresh.node_index
            for name in ("edge_u", "edge_v", "probs"):
                mine, theirs = getattr(patched, name), getattr(fresh, name)
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()
            for mine, theirs in zip(patched.csr(), fresh.csr()):
                assert np.array_equal(mine, theirs)
            assert patched.edge_u is first.edge_u
            assert patched.csr() is csr
            assert patched.edge_ids is first.edge_ids is not None
            # the index a store was built over keeps its probabilities
            assert before.probs.tobytes() == old_probs.tobytes()
        u, v = next(
            (u, v) for u in graph.nodes() for v in graph.nodes()
            if u != v and not live.graph.has_edge(u, v)
        )
        live.update(GraphDelta(inserts=[(u, v, 0.5)]))
        assert live.indexed.edge_u is not first.edge_u
        assert live.indexed.edge_ids is None


def test_a_restore_that_changes_no_record_rebuilds_no_group():
    """A what-if pair on an edge outside every densest subgraph flips
    worlds without changing their records: each step patches the
    tally, rebuilds no world group and ranks nothing again, and both
    answers equal a from-scratch session's."""
    from repro.delta import GraphDelta
    from repro.graph.uncertain import UncertainGraph

    graph = UncertainGraph()
    for u in range(5):
        for v in range(u + 1, 5):
            graph.add_edge(u, v, 0.95)
    graph.add_edge(10, 11, 0.5)
    graph.add_edge(11, 12, 0.5)

    def query(session):
        return (
            session.query().sampler("mc", theta=32, seed=3)
            .dynamic().top_k(2).mpds().to_json()
        )

    tally = ("tally_patches", "tally_groups_rebuilt", "tally_full_ranks")
    with Session(graph.copy()) as live:
        query(live)
        for probability in (0.9, 0.5):  # the move, then its restore
            before = live.stats_snapshot()
            summary = live.update(
                GraphDelta(updates=[(10, 11, probability)])
            )
            text = query(live)
            after = live.stats_snapshot()
            assert summary["worlds_flipped"] > 0
            assert [after[key] - before[key] for key in tally] == [1, 0, 0]
            with Session(live.graph.copy()) as scratch:
                assert query(scratch) == text
