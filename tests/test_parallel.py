"""Tests for the shared-memory parallel substrate (repro.core.parallel).

The substrate's contract (see the module docstring) is stronger than the
old fan-out's: for a fixed seed the estimates are *byte-identical* to the
sequential estimators for every worker count, because the parent
pre-partitions the sampler's continuous stream over a worker-count
-invariant chunk grid and merges per-block records through the
sequential accumulation code.
"""

from __future__ import annotations

import pytest

from repro.core.measures import CliqueDensity, EdgeDensity
from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.core.parallel import (
    parallel_top_k_mpds,
    parallel_top_k_nds,
)
from repro.engine.blocks import plan_blocks
from repro.graph.uncertain import UncertainGraph
from repro.sampling import LazyPropagationSampler, RecursiveStratifiedSampler

from .conftest import random_uncertain_graph


class TestChunkGrid:
    def test_grid_covers_range_contiguously(self):
        for total in (1, 2, 63, 64, 65, 101, 640):
            blocks = plan_blocks(total)
            assert blocks[0][0] == 0
            assert blocks[-1][1] == total
            for (_, stop), (start, _) in zip(blocks, blocks[1:]):
                assert stop == start

    def test_grid_is_a_function_of_total_only(self):
        # the invariance anchor: the same world count always shards the
        # same way, no matter how many workers later claim the blocks
        assert plan_blocks(640) == plan_blocks(640)
        assert len(plan_blocks(640)) == 64
        assert len(plan_blocks(10)) == 10

    def test_block_sizes_are_fixed(self):
        blocks = plan_blocks(130)
        sizes = [stop - start for start, stop in blocks]
        assert all(size == sizes[0] for size in sizes[:-1])
        assert sizes[-1] <= sizes[0]

    def test_invalid_totals(self):
        with pytest.raises(ValueError):
            plan_blocks(0)
        with pytest.raises(ValueError):
            plan_blocks(10, max_blocks=0)


class TestParallelMPDS:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_to_sequential(self, figure1, workers):
        sequential = top_k_mpds(figure1, k=3, theta=90, seed=7)
        parallel = parallel_top_k_mpds(
            figure1, k=3, theta=90, seed=7, workers=workers
        )
        assert parallel.candidates == sequential.candidates
        assert parallel.top == sequential.top
        assert parallel.densest_counts == sequential.densest_counts
        assert parallel.worlds_with_densest == sequential.worlds_with_densest
        assert parallel.replayed_worlds == sequential.replayed_worlds

    def test_worker_count_does_not_change_estimates(self, figure1):
        results = [
            parallel_top_k_mpds(figure1, k=2, theta=80, seed=9, workers=w)
            for w in (2, 3, 4)
        ]
        for other in results[1:]:
            assert other.candidates == results[0].candidates
            assert other.top == results[0].top

    def test_figure1_recovers_bd(self, figure1):
        result = parallel_top_k_mpds(figure1, k=1, theta=600, seed=3, workers=2)
        assert result.best().nodes == frozenset({"B", "D"})
        assert abs(result.best().probability - 0.42) < 0.1

    def test_theta_is_preserved(self, figure1):
        result = parallel_top_k_mpds(figure1, k=1, theta=50, seed=1, workers=3)
        assert result.theta == 50
        assert len(result.densest_counts) == 50

    @pytest.mark.parametrize("sampler_cls", [
        LazyPropagationSampler, RecursiveStratifiedSampler,
    ])
    def test_lp_rss_streams_shard_identically(self, figure1, sampler_cls):
        sequential = top_k_mpds(
            figure1, k=3, theta=70, sampler=sampler_cls(figure1, 11)
        )
        parallel = parallel_top_k_mpds(
            figure1, k=3, theta=70, sampler=sampler_cls(figure1, 11), workers=3
        )
        assert parallel.candidates == sequential.candidates
        assert parallel.top == sequential.top
        assert parallel.densest_counts == sequential.densest_counts

    def test_estimates_are_probabilities(self, rng):
        graph = random_uncertain_graph(rng, 6, 0.5)
        if not list(graph.weighted_edges()):
            pytest.skip("empty random graph")
        result = parallel_top_k_mpds(graph, k=3, theta=60, seed=5, workers=2)
        for estimate in result.candidates.values():
            assert 0.0 <= estimate <= 1.0

    def test_clique_measure(self, figure1):
        sequential = top_k_mpds(
            figure1, k=1, theta=60, seed=2, measure=CliqueDensity(3)
        )
        result = parallel_top_k_mpds(
            figure1, k=1, theta=60, seed=2, workers=2, measure=CliqueDensity(3)
        )
        assert result.candidates == sequential.candidates
        assert result.theta == 60

    def test_one_per_world_ablation(self, figure1):
        sequential = top_k_mpds(
            figure1, k=2, theta=40, seed=6, enumerate_all=False
        )
        parallel = parallel_top_k_mpds(
            figure1, k=2, theta=40, seed=6, workers=2, enumerate_all=False
        )
        assert parallel.candidates == sequential.candidates
        assert parallel.densest_counts == sequential.densest_counts

    def test_unseeded_runs_are_worker_invariant_per_call(self, figure1):
        # no byte-identity to any sequential run is promised without a
        # seed, but the call's own estimates must still be well-formed
        result = parallel_top_k_mpds(figure1, k=2, theta=64, workers=2)
        assert result.theta == 64
        for estimate in result.candidates.values():
            assert 0.0 <= estimate <= 1.0

    def test_custom_sampler_type_is_rejected(self, figure1):
        class Odd:
            def worlds(self, theta):  # pragma: no cover - never drawn
                return iter(())

            def memory_units(self):  # pragma: no cover
                return 0

        with pytest.raises(ValueError, match="MC, LP and RSS"):
            parallel_top_k_mpds(figure1, theta=10, sampler=Odd(), workers=2)

    def test_invalid_arguments(self, figure1):
        with pytest.raises(ValueError):
            parallel_top_k_mpds(figure1, k=0)
        with pytest.raises(ValueError):
            parallel_top_k_mpds(figure1, theta=0)
        with pytest.raises(ValueError):
            parallel_top_k_mpds(figure1, workers=0)


class TestParallelNDS:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_to_sequential(self, figure1, workers):
        sequential = top_k_nds(figure1, k=2, min_size=2, theta=60, seed=5)
        parallel = parallel_top_k_nds(
            figure1, k=2, min_size=2, theta=60, seed=5, workers=workers
        )
        assert parallel.top == sequential.top
        assert parallel.transactions == sequential.transactions
        assert parallel.theta == sequential.theta

    def test_figure1_containment(self, figure1):
        result = parallel_top_k_nds(
            figure1, k=1, min_size=2, theta=600, seed=3, workers=2
        )
        assert result.best().nodes == frozenset({"B", "D"})
        assert abs(result.best().probability - 0.70) < 0.1

    def test_empty_graph_returns_empty(self):
        graph = UncertainGraph()
        graph.add_node("A")
        result = parallel_top_k_nds(graph, k=1, theta=10, seed=1, workers=2)
        assert result.top == []
        assert result.transactions == 0

    def test_min_size_respected(self, figure1):
        result = parallel_top_k_nds(
            figure1, k=3, min_size=3, theta=200, seed=4, workers=2
        )
        for scored in result.top:
            assert len(scored.nodes) >= 3

    def test_invalid_arguments(self, figure1):
        with pytest.raises(ValueError):
            parallel_top_k_nds(figure1, k=0)
        with pytest.raises(ValueError):
            parallel_top_k_nds(figure1, min_size=0)
        with pytest.raises(ValueError):
            parallel_top_k_nds(figure1, theta=-1)
        with pytest.raises(ValueError):
            parallel_top_k_nds(figure1, workers=0)


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self, figure1):
        import repro.core.parallel as par

        parallel_top_k_mpds(figure1, k=1, theta=30, seed=1, workers=2)
        pool_after_first = par._POOL
        assert pool_after_first is not None
        parallel_top_k_mpds(figure1, k=1, theta=30, seed=2, workers=2)
        assert par._POOL is pool_after_first

    def test_pool_grows_when_more_workers_requested(self, figure1):
        import repro.core.parallel as par

        parallel_top_k_mpds(figure1, k=1, theta=30, seed=1, workers=2)
        assert par._POOL_PROCS >= 2
        parallel_top_k_mpds(figure1, k=1, theta=40, seed=1, workers=3)
        assert par._POOL_PROCS >= 3
        # a smaller request reuses the larger pool
        pool = par._POOL
        parallel_top_k_mpds(figure1, k=1, theta=30, seed=1, workers=2)
        assert par._POOL is pool


class TestResolveWorkers:
    """Regression: the old default hardcoded workers=2 even on 1-core
    hosts; ``workers="auto"`` must size the fan-out to the host."""

    def test_auto_respects_single_core_host(self, monkeypatch):
        import os

        from repro.core.parallel import resolve_workers

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers("auto") == 1

    def test_auto_matches_host_allowance(self):
        import os

        from repro.core.parallel import resolve_workers

        resolved = resolve_workers("auto")
        try:
            expected = max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            expected = max(1, os.cpu_count() or 1)
        assert resolved == expected

    def test_auto_never_below_one(self, monkeypatch):
        import os

        from repro.core.parallel import resolve_workers

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers("auto") == 1

    def test_integers_pass_through(self):
        from repro.core.parallel import resolve_workers

        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 0  # caller owns the >= 1 validation

    def test_rejects_garbage(self):
        from repro.core.parallel import resolve_workers

        with pytest.raises(ValueError, match="integer or 'auto'"):
            resolve_workers("many")
        with pytest.raises(ValueError, match="integer or 'auto'"):
            resolve_workers(2.5)
        with pytest.raises(ValueError, match="integer or 'auto'"):
            resolve_workers(True)

    def test_parallel_functions_default_to_auto(self):
        import inspect

        assert (
            inspect.signature(parallel_top_k_mpds)
            .parameters["workers"].default == "auto"
        )
        assert (
            inspect.signature(parallel_top_k_nds)
            .parameters["workers"].default == "auto"
        )

    def test_workers_auto_matches_sequential(self, figure1):
        from repro.core.mpds import top_k_mpds

        auto = parallel_top_k_mpds(
            figure1, k=2, theta=60, seed=3, workers="auto"
        )
        assert auto == top_k_mpds(figure1, k=2, theta=60, seed=3)

    def test_workers_auto_on_forced_single_core(self, figure1, monkeypatch):
        """On a (simulated) 1-core host the auto default must run the
        sequential estimator, not a 2-process fan-out."""
        import os

        import repro.core.parallel as par

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_fanout(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("1-core auto run must not fan out")

        monkeypatch.setattr(par, "dispatch_blocks", no_fanout)
        result = parallel_top_k_mpds(
            figure1, k=1, theta=40, seed=5, workers="auto"
        )
        from repro.core.mpds import top_k_mpds

        assert result == top_k_mpds(figure1, k=1, theta=40, seed=5)


class InjectedFailure(RuntimeError):
    """Raised by :class:`FailingDensity` partway through an evaluation."""


class FailingDensity(EdgeDensity):
    """Edge density that fails on its fourth world in each process --
    module-level, so spawned pool workers can unpickle it."""

    calls = 0

    def all_densest(self, graph, limit=None):
        FailingDensity.calls += 1
        if FailingDensity.calls > 3:
            raise InjectedFailure("injected mid-evaluation failure")
        return super().all_densest(graph, limit)


def _shm_segments():
    import os

    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        return set()


@pytest.fixture
def store_ledger(monkeypatch):
    """Record every world store built and every store closed."""
    from repro.engine.worldstore import WorldStore

    built, closed = [], []
    init, close = WorldStore.__init__, WorldStore.close

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def tracking_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(WorldStore, "__init__", tracking_init)
    monkeypatch.setattr(WorldStore, "close", tracking_close)
    return built, closed


class TestTransientLifecycle:
    """A one-shot call is a closing session: whatever it drew or
    published is released when the call returns -- or raises."""

    @pytest.mark.parametrize("draw", ["seeded", "unseeded", "instance"])
    def test_one_shot_leaves_no_segment_or_open_store(
        self, figure1, store_ledger, draw
    ):
        built, closed = store_ledger
        before = _shm_segments()
        seed = 7 if draw == "seeded" else None
        sampler = (
            LazyPropagationSampler(figure1, 7) if draw == "instance" else None
        )
        result = parallel_top_k_mpds(
            figure1, k=2, theta=40, seed=seed, sampler=sampler, workers=2
        )
        assert result.theta == 40
        assert len(built) == 1
        assert all(any(s is store for s in closed) for store in built)
        assert _shm_segments() <= before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [7, None])
    def test_failing_measure_releases_everything(
        self, figure1, store_ledger, workers, seed
    ):
        built, closed = store_ledger
        before = _shm_segments()
        FailingDensity.calls = 0
        with pytest.raises(InjectedFailure, match="mid-evaluation"):
            parallel_top_k_mpds(
                figure1, k=2, theta=40, seed=seed, workers=workers,
                measure=FailingDensity(),
            )
        assert len(built) == 1
        assert all(any(s is store for s in closed) for store in built)
        assert _shm_segments() <= before
