"""Tests for the vectorised possible-world engine (repro.engine).

The engine's contract is *equivalence*: for the same seed, the
vectorised path must produce byte-identical estimates to the pure-Python
path.  These tests check the contract at every layer -- index round-trip,
mask->Graph adapter fidelity, sampler stream identity, kernel
correctness, and end-to-end estimator equality.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.measures import CliqueDensity, EdgeDensity
from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.core.parallel import parallel_top_k_mpds, parallel_top_k_nds
from repro.dense.all_densest import (
    enumerate_all_densest_subgraphs,
    maximum_sized_densest_subgraph,
    prepare_from_bound,
)
from repro.dense.kcore import k_core
from repro.dense.peeling import peel_edge_density_csr
from repro.engine import (
    IndexedGraph,
    MaskWorld,
    VectorizedMonteCarloSampler,
    batch_k_core_alive,
    batch_world_degrees,
    k_core_alive,
    measure_core_k,
    resolve_engine,
    world_degrees,
)
from repro.graph.graph import Graph
from repro.graph.uncertain import UncertainGraph
from repro.sampling import MonteCarloSampler, RecursiveStratifiedSampler

from .conftest import random_uncertain_graph


class TestIndexedGraph:
    def test_round_trip(self, rng):
        graph = random_uncertain_graph(rng, 9, 0.5)
        indexed = IndexedGraph.from_uncertain(graph)
        back = indexed.to_uncertain()
        assert back.nodes() == graph.nodes()
        assert set(back.edges()) == set(graph.edges())
        for u, v, p in graph.weighted_edges():
            assert back.probability(u, v) == pytest.approx(p)

    def test_round_trip_preserves_edge_order(self, rng):
        graph = random_uncertain_graph(rng, 9, 0.5)
        indexed = IndexedGraph.from_uncertain(graph)
        assert list(indexed.to_uncertain().weighted_edges()) == pytest.approx(
            list(graph.weighted_edges())
        )

    def test_arrays_match_weighted_edges(self, rng):
        graph = random_uncertain_graph(rng, 8, 0.6)
        indexed = IndexedGraph.from_uncertain(graph)
        triples = list(graph.weighted_edges())
        assert indexed.m == len(triples)
        assert indexed.n == graph.number_of_nodes()
        for j, (u, v, p) in enumerate(triples):
            assert indexed.nodes[indexed.edge_u[j]] == u
            assert indexed.nodes[indexed.edge_v[j]] == v
            assert indexed.probs[j] == pytest.approx(p)

    def test_world_graph_adapter_fidelity(self, rng):
        graph = random_uncertain_graph(rng, 10, 0.4)
        indexed = IndexedGraph.from_uncertain(graph)
        triples = list(graph.weighted_edges())
        wrng = np.random.RandomState(5)
        for _ in range(10):
            mask = wrng.random_sample(indexed.m) < 0.5
            world = indexed.world_graph(mask)
            expected = Graph(nodes=graph.nodes())
            for j, (u, v, _p) in enumerate(triples):
                if mask[j]:
                    expected.add_edge(u, v)
            assert world == expected

    def test_subworld_graph_restricts_both_axes(self, rng):
        graph = random_uncertain_graph(rng, 10, 0.6)
        indexed = IndexedGraph.from_uncertain(graph)
        mask = np.ones(indexed.m, dtype=bool)
        alive = np.zeros(indexed.n, dtype=bool)
        alive[: indexed.n // 2] = True
        sub = indexed.subworld_graph(mask, alive)
        keep = {indexed.nodes[i] for i in range(indexed.n // 2)}
        assert sub.node_set() == frozenset(keep)
        assert sub.edge_set() == graph.deterministic_version().subgraph(keep).edge_set()

    def test_node_set_translation(self, rng):
        graph = random_uncertain_graph(rng, 7, 0.5)
        indexed = IndexedGraph.from_uncertain(graph)
        alive = np.array([i % 2 == 0 for i in range(indexed.n)])
        assert indexed.node_set(alive) == frozenset(
            indexed.nodes[i] for i in range(indexed.n) if i % 2 == 0
        )


class TestVectorizedSampler:
    def test_worlds_identical_to_python_sampler(self, rng):
        graph = random_uncertain_graph(rng, 10, 0.5, low=0.1, high=0.9)
        for seed in (0, 1, 7, 20230613):
            python = list(MonteCarloSampler(graph, seed).worlds(12))
            vector = list(
                VectorizedMonteCarloSampler(graph, seed).worlds(12)
            )
            assert len(python) == len(vector)
            for pw, vw in zip(python, vector):
                assert pw.weight == vw.weight
                assert pw.graph == vw.graph

    def test_stream_continues_across_batches(self, rng):
        graph = random_uncertain_graph(rng, 8, 0.6)
        one_shot = VectorizedMonteCarloSampler(graph, 3).edge_masks(10)
        chunked = VectorizedMonteCarloSampler(graph, 3, batch=3)
        stacked = np.concatenate(
            [w.graph.mask[None, :] for w in chunked.mask_worlds(10)]
        )
        assert np.array_equal(one_shot, stacked)

    def test_from_monte_carlo_adopts_stream_midway(self, rng):
        graph = random_uncertain_graph(rng, 8, 0.6)
        python = MonteCarloSampler(graph, 42)
        first = [w.graph for w in python.worlds(5)]
        adopted = VectorizedMonteCarloSampler.from_monte_carlo(python)
        control = MonteCarloSampler(graph, 42)
        expected = [w.graph for w in control.worlds(10)]
        assert first == expected[:5]
        assert [w.graph for w in adopted.worlds(5)] == expected[5:]

    def test_theta_must_be_positive(self, rng):
        graph = random_uncertain_graph(rng, 5, 0.5)
        sampler = VectorizedMonteCarloSampler(graph, 1)
        with pytest.raises(ValueError):
            list(sampler.mask_worlds(0))
        with pytest.raises(ValueError):
            sampler.edge_masks(-1)

    def test_memory_units_like_mc(self, rng):
        graph = random_uncertain_graph(rng, 5, 0.5)
        assert VectorizedMonteCarloSampler(graph, 1).memory_units() == 0


class TestKernels:
    def _indexed_and_mask(self, rng, n=12, p=0.4, keep=0.6, seed=2):
        graph = random_uncertain_graph(rng, n, p)
        indexed = IndexedGraph.from_uncertain(graph)
        mask = np.random.RandomState(seed).random_sample(indexed.m) < keep
        return graph, indexed, mask

    def test_world_degrees_match_graph(self, rng):
        _graph, indexed, mask = self._indexed_and_mask(rng)
        world = indexed.world_graph(mask)
        degrees = world_degrees(indexed, mask)
        for i, node in enumerate(indexed.nodes):
            assert degrees[i] == world.degree(node)

    def test_batch_degrees_match_per_world(self, rng):
        _graph, indexed, _ = self._indexed_and_mask(rng)
        masks = np.random.RandomState(3).random_sample((6, indexed.m)) < 0.5
        batch = batch_world_degrees(indexed, masks)
        for t in range(6):
            assert np.array_equal(batch[t], world_degrees(indexed, masks[t]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_core_alive_matches_bucket_peeling(self, rng, k):
        _graph, indexed, mask = self._indexed_and_mask(rng, n=14, p=0.35)
        node_alive, edge_alive = k_core_alive(indexed, mask, k)
        reference = k_core(indexed.world_graph(mask), k)
        assert indexed.node_set(node_alive) == reference.node_set()
        core_world = indexed.subworld_graph(edge_alive, node_alive)
        assert core_world.edge_set() == reference.edge_set()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_batch_k_core_matches_per_world(self, rng, k):
        _graph, indexed, _ = self._indexed_and_mask(rng, n=14, p=0.35)
        masks = np.random.RandomState(11).random_sample((7, indexed.m)) < 0.5
        node_batch, edge_batch = batch_k_core_alive(indexed, masks, k)
        for t in range(7):
            node_one, edge_one = k_core_alive(indexed, masks[t], k)
            assert np.array_equal(node_batch[t], node_one)
            assert np.array_equal(edge_batch[t], edge_one)


class TestMeasureCoreK:
    def test_clique_measure_uses_h_minus_one_core(self):
        assert measure_core_k(CliqueDensity(3)) == 2
        assert measure_core_k(CliqueDensity(4)) == 3

    def test_pattern_measure_uses_min_pattern_degree(self):
        from repro.core.measures import PatternDensity
        from repro.patterns.pattern import Pattern

        assert measure_core_k(PatternDensity(Pattern.two_star())) == 1
        assert measure_core_k(PatternDensity(Pattern.diamond())) == 2
        assert measure_core_k(PatternDensity(Pattern.clique(4))) == 3

    def test_other_measures_have_no_prefilter(self):
        assert measure_core_k(EdgeDensity()) is None


class TestPrepareFromBound:
    def test_matches_reference_pipeline(self, rng):
        for trial in range(8):
            graph = random_uncertain_graph(rng, 9, 0.5)
            indexed = IndexedGraph.from_uncertain(graph)
            mask = (
                np.random.RandomState(trial).random_sample(indexed.m) < 0.55
            )
            if not mask.any():
                continue
            world = indexed.world_graph(mask)
            view = MaskWorld(indexed, mask).view()
            bound = peel_edge_density_csr(view).density
            k = -(-bound.numerator // bound.denominator)
            node_alive, edge_alive = k_core_alive(indexed, mask, k)
            core = indexed.subworld_graph(edge_alive, node_alive)
            prepared = prepare_from_bound(core, bound)
            density, maximal = maximum_sized_densest_subgraph(world)
            assert prepared.density == density
            assert prepared.maximal_nodes == maximal
            from repro.dense.component_enum import enumerate_independent_sets

            fast = set(enumerate_independent_sets(prepared.structure))
            reference = set(enumerate_all_densest_subgraphs(world))
            assert fast == reference


class _CustomMeasure(EdgeDensity):
    """Subclass stand-in for a user measure the fast paths can't vouch for."""


class _CustomSampler:
    """Stand-in for a user sampler with no vectorised twin."""

    def worlds(self, theta):  # pragma: no cover - never drawn from
        return iter(())

    def memory_units(self):  # pragma: no cover
        return 0


class TestEngineResolution:
    def test_auto_uses_vectorized_for_mc_edge_density(self):
        assert resolve_engine("auto", None, EdgeDensity()) == "vectorized"

    def test_auto_vectorizes_paper_measures(self):
        assert resolve_engine("auto", None, CliqueDensity(3)) == "vectorized"

    def test_auto_vectorizes_stateful_samplers(self, figure1):
        sampler = RecursiveStratifiedSampler(figure1, seed=1)
        assert resolve_engine("auto", sampler, EdgeDensity()) == "vectorized"

    def test_auto_falls_back_for_custom_measures(self):
        assert resolve_engine("auto", None, _CustomMeasure()) == "python"

    def test_auto_falls_back_for_custom_samplers(self):
        assert resolve_engine("auto", _CustomSampler(), EdgeDensity()) == "python"

    def test_vectorized_rejects_custom_samplers(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized", _CustomSampler(), EdgeDensity())

    def test_unknown_engine_rejected(self, figure1):
        with pytest.raises(ValueError):
            top_k_mpds(figure1, theta=4, seed=1, engine="gpu")


class TestEstimatorEquivalence:
    """tau-hat / gamma-hat must be identical across engines per seed."""

    def test_mpds_equivalence_on_random_graphs(self, rng):
        for seed in (1, 7, 23):
            graph = random_uncertain_graph(rng, 10, 0.45, low=0.2, high=0.95)
            python = top_k_mpds(
                graph, k=4, theta=60, seed=seed, engine="python"
            )
            vector = top_k_mpds(
                graph, k=4, theta=60, seed=seed, engine="vectorized"
            )
            assert python.candidates == vector.candidates
            assert python.top == vector.top
            assert python.densest_counts == vector.densest_counts
            assert python.worlds_with_densest == vector.worlds_with_densest

    def test_mpds_equivalence_figure1(self, figure1):
        python = top_k_mpds(figure1, k=3, theta=400, seed=9, engine="python")
        vector = top_k_mpds(
            figure1, k=3, theta=400, seed=9, engine="vectorized"
        )
        assert python.candidates == vector.candidates
        assert python.top == vector.top

    def test_mpds_equivalence_one_densest_mode(self, rng):
        graph = random_uncertain_graph(rng, 9, 0.5)
        python = top_k_mpds(
            graph, k=2, theta=40, seed=3, enumerate_all=False, engine="python"
        )
        vector = top_k_mpds(
            graph, k=2, theta=40, seed=3, enumerate_all=False,
            engine="vectorized",
        )
        assert python.candidates == vector.candidates

    def test_mpds_equivalence_clique_measure_via_adapter(self, rng):
        graph = random_uncertain_graph(rng, 8, 0.6, low=0.3, high=0.9)
        measure = CliqueDensity(3)
        python = top_k_mpds(
            graph, k=2, theta=30, seed=5, measure=measure, engine="python"
        )
        vector = top_k_mpds(
            graph, k=2, theta=30, seed=5, measure=measure, engine="vectorized"
        )
        assert python.candidates == vector.candidates

    def test_mpds_equivalence_under_truncating_limit(self):
        """A truncated per-world enumeration must keep the same subset."""
        # two certain disjoint edges: every world has 3 tied densest sets
        # ({a,b}, {c,d}, and their union), so per_world_limit=2 truncates
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        python = top_k_mpds(
            graph, k=5, theta=20, seed=1, per_world_limit=2, engine="python"
        )
        vector = top_k_mpds(
            graph, k=5, theta=20, seed=1, per_world_limit=2,
            engine="vectorized",
        )
        assert python.candidates == vector.candidates
        assert python.densest_counts == vector.densest_counts

    def test_nds_equivalence(self, rng):
        for seed in (2, 11):
            graph = random_uncertain_graph(rng, 10, 0.5, low=0.2, high=0.95)
            python = top_k_nds(
                graph, k=3, min_size=2, theta=80, seed=seed, engine="python"
            )
            vector = top_k_nds(
                graph, k=3, min_size=2, theta=80, seed=seed,
                engine="vectorized",
            )
            assert python.top == vector.top
            assert python.transactions == vector.transactions

    def test_reused_explicit_sampler_advances_like_python(self, figure1):
        """Adopting a sampler must advance it: two auto-engine calls with
        the same sampler instance see fresh worlds, exactly as the python
        engine would."""
        results = {}
        for engine in ("python", "auto"):
            sampler = MonteCarloSampler(figure1, 21)
            first = top_k_mpds(
                figure1, k=2, theta=40, sampler=sampler, engine=engine
            )
            second = top_k_mpds(
                figure1, k=2, theta=40, sampler=sampler, engine=engine
            )
            results[engine] = (first, second)
        py_first, py_second = results["python"]
        auto_first, auto_second = results["auto"]
        assert auto_first.candidates == py_first.candidates
        assert auto_second.candidates == py_second.candidates
        # the two calls consumed different worlds (not a frozen stream)
        assert py_first.candidates != py_second.candidates

    def test_explicit_mc_sampler_is_adopted(self, figure1):
        python = top_k_mpds(
            figure1,
            k=2,
            theta=100,
            sampler=MonteCarloSampler(figure1, 13),
            engine="python",
        )
        vector = top_k_mpds(
            figure1,
            k=2,
            theta=100,
            sampler=MonteCarloSampler(figure1, 13),
            engine="vectorized",
        )
        assert python.candidates == vector.candidates


class TestSeededDeterminism:
    """Regression: seeded runs are byte-identical, also through parallel."""

    def test_mpds_two_runs_identical(self, figure1):
        first = top_k_mpds(figure1, k=3, theta=120, seed=7)
        second = top_k_mpds(figure1, k=3, theta=120, seed=7)
        assert first.candidates == second.candidates
        assert first.top == second.top
        assert first.densest_counts == second.densest_counts

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_parallel_single_worker_equals_sequential(self, figure1, engine):
        sequential = top_k_mpds(
            figure1, k=3, theta=90, seed=7, engine=engine
        )
        parallel = parallel_top_k_mpds(
            figure1, k=3, theta=90, seed=7, workers=1, engine=engine
        )
        assert parallel.candidates == sequential.candidates
        assert parallel.top == sequential.top
        assert parallel.densest_counts == sequential.densest_counts

    def test_parallel_nds_single_worker_equals_sequential(self, figure1):
        sequential = top_k_nds(figure1, k=2, min_size=2, theta=60, seed=5)
        parallel = parallel_top_k_nds(
            figure1, k=2, min_size=2, theta=60, seed=5, workers=1
        )
        assert parallel.top == sequential.top
        assert parallel.transactions == sequential.transactions

    def test_parallel_multi_worker_engine_equivalence(self, figure1):
        python = parallel_top_k_mpds(
            figure1, k=2, theta=60, seed=4, workers=2, engine="python"
        )
        vector = parallel_top_k_mpds(
            figure1, k=2, theta=60, seed=4, workers=2, engine="vectorized"
        )
        assert python.candidates == vector.candidates

    def test_parallel_merges_replayed_worlds(self):
        # two certain disjoint edges tie 3 densest sets per world, so
        # per_world_limit=2 forces a python replay in every chunk
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        result = parallel_top_k_mpds(
            graph, k=5, theta=20, seed=1, workers=2, per_world_limit=2,
            engine="vectorized",
        )
        truncated = sum(1 for count in result.densest_counts if count >= 2)
        assert truncated > 0
        assert result.replayed_worlds == truncated
