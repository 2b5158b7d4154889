"""Cross-engine differential harness (the gate for widening the engine).

Sweeps random uncertain graphs across sampler x measure x seed x engine
and asserts the vectorised engine reproduces the pure-Python engine
byte-for-byte: identical candidate estimates, top-k rankings, per-world
densest counts, world counts, and sampler ``memory_units`` bookkeeping.
Every combination ``auto`` now routes to the vectorised path is covered,
so any future engine change that breaks replay fidelity fails here first.
"""

from __future__ import annotations

import random

import pytest

from repro.core.measures import CliqueDensity, EdgeDensity, PatternDensity
from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.engine import (
    VECTOR_ENGINES,
    VectorizedLazyPropagationSampler,
    VectorizedMonteCarloSampler,
    VectorizedStratifiedSampler,
    resolve_engine,
)
from repro.graph.uncertain import UncertainGraph
from repro.patterns.pattern import Pattern
from repro.sampling import (
    LazyPropagationSampler,
    MonteCarloSampler,
    RecursiveStratifiedSampler,
)

from .conftest import random_uncertain_graph

SAMPLER_NAMES = ["default", "MC", "LP", "RSS"]
MPDS_MEASURES = ["edge", "3-clique", "2-star"]
NDS_MEASURES = ["edge", "3-clique", "2-star"]
SEEDS = [3, 11]

_SAMPLERS = {
    "MC": MonteCarloSampler,
    "LP": LazyPropagationSampler,
    "RSS": RecursiveStratifiedSampler,
}


def make_sampler(name: str, graph, seed: int):
    """An explicit pure-Python sampler, or None for the MC default."""
    if name == "default":
        return None
    return _SAMPLERS[name](graph, seed)


def make_measure(name: str):
    if name == "edge":
        return EdgeDensity()
    if name == "3-clique":
        return CliqueDensity(3)
    if name == "2-star":
        return PatternDensity(Pattern.two_star())
    raise ValueError(name)


def differential_graph() -> UncertainGraph:
    """A fixed small G(n, p) graph with mixed edge probabilities."""
    return random_uncertain_graph(
        random.Random(20230613), 9, 0.45, low=0.2, high=0.95
    )


class TestAutoCoversEverything:
    """``auto`` must route every sampler x measure combination fast."""

    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    @pytest.mark.parametrize("measure_name", MPDS_MEASURES)
    def test_auto_resolves_vectorized(self, sampler_name, measure_name):
        graph = differential_graph()
        sampler = make_sampler(sampler_name, graph, 1)
        measure = make_measure(measure_name)
        resolved = resolve_engine("auto", sampler, measure)
        assert resolved in VECTOR_ENGINES
        assert resolved == "vectorized"

    @pytest.mark.parametrize(
        "vectorized_cls",
        [
            VectorizedMonteCarloSampler,
            VectorizedLazyPropagationSampler,
            VectorizedStratifiedSampler,
        ],
    )
    def test_auto_accepts_vectorized_twins(self, vectorized_cls):
        graph = differential_graph()
        sampler = vectorized_cls(graph, 1)
        assert resolve_engine("auto", sampler, EdgeDensity()) in (
            VECTOR_ENGINES
        )


class TestMPDSDifferential:
    """tau-hat must match byte-for-byte across engines, per combination."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("measure_name", MPDS_MEASURES)
    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_identical_estimates(self, sampler_name, measure_name, seed):
        graph = differential_graph()
        theta = 24 if measure_name == "2-star" else 36
        results = {}
        memory = {}
        for engine in ("python", "vectorized"):
            sampler = make_sampler(sampler_name, graph, seed)
            results[engine] = top_k_mpds(
                graph,
                k=3,
                theta=theta,
                measure=make_measure(measure_name),
                sampler=sampler,
                seed=seed,
                engine=engine,
            )
            memory[engine] = sampler.memory_units() if sampler else 0
        python, vector = results["python"], results["vectorized"]
        assert python.candidates == vector.candidates
        assert python.top == vector.top
        assert python.densest_counts == vector.densest_counts
        assert python.theta == vector.theta
        assert python.worlds_with_densest == vector.worlds_with_densest
        # the vectorised engine must leave the sampler's bookkeeping in
        # the exact state the pure-Python run would have
        assert memory["python"] == memory["vectorized"]
        assert python.replayed_worlds == 0


class TestJitTierDifferential:
    """Same sweep through the ``engine='jit'`` alias of ``vectorized``."""

    @pytest.mark.parametrize("measure_name", MPDS_MEASURES)
    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_identical_mpds(self, sampler_name, measure_name):
        graph = differential_graph()
        theta = 16 if measure_name == "2-star" else 24
        sampler = make_sampler(sampler_name, graph, 7)
        python = top_k_mpds(
            graph, k=3, theta=theta, measure=make_measure(measure_name),
            sampler=sampler, seed=7, engine="python",
        )
        sampler = make_sampler(sampler_name, graph, 7)
        tiered = top_k_mpds(
            graph, k=3, theta=theta, measure=make_measure(measure_name),
            sampler=sampler, seed=7, engine="jit",
        )
        assert python.candidates == tiered.candidates
        assert python.top == tiered.top
        assert python.densest_counts == tiered.densest_counts

    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_identical_nds(self, sampler_name):
        graph = differential_graph()
        sampler = make_sampler(sampler_name, graph, 7)
        python = top_k_nds(
            graph, k=3, min_size=2, theta=24, sampler=sampler, seed=7,
            engine="python",
        )
        sampler = make_sampler(sampler_name, graph, 7)
        tiered = top_k_nds(
            graph, k=3, min_size=2, theta=24, sampler=sampler, seed=7,
            engine="jit",
        )
        assert python.top == tiered.top
        assert python.transactions == tiered.transactions


class TestEngineJitName:
    """``engine='jit'`` is an alias of ``vectorized``, end to end."""

    def test_resolve_engine_jit_requires_replayable_sampler(self):
        class CustomSampler:
            pass

        with pytest.raises(ValueError, match="MC, LP and RSS"):
            resolve_engine("jit", CustomSampler(), EdgeDensity())

    def test_top_k_accepts_jit(self):
        graph = random_uncertain_graph(
            random.Random(1), 8, 0.5, low=0.3, high=0.9
        )
        python = top_k_mpds(graph, k=2, theta=16, seed=2, engine="python")
        via_jit = top_k_mpds(graph, k=2, theta=16, seed=2, engine="jit")
        assert python.candidates == via_jit.candidates
        assert python.top == via_jit.top

    def test_session_accepts_jit(self):
        from repro.session import Session

        graph = random_uncertain_graph(
            random.Random(2), 8, 0.5, low=0.3, high=0.9
        )
        session = Session(graph, engine="jit")
        result = session.query().sampler(theta=12, seed=4).top_k(2).mpds()
        control = top_k_mpds(graph, k=2, theta=12, seed=4, engine="python")
        assert result.candidates == control.candidates

    def test_workers_accept_jit(self):
        from repro.session import Session

        graph = random_uncertain_graph(
            random.Random(3), 9, 0.5, low=0.3, high=0.9
        )
        session = Session(graph, engine="jit", workers=2)
        result = session.query().sampler(theta=16, seed=6).top_k(2).mpds()
        control = top_k_mpds(graph, k=2, theta=16, seed=6, engine="python")
        assert result.candidates == control.candidates
        assert result.top == control.top


class TestNDSDifferential:
    """gamma-hat (transactions + mined top-k) must match across engines."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("measure_name", NDS_MEASURES)
    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_identical_estimates(self, sampler_name, measure_name, seed):
        graph = differential_graph()
        results = {}
        memory = {}
        for engine in ("python", "vectorized"):
            sampler = make_sampler(sampler_name, graph, seed)
            results[engine] = top_k_nds(
                graph,
                k=3,
                min_size=2,
                theta=40,
                measure=make_measure(measure_name),
                sampler=sampler,
                seed=seed,
                engine=engine,
            )
            memory[engine] = sampler.memory_units() if sampler else 0
        python, vector = results["python"], results["vectorized"]
        assert python.top == vector.top
        assert python.transactions == vector.transactions
        assert python.theta == vector.theta
        assert memory["python"] == memory["vectorized"]


class TestTruncationReplay:
    """Forced ``per_world_limit`` truncation must keep identical subsets."""

    def truncating_graph(self) -> UncertainGraph:
        # two certain disjoint edges: every world has 3 tied densest sets
        # ({a,b}, {c,d}, their union), so per_world_limit=2 truncates
        return UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )

    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_truncated_subsets_identical(self, sampler_name):
        graph = self.truncating_graph()
        results = {}
        for engine in ("python", "vectorized"):
            sampler = make_sampler(sampler_name, graph, 1)
            results[engine] = top_k_mpds(
                graph,
                k=5,
                theta=20,
                sampler=sampler,
                seed=1,
                per_world_limit=2,
                engine=engine,
            )
        python, vector = results["python"], results["vectorized"]
        assert python.candidates == vector.candidates
        assert python.densest_counts == vector.densest_counts
        # the python engine never replays; the vectorised engine must
        # account one replay per world whose enumeration hit the limit
        assert python.replayed_worlds == 0
        truncated = sum(1 for count in vector.densest_counts if count >= 2)
        assert truncated > 0
        assert vector.replayed_worlds == truncated

    def test_clique_truncation_replay(self):
        # two certain disjoint triangles tie at 3-clique density 1/3
        graph = UncertainGraph.from_weighted_edges(
            [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0),
             (3, 4, 0.5)]
        )
        measure = CliqueDensity(3)
        python = top_k_mpds(
            graph, k=5, theta=10, seed=2, measure=measure,
            per_world_limit=2, engine="python",
        )
        vector = top_k_mpds(
            graph, k=5, theta=10, seed=2, measure=measure,
            per_world_limit=2, engine="vectorized",
        )
        assert python.candidates == vector.candidates
        assert python.densest_counts == vector.densest_counts
        assert vector.replayed_worlds > 0


class TestSparseDisconnectedWorlds:
    """Sparse graphs sample mostly forests: the dense layer's tree
    closed-form and cross-component merging must stay byte-identical."""

    def sparse_graph(self) -> UncertainGraph:
        return random_uncertain_graph(
            random.Random(77), 14, 0.16, low=0.15, high=0.8
        )

    @pytest.mark.parametrize("seed", [1, 19])
    def test_identical_estimates(self, seed):
        graph = self.sparse_graph()
        results = {}
        for engine in ("python", "vectorized"):
            results[engine] = top_k_mpds(
                graph, k=4, theta=48, seed=seed, engine=engine
            )
        python, vector = results["python"], results["vectorized"]
        assert python.candidates == vector.candidates
        assert python.top == vector.top
        assert python.densest_counts == vector.densest_counts

    def test_identical_nds(self):
        graph = self.sparse_graph()
        python = top_k_nds(graph, k=3, theta=48, seed=5, engine="python")
        vector = top_k_nds(graph, k=3, theta=48, seed=5, engine="vectorized")
        assert python.top == vector.top
        assert python.transactions == vector.transactions


class TestNoWorldMaterialization:
    """The acceptance spy: vectorised EdgeDensity MPDS / NDS never leaves
    the array substrate -- zero ``to_graph`` / ``world_graph`` /
    ``subworld_graph`` calls on the sampled-world path."""

    @pytest.fixture
    def spy(self, monkeypatch):
        from repro.engine import indexed as indexed_module

        calls = {"to_graph": 0, "world_graph": 0, "subworld_graph": 0}
        original_to_graph = indexed_module.MaskWorld.to_graph
        original_world = indexed_module.IndexedGraph.world_graph
        original_subworld = indexed_module.IndexedGraph.subworld_graph

        def spy_to_graph(self):
            calls["to_graph"] += 1
            return original_to_graph(self)

        def spy_world(self, *args, **kwargs):
            calls["world_graph"] += 1
            return original_world(self, *args, **kwargs)

        def spy_subworld(self, *args, **kwargs):
            calls["subworld_graph"] += 1
            return original_subworld(self, *args, **kwargs)

        monkeypatch.setattr(indexed_module.MaskWorld, "to_graph", spy_to_graph)
        monkeypatch.setattr(
            indexed_module.IndexedGraph, "world_graph", spy_world
        )
        monkeypatch.setattr(
            indexed_module.IndexedGraph, "subworld_graph", spy_subworld
        )
        return calls

    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_mpds_edge_density_zero_materializations(self, spy, sampler_name):
        graph = differential_graph()
        sampler = make_sampler(sampler_name, graph, 3)
        result = top_k_mpds(
            graph, k=3, theta=30, sampler=sampler, seed=3, engine="vectorized"
        )
        assert result.theta == 30
        assert spy == {"to_graph": 0, "world_graph": 0, "subworld_graph": 0}

    def test_nds_edge_density_zero_materializations(self, spy):
        graph = differential_graph()
        result = top_k_nds(graph, k=3, theta=30, seed=3, engine="vectorized")
        assert result.theta == 30
        assert spy == {"to_graph": 0, "world_graph": 0, "subworld_graph": 0}

    def test_clique_density_materializes_only_filtered_cores(self, spy):
        """Clique worlds fall back only *past* the k-core pre-filter: the
        shrunken core is materialised, never the full sampled world."""
        graph = differential_graph()
        top_k_mpds(
            graph,
            k=2,
            theta=12,
            measure=CliqueDensity(3),
            seed=3,
            engine="vectorized",
        )
        assert spy["to_graph"] == 0
        assert spy["world_graph"] == 0
        assert spy["subworld_graph"] == 12

    def test_truncation_replay_is_the_only_materializer(self, spy):
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        result = top_k_mpds(
            graph, k=5, theta=10, seed=1, per_world_limit=2,
            engine="vectorized",
        )
        assert result.replayed_worlds > 0
        assert spy["to_graph"] == result.replayed_worlds


class TestSamplerStreamDifferential:
    """Raw sampler output (graphs, weights, order) matches per seed."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("name", ["MC", "LP", "RSS"])
    def test_worlds_identical(self, name, seed):
        graph = differential_graph()
        vectorized = {
            "MC": VectorizedMonteCarloSampler,
            "LP": VectorizedLazyPropagationSampler,
            "RSS": VectorizedStratifiedSampler,
        }[name]
        python_worlds = list(_SAMPLERS[name](graph, seed).worlds(25))
        vector_worlds = list(vectorized(graph, seed).worlds(25))
        assert len(python_worlds) == len(vector_worlds)
        for pw, vw in zip(python_worlds, vector_worlds):
            assert pw.weight == vw.weight
            assert pw.graph == vw.graph

    @pytest.mark.parametrize("name", ["LP", "RSS"])
    def test_adoption_continues_stream(self, name):
        """Adopting a sampler between calls continues its exact RNG stream.

        LP/RSS rebuild their per-call state (schedule, stratum tree), so
        the control is a pure-Python sampler making the same two calls.
        """
        graph = differential_graph()
        adopt = {
            "LP": VectorizedLazyPropagationSampler.from_lazy_propagation,
            "RSS": VectorizedStratifiedSampler.from_stratified,
        }[name]
        python = _SAMPLERS[name](graph, 42)
        first = [w.graph for w in python.worlds(10)]
        adopted = adopt(python)
        second = [w.graph for w in adopted.worlds(10)]
        control = _SAMPLERS[name](graph, 42)
        assert first == [w.graph for w in control.worlds(10)]
        assert second == [w.graph for w in control.worlds(10)]
