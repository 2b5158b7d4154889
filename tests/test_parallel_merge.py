"""Merge semantics of the parallel substrate, exercised in-process.

Property under test: merging any *permutation* of per-block outputs over
any *partition* (chunk grid) of a world store reproduces the sequential
``top_k_mpds`` / ``top_k_nds`` output exactly -- candidates, ranking,
per-world densest counts and ``per_world_limit`` replay counters
included.  Everything here runs in the parent process through the same
helpers the pool workers and the session merge execute
(``_block_records`` per block over a ``WorldStore``,
``_records_in_grid_order`` and ``_replay_truncated`` into
``finalize_mpds`` / ``accumulate_transactions``), so the properties are
cheap to sweep.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.mpds import finalize_mpds, top_k_mpds
from repro.core.nds import accumulate_transactions, finalize_nds, top_k_nds
from repro.core.parallel import (
    _block_records,
    _records_in_grid_order,
    _replay_truncated,
)
from repro.engine.blocks import drain_mask_stream, plan_blocks
from repro.engine.indexed import IndexedGraph
from repro.engine.sampler import VectorizedMonteCarloSampler
from repro.engine.shm import attach_arrays, close_attachment, pack_arrays
from repro.engine.worldstore import WorldStore
from repro.graph.uncertain import UncertainGraph
from repro.sampling import LazyPropagationSampler, RecursiveStratifiedSampler

from .conftest import random_uncertain_graph


def _store(graph, theta, sampler=None, seed=None):
    """The world store a session query would draw for these knobs."""
    return WorldStore.from_sampler(graph, sampler, theta, seed=seed)


def _grid(store):
    return plan_blocks(store.count)


def _outputs(store, engine, mode, enumerate_all=True,
             per_world_limit=100_000, measure=None):
    """Evaluate every block in-process (what the pool workers do)."""
    from repro.core.measures import EdgeDensity

    measure = measure or EdgeDensity()
    outputs = []
    for index, (start, stop) in enumerate(_grid(store)):
        records, replayed = _block_records(
            store, start, stop, measure, engine,
            enumerate_all, per_world_limit, mode,
        )
        outputs.append((index, records, replayed))
    return outputs


def _mpds_outputs(store, engine, enumerate_all=True,
                  per_world_limit=100_000):
    return _outputs(store, engine, "mpds", enumerate_all, per_world_limit)


def _nds_outputs(store, engine):
    return _outputs(store, engine, "nds", True, None)


def _merge_mpds(blocks, outputs, k, store=None, per_world_limit=None):
    """The session's MPDS merge: grid order, truncation replay in the
    parent, then the sequential accumulation in ``finalize_mpds``."""
    records, replayed = _records_in_grid_order(blocks, outputs)
    if store is not None:
        _replay_truncated(store, records, sequential_measure(), per_world_limit)
    result = finalize_mpds(records, k)
    result.replayed_worlds = replayed
    return result


def _merge_nds(blocks, outputs, k, min_size):
    """The session's NDS merge: grid order, one accumulation, one mine."""
    records, _replayed = _records_in_grid_order(blocks, outputs)
    return finalize_nds(*accumulate_transactions(records), k, min_size)


def _assert_mpds_equal(merged, sequential):
    assert merged.candidates == sequential.candidates
    assert merged.top == sequential.top
    assert merged.densest_counts == sequential.densest_counts
    assert merged.worlds_with_densest == sequential.worlds_with_densest
    assert merged.theta == sequential.theta
    assert merged.replayed_worlds == sequential.replayed_worlds


class TestMergePermutationInvariance:
    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    def test_any_output_permutation_merges_identically(self, figure1, engine):
        sequential = top_k_mpds(figure1, k=3, theta=48, seed=5, engine=engine)
        store = _store(figure1, 48, seed=5)
        outputs = _mpds_outputs(store, engine)
        shuffler = random.Random(0)
        for _ in range(5):
            shuffler.shuffle(outputs)
            merged = _merge_mpds(_grid(store), outputs, 3)
            _assert_mpds_equal(merged, sequential)

    def test_any_partition_merges_identically(self, figure1):
        """Coarser/finer chunk grids over the same stream agree too."""
        sequential = top_k_mpds(figure1, k=2, theta=40, seed=11)
        sampler = VectorizedMonteCarloSampler(figure1, 11)
        masks, weights, _, _ = drain_mask_stream(sampler, 40)
        store = WorldStore(sampler.indexed, masks, weights, None, None)
        from repro.core.measures import EdgeDensity

        for max_blocks in (1, 3, 7, 40, 64):
            blocks = plan_blocks(40, max_blocks)
            outputs = []
            for index, (start, stop) in enumerate(blocks):
                records, replayed = _block_records(
                    store, start, stop,
                    EdgeDensity(), "vectorized", True, 100_000, "mpds",
                )
                outputs.append((index, records, replayed))
            merged = _merge_mpds(blocks, outputs, 2)
            _assert_mpds_equal(merged, sequential)

    @pytest.mark.parametrize("sampler_cls", [
        LazyPropagationSampler, RecursiveStratifiedSampler,
    ])
    def test_lp_rss_blocks_merge_identically(self, figure1, sampler_cls):
        sequential = top_k_mpds(
            figure1, k=3, theta=36, sampler=sampler_cls(figure1, 3)
        )
        store = _store(figure1, 36, sampler_cls(figure1, 3))
        outputs = _mpds_outputs(store, "vectorized")
        outputs.reverse()
        merged = _merge_mpds(_grid(store), outputs, 3)
        _assert_mpds_equal(merged, sequential)

    def test_random_graphs_merge_identically(self, rng):
        for trial in range(3):
            graph = random_uncertain_graph(rng, 8, 0.45)
            if not list(graph.weighted_edges()):
                continue
            sequential = top_k_mpds(graph, k=4, theta=30, seed=trial)
            store = _store(graph, 30, seed=trial)
            outputs = _mpds_outputs(store, "vectorized")
            random.Random(trial).shuffle(outputs)
            merged = _merge_mpds(_grid(store), outputs, 4)
            _assert_mpds_equal(merged, sequential)


class TestReplayedWorldCounters:
    def test_truncated_worlds_replay_and_count(self):
        # two certain disjoint edges tie 3 densest sets per world, so
        # per_world_limit=2 marks a sentinel in (almost) every block
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        sequential = top_k_mpds(
            graph, k=5, theta=20, seed=1, per_world_limit=2,
            engine="vectorized",
        )
        assert sequential.replayed_worlds > 0
        store = _store(graph, 20, seed=1)
        outputs = _mpds_outputs(store, "vectorized", per_world_limit=2)
        assert any(
            record is None for _, records, _ in outputs for record in records
        )
        merged = _merge_mpds(_grid(store), outputs, 5, store, 2)
        _assert_mpds_equal(merged, sequential)

    def test_python_engine_truncation_replays_without_counting(self):
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        sequential = top_k_mpds(
            graph, k=5, theta=16, seed=2, per_world_limit=2, engine="python"
        )
        assert sequential.replayed_worlds == 0
        store = _store(graph, 16, seed=2)
        outputs = _mpds_outputs(store, "python", per_world_limit=2)
        merged = _merge_mpds(_grid(store), outputs, 5, store, 2)
        _assert_mpds_equal(merged, sequential)


def sequential_measure():
    from repro.core.measures import EdgeDensity

    return EdgeDensity()


class TestNDSMerge:
    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    def test_transactions_merge_identically(self, figure1, engine):
        sequential = top_k_nds(
            figure1, k=2, min_size=2, theta=44, seed=9, engine=engine
        )
        store = _store(figure1, 44, seed=9)
        outputs = _nds_outputs(store, engine)
        random.Random(1).shuffle(outputs)
        merged = _merge_nds(_grid(store), outputs, 2, 2)
        assert merged.top == sequential.top
        assert merged.transactions == sequential.transactions
        assert merged.theta == sequential.theta


class TestMergeRefusesPartialGrids:
    def test_missing_block_raises(self, figure1):
        store = _store(figure1, 20, seed=4)
        outputs = _mpds_outputs(store, "vectorized")[:-1]
        with pytest.raises(ValueError, match="missing"):
            _merge_mpds(_grid(store), outputs, 1)

    def test_duplicate_block_raises(self, figure1):
        store = _store(figure1, 20, seed=4)
        outputs = _mpds_outputs(store, "vectorized")
        with pytest.raises(ValueError, match="duplicate"):
            _merge_mpds(_grid(store), outputs + [outputs[0]], 1)

    def test_mis_sized_block_raises(self, figure1):
        store = _store(figure1, 20, seed=4)
        outputs = _mpds_outputs(store, "vectorized")
        index, records, replayed = outputs[0]
        outputs[0] = (index, records + [[]], replayed)
        with pytest.raises(ValueError, match="records"):
            _merge_mpds(_grid(store), outputs, 1)


class TestSharedMemoryPlumbing:
    def test_pack_attach_round_trip(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "c": np.array([True, False, True]),
        }
        shm, layout = pack_arrays(arrays)
        try:
            peer, attached = attach_arrays(shm.name, layout)
            try:
                for name, array in arrays.items():
                    np.testing.assert_array_equal(attached[name], array)
                    assert not attached[name].flags.writeable
            finally:
                close_attachment(peer, attached)
        finally:
            shm.close()
            shm.unlink()

    def test_indexed_graph_shared_payload_round_trip(self, figure1):
        indexed = IndexedGraph.from_uncertain(figure1)
        shm, layout = pack_arrays(indexed.shared_payload())
        try:
            peer, attached = attach_arrays(shm.name, layout)
            try:
                rebuilt = IndexedGraph.from_shared_payload(attached)
                assert rebuilt.nodes == indexed.nodes
                assert rebuilt.node_index == indexed.node_index
                np.testing.assert_array_equal(rebuilt.edge_u, indexed.edge_u)
                np.testing.assert_array_equal(rebuilt.probs, indexed.probs)
                for ours, theirs in zip(rebuilt.csr(), indexed.csr()):
                    np.testing.assert_array_equal(ours, theirs)
            finally:
                close_attachment(peer, attached)
        finally:
            shm.close()
            shm.unlink()

    def test_drain_matches_sequential_worlds(self, figure1):
        """The drained matrix is the sequential sampler's exact stream."""
        drained = drain_mask_stream(
            VectorizedMonteCarloSampler(figure1, 13), 12
        )
        masks, weights, order_data, order_indptr = drained
        assert order_data is None and order_indptr is None
        reference = VectorizedMonteCarloSampler(figure1, 13).edge_masks(12)
        np.testing.assert_array_equal(masks, reference)
        assert weights.sum() == pytest.approx(1.0)

    def test_drain_lp_orders_replay_schedule(self, figure1):
        sampler = LazyPropagationSampler(figure1, 5)
        plan_sampler = LazyPropagationSampler(figure1, 5)
        from repro.engine.lazy import VectorizedLazyPropagationSampler

        masks, weights, order_data, order_indptr = drain_mask_stream(
            VectorizedLazyPropagationSampler.from_lazy_propagation(
                plan_sampler
            ),
            10,
        )
        assert masks.shape[0] == 10
        assert order_indptr[-1] == len(order_data)
        # replaying order slices materialises the python sampler's worlds
        indexed = IndexedGraph.from_uncertain(figure1)
        for i, weighted in enumerate(sampler.worlds(10)):
            order = order_data[order_indptr[i]:order_indptr[i + 1]]
            assert indexed.world_graph(masks[i], order) == weighted.graph

    def test_drain_rejects_unknown_samplers(self):
        with pytest.raises(ValueError, match="MC/LP/RSS"):
            drain_mask_stream(object(), 4)
