"""Packed-store differential gate against the sampler's boolean drain.

The bit-packed :class:`WorldStore` (uint64 words, lazy per-row
unpacking) must be **byte-identical** to its oracle -- the boolean
``(T, m)`` matrix, weights and insertion orders that
:func:`repro.engine.blocks.drain_mask_stream` draws from the same
sampler -- at every observable seam: the mask rows themselves, the
LP/RSS insertion-order replays, full estimates across every (sampler x
measure x engine x workers) cell, truncated ``per_world_limit`` runs,
and the memory-budgeted spill/stream path -- whose peak resident bytes
must also stay inside the stated budget at every step.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.mpds import evaluate_worlds, finalize_mpds, mpds_from_store
from repro.core.mpds import top_k_mpds
from repro.core.nds import accumulate_transactions, evaluate_transactions
from repro.core.nds import finalize_nds, nds_from_store
from repro.core.parallel import shutdown_pool
from repro.engine.bitset import PackedMasks
from repro.engine.blocks import drain_mask_stream
from repro.engine.estimators import (
    VECTOR_ENGINES,
    EngineMeasure,
    primed_world_stream,
    resolve_engine,
    vectorized_sampler,
)
from repro.engine.indexed import MaskWorld
from repro.engine.worldstore import WorldStore
from repro.sampling import SAMPLERS
from repro.sampling.base import WeightedWorld
from repro.session import Session
from repro.specs import build_measure

from .conftest import random_uncertain_graph

THETA = 20
SEED = 13

SAMPLER_KINDS = ("mc", "lp", "rss")
MEASURE_SPECS = ("edge", "clique:h=3", "pattern:psi=2-star")
ENGINES = ("auto", "python")
WORKER_COUNTS = (1, 2)


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(random.Random(71), 16, 0.3)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _sampler(graph, kind):
    return None if kind == "mc" else SAMPLERS[kind.upper()](graph, SEED)


class Drain:
    """The boolean oracle: the sampler's stream drained into plain
    arrays, replayed world by world without any packing."""

    def __init__(self, graph, kind):
        vec = vectorized_sampler(graph, _sampler(graph, kind), SEED)
        self.indexed = vec.indexed
        (self.masks, self.weights, self.order_data,
         self.order_indptr) = drain_mask_stream(vec, THETA)
        self.count = len(self.weights)

    def mask_row(self, i):
        return self.masks[i]

    def order(self, i):
        if self.order_data is None:
            return None
        return self.order_data[self.order_indptr[i]:self.order_indptr[i + 1]]

    def mask_worlds(self):
        for i in range(self.count):
            yield WeightedWorld(
                MaskWorld(self.indexed, self.masks[i], self.order(i)),
                float(self.weights[i]),
            )

    def graph_worlds(self):
        for i in range(self.count):
            yield WeightedWorld(
                self.indexed.world_graph(self.masks[i], self.order(i)),
                float(self.weights[i]),
            )

    def _stream(self, measure, engine):
        resolved = resolve_engine(engine, None, measure)
        if resolved in VECTOR_ENGINES:
            engine_measure = EngineMeasure(measure)
            return (
                primed_world_stream(self.mask_worlds(), engine_measure),
                engine_measure, engine_measure,
            )
        return self.graph_worlds(), measure, None

    def mpds(self, k, measure=None, engine="auto", per_world_limit=100_000):
        worlds, loop_measure, engine_measure = self._stream(
            measure or build_measure("edge"), engine
        )
        result = finalize_mpds(
            evaluate_worlds(worlds, loop_measure, True, per_world_limit), k
        )
        result.replayed_worlds = (
            engine_measure.replayed_worlds if engine_measure else 0
        )
        return result

    def nds(self, k, min_size):
        worlds, loop_measure, _ = self._stream(build_measure("edge"), "auto")
        return finalize_nds(
            *accumulate_transactions(
                evaluate_transactions(worlds, loop_measure)
            ),
            k, min_size,
        )


def _stores(graph, kind, **kwargs):
    """The boolean drain oracle and the packed store of the same draw."""
    packed = WorldStore.from_sampler(
        graph, _sampler(graph, kind), THETA, seed=SEED, **kwargs
    )
    return Drain(graph, kind), packed


class TestStoreByteIdentity:
    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_mask_rows_byte_identical(self, graph, kind):
        unpacked, packed = _stores(graph, kind)
        assert unpacked.masks.dtype == np.bool_
        assert isinstance(packed.mask_matrix(), PackedMasks)
        np.testing.assert_array_equal(packed.masks, unpacked.masks)
        for i in range(unpacked.count):
            np.testing.assert_array_equal(
                packed.mask_row(i), unpacked.mask_row(i)
            )
        np.testing.assert_array_equal(packed.weights, unpacked.weights)

    @pytest.mark.parametrize("kind", ("lp", "rss"))
    def test_insertion_order_replay_byte_identical(self, graph, kind):
        """LP/RSS worlds replay their exact edge insertion sequences
        from the packed rows -- Graph equality includes the insertion
        order the python engine depends on."""
        unpacked, packed = _stores(graph, kind)
        np.testing.assert_array_equal(
            packed.order_data, unpacked.order_data
        )
        for ours, theirs in zip(
            packed.graph_worlds(), unpacked.graph_worlds()
        ):
            assert ours.graph == theirs.graph
            assert ours.weight == theirs.weight

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_estimates_byte_identical_across_cells(self, graph, kind):
        unpacked, packed = _stores(graph, kind)
        for spec in MEASURE_SPECS:
            for engine in ENGINES:
                reference = unpacked.mpds(
                    3, measure=build_measure(spec), engine=engine
                )
                result = mpds_from_store(
                    packed, k=3, measure=build_measure(spec), engine=engine,
                )
                assert result == reference, (
                    f"cell ({kind}, {spec}, {engine}) diverged"
                )
        assert nds_from_store(packed, k=2, min_size=2) == unpacked.nds(2, 2)

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_session_cells_match_one_shot(self, graph, kind, workers):
        """A session query equals the one-shot estimator (a sampler
        instance adopted into a transient store) and the boolean drain
        on every cell."""
        reference = top_k_mpds(
            graph, k=3, theta=THETA, sampler=_sampler(graph, kind), seed=SEED
        )
        assert reference == Drain(graph, kind).mpds(3)
        with Session(graph) as session:
            result = (
                session.query().sampler(kind, theta=THETA, seed=SEED)
                .top_k(3).workers(workers).mpds()
            )
        assert result == reference, (
            f"cell ({kind}, workers={workers}) diverged"
        )

    def test_truncated_per_world_limit_replays_identically(self, graph):
        unpacked, packed = _stores(graph, "mc")
        for limit in (1, 2):
            reference = unpacked.mpds(3, per_world_limit=limit)
            result = mpds_from_store(packed, k=3, per_world_limit=limit)
            assert result == reference
            assert result.replayed_worlds == reference.replayed_worlds
        one_shot = top_k_mpds(
            graph, k=3, theta=THETA, seed=SEED, per_world_limit=1
        )
        assert mpds_from_store(packed, k=3, per_world_limit=1) == one_shot


class TestMemoryBudget:
    def _tiny_budget(self, packed):
        """A budget that fits only a few grid blocks -- forces spill."""
        words = packed.mask_matrix().words
        block_bytes = words.shape[1] * 8  # theta=20 -> 20 one-row blocks
        return 3 * block_bytes

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_spill_streams_identical_worlds(self, graph, kind):
        unpacked, packed = _stores(graph, kind)
        budget = self._tiny_budget(packed)
        _, budgeted = _stores(graph, kind, memory_budget=budget)
        pager = budgeted._pager
        assert pager is not None, "tiny budget did not engage the pager"
        # results equal the unbudgeted store at every step...
        for i, (ours, theirs) in enumerate(
            zip(budgeted.mask_worlds(), unpacked.mask_worlds())
        ):
            np.testing.assert_array_equal(
                ours.graph.mask, theirs.graph.mask
            )
            assert ours.weight == theirs.weight
            # ...and the tracked bytes never exceed the budget mid-stream
            assert budgeted.memory_units() <= budget
        assert pager.block_evictions > 0, "budget never forced an eviction"
        assert budgeted.peak_mask_bytes <= budget
        # random access streams blocks back in, still byte-identical
        for i in (budgeted.count - 1, 0, budgeted.count // 2):
            np.testing.assert_array_equal(
                budgeted.mask_row(i), unpacked.mask_row(i)
            )
        assert budgeted.peak_mask_bytes <= budget
        budgeted.close()

    def test_budgeted_estimates_equal_unbudgeted(self, graph):
        unpacked, packed = _stores(graph, "mc")
        _, budgeted = _stores(
            graph, "mc", memory_budget=self._tiny_budget(packed)
        )
        for spec in ("edge", "clique:h=3"):
            assert mpds_from_store(
                budgeted, k=3, measure=build_measure(spec)
            ) == unpacked.mpds(3, measure=build_measure(spec))
        assert nds_from_store(budgeted, k=2, min_size=2) == unpacked.nds(2, 2)
        assert budgeted.peak_mask_bytes <= self._tiny_budget(packed)
        budgeted.close()

    def test_memory_units_tracks_representation(self, graph):
        unpacked, packed = _stores(graph, "mc")
        # the oracle holds one byte per (world, edge) ...
        assert unpacked.masks.nbytes == unpacked.count * graph.number_of_edges()
        # ... the packed store one bit, rounded up to whole words
        assert packed.memory_units() == packed.mask_matrix().nbytes
        assert packed.memory_units() < unpacked.masks.nbytes or (
            graph.number_of_edges() < 64
        )
        _, budgeted = _stores(
            graph, "mc", memory_budget=self._tiny_budget(packed)
        )
        list(budgeted.mask_worlds())
        assert budgeted.memory_units() <= self._tiny_budget(packed)
        budgeted.close()

    def test_budget_must_fit_one_block(self, graph):
        with pytest.raises(ValueError, match="largest"):
            WorldStore.from_sampler(
                graph, None, THETA, seed=SEED, memory_budget=1
            )

    def test_repr_names_budget(self, graph):
        _, budgeted = _stores(graph, "mc", memory_budget=1 << 20)
        assert "memory_budget=1048576" in repr(budgeted)
        budgeted.close()
