"""Differential gate for the cross-world batched evaluation pre-pass.

The vector engines buffer sampled worlds in chunks and run the cheap
filtering stages for the whole chunk in a few numpy passes
(:func:`repro.engine.estimators.primed_world_stream` +
:meth:`EngineMeasure.prime_batch`): lockstep bucketed peel bounds
(:func:`batch_peel_bounds`), per-world-k k-cores
(:func:`batch_k_core_alive`).  These tests pin the batch kernels against
slow per-world references, and the primed pipeline against the unprimed
one -- estimates must be byte-identical, with the pre-pass a pure
performance detail.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.measures import CliqueDensity, EdgeDensity
from repro.core.mpds import top_k_mpds
from repro.dense.all_densest import prepare_from_bound_csr
from repro.engine import estimators
from repro.engine.estimators import (
    EngineMeasure,
    primed_world_stream,
)
from repro.engine.indexed import IndexedGraph, MaskWorld
from repro.engine.kernels import (
    batch_k_core_alive,
    batch_peel_bounds,
    k_core_alive,
    world_degrees,
)
from repro.graph.uncertain import UncertainGraph
from repro.sampling.base import WeightedWorld

from .conftest import random_uncertain_graph


def random_indexed(rng: random.Random, n: int, p: float) -> IndexedGraph:
    graph = random_uncertain_graph(rng, n, p, low=0.2, high=0.95)
    return IndexedGraph.from_uncertain(graph)


def random_mask_batch(
    rng: random.Random, indexed: IndexedGraph, theta: int, keep: float
) -> np.ndarray:
    return np.array(
        [
            [rng.random() < keep for _ in range(indexed.m)]
            for _ in range(theta)
        ],
        dtype=bool,
    )


def lockstep_peel_reference(indexed, mask):
    """Slow per-world reference of the batched lockstep bucket peel.

    Every round deletes *all* alive minimum-degree nodes at once and
    tracks the best (achieved) intermediate density -- the semantics
    :func:`batch_peel_bounds` must implement for each world row.
    """
    alive = np.ones(indexed.n, dtype=bool)
    edge_alive = mask.copy()
    edges_left = int(edge_alive.sum())
    nodes_left = indexed.n
    best_num, best_den = edges_left, max(nodes_left, 1)
    while nodes_left > 1 and edges_left > 0:
        degree = world_degrees(indexed, edge_alive)
        min_degree = degree[alive].min()
        kill = alive & (degree == min_degree)
        if kill.sum() == nodes_left:
            break  # deleting every node ends the trajectory
        alive &= ~kill
        edge_alive &= alive[indexed.edge_u] & alive[indexed.edge_v]
        edges_left = int(edge_alive.sum())
        nodes_left = int(alive.sum())
        if edges_left * best_den > best_num * nodes_left:
            best_num, best_den = edges_left, nodes_left
    if best_num <= 0:
        return 0, 1
    return best_num, best_den


class TestBatchPeelBounds:
    """The lockstep kernel must match the per-world reference exactly."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        indexed = random_indexed(rng, rng.randint(2, 14), 0.4)
        masks = random_mask_batch(rng, indexed, 17, 0.7)
        nums, dens = batch_peel_bounds(indexed, masks)
        for t in range(len(masks)):
            ref_num, ref_den = lockstep_peel_reference(indexed, masks[t])
            assert (int(nums[t]), int(dens[t])) == (ref_num, ref_den)

    @pytest.mark.parametrize("seed", [1, 13])
    def test_bound_is_achieved_and_valid(self, seed):
        """Each bound is an achieved density <= the exact rho*."""
        from repro.dense.all_densest import prepare_from_bound_csr

        rng = random.Random(seed)
        indexed = random_indexed(rng, 10, 0.5)
        masks = random_mask_batch(rng, indexed, 12, 0.8)
        nums, dens = batch_peel_bounds(indexed, masks)
        for t in range(len(masks)):
            if nums[t] <= 0:
                assert not masks[t].any() or int(masks[t].sum()) >= 0
                continue
            world = MaskWorld(indexed, masks[t])
            # prepare_from_bound_csr asserts internally when fed a bound
            # that is not a valid achieved density <= rho*
            prepared = prepare_from_bound_csr(
                world.view(), Fraction(int(nums[t]), int(dens[t]))
            )
            assert prepared.density >= Fraction(int(nums[t]), int(dens[t]))

    def test_all_dead_block(self):
        rng = random.Random(7)
        indexed = random_indexed(rng, 8, 0.5)
        masks = np.zeros((5, indexed.m), dtype=bool)
        nums, dens = batch_peel_bounds(indexed, masks)
        assert (nums == 0).all()
        assert (dens == 1).all()

    def test_mixed_dead_and_alive_rows(self):
        rng = random.Random(9)
        indexed = random_indexed(rng, 9, 0.6)
        masks = random_mask_batch(rng, indexed, 6, 0.8)
        masks[2] = False
        masks[4] = False
        nums, dens = batch_peel_bounds(indexed, masks)
        assert nums[2] == 0 and dens[2] == 1
        assert nums[4] == 0 and dens[4] == 1
        for t in (0, 1, 3, 5):
            ref = lockstep_peel_reference(indexed, masks[t])
            assert (int(nums[t]), int(dens[t])) == ref


class TestBatchKCoreVectorK:
    """Per-world core orders must equal one-world peels at each k."""

    @pytest.mark.parametrize("seed", [2, 21])
    def test_vector_k_matches_scalar_loop(self, seed):
        rng = random.Random(seed)
        indexed = random_indexed(rng, 11, 0.45)
        masks = random_mask_batch(rng, indexed, 9, 0.75)
        ks = np.array([rng.randint(0, 4) for _ in range(len(masks))])
        node_alive, edge_alive = batch_k_core_alive(indexed, masks, ks)
        for t in range(len(masks)):
            ref_nodes, ref_edges = k_core_alive(
                indexed, masks[t], int(ks[t])
            )
            assert (node_alive[t] == ref_nodes).all()
            assert (edge_alive[t] == ref_edges).all()

    def test_zero_vector_is_identity(self):
        rng = random.Random(5)
        indexed = random_indexed(rng, 7, 0.5)
        masks = random_mask_batch(rng, indexed, 4, 0.6)
        node_alive, edge_alive = batch_k_core_alive(
            indexed, masks, np.zeros(4, dtype=np.int64)
        )
        assert node_alive.all()
        assert (edge_alive == masks).all()


def weighted_mask_worlds(indexed, masks):
    return [
        WeightedWorld(MaskWorld(indexed, mask), 1.0) for mask in masks
    ]


class TestPrimedPipelineIdentity:
    """Primed and unprimed evaluation must agree query for query."""

    @pytest.mark.parametrize("seed", [4, 19])
    def test_edge_density_all_densest(self, seed):
        rng = random.Random(seed)
        indexed = random_indexed(rng, 10, 0.5)
        masks = random_mask_batch(rng, indexed, 15, 0.7)
        primed = EngineMeasure(EdgeDensity())
        primed.prime_batch([MaskWorld(indexed, m) for m in masks])
        # prime_batch mutates the worlds it was handed; re-create fresh
        # primed worlds through the stream to mirror the real pipeline
        stream = list(
            primed_world_stream(
                weighted_mask_worlds(indexed, masks), primed, chunk=4
            )
        )
        plain = EngineMeasure(EdgeDensity())
        for ww, mask in zip(stream, masks):
            expect = plain.all_densest(MaskWorld(indexed, mask), 64)
            assert primed.all_densest(ww.graph, 64) == expect
            expect_max = plain.maximum_sized_densest(
                MaskWorld(indexed, mask)
            )
            fresh = list(
                primed_world_stream(
                    weighted_mask_worlds(indexed, [mask]), primed
                )
            )[0]
            assert primed.maximum_sized_densest(fresh.graph) == expect_max

    def test_stream_preserves_order_and_counts(self):
        rng = random.Random(8)
        indexed = random_indexed(rng, 8, 0.5)
        masks = random_mask_batch(rng, indexed, 11, 0.6)
        measure = EngineMeasure(EdgeDensity())
        stream = list(
            primed_world_stream(
                weighted_mask_worlds(indexed, masks), measure, chunk=4
            )
        )
        assert len(stream) == 11
        for ww, mask in zip(stream, masks):
            assert (ww.graph.mask == mask).all()
            assert ww.graph.prepped is not None
        assert measure.worlds_primed == 11

    def test_clique_core_priming(self):
        rng = random.Random(6)
        indexed = random_indexed(rng, 9, 0.6)
        masks = random_mask_batch(rng, indexed, 6, 0.8)
        measure = EngineMeasure(CliqueDensity(3))
        worlds = [MaskWorld(indexed, m) for m in masks]
        measure.prime_batch(worlds)
        for world, mask in zip(worlds, masks):
            assert world.prepped is not None and len(world.prepped) == 2
            ref_nodes, ref_edges = k_core_alive(indexed, mask, 2)
            assert (world.prepped[0] == ref_nodes).all()
            assert (world.prepped[1] == ref_edges).all()

    def test_foreign_indexed_worlds_are_skipped(self):
        rng = random.Random(10)
        indexed_a = random_indexed(rng, 8, 0.5)
        indexed_b = random_indexed(rng, 8, 0.5)
        world_a = MaskWorld(indexed_a, np.ones(indexed_a.m, dtype=bool))
        world_b = MaskWorld(indexed_b, np.ones(indexed_b.m, dtype=bool))
        measure = EngineMeasure(EdgeDensity())
        measure.prime_batch([world_a, world_b])
        assert world_a.prepped is not None
        assert world_b.prepped is None  # unprimed: per-world path serves it
        plain = EngineMeasure(EdgeDensity())
        fresh_b = MaskWorld(indexed_b, np.ones(indexed_b.m, dtype=bool))
        assert measure.maximum_sized_densest(
            world_b
        ) == plain.maximum_sized_densest(fresh_b)

    def test_edgeless_worlds_filtered_without_exact_work(self, monkeypatch):
        exact_calls = []

        def counting(*args):
            exact_calls.append(args)
            return prepare_from_bound_csr(*args)

        monkeypatch.setattr(estimators, "prepare_from_bound_csr", counting)
        rng = random.Random(12)
        indexed = random_indexed(rng, 7, 0.5)
        masks = np.zeros((3, indexed.m), dtype=bool)
        measure = EngineMeasure(EdgeDensity())
        worlds = [MaskWorld(indexed, m) for m in masks]
        measure.prime_batch(worlds)
        for world in worlds:
            assert world.prepped == (0, 1, None, None)
            assert measure.all_densest(world, 100) == []
        assert measure.worlds_filtered == 3
        assert exact_calls == []


class TestEndToEndTies:
    """Tied densest sets at the survivor bound across the batch."""

    def test_disjoint_triangles_certain(self):
        # every world is two tied triangles: batch bound == rho* == 1,
        # the survivor-tie enumeration must match the python engine
        graph = UncertainGraph.from_weighted_edges(
            [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0)]
        )
        python = top_k_mpds(graph, k=4, theta=12, seed=0, engine="python")
        vector = top_k_mpds(graph, k=4, theta=12, seed=0, engine="vectorized")
        assert python.candidates == vector.candidates
        assert python.top == vector.top
