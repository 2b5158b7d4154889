"""Differential gate for the optional JIT tier (:mod:`repro.engine.jit`).

The tier ports the two irreducible per-world hot loops -- the bucketed
Charikar peel and the FIFO push-relabel phase-1 discharge -- to flat
``int64`` arrays in nopython-compatible style.  numba is optional: when
absent the ports run interpreted, and these tests force the tier on via
:func:`use_jit` to pin the ports against the classic list-based
implementations regardless -- correctness never depends on having numba
installed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.measures import EdgeDensity
from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.dense.peeling import _peel_arrays
from repro.engine import jit
from repro.engine.estimators import resolve_engine
from repro.engine.indexed import IndexedGraph, MaskWorld
from repro.flow.parametric import ReverseChain
from repro.graph.uncertain import UncertainGraph

from .conftest import random_uncertain_graph


def random_world(rng: random.Random, n: int, p: float, keep: float):
    graph = random_uncertain_graph(rng, n, p, low=0.2, high=0.95)
    indexed = IndexedGraph.from_uncertain(graph)
    mask = np.array(
        [rng.random() < keep for _ in range(indexed.m)], dtype=bool
    )
    return MaskWorld(indexed, mask)


class TestTierActivation:
    def test_default_off(self):
        assert not jit.jit_active()

    def test_context_manager_scopes_and_resets(self):
        with jit.use_jit(True):
            assert jit.jit_active()
            with jit.use_jit(False):
                assert not jit.jit_active()
            assert jit.jit_active()
        assert not jit.jit_active()

    def test_resolve_engine_jit_fallback(self):
        resolved = resolve_engine("jit", None, EdgeDensity())
        assert resolved == ("jit" if jit.HAVE_NUMBA else "vectorized")

    def test_resolve_engine_auto_upgrade_tracks_numba(self):
        resolved = resolve_engine("auto", None, EdgeDensity())
        assert resolved == ("jit" if jit.HAVE_NUMBA else "vectorized")

    def test_resolve_engine_jit_requires_replayable_sampler(self):
        class CustomSampler:
            pass

        with pytest.raises(ValueError, match="MC, LP and RSS"):
            resolve_engine("jit", CustomSampler(), EdgeDensity())

    def test_vectorized_never_upgrades(self):
        assert resolve_engine("vectorized", None, EdgeDensity()) == (
            "vectorized"
        )


class TestPeelPort:
    """peel_csr must reproduce _peel_arrays' exact removal order."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("density", [0.15, 0.4, 0.7])
    def test_identical_on_random_views(self, seed, density):
        rng = random.Random(seed)
        for _ in range(8):
            world = random_world(rng, rng.randint(2, 14), density, 0.75)
            if not world.mask.any():
                continue
            view = world.view()
            indptr, neighbors = view.csr()
            expected = _peel_arrays(view.n, indptr, neighbors)
            order, edges_after, num, den, size, degen = jit.peel_csr(
                view.n,
                np.ascontiguousarray(indptr, dtype=np.int64),
                np.ascontiguousarray(neighbors, dtype=np.int64),
            )
            assert list(order) == expected[0]
            assert list(edges_after) == expected[1]
            assert (num, den, size, degen) == expected[2:]

    def test_dispatch_through_tier(self):
        rng = random.Random(3)
        world = random_world(rng, 10, 0.5, 0.9)
        view = world.view()
        indptr, neighbors = view.csr()
        plain = _peel_arrays(view.n, indptr, neighbors)
        with jit.use_jit(True):
            tiered = _peel_arrays(view.n, indptr, neighbors)
        assert tiered == plain

    def test_singleton(self):
        order, edges_after, num, den, size, degen = jit.peel_csr(
            1, np.array([0, 0], dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert list(order) == [0]
        assert list(edges_after) == []
        assert (num, den, size, degen) == (0, 1, 1, 0)


class TestPreflowPort:
    """JIT phase-1 discharge vs the python :meth:`ReverseChain.run`."""

    def chains_for(self, view, alpha):
        return ReverseChain(view, alpha), ReverseChain(view, alpha)

    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_value_and_cut_certificate(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            world = random_world(rng, rng.randint(3, 12), 0.5, 0.85)
            if not world.mask.any():
                continue
            view = world.view()
            python, ported = self.chains_for(view, Fraction(view.m, view.n))
            value = python.run()
            assert ported._run_jit() == value
            # the port is a step-for-step twin: the whole preflow state,
            # and with it the height cut the witness reads, is identical
            assert ported.height == python.height
            assert ported.excess == python.excess
            assert ported.net.cap == python.net.cap
            assert (ported.witness() == python.witness()).all()

    def test_dispatch_through_tier_matches_value(self):
        # a warm chain resumed through the tier: run, raise alpha to the
        # improving witness's density, run again
        # K5 with a pendant path: whole-graph density 3/2, rho* = 2
        edges = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]
        edges += [(i, i + 1, 1.0) for i in range(4, 9)]
        indexed = IndexedGraph.from_uncertain(
            UncertainGraph.from_weighted_edges(edges)
        )
        view = MaskWorld(indexed, np.ones(indexed.m, dtype=bool)).view()
        python, tiered = self.chains_for(view, Fraction(view.m, view.n))
        assert python.run() == self._tier_run(tiered)
        member = python.witness()
        size = int(member.sum())
        num = view.induced_edges(member)
        assert num * python.den > python.num * size  # witness improves
        for chain in (python, tiered):
            chain.increment(num, size)
        assert python.run() == self._tier_run(tiered)
        assert tiered.height == python.height

    @staticmethod
    def _tier_run(chain):
        with jit.use_jit(True):
            return chain.run()

    def test_overflow_falls_back_to_python(self):
        rng = random.Random(2)
        world = random_world(rng, 6, 0.6, 1.0)
        view = world.view()
        python, tiered = self.chains_for(view, Fraction(view.m, view.n))
        # an increment over a huge denominator rescales every capacity
        # beyond int64, as a long chain's common denominator can
        den = 1 << 70
        num = view.m * den // view.n + 1
        for chain in (python, tiered):
            chain.increment(num, den)
        with jit.use_jit(True):
            assert tiered._run_jit() is None
            value = tiered.run()
        assert value == python.run()
        assert value > np.iinfo(np.int64).max


class TestEndToEndUnderJit:
    """Whole estimates with the tier forced on must be byte-identical."""

    def graph(self):
        return random_uncertain_graph(
            random.Random(20230613), 9, 0.45, low=0.2, high=0.95
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_mpds_identical(self, seed):
        graph = self.graph()
        python = top_k_mpds(graph, k=3, theta=30, seed=seed, engine="python")
        with jit.use_jit(True):
            tiered = top_k_mpds(
                graph, k=3, theta=30, seed=seed, engine="vectorized"
            )
        assert python.candidates == tiered.candidates
        assert python.top == tiered.top
        assert python.densest_counts == tiered.densest_counts

    def test_nds_identical(self):
        graph = self.graph()
        python = top_k_nds(graph, k=3, theta=30, seed=5, engine="python")
        with jit.use_jit(True):
            tiered = top_k_nds(
                graph, k=3, theta=30, seed=5, engine="vectorized"
            )
        assert python.top == tiered.top
        assert python.transactions == tiered.transactions

    def test_truncation_replay_identical(self):
        graph = UncertainGraph.from_weighted_edges(
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "c", 0.5)]
        )
        python = top_k_mpds(
            graph, k=5, theta=16, seed=1, per_world_limit=2, engine="python"
        )
        with jit.use_jit(True):
            tiered = top_k_mpds(
                graph, k=5, theta=16, seed=1, per_world_limit=2,
                engine="vectorized",
            )
        assert python.candidates == tiered.candidates
        assert python.densest_counts == tiered.densest_counts
        assert tiered.replayed_worlds > 0

    def test_parametric_chain_under_jit(self):
        from repro.flow.parametric import parametric_dinkelbach

        rng = random.Random(17)
        for _ in range(5):
            world = random_world(rng, rng.randint(3, 10), 0.6, 1.0)
            view = world.view()
            if view.m == 0:
                continue
            # the per-component solver requires a connected view; skip
            # the rare disconnected draw instead of decomposing here
            try:
                plain = parametric_dinkelbach(view, Fraction(view.m, view.n))
            except AssertionError:
                continue  # disconnected: whole-graph density not achieved
            with jit.use_jit(True):
                tiered = parametric_dinkelbach(
                    view, Fraction(view.m, view.n)
                )
            assert tiered[0] == plain[0]
            assert frozenset(tiered[2].labels()) == frozenset(
                plain[2].labels()
            )


class TestEngineJitName:
    """engine='jit' must flow end to end even without numba."""

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
