"""Tests for the CSR push-relabel solver (repro.flow.push_relabel).

Its reference is the object Dinic :func:`repro.flow.maxflow.max_flow`:
same max-flow value, same residual min-cut sides.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.dense.goldberg import SINK, SOURCE, build_edge_density_network
from repro.flow.csr import CSRFlowNetwork, build_edge_density_network_csr
from repro.flow.maxflow import max_flow, min_cut_maximal_source_side
from repro.flow.network import FlowNetwork
from repro.flow.push_relabel import csr_push_relabel

from .conftest import random_graph


def csr_network(n, source, sink, arcs) -> CSRFlowNetwork:
    """A CSR network over nodes ``0..n-1`` from ``(tail, head, cap)``."""
    return CSRFlowNetwork.from_pairs(
        n, source, sink,
        np.array([a[0] for a in arcs], dtype=np.int64),
        np.array([a[1] for a in arcs], dtype=np.int64),
        np.array([a[2] for a in arcs], dtype=np.int64),
        np.zeros(len(arcs), dtype=np.int64),
    )


class TestPushRelabelBasics:
    # node ids: s = 0, t = 1, a = 2, b = 3
    def test_single_arc(self):
        assert csr_push_relabel(csr_network(2, 0, 1, [(0, 1, 5)])) == 5

    def test_series_bottleneck(self):
        network = csr_network(3, 0, 1, [(0, 2, 10), (2, 1, 3)])
        assert csr_push_relabel(network) == 3

    def test_classic_diamond(self):
        network = csr_network(4, 0, 1, [
            (0, 2, 10), (0, 3, 10), (2, 3, 1), (2, 1, 10), (3, 1, 10),
        ])
        assert csr_push_relabel(network) == 20

    def test_disconnected_sink(self):
        assert csr_push_relabel(csr_network(3, 0, 1, [(0, 2, 5)])) == 0

    def test_fraction_capacities(self):
        # rational capacities run scaled to their common denominator, as
        # the Goldberg networks scale by the density's denominator
        scale = 6
        caps = [Fraction(1, 3), Fraction(1, 2)]
        network = csr_network(
            3, 0, 1, [(0, 2, caps[0] * scale), (2, 1, caps[1] * scale)]
        )
        assert Fraction(csr_push_relabel(network), scale) == Fraction(1, 3)

    def test_same_source_sink_rejected(self):
        with pytest.raises(ValueError):
            csr_push_relabel(csr_network(2, 0, 0, [(0, 1, 1)]))

    def test_excess_returns_to_source(self):
        """Flow conservation must hold at every internal node at the end."""
        network = csr_network(3, 0, 1, [(0, 2, 10), (2, 1, 2)])
        original = list(network.cap)
        assert csr_push_relabel(network) == 2  # 8 units flow back to s
        lo, hi = network.indptr[2], network.indptr[3]
        net_out = sum(original[e] - network.cap[e] for e in range(lo, hi))
        assert net_out == 0


class TestAgainstDinic:
    def _random_arcs(self, rng, n):
        arcs = []
        for _ in range(rng.randint(5, 30)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, rng.randint(1, 12)))
        return arcs

    def _object_network(self, n, arcs) -> FlowNetwork:
        network = FlowNetwork()
        for node in range(n):
            network.add_node(node)
        for u, v, capacity in arcs:
            network.add_arc(u, v, capacity)
        return network

    def test_random_networks_match_dinic(self, rng):
        for trial in range(30):
            n = rng.randint(4, 12)
            arcs = self._random_arcs(rng, n)
            if not arcs:
                continue
            dinic = max_flow(self._object_network(n, arcs), 0, n - 1)
            pr = csr_push_relabel(csr_network(n, 0, n - 1, arcs))
            assert dinic == pr, f"trial {trial}"

    def test_residual_min_cut_agrees(self, rng):
        """After push-relabel, the maximal residual min-cut side is a
        min cut, and the same side Dinic's residual graph gives."""
        for trial in range(15):
            n = rng.randint(4, 10)
            arcs = self._random_arcs(rng, n)
            if not arcs:
                continue
            reference = self._object_network(n, arcs)
            value = max_flow(reference, 0, n - 1)
            network = csr_network(n, 0, n - 1, arcs)
            csr_push_relabel(network)
            coreachable = network.coreachable_to_sink()
            side = {v for v in range(n) if not coreachable[v]}
            assert 0 in side and (n - 1) not in side
            crossing = sum(
                capacity for u, v, capacity in arcs
                if u in side and v not in side
            )
            assert crossing == value, f"trial {trial}"
            assert side == set(
                min_cut_maximal_source_side(reference, n - 1)
            ), f"trial {trial}"


class TestOnGoldbergNetworks:
    def test_matches_dinic_on_density_networks(self, rng):
        """The paper's flow networks are the real workload: cross-check."""
        for trial in range(10):
            graph = random_graph(rng, rng.randint(4, 10), 0.45)
            if graph.number_of_edges() == 0:
                continue
            index = {node: i for i, node in enumerate(graph.nodes())}
            edges = list(graph.edges())
            edge_u = np.array([index[u] for u, _ in edges], dtype=np.int64)
            edge_v = np.array([index[v] for _, v in edges], dtype=np.int64)
            degrees = np.array(
                [graph.degree(node) for node in graph.nodes()],
                dtype=np.int64,
            )
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                reference = build_edge_density_network(graph, alpha)
                network = build_edge_density_network_csr(
                    len(index), edge_u, edge_v, degrees, alpha
                )
                assert max_flow(
                    reference, SOURCE, SINK
                ) == csr_push_relabel(network), f"trial {trial}, alpha {alpha}"
