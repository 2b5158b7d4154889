"""Frozen Monte Carlo loops of the Lemma 1 estimators: the reference
for the differential tests.

These are the per-world sampler loops :func:`repro.core.mpds.estimate_tau`
and :func:`repro.core.nds.estimate_gamma` ran before both moved onto a
transient world store evaluated through
:func:`repro.core.parallel.evaluate_records`.  They are kept verbatim so
``tests/test_estimator_differential.py`` can assert that the store-backed
estimators return the same floats.  Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.measures import DensityMeasure, EdgeDensity
from repro.core.results import NodeSet
from repro.graph.uncertain import UncertainGraph
from repro.sampling.monte_carlo import MonteCarloSampler


def reference_estimate_tau(
    graph: UncertainGraph,
    nodes: NodeSet,
    theta: int = 160,
    measure: Optional[DensityMeasure] = None,
    seed: Optional[int] = None,
) -> float:
    """Estimate tau(U) for one node set by Monte Carlo (Lemma 1)."""
    measure = measure or EdgeDensity()
    sampler = MonteCarloSampler(graph, seed)
    target = frozenset(nodes)
    hits = 0.0
    total = 0.0
    for weighted in sampler.worlds(theta):
        total += weighted.weight
        densest = measure.all_densest(weighted.graph)
        if target in densest:
            hits += weighted.weight
    return hits / total if total else 0.0


def reference_estimate_gamma(
    graph: UncertainGraph,
    nodes: NodeSet,
    theta: int = 640,
    measure: Optional[DensityMeasure] = None,
    seed: Optional[int] = None,
) -> float:
    """Estimate gamma(U) (Definition 5) by Monte Carlo."""
    measure = measure or EdgeDensity()
    sampler = MonteCarloSampler(graph, seed)
    target = frozenset(nodes)
    hits = 0.0
    total = 0.0
    for weighted in sampler.worlds(theta):
        total += weighted.weight
        maximal = measure.maximum_sized_densest(weighted.graph)
        if maximal is not None and target <= maximal:
            hits += weighted.weight
    return hits / total if total else 0.0
