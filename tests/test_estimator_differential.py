"""The store-backed Lemma 1 estimators against their frozen loops.

``estimate_tau`` / ``estimate_gamma`` draw a transient Monte Carlo world
store and sum weights over the records of one evaluation.  The frozen
per-world sampler loops they replaced (``tests/_estimator_reference.py``)
must return the very same floats -- ``==``, not approximately -- for
edge and clique density, several seeds and node sets that are, and are
not, densest in some world.
"""

from __future__ import annotations

import pytest

from repro.core.mpds import estimate_tau
from repro.core.nds import estimate_gamma
from repro.datasets import karate_club_uncertain
from repro.specs import build_measure

from ._estimator_reference import (
    reference_estimate_gamma,
    reference_estimate_tau,
)

THETA = 24

#: densest or containing sets for some seed/measure, plus one pair
#: that never is
NODE_SETS = {
    "edge": (
        frozenset({0, 1, 2, 3, 7, 13}), frozenset({0, 4, 6}),
        frozenset({32, 33}), frozenset({5, 16}),
    ),
    "clique:h=3": (
        frozenset({24, 25, 31}), frozenset({0, 1, 17}),
        frozenset({32, 33}), frozenset({5, 16}),
    ),
}


@pytest.fixture(scope="module")
def karate():
    return karate_club_uncertain(seed=2023)


@pytest.mark.parametrize("spec", sorted(NODE_SETS))
# seed 3 draws a world with a huge tied densest family: unbounded
# enumeration there costs the python reference close to a minute
@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_estimators_equal_frozen_loops(karate, spec, seed):
    measure = build_measure(spec)
    hits = 0
    for nodes in NODE_SETS[spec]:
        tau = estimate_tau(karate, nodes, THETA, measure, seed)
        assert tau == reference_estimate_tau(
            karate, nodes, THETA, measure, seed
        ), (spec, seed, sorted(nodes))
        gamma = estimate_gamma(karate, nodes, THETA, measure, seed)
        assert gamma == reference_estimate_gamma(
            karate, nodes, THETA, measure, seed
        ), (spec, seed, sorted(nodes))
        hits += (tau > 0.0) + (gamma > 0.0)
    assert hits, "every probed set missed: the comparison is vacuous"


def test_unseeded_estimates_are_probabilities(karate):
    assert 0.0 <= estimate_tau(karate, frozenset({32, 33}), theta=8) <= 1.0
    assert 0.0 <= estimate_gamma(karate, frozenset({32, 33}), theta=8) <= 1.0
