"""Frozen MPDS finalize: the reference for the differential tests.

This is :func:`repro.core.mpds.finalize_mpds` as it was before ranking
deferred the repr tie-break to the candidates at the rank-k boundary.
It is kept verbatim, full sort included, so
``tests/test_finalize_differential.py`` can assert that the production
function returns the same ranking, estimates and counters, byte for byte
in JSON.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.mpds import WorldRecord
from repro.core.results import MPDSResult, NodeSet, ScoredNodeSet


def reference_finalize_mpds(
    records: Iterable[WorldRecord], k: int
) -> MPDSResult:
    """Accumulate per-world records into the ranked Algorithm 1 result.

    The accumulation half of the loop, again shared by the in-process
    and fan-out evaluations.  Records must arrive in world-stream order:
    floating-point accumulation is then performed in exactly the same
    sequence everywhere, which is what makes the parallel merge (blocks
    reassembled in grid order) *byte-identical* to a sequential run, not
    merely statistically equivalent.
    """
    estimates: Dict[NodeSet, float] = {}
    total_weight = 0.0
    worlds_with_densest = 0
    densest_counts: List[int] = []
    actual_theta = 0
    for densest_sets, weight in records:
        actual_theta += 1
        total_weight += weight
        densest_counts.append(len(densest_sets))
        if densest_sets:
            worlds_with_densest += 1
        for nodes in densest_sets:
            estimates[nodes] = estimates.get(nodes, 0.0) + weight
    if total_weight > 0.0:
        # normalise so estimates are probabilities even when the sampler
        # (e.g. RSS with empty strata) emits weights summing below 1
        estimates = {
            nodes: weight / total_weight for nodes, weight in estimates.items()
        }
    ranked = sorted(
        estimates.items(),
        key=lambda item: (-item[1], len(item[0]), sorted(map(repr, item[0]))),
    )
    top = [ScoredNodeSet(nodes, prob) for nodes, prob in ranked[:k]]
    return MPDSResult(
        top=top,
        candidates=estimates,
        theta=actual_theta,
        worlds_with_densest=worlds_with_densest,
        densest_counts=densest_counts,
    )
