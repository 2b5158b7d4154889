"""Shared infrastructure for the per-table / per-figure experiment drivers.

Each driver in this package regenerates one table or figure of the paper's
Section VI as structured rows plus a printable text table.  Dataset sizes
and sample counts are scaled down (see DESIGN.md substitutions); the
``scale`` knob lets benchmarks shrink them further.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.measures import DensityMeasure
from ..core.parallel import transient_records
from ..datasets import (
    karate_club_uncertain,
    make_biomine_like,
    make_friendster_like,
    make_homo_sapiens_like,
    make_intel_lab_like,
    make_lastfm_like,
    make_twitter_like,
)
from ..graph.uncertain import UncertainGraph
from ..specs import build_measure, build_sampler, parse_sampler_spec

NodeSet = FrozenSet[Hashable]

#: The paper's three "smaller" MPDS datasets (Table IV et al.).
SMALL_DATASETS: Dict[str, Callable[[], UncertainGraph]] = {
    "KarateClub": lambda: karate_club_uncertain(seed=2023),
    "IntelLab": lambda: make_intel_lab_like(seed=2023),
    "LastFM": lambda: make_lastfm_like(seed=2023),
}

#: The paper's "larger" NDS datasets (Table III et al.), as stand-ins.
LARGE_DATASETS: Dict[str, Callable[[], UncertainGraph]] = {
    "HomoSapiens": lambda: make_homo_sapiens_like(seed=2023),
    "Biomine": lambda: make_biomine_like(seed=2023),
    "Twitter": lambda: make_twitter_like(seed=2023),
    "Friendster": lambda: make_friendster_like(seed=2023),
}

#: Default sampled-world counts, chosen as in Section VI-I (scaled down).
DEFAULT_THETA: Dict[str, int] = {
    "KarateClub": 160,
    "IntelLab": 160,
    "LastFM": 64,
    "HomoSapiens": 64,
    "Biomine": 64,
    "Twitter": 64,
    "Friendster": 32,
}


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def collect_max_densest_transactions(
    graph: UncertainGraph,
    theta: int,
    measure: Optional[Union[str, DensityMeasure]] = None,
    seed: Optional[int] = 7,
    sampler: Union[str, object] = "mc",
) -> List[Tuple[NodeSet, float]]:
    """Sample worlds once; return (maximum-sized densest subgraph, weight).

    Several Table III-VI comparisons need containment probabilities of
    *different* node sets under the *same* samples -- collecting the
    transactions once and probing them repeatedly keeps drivers cheap and
    the comparisons paired.  ``measure`` and ``sampler`` accept
    :mod:`repro.specs` registry strings (``"clique:h=3"``, ``"lp"``) as
    well as instances, so experiment configurations can name them in
    data rather than code.  The draw lands in a transient world store,
    so the sampler must be an MC, LP or RSS spec or instance.
    """
    measure = build_measure(measure)
    if isinstance(sampler, str):
        kind, params = parse_sampler_spec(sampler)
        sampler = build_sampler(kind, graph, seed, **params)
    records = transient_records("nds", graph, sampler, theta, measure)
    return [(maximal or frozenset(), weight) for maximal, weight in records]


def containment_probability(
    nodes: Iterable[Hashable],
    transactions: Sequence[Tuple[NodeSet, float]],
) -> float:
    """Estimate gamma(U) from pre-collected transactions."""
    target = frozenset(nodes)
    if not target:
        return 0.0
    total = sum(weight for _t, weight in transactions)
    if total == 0.0:
        return 0.0
    hit = sum(weight for maximal, weight in transactions if target <= maximal)
    return hit / total


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render rows as a fixed-width text table (benchmark output)."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
