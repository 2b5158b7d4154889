"""Algorithm 5: top-k Nucleus Densest Subgraphs via closed itemset mining.

On large graphs the densest subgraph probability of every node set is tiny
(below 3.91e-5 on the paper's big datasets), so MPDS degenerates.  NDS
instead finds node sets with the highest *containment* probability
``gamma(U)`` (Definition 5): the chance that U sits inside a densest
subgraph.

Reduction (the paper's key idea): a node set is contained in a densest
subgraph of a world iff it is contained in the world's *maximum-sized*
densest subgraph (footnote 5, via [59]).  So:

1. sample ``theta`` worlds; collect each world's maximum-sized densest
   subgraph as a transaction;
2. run a top-k closed frequent itemset miner (TFP [47]) with minimum
   length ``l_m``: supports are exactly the ``gamma-hat`` estimates, and
   closedness w.r.t. ``gamma-hat`` removes redundant subsets (Problem 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..graph.uncertain import UncertainGraph
from ..itemsets.tfp import top_k_closed_itemsets
from ..sampling.base import WorldSampler
from .measures import DensityMeasure, EdgeDensity
from .results import NDSResult, NodeSet, ScoredNodeSet

#: one evaluated world: (its maximum-sized densest subgraph or None, weight)
TransactionRecord = Tuple[Optional[NodeSet], float]


def evaluate_transactions(
    worlds, loop_measure: DensityMeasure
) -> Iterator[TransactionRecord]:
    """Evaluate a world stream into per-world transaction records.

    The evaluation half of Algorithm 5's collection loop, reached
    through :func:`repro.core.parallel.evaluate_records` by in-process
    and fan-out evaluations alike.
    """
    for weighted in worlds:
        maximal = loop_measure.maximum_sized_densest(weighted.graph)
        yield maximal, weighted.weight


def accumulate_transactions(
    records: Iterable[TransactionRecord],
) -> Tuple[List[NodeSet], List[float], float, int]:
    """Fold per-world records into the transaction database.

    Records must arrive in world-stream order so the ``total_weight``
    float accumulation matches a sequential run exactly (the parallel
    merge reassembles blocks in grid order before calling this).
    Returns ``(transactions, weights, total_weight, actual_theta)``.
    """
    transactions: List[NodeSet] = []
    weights: List[float] = []
    total_weight = 0.0
    actual_theta = 0
    for maximal, weight in records:
        actual_theta += 1
        total_weight += weight
        if maximal:
            transactions.append(maximal)
            weights.append(weight)
    return transactions, weights, total_weight, actual_theta


def finalize_nds(
    transactions: List[NodeSet],
    weights: List[float],
    total_weight: float,
    actual_theta: int,
    k: int,
    min_size: int,
) -> NDSResult:
    """Mine the transaction database into the ranked Algorithm 5 result.

    The result is a pure function of the database, ``k`` and
    ``min_size``, so a :class:`repro.session.Session` evaluation entry
    memoizes it per exact ``(k, min_size)`` and copies it on a warm
    hit instead of mining again.
    """
    if not transactions:
        return NDSResult(top=[], theta=actual_theta, transactions=0)
    mined = top_k_closed_itemsets(transactions, k, min_size, weights)
    scale = 1.0 / total_weight if total_weight else 1.0
    top = [
        ScoredNodeSet(frozenset(closed.items), closed.support * scale)
        for closed in mined
    ]
    return NDSResult(
        top=top, theta=actual_theta, transactions=len(transactions)
    )


def nds_from_store(
    store,
    k: int = 1,
    min_size: int = 2,
    measure: Optional[DensityMeasure] = None,
    engine: str = "auto",
) -> NDSResult:
    """Algorithm 5 over a pre-sampled world store -- zero sampling work.

    ``store`` is a :class:`repro.engine.worldstore.WorldStore`; its
    worlds are replayed through the same evaluate/accumulate/finalize
    seams every :class:`repro.session.Session` query runs, so the
    result is byte-identical to :func:`top_k_nds` with the seed/theta
    the store was drawn from.  ``k`` and ``min_size`` follow the
    :class:`repro.session.Query` builder's validation rules.
    """
    from ..specs import check_count_knob
    from .parallel import evaluate_records

    k = check_count_knob("nds_from_store", "k", k)
    min_size = check_count_knob("nds_from_store", "min_size (l_m)", min_size)
    records, _replayed = evaluate_records(
        "nds", *store.world_stream(measure or EdgeDensity(), engine),
        True, None,
    )
    transactions, weights, total_weight, actual_theta = (
        accumulate_transactions(records)
    )
    return finalize_nds(
        transactions, weights, total_weight, actual_theta, k, min_size
    )


def top_k_nds(
    graph: UncertainGraph,
    k: int = 1,
    min_size: int = 2,
    theta: int = 640,
    measure: Optional[DensityMeasure] = None,
    sampler: Optional[WorldSampler] = None,
    seed: Optional[int] = None,
    engine: str = "auto",
) -> NDSResult:
    """Estimate the top-k Nucleus Densest Subgraphs (Algorithm 5).

    Thin shim over a closing one-shot :class:`repro.session.Session`
    query; use a session directly to reuse the sampled worlds across
    several queries (different ``k`` / ``min_size``, measures, NDS vs
    MPDS) without resampling, and a repeated ``(k, min_size)`` without
    mining again.

    Parameters
    ----------
    graph:
        The uncertain graph.
    k:
        Number of closed node sets to return.
    min_size:
        ``l_m``, the minimum size of a returned node set (Problem 3's guard
        against trivial singletons).
    theta:
        Number of sampled possible worlds; Theorems 5-6 bound the failure
        probability (see :mod:`repro.core.guarantees`).
    measure / sampler / seed:
        As in :func:`repro.core.mpds.top_k_mpds`.
    engine:
        Possible-world engine selector (see :mod:`repro.engine`).
        ``auto`` vectorises every {MC, LP, RSS} x {edge, clique, pattern
        density} combination; identical estimates across engines for the
        same seed.
    """
    from ..session import Session

    with Session(graph, engine=engine) as session:
        return (
            session.query()
            .sampler(sampler, theta=theta, seed=seed)
            .measure(measure)
            .top_k(k)
            .min_size(min_size)
            .nds()
        )


def estimate_gamma(
    graph: UncertainGraph,
    nodes: NodeSet,
    theta: int = 640,
    measure: Optional[DensityMeasure] = None,
    seed: Optional[int] = None,
) -> float:
    """Estimate gamma(U) (Definition 5) by Monte Carlo.

    ``U`` is contained in a densest subgraph iff it is contained in the
    maximum-sized densest subgraph of the world (footnote 5).
    """
    from .parallel import transient_records

    records = transient_records(
        "nds", graph, None, theta, measure or EdgeDensity(), seed
    )
    target = frozenset(nodes)
    hits = 0.0
    total = 0.0
    for maximal, weight in records:
        total += weight
        if maximal is not None and target <= maximal:
            hits += weight
    return hits / total if total else 0.0
