"""Algorithm 1: sampling-based top-k MPDS estimation (Section III-A).

Sample ``theta`` possible worlds; in each, enumerate *all* densest
subgraphs (edge / clique / pattern density); a node set's estimated densest
subgraph probability ``tau-hat(U)`` is the weight of the worlds in which it
was densest (weight = 1/theta under Monte Carlo; Lemma 1: unbiased).
Return the k node sets with the highest estimates.

The ``enumerate_all`` flag reproduces the Table IX ablation: with
``False`` only one densest subgraph per world is recorded, which the paper
shows can understate probabilities by up to 20x (Section VI-D).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..graph.uncertain import UncertainGraph
from ..sampling.base import WorldSampler
from .measures import DensityMeasure, EdgeDensity
from .results import MPDSResult, MPDSTally, NodeSet, rank_top_k

#: one evaluated world: (its densest node sets, its estimator weight)
WorldRecord = Tuple[List[NodeSet], float]


def evaluate_worlds(
    worlds,
    loop_measure: DensityMeasure,
    enumerate_all: bool = True,
    per_world_limit: Optional[int] = 100_000,
) -> Iterator[WorldRecord]:
    """Evaluate a world stream into per-world densest-family records.

    The evaluation half of Algorithm 1's loop, reached through
    :func:`repro.core.parallel.evaluate_records` by in-process and
    fan-out evaluations alike (a block is just a slice of the stream):
    each world contributes ``(densest_sets, weight)``.
    """
    for weighted in worlds:
        if enumerate_all:
            densest_sets = loop_measure.all_densest(
                weighted.graph, per_world_limit
            )
        else:
            one = loop_measure.one_densest(weighted.graph)
            densest_sets = [one] if one is not None else []
        yield densest_sets, weighted.weight


def finalize_mpds(
    records: Union[Iterable[WorldRecord], MPDSTally], k: int,
    base: Optional[MPDSTally] = None, changed: Iterable[int] = (),
    ledger: Optional[Counter] = None,
) -> MPDSResult:
    """Rank per-world records, or an already built tally, into the
    Algorithm 1 result: the one finalize path of every evaluation,
    in-process, fanned out or patched.

    Records build an :class:`MPDSTally` in world-stream order (the
    parallel merge reassembles its blocks in grid order, so it is
    byte-identical to a sequential run), unless ``base`` is a still
    patchable tally of records that differ only at the worlds
    ``changed``: the tally then moves to the new records in
    O(changed worlds) (:meth:`MPDSTally.patched`).  The tally ranks
    only when ``k`` outgrows its ranked prefix or a patch could not
    carry it: :func:`rank_top_k` for ``k`` is the first ``k`` pairs of
    any longer ranking.  The result copies the tally's candidates and
    counts and keeps the tally as its ``_base``.  A ``ledger`` Counter
    counts ``tally_patches``, ``tally_groups_rebuilt`` and
    ``tally_full_ranks``.
    """
    ledger = Counter() if ledger is None else ledger
    if isinstance(records, MPDSTally):
        tally = records
    elif base is not None and base.patchable:
        tally = base.patched(records, changed)
        ledger["tally_patches"] += 1
        ledger["tally_groups_rebuilt"] += tally.rebuilt
    else:
        tally = MPDSTally(records)
    ranked = tally.ranked
    if ranked is None or len(ranked) < min(k, len(tally.candidates)):
        ranked = tally.ranked = rank_top_k(tally.candidates.items(), k)
        ledger["tally_full_ranks"] += 1
    result = MPDSResult(
        top=ranked[:k],
        candidates=dict(tally.candidates),
        theta=tally.theta,
        worlds_with_densest=tally.worlds_with_densest,
        densest_counts=list(tally.densest_counts),
    )
    result._base = tally
    return result


def mpds_from_store(
    store,
    k: int = 1,
    measure: Optional[DensityMeasure] = None,
    engine: str = "auto",
    enumerate_all: bool = True,
    per_world_limit: Optional[int] = 100_000,
) -> MPDSResult:
    """Algorithm 1 over a pre-sampled world store -- zero sampling work.

    ``store`` is a :class:`repro.engine.worldstore.WorldStore`; its
    worlds are replayed through the same evaluate/finalize seams every
    :class:`repro.session.Session` query runs, so the result is
    byte-identical to :func:`top_k_mpds` with the seed/theta the store
    was drawn from.  ``k`` and ``per_world_limit`` follow the
    :class:`repro.session.Query` builder's validation rules.
    """
    from ..specs import check_count_knob
    from .parallel import evaluate_records

    k = check_count_knob("mpds_from_store", "k", k)
    per_world_limit = check_count_knob(
        "mpds_from_store", "per_world_limit", per_world_limit, optional=True
    )
    records, replayed = evaluate_records(
        "mpds", *store.world_stream(measure or EdgeDensity(), engine),
        enumerate_all, per_world_limit,
    )
    result = finalize_mpds(records, k)
    result.replayed_worlds = replayed
    return result


def top_k_mpds(
    graph: UncertainGraph,
    k: int = 1,
    theta: int = 160,
    measure: Optional[DensityMeasure] = None,
    sampler: Optional[WorldSampler] = None,
    seed: Optional[int] = None,
    enumerate_all: bool = True,
    per_world_limit: Optional[int] = 100_000,
    engine: str = "auto",
) -> MPDSResult:
    """Estimate the top-k Most Probable Densest Subgraphs (Algorithm 1).

    Thin shim over a closing one-shot :class:`repro.session.Session`
    query; use
    a session directly to reuse the sampled worlds across several
    queries (different ``k``, measures, MPDS vs NDS) without
    resampling.

    Parameters
    ----------
    graph:
        The uncertain graph.
    k:
        Number of node sets to return (Problem 2); ``k = 1`` is Problem 1.
    theta:
        Number of sampled possible worlds; Theorems 2-3 bound the failure
        probability as a function of ``theta`` (see
        :mod:`repro.core.guarantees`).
    measure:
        Density notion; defaults to :class:`EdgeDensity`.  Use
        ``CliqueDensity(h)`` / ``PatternDensity(psi)`` for the clique /
        pattern variants (Sections III-B, III-C).
    sampler:
        Possible-world sampler; defaults to Monte Carlo.
    enumerate_all:
        If False, record only one densest subgraph per world (Table IX).
    per_world_limit:
        Safety cap on the number of densest subgraphs enumerated per world
        (their count can be exponential -- Table VIII).
    engine:
        ``"auto"`` (default), ``"python"``, ``"vectorized"`` or
        ``"jit"``; selects the possible-world engine (see
        :mod:`repro.engine`).  ``auto`` vectorises every {MC, LP, RSS}
        x {edge, clique, pattern density} combination (``jit`` is an
        alias of ``vectorized``); custom sampler/measure types run
        pure-Python.  Estimates are identical across engines
        for the same seed.
    """
    from ..session import Session

    with Session(graph, engine=engine) as session:
        return (
            session.query()
            .sampler(sampler, theta=theta, seed=seed)
            .measure(measure)
            .top_k(k)
            .enumerate_all(enumerate_all)
            .per_world_limit(per_world_limit)
            .mpds()
        )


def estimate_tau(
    graph: UncertainGraph,
    nodes: NodeSet,
    theta: int = 160,
    measure: Optional[DensityMeasure] = None,
    seed: Optional[int] = None,
) -> float:
    """Estimate tau(U) for one node set by Monte Carlo (Lemma 1).

    Convenience wrapper: samples worlds, enumerates each one's densest
    subgraphs (unboundedly) and reads ``nodes``' estimate off their
    :class:`MPDSTally` (0.0 when it is never densest).
    """
    from .parallel import transient_records

    records = transient_records(
        "mpds", graph, None, theta, measure or EdgeDensity(), seed
    )
    return MPDSTally(records).candidates.get(frozenset(nodes), 0.0)
