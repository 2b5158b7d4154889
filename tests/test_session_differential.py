"""Warm-query differential gate: a Session query must be byte-identical
to the equivalent one-shot ``top_k_mpds`` / ``top_k_nds`` /
``parallel_top_k_*`` call for every (sampler x measure x engine x
workers) cell.

Structure: one Session per sampler kind; inside it the measure / engine
/ workers cells all replay the *same* cached world store (the session
builds exactly one store per sweep -- asserted), while each cell's
reference is a fresh one-shot call that samples from scratch.  Equality
is full-result equality (dataclass ``==``): top-k, every candidate
estimate, world counters, densest-family sizes and ``replayed_worlds``.

The inputs that never reach the store cache get cells of their own:
sampler instances (adopted into a transient store), unseeded draws, a
custom sampler type the engine cannot replay, an edgeless graph and a
one-world fan-out.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.core.parallel import (
    parallel_top_k_mpds,
    parallel_top_k_nds,
    shutdown_pool,
)
from repro.graph.uncertain import UncertainGraph
from repro.sampling import SAMPLERS, MonteCarloSampler
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


def _one_shot_sampler(graph, kind):
    """The sampler instance a legacy caller (e.g. the CLI) would build."""
    return None if kind == "mc" else SAMPLERS[kind.upper()](graph, SEED)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_mpds_cells_byte_identical(graph, kind):
    with Session(graph) as session:
        for spec in MEASURE_SPECS:
            for engine in ENGINES:
                for workers in WORKER_COUNTS:
                    if workers == 1:
                        reference = top_k_mpds(
                            graph, k=3, theta=THETA,
                            measure=build_measure(spec),
                            sampler=_one_shot_sampler(graph, kind),
                            seed=SEED, engine=engine,
                        )
                    else:
                        reference = parallel_top_k_mpds(
                            graph, k=3, theta=THETA,
                            measure=build_measure(spec),
                            sampler=_one_shot_sampler(graph, kind),
                            seed=SEED, workers=workers, engine=engine,
                        )
                    warm = (
                        session.query()
                        .sampler(kind, theta=THETA, seed=SEED)
                        .measure(spec)
                        .engine(engine)
                        .workers(workers)
                        .top_k(3)
                        .mpds()
                    )
                    assert warm == reference, (
                        f"cell ({kind}, {spec}, {engine}, workers="
                        f"{workers}) diverged"
                    )
        # the whole sweep replayed one draw
        assert session.stats["stores_built"] == 1
        assert session.stats["worlds_sampled"] == THETA


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_nds_cells_byte_identical(graph, kind):
    with Session(graph) as session:
        for engine in ENGINES:
            for workers in WORKER_COUNTS:
                if workers == 1:
                    reference = top_k_nds(
                        graph, k=2, min_size=2, theta=THETA,
                        sampler=_one_shot_sampler(graph, kind),
                        seed=SEED, engine=engine,
                    )
                else:
                    reference = parallel_top_k_nds(
                        graph, k=2, min_size=2, theta=THETA,
                        sampler=_one_shot_sampler(graph, kind),
                        seed=SEED, workers=workers, engine=engine,
                    )
                warm = (
                    session.query()
                    .sampler(kind, theta=THETA, seed=SEED)
                    .engine(engine)
                    .workers(workers)
                    .top_k(2)
                    .min_size(2)
                    .nds()
                )
                assert warm == reference, (
                    f"cell ({kind}, {engine}, workers={workers}) diverged"
                )
        assert session.stats["stores_built"] == 1


def test_min_size_variants_share_transactions(graph):
    """NDS ``min_size``/``k`` variants replay cached transaction records."""
    with Session(graph) as session:
        for min_size, k in ((2, 1), (2, 3), (3, 2)):
            warm = (
                session.query().sampler("mc", theta=THETA, seed=SEED)
                .top_k(k).min_size(min_size).nds()
            )
            assert warm == top_k_nds(
                graph, k=k, min_size=min_size, theta=THETA, seed=SEED
            )
        assert session.stats["eval_hits"] == 2


def test_enumerate_all_ablation_cell(graph):
    """The Table IX one-per-world ablation keys its own evaluation."""
    with Session(graph) as session:
        base = session.query().sampler("mc", theta=THETA, seed=SEED)
        all_result = base.top_k(2).mpds()
        one = (
            session.query().sampler("mc", theta=THETA, seed=SEED)
            .enumerate_all(False).top_k(2).mpds()
        )
        assert one == top_k_mpds(
            graph, k=2, theta=THETA, seed=SEED, enumerate_all=False
        )
        assert all_result == top_k_mpds(graph, k=2, theta=THETA, seed=SEED)
        assert session.stats["stores_built"] == 1


def test_truncation_replay_matches_one_shot(graph):
    """A truncating per_world_limit is the one order-sensitive corner:
    the session's records must preserve even the truncated subset and
    the replayed_worlds counter, sequentially and under a fan-out."""
    for workers in WORKER_COUNTS:
        reference = (
            top_k_mpds(graph, k=3, theta=THETA, seed=SEED, per_world_limit=1)
            if workers == 1
            else parallel_top_k_mpds(
                graph, k=3, theta=THETA, seed=SEED, workers=workers,
                per_world_limit=1,
            )
        )
        with Session(graph) as session:
            warm = (
                session.query().sampler("mc", theta=THETA, seed=SEED)
                .per_world_limit(1).top_k(3).workers(workers).mpds()
            )
        assert warm == reference, f"workers={workers} truncation diverged"
        assert warm.replayed_worlds == reference.replayed_worlds


def test_heuristic_measure_python_path(graph):
    """Custom measure types resolve to the python engine; the store
    replays materialised worlds identically."""
    heuristic = build_measure("edge", heuristic=True)
    reference = top_k_mpds(
        graph, k=2, theta=THETA, measure=heuristic, seed=SEED
    )
    with Session(graph) as session:
        warm = (
            session.query().sampler("mc", theta=THETA, seed=SEED)
            .measure(build_measure("edge", heuristic=True)).top_k(2).mpds()
        )
    assert warm == reference


def test_worker_count_invariance_on_session(graph):
    """Same session, same draw, any worker count: identical estimates."""
    with Session(graph) as session:
        results = [
            session.query().sampler("mc", theta=THETA, seed=SEED)
            .top_k(3).workers(workers).mpds()
            for workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]
        assert session.stats["stores_built"] == 1


# ----------------------------------------------------------------------
# inputs outside the store cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ("python", "vectorized"))
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_sampler_instance_cells_byte_identical(graph, kind, engine):
    """An MC/LP/RSS instance is adopted into a transient store: its
    estimates equal the seeded spec query, and its RNG and bookkeeping
    advance exactly as if it had drawn the worlds itself."""
    sampler_cls = SAMPLERS[kind.upper()]
    instance, twin = sampler_cls(graph, SEED), sampler_cls(graph, SEED)
    with Session(graph) as session:
        spec = session.query().sampler(kind, theta=THETA, seed=SEED) \
            .engine(engine)
        warm = session.query().sampler(instance, theta=THETA).engine(engine)
        assert warm.top_k(3).mpds() == spec.top_k(3).mpds()
        fresh = session.query().engine(engine).sampler(
            sampler_cls(graph, SEED), theta=THETA
        )
        assert fresh.top_k(2).nds() == spec.top_k(2).nds()
        # only the spec draw is cached; the instances' stores were closed
        assert session.stats["stores_built"] == 1
        assert len(session._stores) == 1
    list(twin.worlds(THETA))  # the twin draws what the query drew
    assert instance.memory_units() == twin.memory_units()
    ours = [world.graph for world in instance.worlds(4)]
    assert ours == [world.graph for world in twin.worlds(4)]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_unseeded_cells_are_well_formed(graph, workers):
    """Unseeded draws promise no reproducibility -- only well-formed
    estimates over exactly ``theta`` worlds, and nothing cached."""
    with Session(graph) as session:
        query = session.query().sampler("mc", theta=THETA).workers(workers)
        mpds = query.top_k(3).mpds()
        nds = query.top_k(2).nds()
        assert session.stats["worlds_sampled"] == 2 * THETA
        assert not session._stores and not session._published
    assert mpds.theta == THETA and len(mpds.densest_counts) == THETA
    assert all(0.0 <= p <= 1.0 for p in mpds.candidates.values())
    assert nds.theta == THETA and nds.transactions <= THETA


class RelaySampler:
    """A sampler type the engine cannot replay: it relays a Monte Carlo
    sampler's worlds, so its estimates must equal the seeded MC query."""

    def __init__(self, graph, seed):
        self._inner = MonteCarloSampler(graph, seed)

    def worlds(self, theta):
        return self._inner.worlds(theta)

    def memory_units(self):
        return self._inner.memory_units()


@pytest.mark.parametrize("engine", ENGINES)
def test_custom_sampler_streams_its_own_worlds(graph, engine):
    with Session(graph) as session:
        reference = session.query().sampler("mc", theta=THETA, seed=SEED) \
            .engine("python")
        custom = session.query().engine(engine).sampler(
            RelaySampler(graph, SEED), theta=THETA
        )
        assert custom.top_k(3).mpds() == reference.top_k(3).mpds()
        custom.sampler(RelaySampler(graph, SEED), theta=THETA)
        assert custom.top_k(2).nds() == reference.top_k(2).nds()
        with pytest.raises(ValueError, match="MC, LP and RSS"):
            custom.workers(2).mpds()
        with pytest.raises(ValueError, match="MC, LP and RSS"):
            custom.workers(1).engine("vectorized").mpds()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_edgeless_graph_cells(engine, workers):
    edgeless = UncertainGraph()
    for node in "ABC":
        edgeless.add_node(node)
    with Session(edgeless, engine=engine, workers=workers) as session:
        warm = session.query().sampler("mc", theta=THETA, seed=SEED)
        mpds = warm.top_k(2).mpds()
        nds = warm.nds()
    assert mpds == top_k_mpds(
        edgeless, k=2, theta=THETA, seed=SEED, engine=engine
    )
    assert mpds.top == [] and mpds.densest_counts == [0] * THETA
    assert nds == parallel_top_k_nds(
        edgeless, theta=THETA, seed=SEED, workers=workers, engine=engine
    )
    assert nds.top == [] and nds.transactions == 0 and nds.theta == THETA


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_single_world_fan_out_evaluates_in_process(graph, kind, monkeypatch):
    """``theta=1`` cannot fan out: a ``workers=2`` request evaluates
    in-process and still equals the one-shot call."""
    import repro.core.parallel as par

    reference = top_k_mpds(
        graph, k=3, theta=1, sampler=_one_shot_sampler(graph, kind), seed=SEED
    )
    nds_reference = top_k_nds(
        graph, k=2, theta=1, sampler=_one_shot_sampler(graph, kind), seed=SEED
    )

    def no_fanout(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("a one-world grid must not fan out")

    monkeypatch.setattr(par, "dispatch_blocks", no_fanout)
    with Session(graph, workers=2) as session:
        warm = session.query().sampler(kind, theta=1, seed=SEED)
        assert warm.top_k(3).mpds() == reference
        assert warm.top_k(2).nds() == nds_reference
    assert parallel_top_k_mpds(
        graph, k=3, theta=1, sampler=_one_shot_sampler(graph, kind),
        seed=SEED, workers=2,
    ) == reference
