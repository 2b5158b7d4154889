"""Engine benchmark: vectorised vs pure-Python possible-world pipeline.

Monte Carlo + edge-density MPDS at theta = 160 on a 500-node G(n, p)
uncertain graph -- the workload of Algorithm 1 that dominates the Fig. 16
runtime plots.  The vectorised engine must be >= 3x faster than the
pure-Python pipeline while returning *identical* estimates for the same
seed (its contract; see ``repro/engine``).

Timings are split into the two stages of Algorithm 1 so speedups are
attributable:

* **sampling** -- drawing the possible worlds (per-edge Bernoulli flips
  vs one numpy batch);
* **world evaluation** -- enumerating all densest subgraphs per world
  (object Graph + FlowNetwork machinery vs the CSR/bitmask substrate).

The vectorised evaluation stage splits further into its *bound* (the
batched cross-world kernels: lockstep peel bound + vector-k core) and
*exact* (the warm parametric flow chain on the survivors) layers;
``python3 perfbench/run.py --trace 1`` reports them as ``bound.busy_s``
and ``exact.busy_s``.

The per-stage table is archived as
``benchmarks/results/bench_engine_stages.txt`` on every full-scale run
(pytest or ``python -m benchmarks.bench_engine``), so the
evaluation-stage trajectory is tracked across PRs; a ``--tiny`` run
only prints it.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.core.mpds import top_k_mpds
from repro.engine import VectorizedMonteCarloSampler
from repro.graph.uncertain import UncertainGraph
from repro.sampling import (
    LazyPropagationSampler,
    MonteCarloSampler,
    RecursiveStratifiedSampler,
)

from .conftest import emit

BENCH_N = 500
BENCH_EDGE_PROB = 0.01
BENCH_THETA = 160
BENCH_SEED = 7

#: per-sampler comparison scale (three samplers x two engines per run)
SAMPLER_BENCH_N = 300
SAMPLER_BENCH_EDGE_PROB = 0.015
SAMPLER_BENCH_THETA = 60

#: --tiny smoke scale (CI artifact; seconds, not minutes)
TINY_N = 120
TINY_EDGE_PROB = 0.03
TINY_THETA = 24


def _bench_graph(
    seed: int = 2023, n: int = BENCH_N, edge_prob: float = BENCH_EDGE_PROB
) -> UncertainGraph:
    """A G(n, p) topology with uniform edge probabilities."""
    rng = random.Random(seed)
    graph = UncertainGraph()
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                graph.add_edge(u, v, rng.uniform(0.3, 0.9))
    return graph


def run_stage_benchmark(
    n: int = BENCH_N,
    edge_prob: float = BENCH_EDGE_PROB,
    theta: int = BENCH_THETA,
    seed: int = BENCH_SEED,
) -> dict:
    """Time sampling / world-evaluation / end-to-end for both engines.

    The sampling stage is measured by draining each engine's sampler
    without evaluating worlds; the world-evaluation stage is the
    end-to-end estimator time minus the sampling time (evaluation is the
    only other per-world work Algorithm 1 does).  The vectorised run
    goes through a :class:`repro.session.Session`.  Returns a dict
    with per-stage seconds, per-stage speedups, the rendered table, and
    the results (whose estimates must all be identical).
    """
    from repro.session import Session

    graph = _bench_graph(seed=2023, n=n, edge_prob=edge_prob)

    start = time.perf_counter()
    vector_sampler = VectorizedMonteCarloSampler(graph, seed)
    for _ in vector_sampler.mask_worlds(theta):
        pass
    vector_sampling = time.perf_counter() - start

    def timed_session_run(engine: str):
        start = time.perf_counter()
        with Session(graph, engine=engine) as session:
            result = (
                session.query()
                .sampler(theta=theta, seed=seed)
                .top_k(3)
                .mpds()
            )
        return time.perf_counter() - start, result

    # the fast engine runs before the long pure-Python leg so its stage
    # timings are not polluted by its thermal / allocator aftermath
    vector_total, vector_result = timed_session_run("vectorized")

    start = time.perf_counter()
    sampler = MonteCarloSampler(graph, seed)
    for _ in sampler.worlds(theta):
        pass
    python_sampling = time.perf_counter() - start

    start = time.perf_counter()
    python_result = top_k_mpds(
        graph, k=3, theta=theta, seed=seed, engine="python"
    )
    python_total = time.perf_counter() - start

    python_eval = python_total - python_sampling
    vector_eval = vector_total - vector_sampling
    identical = (
        python_result.candidates == vector_result.candidates
        and python_result.top == vector_result.top
        and python_result.densest_counts == vector_result.densest_counts
    )

    def row(stage: str, py: float, vec: float) -> str:
        return (
            f"{stage:18s} {py:10.3f} s {vec:12.3f} s "
            f"{py / vec if vec > 0 else float('inf'):9.2f} x"
        )

    lines = [
        f"graph: G(n={n}, p={edge_prob}) m={graph.number_of_edges()} "
        f"theta={theta} seed={seed}",
        f"{'stage':18s} {'python':>12s} {'vectorized':>14s} {'speedup':>10s}",
        row("sampling", python_sampling, vector_sampling),
        row("world evaluation", python_eval, vector_eval),
        row("end-to-end", python_total, vector_total),
    ]
    lines.append(f"identical estimates: {identical}")
    return {
        "python": {
            "sampling": python_sampling,
            "evaluation": python_eval,
            "total": python_total,
        },
        "vectorized": {
            "sampling": vector_sampling,
            "evaluation": vector_eval,
            "total": vector_total,
        },
        "identical": identical,
        "table": "\n".join(lines),
        "results": (python_result, vector_result),
    }


def test_engine_speedup_with_identical_estimates(benchmark):
    report = benchmark.pedantic(run_stage_benchmark, rounds=1, iterations=1)
    python_result, vector_result = report["results"]

    assert python_result.candidates == vector_result.candidates
    assert python_result.top == vector_result.top
    assert python_result.densest_counts == vector_result.densest_counts

    emit("bench_engine_stages", report["table"])
    speedup = report["python"]["total"] / report["vectorized"]["total"]
    eval_speedup = (
        report["python"]["evaluation"] / report["vectorized"]["evaluation"]
    )
    assert speedup >= 3.0, (
        f"vectorized engine only {speedup:.2f}x faster end-to-end"
    )
    assert eval_speedup >= 3.0, (
        f"vectorized world evaluation only {eval_speedup:.2f}x faster"
    )


def test_engine_speedup_per_sampler(benchmark):
    """Widened fast path: MC vs LP vs RSS, python vs vectorised engine.

    The per-sampler speedups track the perf trajectory of the widened
    engine: each strategy must return identical estimates on both engines
    and the vectorised path must stay faster for every one of them (the
    win comes mostly from the mask-native measure pipeline, which all
    three samplers now feed).
    """
    graph = _bench_graph(
        n=SAMPLER_BENCH_N, edge_prob=SAMPLER_BENCH_EDGE_PROB
    )
    factories = {
        "MC": lambda: MonteCarloSampler(graph, BENCH_SEED),
        "LP": lambda: LazyPropagationSampler(graph, BENCH_SEED),
        "RSS": lambda: RecursiveStratifiedSampler(graph, BENCH_SEED),
    }

    def run_all():
        rows = {}
        for name, factory in factories.items():
            timings = {}
            results = {}
            for engine in ("python", "vectorized"):
                start = time.perf_counter()
                results[engine] = top_k_mpds(
                    graph,
                    k=3,
                    theta=SAMPLER_BENCH_THETA,
                    sampler=factory(),
                    engine=engine,
                )
                timings[engine] = time.perf_counter() - start
            rows[name] = (timings, results)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        f"graph: G(n={SAMPLER_BENCH_N}, p={SAMPLER_BENCH_EDGE_PROB}) "
        f"m={graph.number_of_edges()} theta={SAMPLER_BENCH_THETA} "
        f"seed={BENCH_SEED}",
    ]
    for name, (timings, results) in rows.items():
        identical = (
            results["python"].candidates == results["vectorized"].candidates
        )
        speedup = timings["python"] / timings["vectorized"]
        lines.append(
            f"{name:3s} python={timings['python']:7.2f}s "
            f"vectorized={timings['vectorized']:7.2f}s "
            f"speedup={speedup:6.2f}x identical={identical}"
        )
        assert identical, f"{name}: engines disagree"
        assert speedup > 1.2, (
            f"vectorized {name} only {speedup:.2f}x faster"
        )
    emit("bench_engine_per_sampler", "\n".join(lines))


def test_engine_sampling_stage_speedup(benchmark):
    """World generation alone: batch Bernoulli draws vs per-edge flips."""
    graph = _bench_graph()
    theta = 400

    def sample_python():
        sampler = MonteCarloSampler(graph, BENCH_SEED)
        return sum(1 for _ in sampler.worlds(theta))

    def sample_vectorized():
        sampler = VectorizedMonteCarloSampler(graph, BENCH_SEED)
        return int(sampler.edge_masks(theta).sum())

    def run():
        start = time.perf_counter()
        sample_python()
        python_seconds = time.perf_counter() - start
        start = time.perf_counter()
        sample_vectorized()
        vector_seconds = time.perf_counter() - start
        return python_seconds, vector_seconds

    python_seconds, vector_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = python_seconds / vector_seconds
    emit(
        "bench_engine_sampling",
        f"theta={theta} python={python_seconds:.3f}s "
        f"vectorized={vector_seconds:.3f}s speedup={speedup:.1f}x",
    )
    assert speedup > 1.0


def main(argv=None) -> int:
    """Standalone entry: ``python -m benchmarks.bench_engine [--tiny]``.

    ``--tiny`` runs the smoke-scale per-stage benchmark (the CI artifact
    path) and only prints its table; without it the full bench-scale
    workload runs and its per-stage table lands in
    ``benchmarks/results/bench_engine_stages.txt``.  A non-zero exit code
    signals an estimate mismatch.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke scale (CI): small graph, few worlds",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        report = run_stage_benchmark(
            n=TINY_N, edge_prob=TINY_EDGE_PROB, theta=TINY_THETA
        )
    else:
        report = run_stage_benchmark()
    emit("bench_engine_stages", report["table"], archive=not args.tiny)
    return 0 if report["identical"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke step
    raise SystemExit(main())
