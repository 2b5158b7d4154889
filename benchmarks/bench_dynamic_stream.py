"""Dynamic-graph streaming bench: interleaved updates and warm queries.

The maintenance workload :mod:`repro.delta` exists for: a long-lived
:class:`repro.session.Session` absorbing a stream of single-edge
probability updates between warm top-k queries.  Each update must cost
surgery, not a resample -- exactly **one** mask column re-drawn out of
``m`` (asserted, via the update summary), only the evaluation records
of worlds that actually flipped re-evaluated on the next query hit --
and the post-update answer must stay **byte-identical** to a
from-scratch dynamic session built on the mutated graph, at every step
(asserted).

Measured on the 500-node G(n, p) bench graph of ``bench_engine.py`` at
``theta=160``:

* **cold first query** -- the one dynamic draw the session ever pays;
* **update** -- ``Session.update`` with a single-edge probability bump
  (one column re-drawn, stale evaluations marked at world granularity);
* **warm post-update query** -- lazily patches only the flipped worlds;
* **from-scratch rebuild** -- a cold session on the mutated graph (the
  price of *not* having incremental maintenance), the differential
  reference every step is checked against.

The table is archived as ``benchmarks/results/bench_dynamic_stream.txt``
by the full-scale ``python -m benchmarks.bench_dynamic_stream`` run; the
smaller pytest and ``--tiny`` runs only print it, and CI uploads the
``--tiny`` output as a build artifact.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.delta import GraphDelta
from repro.session import Session
from repro.experiments.common import format_table

from .bench_engine import _bench_graph
from .conftest import emit

BENCH_N = 500
BENCH_EDGE_PROB = 0.01
BENCH_THETA = 160
BENCH_SEED = 7
BENCH_STEPS = 8

#: pytest-scale (the full AC workload runs via ``python -m``)
PYTEST_THETA = 48
PYTEST_STEPS = 4

#: --tiny smoke scale (CI-friendly; seconds, not minutes)
TINY_N = 120
TINY_EDGE_PROB = 0.03
TINY_THETA = 24
TINY_STEPS = 4


def _warm_query(session, theta, seed):
    return (
        session.query().sampler("mc", theta=theta, seed=seed)
        .dynamic().top_k(5).mpds()
    )


def run_dynamic_stream_benchmark(
    n: int = BENCH_N,
    edge_prob: float = BENCH_EDGE_PROB,
    theta: int = BENCH_THETA,
    seed: int = BENCH_SEED,
    steps: int = BENCH_STEPS,
) -> dict:
    """Stream updates through a session; assert surgery + identity."""
    graph = _bench_graph(seed=2023, n=n, edge_prob=edge_prob)
    rng = random.Random(seed)

    with Session(graph.copy()) as session:
        start = time.perf_counter()
        _warm_query(session, theta, seed)
        cold_time = time.perf_counter() - start
        m = session.graph.number_of_edges()

        update_times, warm_times, scratch_times = [], [], []
        flipped_total = 0
        for step in range(steps):
            u, v = rng.choice(sorted(session.graph.edges()))
            old_p = session.graph.probability(u, v)
            new_p = round(rng.uniform(0.05, 1.0), 3)
            while new_p == old_p:  # force an effective update
                new_p = round(rng.uniform(0.05, 1.0), 3)

            start = time.perf_counter()
            summary = session.update(GraphDelta(updates=[(u, v, new_p)]))
            update_times.append(time.perf_counter() - start)

            # a single-edge update re-draws exactly one of m columns...
            assert summary["columns_redrawn"] == 1, summary
            assert summary["stores_updated"] == 1, summary
            # ...and invalidates the eval entry iff any world flipped
            expected = 1 if summary["worlds_flipped"] else 0
            assert summary["evals_invalidated"] == expected, summary
            flipped_total += summary["worlds_flipped"]

            start = time.perf_counter()
            warm = _warm_query(session, theta, seed)
            warm_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            with Session(session.graph.copy()) as scratch:
                reference = _warm_query(scratch, theta, seed)
            scratch_times.append(time.perf_counter() - start)
            assert warm == reference, (
                f"step {step}: incremental session diverged from a "
                "from-scratch session on the mutated graph"
            )

        stats = dict(session.stats)

    # the whole stream paid one draw; updates were surgery, not resamples
    assert stats["dynamic_stores_built"] == 1
    assert stats["columns_redrawn"] == steps
    assert stats["worlds_flipped"] == flipped_total
    assert stats["worlds_reevaluated"] <= flipped_total

    update_time = sum(update_times) / len(update_times)
    warm_time = sum(warm_times) / len(warm_times)
    scratch_time = sum(scratch_times) / len(scratch_times)
    speedup = scratch_time / (update_time + warm_time)
    redraw_fraction = 1.0 / m

    rows = [
        ["cold first dynamic query", f"{cold_time:.3f}", "-",
         "pays the one draw"],
        [f"update (1 column of {m})", f"{update_time:.4f}", "-",
         f"redraw fraction {redraw_fraction:.2%}"],
        ["warm post-update query", f"{warm_time:.4f}", "-",
         "patches flipped worlds only"],
        ["from-scratch rebuild", f"{scratch_time:.3f}", "1.0",
         "differential reference"],
        ["update + warm query", f"{update_time + warm_time:.4f}",
         f"{speedup:.1f}", "byte-identical (asserted)"],
    ]
    table = format_table(
        ["Stage", "Time(s)", "Speedup vs rebuild", "Notes"], rows
    )
    note = (
        f"n={n} p={edge_prob} theta={theta} seed={seed} steps={steps}; "
        f"m={m} edges\n"
        f"per update: exactly 1 column redrawn "
        f"({redraw_fraction:.2%} of masks), "
        f"{flipped_total / steps:.1f} worlds flipped on average, "
        f"{stats['worlds_reevaluated']} worlds re-evaluated in total "
        f"(vs {steps * theta} for naive recomputation)\n"
        "every post-update answer byte-matched a from-scratch dynamic "
        "session (asserted)."
    )
    return {
        "table": table + "\n" + note,
        "cold_time": cold_time,
        "update_time": update_time,
        "warm_time": warm_time,
        "scratch_time": scratch_time,
        "speedup": speedup,
    }


def test_dynamic_stream(benchmark):
    result = benchmark.pedantic(
        lambda: run_dynamic_stream_benchmark(
            theta=PYTEST_THETA, steps=PYTEST_STEPS
        ),
        rounds=1,
        iterations=1,
    )
    emit("bench_dynamic_stream", result["table"], archive=False)
    assert result["speedup"] >= 1.5


def main(argv=None) -> int:
    """Standalone: ``python -m benchmarks.bench_dynamic_stream [--tiny]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-scale run (CI-friendly; seconds, not minutes)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        result = run_dynamic_stream_benchmark(
            n=TINY_N, edge_prob=TINY_EDGE_PROB, theta=TINY_THETA,
            steps=TINY_STEPS,
        )
    else:
        result = run_dynamic_stream_benchmark()
    emit("bench_dynamic_stream", result["table"], archive=not args.tiny)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
