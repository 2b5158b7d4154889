"""Checks of the benchmark itself: seeded inputs and the metric list.

Run from the repository root::

    python3 perfbench/selftest.py

The same workload seed must give the same graph and request list, and a
different seed a different request list.  ``BENCHMARK.json`` must name
exactly the metrics ``run.py`` prints, and a timed segment must be
divided by the host speed factor measured around it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def inputs(workload: str, seed: int):
    rows = workloads.bench_edges()
    if workload == "cold-mpds":
        requests = workloads.cold_requests(seed)
    elif workload == "serve-warm":
        requests = workloads.serve_requests(seed)
    else:
        requests = workloads.dynamic_ops(seed, rows)
    return digest(rows), digest(requests)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_graph_and_requests(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(inputs(workload, 3), inputs(workload, 3))

    def test_different_seed_different_requests(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                graph_a, requests_a = inputs(workload, 3)
                graph_b, requests_b = inputs(workload, 4)
                self.assertEqual(graph_a, graph_b)
                self.assertNotEqual(requests_a, requests_b)

    def test_graph_is_the_roadmap_bench_graph(self):
        rows = workloads.bench_edges()
        self.assertEqual(len(rows), 1167)
        sys.path[:0] = [str(REPO / "src"), str(REPO)]
        try:
            from benchmarks.bench_engine import _bench_graph
        except ImportError as exc:  # pragma: no cover - trimmed checkout
            self.skipTest(f"benchmarks.bench_engine unavailable: {exc}")
        finally:
            del sys.path[:2]
        graph = _bench_graph(seed=workloads.GRAPH_SEED)
        self.assertEqual(list(graph.weighted_edges()), rows)

    def test_serve_blocks_have_a_fixed_mix(self):
        requests = workloads.serve_requests(5)
        for start in range(0, len(requests), 7):
            block = requests[start:start + 7]
            runs = [request["run"] for request in block]
            self.assertEqual(runs.count("nds"), 1)
            ks = {request["k"] for request in block if request["run"] == "mpds"}
            self.assertEqual(ks, set(workloads.MPDS_KS))

    def test_cold_requests_are_distinct_seeds(self):
        requests = workloads.cold_requests(5)
        seeds = requests["seeds"]
        self.assertEqual(len(set(seeds)), workloads.COLD_POOL)
        self.assertNotIn(requests["warmup"], seeds)

    def test_dynamic_pairs_restore_the_graph(self):
        rows = workloads.bench_edges()
        base = {(u, v): p for u, v, p in rows}
        ops = workloads.dynamic_ops(5, rows)
        for (u, v, moved), restore in zip(ops[::2], ops[1::2]):
            self.assertEqual(restore, (u, v, base[(u, v)]))
            self.assertAlmostEqual(
                abs(moved - base[(u, v)]), workloads.DYNAMIC_STEP, places=5
            )
            self.assertLessEqual(moved, workloads.DYNAMIC_MAX_P)
        # after the warm-up pair, every pass moves the same pool of edges
        size = 2 * workloads.DYNAMIC_POOL
        passes = [ops[start:start + size] for start in range(2, len(ops), size)]
        pools = {frozenset(passes[0])} | {frozenset(p) for p in passes}
        self.assertEqual(len(pools), 1)
        self.assertNotIn(ops[0], passes[0])


class HostSpeedNormalization(unittest.TestCase):
    class FixedSpeed:
        """Bursts with given kernel times instead of timed ones."""

        def __init__(self, *factors) -> None:
            self.bursts = iter(
                [factor * hostspeed.REFERENCE_S] * hostspeed.BURST
                for factor in factors
            )

        def burst(self) -> list:
            return next(self.bursts)

    def test_segment_uses_the_bursts_on_either_side(self):
        clock = hostspeed.Stopwatch(self.FixedSpeed(1.0, 3.0, 3.0))
        clock.pause()
        clock.start()
        time.sleep(0.02)
        # median of the six samples around it: 1.0 x3 and 3.0 x3
        self.assertAlmostEqual(clock.pause(), 2.0)
        time.sleep(0.02)
        self.assertAlmostEqual(clock.pause(), 3.0)
        time.sleep(0.02)
        clock.stop()
        (first, f1), (second, f2) = clock.segments
        self.assertGreaterEqual(min(first, second), 0.02)
        self.assertAlmostEqual(clock.elapsed(), first + second)
        self.assertAlmostEqual(clock.normalized(), first / 2.0 + second / 3.0)

    def test_kernel_is_deterministic(self):
        self.assertEqual(hostspeed.kernel(), hostspeed.kernel())


class MetricList(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)
        )


if __name__ == "__main__":
    unittest.main()
