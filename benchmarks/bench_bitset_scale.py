"""Packed-substrate bench: bit-packed vs boolean world masks at scale.

ROADMAP item 2's acceptance workload: sample ``theta`` worlds of a
>=100k-edge uncertain graph (``repro.datasets.make_scale_benchmark_graph``,
real-dataset scale) and hold them as

* the sampler's **boolean drain** (``theta x m`` bytes,
  :func:`repro.engine.blocks.drain_mask_stream`) -- the oracle,
* the **packed** world store's uint64 word matrix
  (:class:`repro.engine.bitset.PackedMasks`, ~8x smaller), and
* a **budgeted** packed store (``memory_budget=`` a stated byte cap)
  that spills its word blocks over the <=64-block chunk grid and streams
  them back in as replay touches them.

Asserted on every run:

* the packed store unpacks **byte-identical** to the boolean drain,
  world by world (the bench-scale echo of
  ``tests/test_bitset_differential.py``);
* the budgeted store streams the same bytes while its peak resident
  mask memory stays **inside the stated budget**;
* the packed representation is at least **7x** smaller than the boolean
  matrix (exactly 8x when ``m`` is a multiple of 64).

The table (mask memory, build/replay/kernel runtimes, budget telemetry)
is archived as ``benchmarks/results/bench_bitset_scale.txt`` by the
full-scale ``python -m benchmarks.bench_bitset_scale`` run; the smaller
pytest and ``--tiny`` runs only print it, and CI uploads the ``--tiny``
output as a build artifact.  The committed copy records the full-scale
run.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.datasets import make_scale_benchmark_graph
from repro.engine.blocks import drain_mask_stream
from repro.engine.kernels import batch_world_edge_counts, edge_world_counts
from repro.engine.sampler import VectorizedMonteCarloSampler
from repro.engine.worldstore import WorldStore
from repro.experiments.common import format_table

from .conftest import emit

#: full scale: >=100k edges (the acceptance workload)
BENCH_N = 30_000
BENCH_M = 120_000
BENCH_THETA = 64
BENCH_BUDGET = 256 * 1024  # bytes of resident packed mask blocks

BENCH_SEED = 2023
DRAW_SEED = 7

#: pytest-scale (the full workload runs via ``python -m``)
PYTEST_N = 2_000
PYTEST_M = 8_000
PYTEST_THETA = 32
PYTEST_BUDGET = 16 * 1024

#: --tiny smoke scale (CI-friendly; seconds, not minutes)
TINY_N = 600
TINY_M = 2_400
TINY_THETA = 16
TINY_BUDGET = 2 * 1024


def _mib(nbytes: int) -> str:
    return f"{nbytes / (1024 * 1024):.3f}"


def run_bitset_scale_benchmark(
    n: int = BENCH_N,
    m: int = BENCH_M,
    theta: int = BENCH_THETA,
    budget: int = BENCH_BUDGET,
    seed: int = BENCH_SEED,
    draw_seed: int = DRAW_SEED,
) -> dict:
    """Drain the boolean oracle, build packed and budgeted stores of the
    same draw; assert identity + budget."""
    start = time.perf_counter()
    graph = make_scale_benchmark_graph(n=n, m=m, seed=seed)
    build_graph_time = time.perf_counter() - start

    start = time.perf_counter()
    reference, _weights, _order, _indptr = drain_mask_stream(
        VectorizedMonteCarloSampler(graph, draw_seed), theta
    )
    drain_time = time.perf_counter() - start

    start = time.perf_counter()
    packed = WorldStore.from_sampler(graph, None, theta, seed=draw_seed)
    packed_time = time.perf_counter() - start

    # byte-identity: the packed words unpack to the drained byte matrix,
    # as a whole and row by row at the replay boundary
    assert np.array_equal(packed.mask_matrix().to_bool(), reference), (
        "packed store diverged from the boolean drain"
    )
    for i in range(packed.count):
        assert np.array_equal(packed.mask_row(i), reference[i]), (
            f"packed row {i} diverged from the boolean drain"
        )

    ratio = reference.nbytes / packed.mask_nbytes
    assert ratio >= 7.0, (
        f"packed masks only {ratio:.2f}x smaller; expected ~8x"
    )

    # cross-world kernel straight off the words vs off the bytes
    start = time.perf_counter()
    packed_counts = edge_world_counts(packed.mask_matrix())
    packed_kernel_time = time.perf_counter() - start
    start = time.perf_counter()
    unpacked_counts = edge_world_counts(reference)
    unpacked_kernel_time = time.perf_counter() - start
    assert np.array_equal(packed_counts, unpacked_counts)
    assert np.array_equal(
        batch_world_edge_counts(packed.mask_matrix()),
        reference.sum(axis=1, dtype=np.int64),
    )

    # budgeted store: stream world by world, byte-identical at every
    # step, peak resident mask bytes inside the stated budget
    budgeted = WorldStore.from_sampler(
        graph, None, theta, seed=draw_seed, memory_budget=budget
    )
    start = time.perf_counter()
    for i, weighted in enumerate(budgeted.mask_worlds()):
        assert np.array_equal(weighted.graph.mask, reference[i]), (
            f"budgeted replay diverged at world {i}"
        )
    stream_time = time.perf_counter() - start
    pager = budgeted._pager
    peak = budgeted.peak_mask_bytes
    assert peak <= budget, (
        f"budgeted store peaked at {peak} bytes, over the {budget} budget"
    )
    budgeted.close()

    rows = [
        [
            "boolean drain (bool bytes)",
            _mib(reference.nbytes),
            f"{drain_time:.3f}",
            "baseline (oracle)",
        ],
        [
            "packed store (uint64 words)",
            _mib(packed.mask_nbytes),
            f"{packed_time:.3f}",
            f"{ratio:.2f}x less mask memory",
        ],
        [
            f"budgeted store (cap {budget // 1024} KiB)",
            _mib(peak),
            f"{stream_time:.3f}",
            f"peak {peak} B <= budget {budget} B",
        ],
        [
            "edge_world_counts kernel",
            "-",
            f"{packed_kernel_time:.3f}",
            f"vs {unpacked_kernel_time:.3f}s on bytes (equal output)",
        ],
    ]
    table = format_table(
        ["Substrate", "Mask MiB", "Time(s)", "Notes"], rows
    )
    note = (
        f"graph: n={n} m={m} (>=100k-edge at full scale) theta={theta} "
        f"seed={seed} draw_seed={draw_seed}; graph build "
        f"{build_graph_time:.3f}s\n"
        f"budget telemetry: {pager.block_loads} block loads, "
        f"{pager.block_evictions} evictions over "
        f"{len(pager.blocks)} grid blocks\n"
        "byte-identity packed vs boolean drain asserted world-by-world; "
        "peak <= budget asserted."
    )
    return {
        "table": table + "\n" + note,
        "ratio": ratio,
        "peak": peak,
        "budget": budget,
    }


def test_bitset_scale(benchmark):
    result = benchmark.pedantic(
        lambda: run_bitset_scale_benchmark(
            n=PYTEST_N, m=PYTEST_M, theta=PYTEST_THETA, budget=PYTEST_BUDGET
        ),
        rounds=1,
        iterations=1,
    )
    emit("bench_bitset_scale", result["table"], archive=False)
    assert result["ratio"] >= 7.0
    assert result["peak"] <= result["budget"]


def main(argv=None) -> int:
    """Standalone entry: ``python -m benchmarks.bench_bitset_scale [--tiny]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-scale run (CI-friendly; seconds, not minutes)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        result = run_bitset_scale_benchmark(
            n=TINY_N, m=TINY_M, theta=TINY_THETA, budget=TINY_BUDGET
        )
    else:
        result = run_bitset_scale_benchmark()
    emit("bench_bitset_scale", result["table"], archive=not args.tiny)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
