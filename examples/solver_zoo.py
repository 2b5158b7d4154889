#!/usr/bin/env python
"""Solver zoo: every densest-subgraph engine in the library, cross-checked.

The MPDS estimators spend almost all their time computing densest subgraphs
of sampled worlds, so the library ships several engines for the same
optimum and lets you pick per workload:

* Goldberg's flow binary search (exact; the paper's [1], default);
* Charikar's LP relaxation via scipy/HiGHS (exact; [2]);
* Greedy++ iterated peeling (anytime, converges to exact);
* kClist++-style Frank-Wolfe for h-clique density (anytime; [57]);
* single-pass peeling (1/2-approximation; Charikar 2000).

This script runs all of them on one Barabasi-Albert graph and shows they
agree, then demonstrates the multiprocess MPDS estimator.

Run:  python examples/solver_zoo.py
"""

from __future__ import annotations

import random
import time

from repro.core.parallel import parallel_top_k_mpds
from repro.dense.goldberg import densest_subgraph
from repro.dense.greedypp import greedypp_densest
from repro.dense.kclistpp import kclistpp_densest
from repro.dense.clique_density import clique_densest_subgraph
from repro.dense.peeling import peel_edge_density
from repro.graph.generators import assign_uniform, barabasi_albert


def main() -> None:
    rng = random.Random(42)
    graph = barabasi_albert(60, 4, rng)
    print(f"graph: {graph!r}\n")

    print("== Edge density: four engines, one optimum ==")
    exact = densest_subgraph(graph)
    print(f"  Goldberg flow      rho* = {exact.density} "
          f"({float(exact.density):.4f}), |U| = {len(exact.nodes)}")
    try:
        from repro.dense.lp import lp_edge_densest
        lp = lp_edge_densest(graph)
        print(f"  Charikar LP        rho* = {lp.density} (match: "
              f"{lp.density == exact.density})")
    except ImportError:
        print("  Charikar LP        (scipy not installed; skipped)")
    gpp = greedypp_densest(graph, rounds=32)
    print(f"  Greedy++ (32 rds)  rho  = {gpp.density} (match: "
          f"{gpp.density == exact.density})")
    peel = peel_edge_density(graph)
    print(f"  single peeling     rho~ = {peel.density} "
          f"(>= rho*/2: {peel.density >= exact.density / 2})")

    print("\n== 3-clique density: flow vs Frank-Wolfe ==")
    flow3 = clique_densest_subgraph(graph, 3)
    fw3 = kclistpp_densest(graph, 3, iterations=48)
    print(f"  flow binary search rho*_3 = {flow3.density}")
    print(f"  kClist++ FW        rho_3  = {fw3.density} (match: "
          f"{fw3.density == flow3.density})")

    print("\n== Parallel MPDS estimation (2 workers) ==")
    uncertain = assign_uniform(graph, low=0.2, high=0.9, rng=random.Random(7))
    start = time.perf_counter()
    result = parallel_top_k_mpds(uncertain, k=3, theta=64, seed=7, workers=2)
    elapsed = time.perf_counter() - start
    print(f"  theta = {result.theta}, wall time = {elapsed:.2f} s")
    for rank, scored in enumerate(result.top, 1):
        print(f"  #{rank}: tau-hat = {scored.probability:.3f}, "
              f"|U| = {len(scored.nodes)}")


if __name__ == "__main__":
    main()
