"""Seeded inputs of the three workloads (pure functions of the seed).

Nothing here imports the program: the graph and every request list are
built from the workload seed alone, and the program only ever receives
these generated inputs.  ``python3 perfbench/selftest.py`` checks that
the same seed reproduces them and a different seed changes them.
"""

from __future__ import annotations

import random

#: the ROADMAP bench graph: G(n, p) topology, probabilities U[0.3, 0.9]
GRAPH_SEED = 2023
GRAPH_N = 500
GRAPH_EDGE_PROB = 0.01

#: every query samples ``mc:theta=160``
THETA = 160
#: the one seeded store of ``serve-warm`` and ``dynamic-stream`` (the
#: ROADMAP baseline draw); their traffic, not their store, varies by seed
STORE_SEED = 7

#: ``cold-mpds`` request seeds per pass
COLD_POOL = 4

#: ``serve-warm`` NDS request shape, and MPDS ``k`` values
NDS_K = 2
NDS_MIN_SIZE = 2
MPDS_KS = (1, 2, 3, 4, 5)

#: ``dynamic-stream`` edges per pass, and probability step per update
DYNAMIC_POOL = 6
DYNAMIC_STEP = 0.25
DYNAMIC_MAX_P = 0.95

WORKLOADS = ("cold-mpds", "serve-warm", "dynamic-stream")


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def bench_edges():
    """The bench graph's ``(u, v, p)`` rows, in insertion order.

    Same draw sequence as ``benchmarks.bench_engine._bench_graph`` with
    its defaults (``seed=2023, n=500, edge_prob=0.01``).
    """
    rng = random.Random(GRAPH_SEED)
    rows = []
    for u in range(GRAPH_N):
        for v in range(u + 1, GRAPH_N):
            if rng.random() < GRAPH_EDGE_PROB:
                rows.append((u, v, rng.uniform(0.3, 0.9)))
    return rows


def edge_list_text(rows) -> str:
    """``u v p`` lines with probabilities written exactly (``repr``)."""
    return "".join(f"{u} {v} {p!r}\n" for u, v, p in rows)


def cold_requests(seed: int, pool: int = COLD_POOL) -> dict:
    """A warm-up seed and the run's request seeds.

    Per-seed cost is heavy-tailed (a world can hold thousands of
    densest subgraphs: 1.6-5.5 s per request over 48 seeds on a 2-core
    Xeon), so a handful of freshly drawn seeds per run cannot give a
    steady mean.  The request seeds are therefore one fixed pool of
    distinct seeds, and the warm-up seed is a fixed one outside it; the
    workload seed picks the order the pool is sent in.  A run sends
    whole passes over the pool.
    """
    pool_rng = random.Random("cold-mpds:pool")
    seeds = pool_rng.sample(range(2 ** 31), pool + 1)
    warmup = seeds.pop()
    _rng("cold-mpds", seed).shuffle(seeds)
    return {"warmup": warmup, "seeds": seeds}


def serve_requests(seed: int, blocks: int = 64) -> list:
    """Blocks of seven requests: six MPDS (each ``k`` of 1..5 once plus
    one seed-chosen ``k``) and one NDS of the fixed shape, shuffled
    within the block.  Every block costs the same, so a run that stops
    at a block boundary has a fixed mix (1/7 = 14% NDS)."""
    rng = _rng("serve-warm", seed)
    requests = []
    for _ in range(blocks):
        block = [{"run": "mpds", "k": k} for k in MPDS_KS]
        block.append({"run": "mpds", "k": rng.choice(MPDS_KS)})
        block.append({"run": "nds", "k": NDS_K, "min_size": NDS_MIN_SIZE})
        rng.shuffle(block)
        requests.extend(block)
    return requests


def serve_warmup() -> list:
    """Setup traffic: prime the store with its MPDS and NDS records,
    then one warm MPDS request."""
    return [
        {"run": "mpds", "k": max(MPDS_KS)},
        {"run": "nds", "k": NDS_K, "min_size": NDS_MIN_SIZE},
        {"run": "mpds", "k": min(MPDS_KS)},
    ]


def request_shape(request: dict) -> str:
    return ",".join(f"{key}={request[key]}" for key in sorted(request))


def dynamic_ops(seed: int, rows, passes: int = 64) -> list:
    """Single-edge probability updates ``(u, v, p)``: a warm-up pair,
    then ``passes`` passes over a fixed pool of pairs.

    What-if traffic: each pair moves one edge by exactly
    ``DYNAMIC_STEP`` (up when that stays <= ``DYNAMIC_MAX_P``, else
    down) and then restores it, so every step flips the same expected
    number of worlds (theta * 0.25 = 40) and the graph is back at the
    bench graph after every pair.  A stream that only drifts makes the
    cost of a step depend on where the walk has wandered (0.5-0.9 s
    medians between seeds), and freshly drawn edges make each run's
    peak memory depend on its worst step (128-173 MB between seeds), so
    the pairs come from one fixed pool of edges, and the warm-up pair
    uses a fixed edge outside it.  The workload seed orders each pass.
    A run sends whole passes.
    """
    pool_rng = random.Random("dynamic-stream:pool")
    pool = pool_rng.sample(range(len(rows)), DYNAMIC_POOL + 1)
    order = [pool.pop()]
    rng = _rng("dynamic-stream", seed)
    for _ in range(passes):
        order.extend(rng.sample(pool, len(pool)))
    ops = []
    for index in order:
        u, v, p = rows[index]
        up = round(p + DYNAMIC_STEP, 6)
        moved = up if up <= DYNAMIC_MAX_P else round(p - DYNAMIC_STEP, 6)
        ops.append((u, v, moved))
        ops.append((u, v, p))
    return ops
