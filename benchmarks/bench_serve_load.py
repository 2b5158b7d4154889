"""Serve-tier load bench: mixed warm/cold queries against a live daemon.

Boots a real :class:`repro.serve.ReproServer` (sockets, not stubs),
registers the G(n, p) bench graph of ``bench_engine.py``, and drives a
mixed workload from concurrent HTTP clients:

* **warm repeats** -- identical seeded sampler, varying ``k``, plus NDS
  and clique-measure variants over the *same* world store (the serving
  pattern the session caches exist for);
* **cold draws** -- distinct seeds, each sampled exactly once no matter
  how many clients race for it (single-flight admission).

Three things are **asserted**, not just reported:

* every response is byte-identical to the one-shot ``top_k_mpds`` /
  ``top_k_nds`` twin of its query (the serialization round-trips
  through real HTTP/JSON);
* the session draw counter equals the number of *distinct* seeded
  draws in the workload -- concurrent identical requests coalesced
  instead of resampling;
* every request returned HTTP 200.

The table (client-side p50/p99 latency split warm vs cold, the
server's own ``/stats`` histogram, and the session cache hit ledger)
is printed; a full-scale run (``python -m benchmarks.bench_serve_load``)
also archives it as ``benchmarks/results/bench_serve_load.txt``.  A
smoke-scale run (``--tiny``, or the pytest entry) only prints, so it
never overwrites the committed full-scale table; CI boots the daemon
fresh and uploads the ``--tiny`` table it saves aside on every push.
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
import urllib.request

from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.experiments.common import format_table
from repro.serve import ReproServer
from repro.specs import build_measure

from .bench_engine import _bench_graph
from .conftest import emit

#: full-scale workload (the committed artifact); the graph matches
#: ``bench_session.py`` -- the 500-node G(n, p) serving-bench topology
BENCH_N = 500
BENCH_EDGE_PROB = 0.01
BENCH_THETA = 96
BENCH_QUERIES = 240
BENCH_COLD_SEEDS = 12
BENCH_CLIENTS = 8

#: --tiny smoke scale (CI-friendly; seconds, not minutes)
TINY_N = 100
TINY_EDGE_PROB = 0.04
TINY_THETA = 24
TINY_QUERIES = 48
TINY_COLD_SEEDS = 4
TINY_CLIENTS = 4

WARM_SEED = 7
WARM_KS = (1, 2, 3, 5)


def _build_workload(theta: int, total: int, cold_seeds: int):
    """The mixed query list: ~90% warm traffic over one seeded store,
    plus ``cold_seeds`` distinct draws racing through admission."""
    bodies = []
    for seed in range(101, 101 + cold_seeds):
        bodies.append({
            "graph": "bench", "run": "mpds", "k": 2,
            "sampler": f"mc:theta={theta},seed={seed}",
        })
    warm_total = total - len(bodies)
    for i in range(warm_total):
        body = {
            "graph": "bench",
            "sampler": f"mc:theta={theta},seed={WARM_SEED}",
        }
        slot = i % 10
        if slot < 7:  # warm mpds k-variants
            body["run"] = "mpds"
            body["k"] = WARM_KS[i % len(WARM_KS)]
        elif slot < 9:  # warm nds over the same store
            body["run"] = "nds"
            body["k"] = 1 + (i % 2)
            body["min_size"] = 2
        else:  # warm clique measure, same store, re-evaluates once
            body["run"] = "mpds"
            body["k"] = 3
            body["measure"] = "clique:h=3"
        bodies.append(body)
    # deterministic interleave so clients race warm and cold together
    random.Random(2023).shuffle(bodies)
    return bodies


def _twin_key(body):
    return (
        body["run"], body["k"], body["sampler"],
        body.get("measure"), body.get("min_size"),
    )


def _one_shot_twin(graph, body, theta):
    """The legacy one-shot call this daemon response must equal."""
    seed = int(body["sampler"].rsplit("seed=", 1)[1])
    measure = build_measure(body.get("measure"))
    if body["run"] == "mpds":
        result = top_k_mpds(
            graph, k=body["k"], theta=theta, measure=measure, seed=seed
        )
    else:
        result = top_k_nds(
            graph, k=body["k"], min_size=body["min_size"], theta=theta,
            measure=measure, seed=seed,
        )
    return json.dumps(result.to_dict(), sort_keys=True)


def _post_query(url, body):
    request = urllib.request.Request(
        url + "/query", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=300) as response:
        payload = json.loads(response.read())
        status = response.status
    return status, payload, (time.perf_counter() - start) * 1000.0


def _percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return ordered[rank]


def run_serve_load_benchmark(
    n: int = BENCH_N,
    edge_prob: float = BENCH_EDGE_PROB,
    theta: int = BENCH_THETA,
    total: int = BENCH_QUERIES,
    cold_seeds: int = BENCH_COLD_SEEDS,
    clients: int = BENCH_CLIENTS,
) -> dict:
    graph = _bench_graph(seed=2023, n=n, edge_prob=edge_prob)
    bodies = _build_workload(theta, total, cold_seeds)

    observations = []
    failures = []
    cursor = {"next": 0}
    lock = threading.Lock()

    with ReproServer(port=0) as server:
        server.register_graph("bench", graph=graph)
        url = server.url

        def client():
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(bodies):
                        return
                    cursor["next"] = index + 1
                body = bodies[index]
                try:
                    status, payload, elapsed_ms = _post_query(url, body)
                except Exception as exc:  # pragma: no cover - hard fail
                    with lock:
                        failures.append((body, repr(exc)))
                    return
                with lock:
                    observations.append(
                        (body, status, payload, elapsed_ms)
                    )

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        stats = server.stats_payload()

    assert not failures, f"client failures: {failures[:3]}"
    assert len(observations) == len(bodies)
    assert all(status == 200 for _, status, _, _ in observations)

    # -- byte-identity of every response against its one-shot twin ----
    twins = {}
    mismatches = 0
    for body, _status, payload, _elapsed in observations:
        key = _twin_key(body)
        if key not in twins:
            twins[key] = _one_shot_twin(graph, body, theta)
        wire = json.dumps(payload["result"], sort_keys=True)
        if wire != twins[key]:  # pragma: no cover - identity holds
            mismatches += 1
    assert mismatches == 0, f"{mismatches} responses diverged"

    # -- single-flight: distinct seeded draws, not distinct requests --
    session = stats["sessions"]["bench"]
    distinct_draws = 1 + cold_seeds  # the warm store + each cold seed
    assert session["stores_built"] == distinct_draws, (
        f"expected {distinct_draws} draws, sampled "
        f"{session['stores_built']} -- coalescing failed"
    )

    warm_ms = [
        elapsed for body, _s, payload, elapsed in observations
        if not payload["cold_draw"]
    ]
    cold_ms = [
        elapsed for body, _s, payload, elapsed in observations
        if payload["cold_draw"]
    ]
    server_hist = stats["latency_ms"]["POST /query"]
    seeded = session["stores_built"] + session["store_hits"] + \
        session["store_waits"]
    store_hit_rate = (
        (session["store_hits"] + session["store_waits"]) / seeded
    )
    eval_seen = session["eval_hits"] + session["eval_waits"]
    eval_hit_rate = eval_seen / max(session["queries"], 1)

    rows = [
        ["queries served", str(len(observations)), ""],
        ["clients", str(clients), "concurrent HTTP clients"],
        ["wall clock", f"{wall_s:.2f} s",
         f"{len(observations) / wall_s:.1f} qps"],
        ["warm p50 / p99",
         f"{_percentile(warm_ms, 0.50):.2f} / "
         f"{_percentile(warm_ms, 0.99):.2f} ms",
         f"{len(warm_ms)} responses"],
        ["cold p50 / p99",
         f"{_percentile(cold_ms, 0.50):.2f} / "
         f"{_percentile(cold_ms, 0.99):.2f} ms",
         f"{len(cold_ms)} responses"],
        ["server-side p50 / p99",
         f"{server_hist['p50_ms']:.2f} / {server_hist['p99_ms']:.2f} ms",
         "POST /query histogram"],
        ["world-store draws", str(session["stores_built"]),
         f"for {seeded} store lookups (single-flight)"],
        ["store cache hit rate", f"{store_hit_rate:.1%}",
         f"{session['store_hits']} hits + "
         f"{session['store_waits']} coalesced waits"],
        ["evaluation reuse rate", f"{eval_hit_rate:.1%}",
         f"{session['eval_hits']} hits + "
         f"{session['eval_waits']} coalesced waits"],
        ["byte-identity", "100%",
         f"{len(observations)} responses vs one-shot twins"],
    ]
    table = format_table(["Metric", "Value", "Detail"], rows)
    note = (
        f"n={n} p={edge_prob} theta={theta}; workload: "
        f"{len(warm_ms)} warm + {len(cold_ms)} cold queries over "
        f"{clients} clients against a live repro-serve daemon.\n"
        "asserted: every response byte-identical to its one-shot twin; "
        f"exactly {distinct_draws} draws for {seeded} store lookups\n"
        "(warm repeats that hit the evaluation cache never reach the\n"
        "store layer at all)."
    )
    return {
        "table": table + "\n" + note,
        "queries": len(observations),
        "store_hit_rate": store_hit_rate,
        "draws": session["stores_built"],
    }


def test_serve_load(benchmark):
    result = benchmark.pedantic(
        lambda: run_serve_load_benchmark(
            n=TINY_N, edge_prob=TINY_EDGE_PROB, theta=TINY_THETA,
            total=TINY_QUERIES, cold_seeds=TINY_COLD_SEEDS,
            clients=TINY_CLIENTS,
        ),
        rounds=1,
        iterations=1,
    )
    emit("bench_serve_load", result["table"], archive=False)
    assert result["queries"] == TINY_QUERIES


def main(argv=None) -> int:
    """Standalone entry: ``python -m benchmarks.bench_serve_load``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-scale run (CI-friendly; seconds, not minutes)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        result = run_serve_load_benchmark(
            n=TINY_N, edge_prob=TINY_EDGE_PROB, theta=TINY_THETA,
            total=TINY_QUERIES, cold_seeds=TINY_COLD_SEEDS,
            clients=TINY_CLIENTS,
        )
    else:
        result = run_serve_load_benchmark()
    emit("bench_serve_load", result["table"], archive=not args.tiny)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
