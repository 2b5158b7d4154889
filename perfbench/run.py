"""End-to-end and per-layer benchmark of the MPDS/NDS estimators.

Run from the repository root::

    python3 perfbench/run.py --workload cold-mpds --seed 1 --seconds 12 \\
        --trace 0

Workloads (see ``perfbench/README.md``): ``cold-mpds``, ``serve-warm``,
``dynamic-stream``.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (which also runs an untraced phase to measure tracing overhead).
End-to-end timings are in reference-host units: each stretch of timed
work is divided by the host speed factor measured next to it (see
``hostspeed.py``), and the benchmark runs pinned to one CPU.
Outputs are checked after the timed phases; a run record with host facts
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import platform
import re
import resource
import select
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import serve_launcher
import tracing
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPS = 3
#: request ids reserved per set-up (its warm-up requests)
SETUP_IDS = 8

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sampling.busy_s", "s"), ("sampling.worlds", "count"),
    ("store.busy_s", "s"), ("store.draws", "count"),
    ("store.hits", "count"), ("store.mask_bytes", "bytes"),
    ("bound.busy_s", "s"), ("bound.worlds", "count"),
    ("bound.worlds_filtered", "count"),
    ("exact.busy_s", "s"), ("exact.worlds", "count"),
    ("exact.ms_per_world", "ms"), ("exact.replayed_worlds", "count"),
    ("finalize.busy_s", "s"), ("finalize.calls", "count"),
    ("finalize.mining_s", "s"),
    ("serialize.busy_s", "s"), ("serialize.bytes", "bytes"),
    ("session.self_s", "s"), ("session.queries", "count"),
    ("session.eval_hits", "count"), ("session.eval_hit_ratio", "ratio"),
    ("session.waits", "count"),
    ("serve.handle_ms.p50", "ms"), ("serve.errors", "count"),
    ("http.busy_s", "s"), ("http.overhead_ms.p50", "ms"),
    ("delta.busy_s", "s"), ("delta.columns_redrawn", "count"),
    ("delta.worlds_flipped", "count"), ("delta.worlds_reevaluated", "count"),
    ("delta.reeval_ratio", "ratio"),
    ("setup.sampling.busy_s", "s"), ("setup.store.busy_s", "s"),
    ("setup.bound.busy_s", "s"), ("setup.exact.busy_s", "s"),
    ("setup.finalize.busy_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)

#: session counters read before and after a phase (deltas are reported)
SESSION_COUNTERS = (
    "store_hits", "eval_hits", "store_waits", "eval_waits",
    "worlds_reevaluated",
)


class Mismatch(Exception):
    """A response differs from its byte-identity reference."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class InProcess:
    """Shared shape of the two in-process workloads."""

    block = 1
    in_process = True

    def __init__(self, seed: int, recorder) -> None:
        self.rec = recorder
        self.rows = workloads.bench_edges()

    def build_graph(self):
        from repro.graph.uncertain import UncertainGraph

        graph = UncertainGraph()
        for node in range(workloads.GRAPH_N):
            graph.add_node(node)
        for u, v, p in self.rows:
            graph.add_edge(u, v, p)
        return graph

    def call(self, request_id: int, traced: bool, fn):
        """Run one request, inside a root span when traced."""
        if not traced:
            return fn()
        return tracing.root(
            self.rec, request_id, "request", "request", lambda span: fn()
        )

    def canonical(self, body: bytes) -> bytes:
        return body

    def counters(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def daemon_spans(self) -> list:
        return []

    def close(self) -> None:
        pass


class ColdMpds(InProcess):
    """One-shot ``top_k_mpds``, one pool seed per request."""

    def __init__(self, seed, recorder) -> None:
        super().__init__(seed, recorder)
        self.requests = workloads.cold_requests(seed)
        self.block = len(self.requests["seeds"])
        self.count = 64 * self.block
        self.first = None

    def query(self, request_seed: int) -> bytes:
        from repro.core.mpds import top_k_mpds

        result = top_k_mpds(
            self.graph, k=5, theta=workloads.THETA, seed=request_seed
        )
        return result.to_json().encode("utf-8")

    def setup(self, request_id: int, traced: bool, clock) -> None:
        def build():
            clock.start()
            self.graph = self.build_graph()
            clock.pause()
            self.query(self.requests["warmup"])

        self.call(request_id, traced, build)

    def request(self, index: int, request_id: int, traced: bool) -> bytes:
        seed = self.requests["seeds"][index % self.block]
        return self.call(request_id, traced, lambda: self.query(seed))

    def check(self, index: int, body: bytes, digest: bytes) -> None:
        if self.first is None:
            self.first = (index, body)

    def verify(self) -> list:
        """Differential twin: the store-backed ``Session`` on the same
        seed must serialize byte-identically to the one-shot call."""
        from repro.session import Session

        index, body = self.first
        seed = self.requests["seeds"][index % self.block]
        with Session(self.graph) as session:
            twin = (
                session.query()
                .sampler("mc", theta=workloads.THETA, seed=seed)
                .top_k(5).mpds()
            )
        same = twin.to_json().encode("utf-8") == body
        return [{"shape": f"mpds,k=5,seed={seed}", "twin": "session",
                 "match": same}]


class DynamicStream(InProcess):
    """Single-edge ``Session.update`` followed by a warm top-5 MPDS."""

    #: a run ends after a whole pass over the pool of update pairs, with
    #: the graph back at the bench graph
    block = 2 * workloads.DYNAMIC_POOL
    #: the set-up's warm-up is the first perturb-and-restore pair
    WARMUP = 2

    def __init__(self, seed, recorder) -> None:
        super().__init__(seed, recorder)
        self.ops = workloads.dynamic_ops(seed, self.rows)
        self.count = len(self.ops) - self.WARMUP
        self.session = None
        self.checkpoints = {}

    def query(self, session) -> bytes:
        result = (
            session.query()
            .sampler("mc", theta=workloads.THETA, seed=workloads.STORE_SEED)
            .dynamic().top_k(5).mpds()
        )
        return result.to_json().encode("utf-8")

    def step(self, op) -> bytes:
        from repro.delta import GraphDelta

        self.session.update(GraphDelta(updates=[op]))
        return self.query(self.session)

    def setup(self, request_id: int, traced: bool, clock) -> None:
        from repro.session import Session

        def build():
            clock.start()
            self.session = Session(self.build_graph())
            self.query(self.session)
            for op in self.ops[: self.WARMUP]:
                clock.pause()
                self.step(op)

        self.call(request_id, traced, build)

    def request(self, index: int, request_id: int, traced: bool) -> bytes:
        op = self.ops[index + self.WARMUP]
        return self.call(request_id, traced, lambda: self.step(op))

    def check(self, index: int, body: bytes, digest: bytes) -> None:
        # checkpoints: the first timed step and the latest one
        if not self.checkpoints:
            self.checkpoints["first"] = (index, body)
        self.checkpoints["last"] = (index, body)

    def counters(self) -> dict:
        return self.session.stats_snapshot()

    def verify(self) -> list:
        """Differential twin at each checkpoint: a from-scratch dynamic
        ``Session`` on the graph mutated by every op up to it."""
        from repro.delta import GraphDelta
        from repro.session import Session

        checks = []
        for name, (index, body) in sorted(self.checkpoints.items()):
            graph = self.build_graph()
            for op in self.ops[: index + 1 + self.WARMUP]:
                GraphDelta(updates=[op]).apply(graph)
            with Session(graph) as scratch:
                same = self.query(scratch) == body
            checks.append({"shape": f"step {index} ({name})",
                           "twin": "from-scratch session", "match": same})
        return checks

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


_ELAPSED = re.compile(rb'"elapsed_ms": [-+0-9.eE]+')


class Daemon:
    """One ``repro-serve`` subprocess started through the launcher."""

    def __init__(self, graph_path: Path, report: Path, traced: bool,
                 clock) -> None:
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--report", str(report),
        ]
        if traced:
            command.append("--trace")
        command += [
            "--", "--port", "0", "--workers", "1", "--engine", "auto",
            "--graph", f"bench={graph_path}",
        ]
        self.report = report
        self.log = open(OUT / "serve.log", "ab")
        # unbuffered: each readline takes one line and leaves the next in
        # the pipe, where select() sees it
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=self.log,
            bufsize=0,
        )
        self.conn = None
        try:
            line = self._line(timeout=120.0)
            if line.strip() != serve_launcher.READY.encode():
                raise RuntimeError(f"launcher did not start: {line!r}")
            # set-up is timed from here, after the daemon's imports
            clock.start()
            line = self._line(timeout=120.0)
            match = re.search(rb"listening on http://([^:\s]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro-serve did not start: {line!r}")
            self.conn = http.client.HTTPConnection(
                match.group(1).decode(), int(match.group(2)), timeout=170,
            )
        except BaseException:
            self.stop()
            raise

    def _line(self, timeout: float) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("the daemon wrote nothing on stdout")
        return self.proc.stdout.readline()

    def send(self, method: str, path: str, body=None, tag=None):
        headers = {"Content-Type": "application/json"}
        if tag is not None:
            headers[tracing.TRACE_HEADER] = tag
        data = None if body is None else json.dumps(body).encode("utf-8")
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def stop(self) -> dict:
        """Shut down gracefully (kill after 60 s); returns the report."""
        try:
            if self.conn is not None and self.proc.poll() is None:
                self.send("POST", "/shutdown", {})
        except (OSError, http.client.HTTPException):
            pass
        finally:
            if self.conn is not None:
                self.conn.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
        try:
            return json.loads(self.report.read_text())
        except (OSError, ValueError):
            return {}


class ServeWarm:
    """HTTP client against a warm ``repro-serve --workers 1``."""

    block = 7
    in_process = False

    def __init__(self, seed: int, recorder) -> None:
        self.seed = seed
        self.rec = recorder
        self.rows = workloads.bench_edges()
        self.requests = workloads.serve_requests(seed)
        self.count = len(self.requests)
        self.graph_path = OUT / f"serve-warm-{seed}-graph.txt"
        self.report_path = OUT / f"serve-warm-{seed}-daemon.json"
        self.daemon = None
        self.report = {}
        self.first = {}
        self.digests = {}

    def body(self, request: dict) -> dict:
        return dict(
            request, graph="bench",
            sampler=f"mc:theta={workloads.THETA},seed={workloads.STORE_SEED}",
        )

    def post(self, request: dict, request_id: int, traced: bool) -> bytes:
        body = self.body(request)
        if traced:
            status, data = tracing.root(
                self.rec, request_id, "http", "client",
                lambda span: self.daemon.send(
                    "POST", "/query", body,
                    tag=f"{request_id}:{span[tracing.ID]}",
                ),
            )
        else:
            status, data = self.daemon.send("POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {data[:200]!r}")
        return data

    def setup(self, request_id: int, traced: bool, clock) -> None:
        self.graph_path.write_text(workloads.edge_list_text(self.rows))
        self.daemon = Daemon(self.graph_path, self.report_path,
                             traced=self.rec is not None, clock=clock)
        for offset, request in enumerate(workloads.serve_warmup()):
            # the daemon is idle between replies: sample the host there
            clock.pause()
            self.post(request, request_id + offset, traced)

    def request(self, index: int, request_id: int, traced: bool) -> bytes:
        return self.post(self.requests[index], request_id, traced)

    def canonical(self, body: bytes) -> bytes:
        # the one field that differs between identical requests
        return _ELAPSED.sub(b"", body, count=1)

    def check(self, index: int, body: bytes, digest: bytes) -> None:
        shape = workloads.request_shape(self.requests[index])
        if shape not in self.first:
            self.first[shape] = body
            self.digests[shape] = digest
        elif self.digests[shape] != digest:
            raise Mismatch(f"{shape}: warm response changed between repeats")

    def counters(self) -> dict:
        status, data = self.daemon.send("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats: HTTP {status}")
        return json.loads(data)["sessions"]["bench"]

    def peak_rss_mb(self) -> float:
        self.report = self.daemon.stop()
        self.daemon = None
        return self.report["maxrss_kb"] / 1024.0

    def daemon_spans(self) -> list:
        return self.report.get("spans", [])

    def verify(self) -> list:
        """Differential twin per request shape: the one-shot
        ``top_k_mpds`` / ``top_k_nds`` on the same edge-list file."""
        from repro.core.mpds import top_k_mpds
        from repro.core.nds import top_k_nds
        from repro.graph.io import read_uncertain_edge_list

        graph = read_uncertain_edge_list(self.graph_path)
        checks = []
        for shape, body in sorted(self.first.items()):
            request = dict(
                item.split("=") for item in shape.split(",")
            )
            k = int(request["k"])
            if request["run"] == "mpds":
                twin = top_k_mpds(graph, k=k, theta=workloads.THETA,
                                  seed=workloads.STORE_SEED)
            else:
                twin = top_k_nds(graph, k=k,
                                 min_size=int(request["min_size"]),
                                 theta=workloads.THETA,
                                 seed=workloads.STORE_SEED)
            served = json.dumps(json.loads(body)["result"])
            checks.append({"shape": shape, "twin": "one-shot",
                           "match": served == json.dumps(twin.to_dict())})
        return checks

    def close(self) -> None:
        if self.daemon is not None:
            self.report = self.daemon.stop()
            self.daemon = None


WORKLOADS = {
    "cold-mpds": ColdMpds,
    "serve-warm": ServeWarm,
    "dynamic-stream": DynamicStream,
}


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
class Phase:
    """One timed closed loop: latencies with the host speed factor each
    ran at, failures, response digests."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies = []
        self.factors = []
        self.attempted = 0
        self.failed = 0
        #: timed wall, measured and in reference-host seconds
        self.wall = 0.0
        self.normalized_wall = 0.0
        self.request_ids = []
        self.digest = hashlib.sha256()

    def p50_ms(self) -> float:
        """Median latency in reference-host milliseconds."""
        return 1000.0 * statistics.median(
            latency / factor
            for latency, factor in zip(self.latencies, self.factors)
        )

    def throughput(self) -> float:
        """Completed requests per reference-host second."""
        return len(self.latencies) / self.normalized_wall


def run_phase(work, name, seconds, traced, ids, speed) -> Phase:
    """Send whole blocks of requests, stopping at the block boundary
    nearest to ``seconds`` of timed wall in reference-host seconds (see
    :mod:`hostspeed`); returns the phase record.

    A burst of reference-kernel samples follows every request; its time
    is left out of the timed wall, and each request is normalized by the
    bursts on either side of it.
    """
    phase = Phase(name)
    clock = hostspeed.Stopwatch(speed)
    clock.pause()
    clock.start()
    index = 0
    while index < work.count:
        request_id = next(ids)
        phase.request_ids.append(request_id)
        phase.attempted += 1
        began = perf_counter()
        try:
            body = work.request(index, request_id, traced)
            latency = perf_counter() - began
            digest = sha256(work.canonical(body))
            work.check(index, body, digest)
        except Exception:
            phase.failed += 1
            latency = None
            traceback.print_exc(file=sys.stderr)
        factor = clock.pause()
        if latency is not None:
            phase.latencies.append(latency)
            phase.factors.append(factor)
            phase.digest.update(digest)
        index += 1
        if index % work.block == 0:
            # in reference-host seconds, so that the number of blocks
            # does not depend on how fast the host runs
            elapsed = clock.normalized()
            per_block = elapsed * work.block / index
            if elapsed + per_block / 2 >= seconds:
                break
    clock.stop()
    phase.wall = clock.elapsed()
    phase.normalized_wall = clock.normalized()
    return phase


def counter_delta(before: dict, after: dict) -> dict:
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in SESSION_COUNTERS
    }


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, setup_spans, phase, counters, untraced_qps):
    """Per-layer metrics of the traced phase (see README.md)."""
    layers = tracing.summarize(spans)
    setup = tracing.summarize(setup_spans)

    def busy(name):
        return layers[name]["self_s"]

    def count(name, key):
        return layers[name]["counts"].get(key, 0)

    def run_count(name, key):
        # set-up included: warm traffic draws nothing, set-up draws once
        return count(name, key) + setup[name]["counts"].get(key, 0)

    exact_worlds = count("exact", "worlds")
    finalize_calls = layers["finalize"]["op_calls"]
    queries = layers["session"]["calls"]
    updates = layers["delta"]["calls"]
    reevaluated = counters["worlds_reevaluated"]
    handle = {
        span[tracing.REQUEST]: span[tracing.END] - span[tracing.START]
        for span in spans if span[tracing.LAYER] == "serve"
    }
    client = {
        span[tracing.REQUEST]: span[tracing.END] - span[tracing.START]
        for span in spans
        if span[tracing.LAYER] == "http" and span[tracing.OP] == "client"
    }
    overhead = [client[r] - handle[r] for r in client if r in handle]
    attributed = sum(entry["self_s"] for entry in layers.values())
    unattributed = phase.wall - attributed
    metrics = {
        "sampling.busy_s": busy("sampling"),
        "sampling.worlds": count("sampling", "worlds"),
        "store.busy_s": busy("store"),
        "store.draws": run_count("store", "draws"),
        "store.hits": counters["store_hits"],
        "store.mask_bytes": run_count("store", "mask_bytes"),
        "bound.busy_s": busy("bound"),
        "bound.worlds": count("bound", "worlds"),
        "bound.worlds_filtered": count("exact", "filtered"),
        "exact.busy_s": busy("exact"),
        "exact.worlds": exact_worlds,
        "exact.ms_per_world": (
            1000.0 * busy("exact") / exact_worlds if exact_worlds else 0.0
        ),
        "exact.replayed_worlds": count("exact", "replayed"),
        "finalize.busy_s": busy("finalize"),
        "finalize.calls": finalize_calls["mpds"] + finalize_calls["nds"],
        "finalize.mining_s": layers["finalize"]["op_s"]["mining"],
        "serialize.busy_s": busy("serialize"),
        "serialize.bytes": count("serialize", "bytes"),
        "session.self_s": busy("session"),
        "session.queries": queries,
        "session.eval_hits": counters["eval_hits"],
        "session.eval_hit_ratio": (
            counters["eval_hits"] / queries if queries else 0.0
        ),
        "session.waits": counters["store_waits"] + counters["eval_waits"],
        "serve.handle_ms.p50": 1000.0 * median_or_zero(list(handle.values())),
        "serve.errors": count("serve", "errors"),
        "http.busy_s": busy("http"),
        "http.overhead_ms.p50": 1000.0 * median_or_zero(overhead),
        "delta.busy_s": busy("delta"),
        "delta.columns_redrawn": count("delta", "columns_redrawn"),
        "delta.worlds_flipped": count("delta", "worlds_flipped"),
        "delta.worlds_reevaluated": reevaluated,
        "delta.reeval_ratio": (
            reevaluated / (updates * workloads.THETA) if updates else 0.0
        ),
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / phase.wall,
        "trace.overhead_frac": 1.0 - phase.throughput() / untraced_qps,
    }
    for name in ("sampling", "store", "bound", "exact", "finalize"):
        metrics[f"setup.{name}.busy_s"] = setup[name]["self_s"]
    return metrics


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> dict:
    """Run the benchmark, and the daemon it starts, on one CPU.

    The host speed factor is measured in this process, so it must run
    where the work runs; the vCPUs of a shared host change speed
    independently of each other.  One CPU is enough for a closed loop
    with one client and ``--workers 1``.  The highest-numbered CPU is
    taken, because the first one takes most device interrupts.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return {"nproc": len(allowed), "pinned_cpu": cpu}


def host_facts(cpus: dict) -> dict:
    import importlib.util

    import numpy

    from repro.core.measures import EdgeDensity
    from repro.engine.estimators import resolve_engine

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=30,
        )
        git_sha = done.stdout.strip() or None

    def tree_sha256(paths) -> str:
        digest = hashlib.sha256()
        for path in sorted(paths):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()

    return {
        **cpus,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine_auto_resolves_to": resolve_engine("auto", None, EdgeDensity()),
        "git_sha": git_sha,
        "source_sha256": tree_sha256((ROOT / "src").rglob("*.py")),
        "bench_sha256": tree_sha256(
            [*HERE.glob("*.py"), ROOT / "BENCHMARK.json"]
        ),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    recorder = tracing.Recorder() if trace else None
    work = WORKLOADS[workload_name](seed, recorder)
    speed = hostspeed.HostSpeed()
    setup_times = []
    setup_normalized = []
    patches = tracing.Patches()

    def wrap_layers():
        # in-process workloads are wrapped here; the daemon wraps itself
        if work.in_process:
            return tracing.install(recorder)
        return tracing.Patches()

    try:
        for rep in range(SETUP_REPS):
            work.close()
            traced_setup = trace and rep == SETUP_REPS - 1
            if traced_setup:
                patches = wrap_layers()
            clock = hostspeed.Stopwatch(speed)
            clock.pause()
            work.setup(1 + rep * SETUP_IDS, traced_setup, clock)
            clock.pause()
            clock.stop()
            patches.undo()
            setup_times.append(clock.elapsed())
            setup_normalized.append(clock.normalized())

        ids = itertools.count(1 + SETUP_REPS * SETUP_IDS)
        phases = [run_phase(work, "untraced", seconds, False, ids, speed)]
        if trace:
            # the same requests again (dynamic-stream: the same pool
            # passes), so the phases compare equal work
            before = work.counters()
            patches = wrap_layers()
            phases.append(
                run_phase(work, "traced", seconds, True, ids, speed)
            )
            patches.undo()
            counters = counter_delta(before, work.counters())
        peak_rss = work.peak_rss_mb()
        checks = work.verify()
    finally:
        patches.undo()
        work.close()

    untraced = phases[0]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failed += sum(1 for check in checks if not check["match"])
    digest = hashlib.sha256()
    for phase in phases:
        digest.update(phase.digest.digest())
    spans = None
    if trace:
        traced = phases[1]
        spans = recorder.spans + work.daemon_spans()
        setup_ids = set(range(1, 1 + SETUP_REPS * SETUP_IDS))
        timed_ids = set(traced.request_ids)
        metrics = layer_metrics(
            [s for s in spans if s[tracing.REQUEST] in timed_ids],
            [s for s in spans if s[tracing.REQUEST] in setup_ids],
            traced, counters, untraced.throughput(),
        )
        units = dict(PER_LAYER)
    else:
        # timings in reference-host units (see hostspeed.py)
        metrics = {
            "setup_s": statistics.median(setup_normalized),
            "latency_ms.p50": untraced.p50_ms(),
            "throughput_qps": untraced.throughput(),
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "measured_timings": {
            "setup_s": statistics.median(setup_times),
            "latency_ms.p50": 1000.0 * statistics.median(untraced.latencies),
            "throughput_qps": len(untraced.latencies) / untraced.wall,
        },
        "setup_times_s": setup_times,
        "setup_normalized_s": setup_normalized,
        "phases": [
            {"name": p.name, "attempted": p.attempted, "failed": p.failed,
             "wall_s": p.wall, "normalized_wall_s": p.normalized_wall,
             "latencies_s": p.latencies, "host_factors": p.factors}
            for p in phases
        ],
        "host_samples_s": speed.samples,
        "checks": checks,
        "digest": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    cpus = pin_to_one_cpu()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["host"] = host_facts(cpus)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    print("host:", json.dumps(record["host"], sort_keys=True))
    print("checks:", json.dumps(record["checks"]))
    print("digest:", record["digest"])
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root; src/repro is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))

    # the program's modules load before any set-up is timed
    import repro.core.mpds  # noqa: F401
    import repro.core.nds  # noqa: F401
    import repro.delta  # noqa: F401
    import repro.graph.io  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.session  # noqa: F401

    raise SystemExit(main())
