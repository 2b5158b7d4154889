"""``repro-serve``: a session-backed HTTP/JSON query daemon.

The :class:`repro.session.Session` API amortizes sampling and substrate
prep across queries -- but only inside one process invocation: warm
caching dies with the process, so every CLI call re-pays the draw.
:class:`ReproServer` keeps the sessions alive in a long-lived daemon:

* **registered graphs** -- uploaded as probabilistic edge lists (JSON
  ``edges`` triples or an ``edge_list`` text blob) or named bundled
  datasets (:func:`available_datasets`), each owning one warm
  :class:`Session`;
* **queries** -- top-k MPDS / NDS requests expressed in the existing
  :mod:`repro.specs` registry strings (``"mc:theta=160,seed=7"``,
  ``"clique:h=3"``), answered from the per-graph session caches and
  serialized over the wire via the :class:`SerializableResult`
  protocol, so responses are **byte-identical** to the equivalent
  one-shot ``top_k_mpds`` / ``top_k_nds`` call;
* an **admission layer** (:class:`AdmissionController`) in front of the
  sessions: concurrent identical seeded requests coalesce onto one
  world-store draw (single-flight -- later arrivals wait on the first
  draw instead of resampling; the session's ``store_waits`` /
  ``eval_waits`` counters are the ledger), heavy *cold* queries are
  routed onto the persistent worker pool, and a draining gate rejects
  new work during shutdown;
* ``/stats`` -- session cache counters per graph, admission counters,
  and per-endpoint latency histograms (:class:`LatencyHistogram`);
* **graceful shutdown** -- :meth:`ReproServer.shutdown` (or
  ``POST /shutdown``) stops admitting, drains in-flight queries, stops
  the listener, and closes every session (releasing world stores and
  published shared-memory segments).

Shadow checks: ``shadow_rate`` re-executes a deterministic fraction of
served seeded queries as one-shot ``top_k_mpds`` / ``top_k_nds`` calls,
which draw their worlds afresh in a closing session, and compares the
served answer -- often replayed from cached records -- byte-for-byte,
asserting continuously in production that the caches never drift from
a fresh draw (``shadow_checks`` / ``shadow_mismatches`` in ``/stats``).

HTTP surface (all JSON)::

    GET    /health            liveness + drain state
    GET    /datasets          names register_graph accepts as "dataset"
    GET    /graphs            registered graphs
    POST   /graphs            {"name": ..., "dataset": "karate"} or
                              {"name": ..., "edges": [[u, v, p], ...]} or
                              {"name": ..., "edge_list": "u v p\\n..."}
    DELETE /graphs/<name>     close + unregister
    POST   /query             {"graph": ..., "run": "mpds"|"nds",
                               "sampler": "mc:theta=160,seed=7",
                               "measure": "clique:h=3", "k": 3,
                               "dynamic": true, ...}
    POST   /graphs/<name>/update
                              {"updates": [[u, v, p], ...],
                               "inserts": [[u, v, p], ...],
                               "deletes": [[u, v], ...],
                               "timeout": 60}
    GET    /stats             counters + latency histograms
    POST   /shutdown          graceful drain + stop ({"timeout": 60})

Dynamic graphs: ``POST /graphs/<name>/update`` applies a
:class:`repro.delta.GraphDelta` to a live graph.  It rides the
admission controller's *exclusive* gate -- new queries pause (they are
not rejected), in-flight ones drain, the session updates surgically
(:meth:`Session.update`), then admissions resume.  Queries sent with
``"dynamic": true`` draw per-edge-substream stores that survive
updates with only the affected mask columns re-drawn; their responses
after an update are byte-identical to a fresh dynamic session on the
mutated graph (shadow checks are skipped for them -- the one-shot
functions draw continuous-stream worlds, which differ by design).

Start it with ``repro-serve`` (or ``python -m repro.serve``)::

    repro-serve --port 8321 --dataset karate
    curl -s -X POST localhost:8321/query \\
        -d '{"graph": "karate", "sampler": "mc:theta=64,seed=7", "k": 3}'
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cli import _workers_arg
from .core.results import ResultDict
from .graph.io import normalize_labels, parse_uncertain_edge_list
from .graph.uncertain import UncertainGraph
from .session import Session
from .specs import (
    build_measure,
    build_sampler,
    check_int_knob,
    sampler_store_key,
    split_sampler_spec,
)

#: theta * |E| above which a *cold* query is routed to the worker pool
DEFAULT_HEAVY_COST = 200_000

#: the keys a ``POST /query`` body may carry; any other key is a 400
QUERY_KEYS = frozenset({
    "graph", "run", "sampler", "theta", "seed", "measure", "k",
    "min_size", "engine", "workers", "enumerate_all", "per_world_limit",
    "dynamic",
})

#: the keys a ``POST /graphs/<name>/update`` body may carry
UPDATE_KEYS = frozenset({"updates", "inserts", "deletes", "timeout"})

#: the keys a ``POST /shutdown`` body may carry
SHUTDOWN_KEYS = frozenset({"timeout"})

#: per run, the body keys that map onto :class:`~repro.session.Query`
#: setters and onto the one-shot estimator's keyword arguments
_RUN_KNOBS = {
    "mpds": (("k", "top_k"), ("enumerate_all", "enumerate_all"),
             ("per_world_limit", "per_world_limit")),
    "nds": (("k", "top_k"), ("min_size", "min_size")),
}


# ----------------------------------------------------------------------
# named datasets
# ----------------------------------------------------------------------
def available_datasets() -> Tuple[str, ...]:
    """Dataset names ``POST /graphs`` accepts as ``{"dataset": ...}``:
    the bundled example graphs plus the fixture-backed SNAP loaders."""
    from . import datasets

    return tuple(
        sorted(("karate", "figure1") + datasets.available_real_datasets())
    )


def _load_named_dataset(name: str) -> UncertainGraph:
    from . import datasets

    if name == "karate":
        return datasets.karate_club_uncertain()
    if name == "figure1":
        return datasets.figure1_graph()
    if name in datasets.available_real_datasets():
        return datasets.load_real_dataset(name)
    raise ValueError(
        f"unknown dataset {name!r}; available: {sorted(available_datasets())}"
    )


def _uncertain_from_rows(rows: Sequence[Sequence]) -> UncertainGraph:
    """Build an :class:`UncertainGraph` from JSON ``[u, v, p]`` rows.

    Labels follow the edge-list file rule
    (:func:`repro.graph.io.normalize_labels`).
    """
    parsed: List[list] = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(
                f"malformed edge row {list(row)!r} (expected [u, v, p])"
            )
        parsed.append([row[0], row[1], float(row[2])])
    normalize_labels(parsed)
    graph = UncertainGraph()
    for u, v, p in parsed:
        graph.add_edge(u, v, p)
    return graph


def _delta_groups(body: dict) -> Dict[str, list]:
    """Normalize a ``POST .../update`` body into GraphDelta row groups.

    Labels follow the edge-list file rule over all groups together, so
    a delta addresses the same nodes a registered edge list produced.
    """
    groups: Dict[str, list] = {}
    for group, width in (("updates", 3), ("inserts", 3), ("deletes", 2)):
        rows = body.get(group)
        if rows is None:
            rows = []
        if not isinstance(rows, (list, tuple)):
            raise ValueError(
                f"{group!r} must be an array of edge rows, "
                f"got {type(rows).__name__}"
            )
        out = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                expected = "[u, v, p]" if width == 3 else "[u, v]"
                raise ValueError(
                    f"malformed {group} row {row!r} (expected {expected})"
                )
            out.append(list(row))
        groups[group] = out
    normalize_labels([row for rows in groups.values() for row in rows])
    return groups


def _check_body_keys(body: dict, what: str, accepted: frozenset) -> None:
    """Reject body keys outside ``accepted`` (a misspelt knob would
    otherwise fall back to its default silently)."""
    unknown = set(body) - accepted
    if unknown:
        raise _HTTPError(
            400,
            f"unknown {what} key(s) {sorted(unknown)}; "
            f"accepted: {sorted(accepted)}",
        )


def _body_timeout(body: dict) -> float:
    """``body["timeout"]`` in seconds (default 60): a finite,
    non-negative JSON number that is not a boolean."""
    timeout = body.get("timeout", 60.0)
    if (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        # false for NaN, infinities and integers beyond float range
        or not 0 <= timeout <= sys.float_info.max
    ):
        raise _HTTPError(
            400,
            f"'timeout' must be a finite, non-negative number of "
            f"seconds, got {timeout!r}",
        )
    return float(timeout)


def _uncertain_from_text(text: str) -> UncertainGraph:
    """Parse an ``edge_list`` text blob with the edge-list file rule."""
    return parse_uncertain_edge_list(text.splitlines())


# ----------------------------------------------------------------------
# latency histograms
# ----------------------------------------------------------------------
class LatencyHistogram:
    """Fixed geometric-bucket latency histogram (milliseconds).

    Buckets double from ``lowest_ms``; quantiles report the upper edge
    of the bucket holding the requested rank (exact min/max/mean are
    tracked separately), so memory is O(buckets) no matter how many
    observations a long-lived daemon records.
    """

    def __init__(self, lowest_ms: float = 0.05, buckets: int = 24) -> None:
        self.bounds_ms = tuple(
            lowest_ms * (2.0 ** i) for i in range(buckets)
        )
        self.counts = [0] * (buckets + 1)  # +1 overflow bucket
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0
        self._lock = threading.Lock()

    def observe(self, elapsed_ms: float) -> None:
        """Record one observation (thread-safe)."""
        index = 0
        for bound in self.bounds_ms:
            if elapsed_ms <= bound:
                break
            index += 1
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total_ms += elapsed_ms
            self.min_ms = min(self.min_ms, elapsed_ms)
            self.max_ms = max(self.max_ms, elapsed_ms)

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile in milliseconds."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            cumulative = 0
            for index, count in enumerate(self.counts):
                cumulative += count
                if cumulative >= rank and count:
                    if index >= len(self.bounds_ms):
                        return self.max_ms
                    return min(self.bounds_ms[index], self.max_ms)
            return self.max_ms

    def snapshot(self) -> dict:
        """Summary dict (count / mean / p50 / p99 / min / max, in ms)."""
        p50 = self.quantile(0.50)
        p99 = self.quantile(0.99)
        with self._lock:
            count = self.count
            return {
                "count": count,
                "mean_ms": (self.total_ms / count) if count else 0.0,
                "p50_ms": p50,
                "p99_ms": p99,
                "min_ms": self.min_ms if count else 0.0,
                "max_ms": self.max_ms,
            }


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class Draining(Exception):
    """Raised by :meth:`AdmissionController.admit` during shutdown."""


class AdmissionController:
    """Admission/queueing layer in front of the warm sessions.

    Three jobs:

    * **batching** -- concurrent identical seeded requests coalesce onto
      one world-store draw.  The mechanism lives in the thread-safe
      session (single-flight per draw key and per evaluation key); the
      controller exposes the warm/cold probe (:meth:`route` consults
      ``Session.has_store``) and the sessions' ``store_waits`` /
      ``eval_waits`` counters surface in ``/stats``;
    * **routing** -- a *cold* query whose estimated evaluation cost
      (``theta * |E|``) reaches ``heavy_cost`` is fanned onto the
      persistent worker pool (``workers`` -- ``"auto"`` sizes to the
      host); warm queries replay in-process, where they are cheapest;
    * **draining** -- :meth:`begin_drain` rejects new work while
      :meth:`wait_drained` lets in-flight queries finish, the heart of
      graceful shutdown; :meth:`exclusive` is the *reversible* variant
      (graph updates): new arrivals pause instead of being rejected,
      in-flight work drains, the exclusive section runs, admissions
      resume.
    """

    def __init__(
        self,
        workers: Union[int, str] = "auto",
        heavy_cost: int = DEFAULT_HEAVY_COST,
    ) -> None:
        self.workers = workers
        self.heavy_cost = heavy_cost
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._resume = threading.Condition(self._lock)
        self.draining = False
        self.paused = 0
        self.active = 0
        self.peak_active = 0
        self.admitted = 0
        self.rejected = 0
        self.heavy_routed = 0

    # -- in-flight tracking --------------------------------------------
    def admit(self) -> None:
        """Count one request in; raises :class:`Draining` once draining.

        While an :meth:`exclusive` section holds the gate, arrivals
        *block* here (they are admitted once the section ends) rather
        than being rejected -- an update is a pause, not a shutdown.
        """
        with self._lock:
            while self.paused and not self.draining:
                self._resume.wait()
            if self.draining:
                self.rejected += 1
                raise Draining("server is draining; no new work admitted")
            self.active += 1
            self.admitted += 1
            self.peak_active = max(self.peak_active, self.active)

    def release(self) -> None:
        """Count one request out (pairs every successful :meth:`admit`)."""
        with self._lock:
            self.active -= 1
            if self.active <= 0:
                self._drained.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting new work (idempotent); wakes paused arrivals
        so they observe the drain and reject instead of hanging."""
        with self._lock:
            self.draining = True
            self._resume.notify_all()

    def is_draining(self) -> bool:
        """Locked read of the drain flag (callers must not peek at the
        attribute directly -- it is owned by this controller's lock)."""
        with self._lock:
            return self.draining

    @staticmethod
    def check_timeout(timeout: Optional[float]) -> None:
        """Reject a drain ``timeout`` that is not ``None`` or a finite,
        non-negative number of seconds (a NaN deadline never passes, so
        the drain wait would spin)."""
        if timeout is not None and not 0 <= timeout <= sys.float_info.max:
            raise ValueError(
                f"timeout must be None or a finite, non-negative number "
                f"of seconds, got {timeout!r}"
            )

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request released (or timeout)."""
        self.check_timeout(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self.active > 0:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                if remaining is not None:
                    # Condition.wait rejects timeouts past TIMEOUT_MAX
                    remaining = min(remaining, threading.TIMEOUT_MAX)
                self._drained.wait(remaining)
            return True

    @contextmanager
    def exclusive(self, timeout: Optional[float] = None):
        """Pause admissions, drain in-flight work, run, resume.

        The graph-update gate: the body runs with zero queries in
        flight, while new arrivals block in :meth:`admit` (not
        rejected) and resume the moment the section exits.  Raises
        :class:`TimeoutError` if in-flight work does not drain in
        ``timeout`` seconds (admissions resume in that case too).
        The caller must **not** have admitted itself -- it would wait
        on its own drain.
        """
        self.check_timeout(timeout)
        with self._lock:
            self.paused += 1
        try:
            if not self.wait_drained(timeout):
                raise TimeoutError(
                    "timed out draining in-flight queries for an "
                    "exclusive section"
                )
            yield
        finally:
            with self._lock:
                self.paused -= 1
                if not self.paused:
                    self._resume.notify_all()

    # -- routing -------------------------------------------------------
    def route(
        self,
        session: Session,
        store_key: Optional[Tuple],
        theta: int,
        edges: int,
        requested: Optional[Union[int, str]] = None,
    ) -> Union[int, str]:
        """Pick the worker count for one query.

        An explicit request wins; a warm draw replays in-process; a
        heavy cold draw goes to the pool.
        """
        if requested is not None:
            return requested
        if store_key is not None and session.has_store(store_key):
            return 1
        if theta * max(edges, 1) >= self.heavy_cost:
            with self._lock:
                self.heavy_routed += 1
            return self.workers
        return 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "draining": self.draining,
                "paused": bool(self.paused),
                "active": self.active,
                "peak_active": self.peak_active,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "heavy_routed": self.heavy_routed,
                "heavy_cost": self.heavy_cost,
                "pool_workers": self.workers,
            }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def encode_reply(payload: dict) -> bytes:
    """The response body: ``json.dumps(payload).encode()``, byte for byte.

    A top-level :class:`~repro.core.results.ResultDict` value (a
    result's ``to_dict()``) is written as its result's ``to_json()``
    text instead of being encoded again; a session's MPDS results reuse
    their evaluation entry's cached candidate pieces there, so a warm
    reply encodes only its small fields.  The splice joins the fields
    with ``json.dumps``'s default separators in one join, so the result
    text is copied once; a payload with a non-string key is encoded
    whole.
    """
    if not (
        any(type(value) is ResultDict for value in payload.values())
        and all(type(key) is str for key in payload)
    ):
        return json.dumps(payload).encode("utf-8")
    parts = []
    for key, value in payload.items():
        parts += (", ", json.dumps(key), ": ", (
            value.result.to_json()
            if type(value) is ResultDict
            else json.dumps(value)
        ))
    parts[0] = "{"  # the payload is not empty: it holds a ResultDict
    parts.append("}")
    return "".join(parts).encode("utf-8")


class _HTTPError(Exception):
    """A routed error with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: per request thread: ``replied``, set once the handler has written
#: its reply (a ``POST /shutdown`` stops the listener only after that)
_REQUEST = threading.local()
#: how long a shutdown waits for its own reply to be written
REPLY_WAIT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.repro.quiet:  # pragma: no cover - boot logging
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _dispatch(self, method: str) -> None:
        length = (self.headers.get("Content-Length") or "0").strip()
        if not (length.isascii() and length.isdigit()):
            # the body's extent is unknown: answer, then drop the
            # connection rather than parse its bytes as a next request
            self.close_connection = True
            self._reply(400, {"error": "invalid Content-Length"})
            return
        try:
            raw = self.rfile.read(int(length))
        except OSError:  # pragma: no cover - client gone
            return
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._reply(400, {"error": "request body is not JSON"})
                return
            if not isinstance(body, dict):
                self._reply(400, {"error": "request body must be an object"})
                return
        else:
            body = {}
        _REQUEST.replied = replied = threading.Event()
        status, payload = self.server.repro.handle(method, self.path, body)
        self._reply(status, payload)
        replied.set()

    def _reply(self, status: int, payload: dict) -> None:
        data = encode_reply(payload)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # pragma: no cover - client hung up mid-reply

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class _GraphEntry:
    """One registered graph and its warm session."""

    __slots__ = ("name", "graph", "session", "source")

    def __init__(self, name, graph, session, source) -> None:
        self.name = name
        self.graph = graph
        self.session = session
        self.source = source

    def describe(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
        }


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class ReproServer:
    """Long-lived query daemon: graphs, warm sessions, admission, stats.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` -- the test/benchmark harnesses do).
    engine:
        Default engine for every session (queries may override).
    workers:
        Worker-pool size heavy cold queries are routed to (``"auto"``
        sizes to the host; on a 1-core host that resolves to a
        sequential run).
    shadow_rate:
        Fraction (0..1) of served seeded queries re-executed on a fresh
        draw through the one-shot functions and compared
        byte-for-byte -- the shadow check.  Deterministic (an accumulator, not a
        coin), so ``shadow_rate=1.0`` checks every query.
    heavy_cost:
        ``theta * |E|`` admission threshold for pool routing.
    quiet:
        Suppress per-request access logging (tests and benchmarks).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: str = "auto",
        workers: Union[int, str] = "auto",
        shadow_rate: float = 0.0,
        heavy_cost: int = DEFAULT_HEAVY_COST,
        quiet: bool = True,
    ) -> None:
        if not 0.0 <= float(shadow_rate) <= 1.0:
            raise ValueError(
                f"shadow_rate must be in [0, 1], got {shadow_rate!r}"
            )
        self.engine = engine
        self.quiet = quiet
        self.shadow_rate = float(shadow_rate)
        self._shadow_acc = 0.0
        self.admission = AdmissionController(
            workers=workers, heavy_cost=heavy_cost
        )
        self._lock = threading.RLock()
        self._graphs: Dict[str, _GraphEntry] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self.stats = {
            "requests_total": 0,
            "errors_total": 0,
            "queries_served": 0,
            "graphs_registered": 0,
            "updates_applied": 0,
            "shadow_checks": 0,
            "shadow_mismatches": 0,
        }
        self._started = time.monotonic()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.repro = self
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def shutdown(self, timeout: float = 60.0) -> bool:
        """Graceful shutdown: drain in-flight queries, stop, close.

        Stops admitting new work, waits up to ``timeout`` seconds for
        every in-flight query to finish, stops the listener, and closes
        every session (releasing cached world stores and published
        shared-memory segments).  Idempotent.  Returns ``True`` when
        the drain completed before the timeout; a NaN, infinite or
        negative ``timeout`` raises ``ValueError`` before anything stops.
        """
        self.admission.check_timeout(timeout)
        self.admission.begin_drain()
        drained = self.admission.wait_drained(timeout)
        with self._lock:
            if self._closed:
                return drained
            self._closed = True
        if self._thread is not None:
            # only meaningful once serve_forever is looping -- calling
            # it on a never-started server blocks forever
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
        self._httpd.server_close()
        with self._lock:
            entries = list(self._graphs.values())
            self._graphs.clear()
        for entry in entries:
            entry.session.close()
        return drained

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- graph registry ------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: Optional[UncertainGraph] = None,
        dataset: Optional[str] = None,
        edges: Optional[Sequence[Sequence]] = None,
        edge_list: Optional[str] = None,
    ) -> dict:
        """Register one graph under ``name`` with a fresh warm session.

        Exactly one source must be given: an :class:`UncertainGraph`
        instance (programmatic callers), a bundled ``dataset`` name, a
        JSON-style ``edges`` triple list, or an ``edge_list`` text blob
        in the ``u v p`` file format.
        """
        if not isinstance(name, str) or not name.strip():
            raise _HTTPError(400, "graph name must be a non-empty string")
        name = name.strip()
        if "/" in name:
            raise _HTTPError(400, f"graph name {name!r} may not contain '/'")
        sources = [
            source for source in (graph, dataset, edges, edge_list)
            if source is not None
        ]
        if len(sources) != 1:
            raise _HTTPError(
                400,
                "exactly one of dataset / edges / edge_list is required",
            )
        try:
            if dataset is not None:
                graph = _load_named_dataset(str(dataset))
                source = f"dataset:{dataset}"
            elif edges is not None:
                graph = _uncertain_from_rows(edges)
                source = "upload:edges"
            elif edge_list is not None:
                graph = _uncertain_from_text(str(edge_list))
                source = "upload:edge_list"
            else:
                source = "upload:graph"
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, str(exc))
        session = Session(graph, engine=self.engine)
        with self._lock:
            if name in self._graphs:
                session.close()
                raise _HTTPError(409, f"graph {name!r} already registered")
            entry = _GraphEntry(name, graph, session, source)
            self._graphs[name] = entry
            self.stats["graphs_registered"] += 1
        return entry.describe()

    def close_graph(self, name: str) -> dict:
        """Close and unregister one graph's session."""
        with self._lock:
            entry = self._graphs.pop(name, None)
        if entry is None:
            raise _HTTPError(404, f"no graph registered as {name!r}")
        entry.session.close()
        return {"closed": name}

    def _entry(self, name) -> _GraphEntry:
        if not isinstance(name, str):
            raise _HTTPError(400, "request must name a registered 'graph'")
        with self._lock:
            entry = self._graphs.get(name)
        if entry is None:
            raise _HTTPError(
                404,
                f"no graph registered as {name!r}; register it via "
                "POST /graphs",
            )
        return entry

    # -- request handling ----------------------------------------------
    def handle(self, method: str, path: str, body: dict):
        """Route one request; returns ``(status, payload)``.

        Every request is timed into its endpoint's latency histogram;
        spec/validation errors surface as HTTP 400 with the registry's
        context-prefixed message, draining as 503.
        """
        start = time.perf_counter()
        endpoint = self._endpoint_label(method, path)
        with self._lock:
            self.stats["requests_total"] += 1
        try:
            status, payload = self._route(method, path, body)
        except _HTTPError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Draining as exc:
            status, payload = 503, {"error": str(exc)}
        except (ValueError, TypeError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"internal error: {exc}"}
        if status >= 400:
            with self._lock:
                self.stats["errors_total"] += 1
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._histogram(endpoint).observe(elapsed_ms)
        return status, payload

    def _endpoint_label(self, method: str, path: str) -> str:
        path = path.split("?", 1)[0]
        if path.startswith("/graphs/"):
            path = (
                "/graphs/{name}/update"
                if path.rstrip("/").endswith("/update")
                else "/graphs/{name}"
            )
        return f"{method} {path}"

    def _histogram(self, endpoint: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                histogram = self._histograms[endpoint] = LatencyHistogram()
            return histogram

    def _route(self, method: str, path: str, body: dict):
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/health":
                with self._lock:
                    graphs = len(self._graphs)
                return 200, {
                    "status": "ok",
                    "graphs": graphs,
                    "draining": self.admission.snapshot()["draining"],
                }
            if path == "/datasets":
                return 200, {"datasets": list(available_datasets())}
            if path == "/graphs":
                with self._lock:
                    entries = [e.describe() for e in self._graphs.values()]
                return 200, {"graphs": entries}
            if path == "/stats":
                return 200, self.stats_payload()
        elif method == "POST":
            if path == "/graphs":
                self.admission.admit()
                try:
                    described = self.register_graph(
                        body.get("name"),
                        dataset=body.get("dataset"),
                        edges=body.get("edges"),
                        edge_list=body.get("edge_list"),
                    )
                finally:
                    self.admission.release()
                return 201, described
            if path == "/query":
                self.admission.admit()
                try:
                    return 200, self._handle_query(body)
                finally:
                    self.admission.release()
            if path.startswith("/graphs/") and path.endswith("/update"):
                # deliberately NOT admitted: the update drains admitted
                # work via the exclusive gate and would deadlock on its
                # own admission
                name = path[len("/graphs/"):-len("/update")]
                return 200, self._handle_update(name, body)
            if path == "/shutdown":
                return self._handle_shutdown(body)
        elif method == "DELETE":
            if path.startswith("/graphs/"):
                self.admission.admit()
                try:
                    return 200, self.close_graph(path[len("/graphs/"):])
                finally:
                    self.admission.release()
        raise _HTTPError(404, f"no route for {method} {path}")

    def _handle_shutdown(self, body: dict):
        """Begin draining immediately; finish shutdown off-thread once
        the acknowledgement is written to this client (within
        ``REPLY_WAIT_S``), so the process cannot exit mid-reply."""
        _check_body_keys(body, "shutdown", SHUTDOWN_KEYS)
        timeout = _body_timeout(body)
        self.admission.begin_drain()
        snapshot = self.admission.snapshot()
        replied = getattr(_REQUEST, "replied", None)

        def stop() -> None:
            if replied is not None:
                replied.wait(REPLY_WAIT_S)
            self.shutdown(timeout)

        threading.Thread(
            target=stop, name="repro-serve-shutdown", daemon=True
        ).start()
        return 202, {
            "draining": True,
            "in_flight": snapshot["active"],
        }

    # -- graph updates -------------------------------------------------
    def _handle_update(self, name: str, body: dict) -> dict:
        """Apply a :class:`repro.delta.GraphDelta` to a live graph.

        Rides the admission controller's exclusive gate: queries
        arriving during the update block (they are not rejected) while
        in-flight ones drain, then the session updates surgically
        (dynamic stores keep their unflipped worlds) and admissions
        resume.  A drain that exceeds ``body["timeout"]`` (default 60s)
        returns 503 with nothing applied.
        """
        from .delta import GraphDelta

        _check_body_keys(body, "update", UPDATE_KEYS)
        timeout = _body_timeout(body)
        entry = self._entry(name)
        delta = GraphDelta(**_delta_groups(body))
        if delta.empty:
            raise _HTTPError(
                400,
                "update body names no edges; provide 'updates', "
                "'inserts' and/or 'deletes'",
            )
        if self.admission.is_draining():
            raise Draining("server is draining; no updates accepted")
        try:
            with self.admission.exclusive(timeout):
                try:
                    summary = entry.session.update(delta)
                except KeyError as exc:
                    raise _HTTPError(400, str(exc))
        except TimeoutError as exc:
            raise _HTTPError(503, str(exc))
        with self._lock:
            self.stats["updates_applied"] += 1
        return dict({"graph": entry.name}, **summary)

    # -- queries -------------------------------------------------------
    def _handle_query(self, body: dict) -> dict:
        _check_body_keys(body, "query", QUERY_KEYS)
        for flag in ("dynamic", "enumerate_all"):
            if flag in body and not isinstance(body[flag], bool):
                raise _HTTPError(
                    400, f"query {flag!r} must be a JSON boolean, "
                    f"got {body[flag]!r}"
                )
        entry = self._entry(body.get("graph"))
        mode = body.get("run", "mpds")
        if mode not in ("mpds", "nds"):
            raise _HTTPError(
                400, f"unknown run {mode!r} (expected 'mpds' or 'nds')"
            )
        kind, theta, seed, params = split_sampler_spec(
            body.get("sampler", "mc")
        )
        # spec-carried knobs win over body keys, the CLI's precedence
        if theta is None:
            theta = check_int_knob(
                "query", "theta", body.get("theta"), positive=True
            )
        if seed is None:
            seed = check_int_knob("query", "seed", body.get("seed"))
        if theta is None:
            theta = 160 if mode == "mpds" else 640
        measure_spec = body.get("measure")
        k = body.get("k", 1)
        engine = body.get("engine", self.engine)
        dynamic = body.get("dynamic", False)

        session = entry.session
        store_key = (
            sampler_store_key(kind, params, theta, seed, dynamic)
            if seed is not None
            else None
        )
        cold = store_key is None or not session.has_store(store_key)
        # the session's index counts edges in O(1); every query builds it
        workers = self.admission.route(
            session, store_key, theta, session.indexed.m, body.get("workers"),
        )

        query = session.query().sampler(
            kind, theta=theta, seed=seed, **params
        )
        if dynamic:
            query.dynamic()
        query.measure(build_measure(measure_spec))
        # the run's knobs the body sets, validated by the builder; the
        # shadow twin gets exactly these and the same defaults otherwise
        knobs = {}
        for key, setter in _RUN_KNOBS[mode]:
            if key in body:
                getattr(query, setter)(body[key])
                knobs[key] = body[key]
        query.engine(engine)
        if workers not in (None, 1):
            query.workers(workers)
        started = time.perf_counter()
        result = query.mpds() if mode == "mpds" else query.nds()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._lock:
            self.stats["queries_served"] += 1

        payload = {
            "graph": entry.name,
            "run": mode,
            "sampler": {
                "kind": kind, "params": params,
                "theta": theta, "seed": seed,
            },
            "measure": measure_spec or "edge",
            "k": k,
            "cold_draw": cold,
            "dynamic": dynamic,
            "workers": workers if workers is not None else 1,
            "elapsed_ms": elapsed_ms,
            "result": result.to_dict(),
        }
        # dynamic draws are a distinct sampling scheme: the one-shot
        # twin draws continuous-stream worlds, so shadowing is skipped
        shadow = (
            None
            if dynamic
            else self._maybe_shadow(
                entry, mode, kind, params, theta, seed, measure_spec,
                knobs, engine, result,
            )
        )
        if shadow is not None:
            payload["shadow"] = shadow
        return payload

    # -- shadow rollout checks -----------------------------------------
    def _maybe_shadow(
        self, entry, mode, kind, params, theta, seed, measure_spec, knobs,
        engine, result,
    ) -> Optional[dict]:
        """Re-run a deterministic fraction of seeded queries on a fresh
        draw and compare byte-for-byte.

        The served result may be replayed from the session's cached
        store and records; the twin is a one-shot ``top_k_mpds`` /
        ``top_k_nds`` call that samples the same seed afresh in its own
        closing session.  A mismatch means a cache drifted from the
        draw it claims to hold.
        """
        if self.shadow_rate <= 0.0 or seed is None:
            return None
        with self._lock:
            self._shadow_acc += self.shadow_rate
            if self._shadow_acc < 1.0:
                return None
            self._shadow_acc -= 1.0
        from .core.mpds import top_k_mpds
        from .core.nds import top_k_nds

        measure = build_measure(measure_spec)
        sampler = (
            None
            if kind == "mc" and not params
            else build_sampler(kind, entry.graph, seed, **params)
        )
        twin = (top_k_mpds if mode == "mpds" else top_k_nds)(
            entry.graph, theta=theta, measure=measure, sampler=sampler,
            seed=seed, engine=engine, **knobs,
        )
        match = twin.to_dict() == result.to_dict()
        with self._lock:
            self.stats["shadow_checks"] += 1
            if not match:
                self.stats["shadow_mismatches"] += 1
        if not match:  # pragma: no cover - the identity contract holds
            sys.stderr.write(
                f"repro-serve SHADOW MISMATCH: graph={entry.name!r} "
                f"run={mode} sampler={kind}:theta={theta},seed={seed}\n"
            )
        return {"checked": True, "match": match}

    # -- stats ---------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``/stats`` document: counters, sessions, histograms."""
        with self._lock:
            counters = dict(self.stats)
            entries = list(self._graphs.values())
            histograms = dict(self._histograms)
        sessions = {}
        coalesced = 0
        for entry in entries:
            snapshot = entry.session.stats_snapshot()
            coalesced += snapshot["store_waits"] + snapshot["eval_waits"]
            sessions[entry.name] = dict(entry.describe(), **snapshot)
        admission = self.admission.snapshot()
        admission["coalesced_waits"] = coalesced
        return {
            "uptime_s": time.monotonic() - self._started,
            "server": dict(
                counters,
                shadow_rate=self.shadow_rate,
                engine=self.engine,
            ),
            "admission": admission,
            "sessions": sessions,
            "latency_ms": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in sorted(histograms.items())
            },
        }


# ----------------------------------------------------------------------
# CLI entry (`repro-serve`, `python -m repro.serve`, `repro-mpds serve`)
# ----------------------------------------------------------------------
def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the daemon's flags (shared with the ``repro-mpds serve``
    subcommand)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one)",
    )
    parser.add_argument(
        "--graph", action="append", default=None, metavar="NAME=PATH",
        help="register a probabilistic edge-list file at boot; repeatable",
    )
    parser.add_argument(
        "--dataset", action="append", default=None, metavar="NAME",
        help="register a bundled dataset at boot (see GET /datasets); "
        "repeatable",
    )
    parser.add_argument(
        "--engine", choices=("auto", "python", "vectorized", "jit"),
        default="auto",
        help="default possible-world engine ('jit' is an alias of "
        "'vectorized'; see repro.engine)",
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default="auto", metavar="N|auto",
        help="worker pool heavy cold queries are routed to",
    )
    parser.add_argument(
        "--shadow-rate", type=float, default=0.0, metavar="RATE",
        help="fraction of seeded queries re-checked against the one-shot "
        "path (0..1; deterministic)",
    )
    parser.add_argument(
        "--heavy-cost", type=int, default=DEFAULT_HEAVY_COST,
        metavar="COST",
        help="theta*|E| threshold above which a cold query uses the pool",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Session-backed MPDS/NDS query daemon (HTTP/JSON) with "
            "admission batching"
        ),
    )
    add_serve_arguments(parser)
    return parser


def run_serve_command(args: argparse.Namespace) -> int:
    """Boot a server from parsed arguments and serve until shutdown."""
    from .graph.io import read_uncertain_edge_list

    try:
        server = ReproServer(
            host=args.host, port=args.port, engine=args.engine,
            workers=args.workers, shadow_rate=args.shadow_rate,
            heavy_cost=args.heavy_cost, quiet=False,
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        for name in args.dataset or ():
            server.register_graph(name, dataset=name)
        for spec in args.graph or ():
            name, eq, path = spec.partition("=")
            if not eq or not name or not path:
                raise _HTTPError(
                    400, f"--graph expects NAME=PATH, got {spec!r}"
                )
            server.register_graph(
                name, graph=read_uncertain_edge_list(path)
            )
    except (_HTTPError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        server.shutdown(timeout=0)
        return 2
    server.start()
    print(f"repro-serve listening on {server.url}", flush=True)
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("\ndraining in-flight queries ...", flush=True)
    finally:
        server.shutdown()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_serve_command(make_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
