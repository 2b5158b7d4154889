"""Tests for the ``repro-serve`` daemon (:mod:`repro.serve`).

The load-bearing contracts:

* register/query round-trips are **byte-identical** to the one-shot
  ``top_k_mpds`` / ``top_k_nds`` calls they stand in for;
* concurrent identical seeded queries coalesce onto **one** world-store
  draw (single-flight), proven by the session's counters;
* graceful shutdown drains in-flight queries before closing sessions,
  while new arrivals are rejected with 503;
* the shadow rollout check re-runs a deterministic fraction of served
  queries through the legacy path and records the comparison.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.mpds import top_k_mpds
from repro.core.nds import top_k_nds
from repro.datasets import figure1_graph, karate_club_uncertain
from repro.serve import (
    AdmissionController,
    Draining,
    LatencyHistogram,
    ReproServer,
    _uncertain_from_rows,
    _uncertain_from_text,
    _workers_arg,
    available_datasets,
    encode_reply,
    make_parser,
)


@pytest.fixture
def server():
    srv = ReproServer(port=0)
    srv.register_graph("fig1", graph=figure1_graph())
    yield srv
    srv.shutdown(timeout=10)


def _query(server, body, expect=200):
    status, payload = server.handle("POST", "/query", body)
    assert status == expect, payload
    return payload


# ----------------------------------------------------------------------
# round-trip byte-identity with the one-shot functions
# ----------------------------------------------------------------------
class TestRoundTripIdentity:
    def test_mpds_byte_identical_to_one_shot(self, server):
        payload = _query(server, {
            "graph": "fig1", "sampler": "mc:theta=1500,seed=3", "k": 2,
        })
        twin = top_k_mpds(figure1_graph(), k=2, theta=1500, seed=3)
        assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
            twin.to_dict(), sort_keys=True
        )

    def test_nds_byte_identical_to_one_shot(self, server):
        payload = _query(server, {
            "graph": "fig1", "run": "nds",
            "sampler": "mc:theta=1500,seed=3", "k": 2, "min_size": 2,
        })
        twin = top_k_nds(
            figure1_graph(), k=2, min_size=2, theta=1500, seed=3
        )
        assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
            twin.to_dict(), sort_keys=True
        )

    def test_measure_spec_and_warm_replay(self, server):
        body = {
            "graph": "fig1", "sampler": "mc:theta=800,seed=5",
            "measure": "clique:h=3", "k": 1,
        }
        cold = _query(server, body)
        warm = _query(server, body)
        assert cold["cold_draw"] is True
        assert warm["cold_draw"] is False
        assert cold["result"] == warm["result"]
        twin = top_k_mpds(
            figure1_graph(), k=1, theta=800, seed=5,
            measure=__import__(
                "repro.specs", fromlist=["build_measure"]
            ).build_measure("clique:h=3"),
        )
        assert warm["result"] == twin.to_dict()

    def test_unseeded_queries_never_cache(self, server):
        body = {"graph": "fig1", "sampler": "mc:theta=64"}
        first = _query(server, body)
        second = _query(server, body)
        assert first["cold_draw"] and second["cold_draw"]
        stats = server.stats_payload()
        assert stats["sessions"]["fig1"]["stores_built"] == 0


# ----------------------------------------------------------------------
# single-flight coalescing
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_queries_one_draw(self, server):
        n = 6
        body = {"graph": "fig1", "sampler": "mc:theta=512,seed=9", "k": 2}
        barrier = threading.Barrier(n)
        results = []

        def fire():
            barrier.wait()
            results.append(server.handle("POST", "/query", dict(body)))

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results) == n
        payloads = []
        for status, payload in results:
            assert status == 200, payload
            payloads.append(payload["result"])
        # every response byte-identical...
        reference = json.dumps(payloads[0], sort_keys=True)
        assert all(
            json.dumps(p, sort_keys=True) == reference for p in payloads
        )
        # ...and the session counters prove exactly ONE draw happened
        session = server.stats_payload()["sessions"]["fig1"]
        assert session["stores_built"] == 1
        assert session["queries"] == n
        # the other n-1 arrivals were served from the coalesced draw:
        # a cache hit, a wait on the in-flight draw, or an eval reuse
        reused = (
            session["store_hits"] + session["store_waits"]
            + session["eval_hits"] + session["eval_waits"]
        )
        assert reused >= n - 1

    def test_distinct_seeds_draw_separately(self, server):
        for seed in (1, 2, 3):
            _query(server, {
                "graph": "fig1", "sampler": f"mc:theta=64,seed={seed}",
            })
        assert server.stats_payload()["sessions"]["fig1"][
            "stores_built"
        ] == 3


# ----------------------------------------------------------------------
# admission: routing + draining
# ----------------------------------------------------------------------
class TestAdmission:
    def test_route_explicit_request_wins(self):
        ctl = AdmissionController(workers=4, heavy_cost=10)
        srv = ReproServer(port=0)
        try:
            srv.register_graph("g", graph=figure1_graph())
            session = srv._graphs["g"].session
            assert ctl.route(session, None, 100, 100, requested=2) == 2
        finally:
            srv.shutdown(timeout=5)

    def test_route_heavy_cold_goes_to_pool(self, server):
        ctl = AdmissionController(workers=4, heavy_cost=100)
        session = server._graphs["fig1"].session
        assert ctl.route(session, ("nope",), 64, 3) == 4
        assert ctl.snapshot()["heavy_routed"] == 1
        # cheap cold stays in-process
        ctl_cheap = AdmissionController(workers=4, heavy_cost=10**9)
        assert ctl_cheap.route(session, ("nope",), 64, 3) == 1

    def test_route_warm_replays_in_process(self, server):
        _query(server, {"graph": "fig1", "sampler": "mc:theta=64,seed=4"})
        session = server._graphs["fig1"].session
        key = next(iter(session._stores))
        ctl = AdmissionController(workers=4, heavy_cost=1)
        assert ctl.route(session, key, 64, 3) == 1
        assert ctl.snapshot()["heavy_routed"] == 0

    def test_is_draining_is_a_locked_accessor(self):
        """Callers must read the drain flag through the controller's own
        lock, never through a foreign lock -- the LOCK201 finding
        repro-lint surfaced in the update handler."""
        ctl = AdmissionController()
        assert ctl.is_draining() is False
        ctl.begin_drain()
        assert ctl.is_draining() is True

    def test_admit_release_and_drain(self):
        ctl = AdmissionController()
        ctl.admit()
        ctl.admit()
        assert ctl.snapshot()["active"] == 2
        ctl.begin_drain()
        with pytest.raises(Draining):
            ctl.admit()
        assert ctl.wait_drained(timeout=0.01) is False
        ctl.release()
        ctl.release()
        assert ctl.wait_drained(timeout=1.0) is True
        snapshot = ctl.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["peak_active"] == 2

    def test_shutdown_drains_in_flight_queries(self):
        srv = ReproServer(port=0)
        srv.register_graph("g", graph=figure1_graph())
        release = threading.Event()
        original = srv._handle_query

        def slow_query(body):
            assert release.wait(10.0)
            return original(body)

        srv._handle_query = slow_query
        outcomes = {}

        def fire():
            outcomes["query"] = srv.handle("POST", "/query", {
                "graph": "g", "sampler": "mc:theta=32,seed=1",
            })

        worker = threading.Thread(target=fire)
        worker.start()
        deadline = time.monotonic() + 5.0
        while srv.admission.snapshot()["active"] < 1:
            assert time.monotonic() < deadline, "query never admitted"
            time.sleep(0.005)

        shut = threading.Thread(
            target=lambda: outcomes.update(drained=srv.shutdown(10.0))
        )
        shut.start()
        deadline = time.monotonic() + 5.0
        while not srv.admission.snapshot()["draining"]:
            assert time.monotonic() < deadline, "drain never began"
            time.sleep(0.005)

        # new work is rejected while the in-flight query still runs
        status, payload = srv.handle("POST", "/query", {
            "graph": "g", "sampler": "mc:theta=32,seed=2",
        })
        assert status == 503
        assert "draining" in payload["error"]
        assert outcomes.get("query") is None  # still in flight

        release.set()
        worker.join(timeout=10.0)
        shut.join(timeout=10.0)
        status, payload = outcomes["query"]
        assert status == 200, payload  # the in-flight query completed
        assert outcomes["drained"] is True

    def test_shutdown_idempotent_and_closes_sessions(self):
        srv = ReproServer(port=0)
        srv.register_graph("g", graph=figure1_graph())
        session = srv._graphs["g"].session
        assert srv.shutdown(timeout=5) is True
        assert srv.shutdown(timeout=5) is True  # second call is a no-op
        assert not session._stores  # caches released


# ----------------------------------------------------------------------
# shadow rollout checks
# ----------------------------------------------------------------------
class TestShadow:
    def test_shadow_rate_validated(self):
        with pytest.raises(ValueError, match="shadow_rate"):
            ReproServer(port=0, shadow_rate=1.5)

    def test_full_shadow_checks_every_seeded_query(self):
        srv = ReproServer(port=0, shadow_rate=1.0)
        try:
            srv.register_graph("g", graph=figure1_graph())
            for run in ("mpds", "nds"):
                payload = _query(srv, {
                    "graph": "g", "run": run,
                    "sampler": "mc:theta=400,seed=6", "k": 2,
                })
                assert payload["shadow"] == {
                    "checked": True, "match": True,
                }
            stats = srv.stats_payload()["server"]
            assert stats["shadow_checks"] == 2
            assert stats["shadow_mismatches"] == 0
        finally:
            srv.shutdown(timeout=5)

    def test_fractional_shadow_is_deterministic(self):
        srv = ReproServer(port=0, shadow_rate=0.5)
        try:
            srv.register_graph("g", graph=figure1_graph())
            checked = [
                "shadow" in _query(srv, {
                    "graph": "g", "sampler": "mc:theta=32,seed=1",
                })
                for _ in range(4)
            ]
            # accumulator fires on every 2nd query -- no randomness
            assert checked == [False, True, False, True]
        finally:
            srv.shutdown(timeout=5)

    def test_unseeded_queries_never_shadowed(self):
        srv = ReproServer(port=0, shadow_rate=1.0)
        try:
            srv.register_graph("g", graph=figure1_graph())
            payload = _query(srv, {"graph": "g", "sampler": "mc:theta=32"})
            assert "shadow" not in payload
        finally:
            srv.shutdown(timeout=5)


# ----------------------------------------------------------------------
# graph registry + uploads
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_datasets_include_bundled(self):
        names = available_datasets()
        assert "karate" in names and "figure1" in names

    def test_register_dataset_and_duplicate_409(self, server):
        status, payload = server.handle(
            "POST", "/graphs", {"name": "karate", "dataset": "karate"}
        )
        assert status == 201
        assert payload["nodes"] == 34 and payload["edges"] == 78
        status, payload = server.handle(
            "POST", "/graphs", {"name": "karate", "dataset": "karate"}
        )
        assert status == 409

    def test_register_requires_exactly_one_source(self, server):
        status, payload = server.handle("POST", "/graphs", {"name": "x"})
        assert status == 400
        status, payload = server.handle("POST", "/graphs", {
            "name": "x", "dataset": "karate", "edges": [[0, 1, 0.5]],
        })
        assert status == 400

    def test_register_rejects_bad_names(self, server):
        for name in ("", "   ", None, "a/b"):
            status, _ = server.handle(
                "POST", "/graphs", {"name": name, "dataset": "karate"}
            )
            assert status == 400

    def test_upload_edges_round_trip(self, server):
        status, payload = server.handle("POST", "/graphs", {
            "name": "tri",
            "edges": [[0, 1, 0.9], [1, 2, 0.8], [0, 2, 0.7]],
        })
        assert status == 201
        assert payload == {
            "name": "tri", "source": "upload:edges",
            "nodes": 3, "edges": 3,
        }
        result = _query(server, {
            "graph": "tri", "sampler": "mc:theta=600,seed=2",
        })["result"]
        assert result["top"][0]["nodes"] == [0, 1, 2]

    def test_upload_edge_list_text(self, server):
        status, payload = server.handle("POST", "/graphs", {
            "name": "txt",
            "edge_list": "# comment\nA B 0.9\nB C 0.8\n",
        })
        assert status == 201
        assert payload["nodes"] == 3 and payload["edges"] == 2

    def test_upload_rejects_malformed(self, server):
        status, payload = server.handle("POST", "/graphs", {
            "name": "bad", "edges": [[0, 1]],
        })
        assert status == 400
        assert "malformed edge row" in payload["error"]
        status, payload = server.handle("POST", "/graphs", {
            "name": "bad", "edges": [[0, 0, 0.5]],  # self-loop
        })
        assert status == 400

    def test_delete_graph(self, server):
        status, payload = server.handle("DELETE", "/graphs/fig1", {})
        assert status == 200 and payload == {"closed": "fig1"}
        status, _ = server.handle("DELETE", "/graphs/fig1", {})
        assert status == 404

    def test_int_label_sniffing(self):
        graph = _uncertain_from_rows([["0", "1", "0.5"], [2, 3, 0.4]])
        assert set(graph.nodes()) == {0, 1, 2, 3}
        graph = _uncertain_from_text("A 1 0.5\n")
        assert set(graph.nodes()) == {"A", "1"}


# ----------------------------------------------------------------------
# error surfaces + misc endpoints
# ----------------------------------------------------------------------
class TestErrors:
    def test_unknown_graph_404(self, server):
        status, payload = server.handle(
            "POST", "/query", {"graph": "nope"}
        )
        assert status == 404
        assert "register it via" in payload["error"]

    def test_bad_sampler_spec_400_with_context(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "fig1", "sampler": "mc:theta=0,seed=7",
        })
        assert status == 400
        assert "theta must be positive" in payload["error"]

    def test_unknown_run_and_route_404(self, server):
        status, payload = server.handle(
            "POST", "/query", {"graph": "fig1", "run": "exact"}
        )
        assert status == 400
        status, _ = server.handle("GET", "/nope", {})
        assert status == 404

    def test_bad_body_theta_400(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "fig1", "theta": 0, "seed": 1,
        })
        assert status == 400
        assert "theta must be positive" in payload["error"]

    def test_errors_counted(self, server):
        before = server.stats_payload()["server"]["errors_total"]
        server.handle("GET", "/nope", {})
        assert server.stats_payload()["server"][
            "errors_total"
        ] == before + 1


class TestStatsPayload:
    def test_stats_structure(self, server):
        _query(server, {"graph": "fig1", "sampler": "mc:theta=64,seed=1"})
        stats = server.stats_payload()
        assert stats["uptime_s"] >= 0
        assert stats["server"]["queries_served"] == 1
        assert stats["admission"]["coalesced_waits"] == 0
        fig1 = stats["sessions"]["fig1"]
        assert fig1["stores_built"] == 1
        assert fig1["cached_stores"] == 1
        histogram = stats["latency_ms"]["POST /query"]
        assert histogram["count"] == 1
        assert histogram["p99_ms"] >= histogram["p50_ms"] >= 0
        json.dumps(stats)  # the whole document is JSON-serializable

    def test_stats_gauge_the_cached_result_texts(self, server):
        body = {"graph": "fig1", "sampler": "mc:theta=64,seed=1", "k": 2}
        payload = _query(server, body)
        fig1 = server.stats_payload()["sessions"]["fig1"]
        # handle() returns a dict; only encoding the reply caches text
        assert fig1["cached_result_texts"] == 0
        assert fig1["cached_result_text_bytes"] == 0
        for k in (1, 2, 3):
            encode_reply(_query(server, dict(body, k=k)))
        fig1 = server.stats_payload()["sessions"]["fig1"]
        # one memo of one piece per candidate
        assert fig1["cached_result_texts"] == 1
        assert fig1["cached_result_text_bytes"] == sum(
            len(json.dumps(pair)) for pair in payload["result"]["candidates"]
        )

    def test_stats_gauge_the_cached_nds_results(self, server):
        body = {"graph": "fig1", "run": "nds", "sampler": "mc:theta=64,seed=1",
                "k": 2, "min_size": 2}
        stats = server.stats_payload
        _query(server, dict(body, run="mpds"))  # draws the store
        assert stats()["sessions"]["fig1"]["cached_nds_results"] == 0
        replies = []
        for _ in range(2):
            reply = json.loads(encode_reply(_query(server, body)))
            assert reply.pop("elapsed_ms") >= 0
            replies.append(json.dumps(reply))
            assert stats()["sessions"]["fig1"]["cached_nds_results"] == 1
        # the warm repeat copies the memoized result: the same bytes
        assert replies[0] == replies[1]
        _query(server, dict(body, k=3))
        assert stats()["sessions"]["fig1"]["cached_nds_results"] == 2


class TestLatencyHistogram:
    def test_quantiles_and_snapshot(self):
        histogram = LatencyHistogram(lowest_ms=1.0, buckets=8)
        for ms in (0.5, 2.0, 3.0, 100.0):
            histogram.observe(ms)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["min_ms"] == 0.5
        assert snapshot["max_ms"] == 100.0
        assert snapshot["p50_ms"] <= snapshot["p99_ms"] <= 100.0
        assert snapshot["mean_ms"] == pytest.approx(105.5 / 4)

    def test_empty_histogram(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
            "min_ms": 0.0, "max_ms": 0.0,
        }

    def test_overflow_bucket_reports_max(self):
        histogram = LatencyHistogram(lowest_ms=0.001, buckets=2)
        histogram.observe(10_000.0)
        assert histogram.quantile(0.5) == 10_000.0


# ----------------------------------------------------------------------
# over real HTTP
# ----------------------------------------------------------------------
def _http(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestOverHTTP:
    def test_full_session_over_sockets(self):
        with ReproServer(port=0, shadow_rate=1.0) as srv:
            base = srv.url
            status, payload = _http("GET", base + "/health")
            assert status == 200 and payload["status"] == "ok"
            status, payload = _http("GET", base + "/datasets")
            assert "karate" in payload["datasets"]
            status, payload = _http("POST", base + "/graphs", {
                "name": "karate", "dataset": "karate",
            })
            assert status == 201
            status, payload = _http("POST", base + "/query", {
                "graph": "karate", "sampler": "mc:theta=48,seed=7", "k": 3,
            })
            assert status == 200
            twin = top_k_mpds(karate_club_uncertain(), k=3, theta=48, seed=7)
            assert json.dumps(
                payload["result"], sort_keys=True
            ) == json.dumps(twin.to_dict(), sort_keys=True)
            assert payload["shadow"]["match"] is True
            status, payload = _http("GET", base + "/graphs")
            assert [g["name"] for g in payload["graphs"]] == ["karate"]
            status, stats = _http("GET", base + "/stats")
            assert stats["server"]["queries_served"] == 1
            assert "POST /query" in stats["latency_ms"]

    def test_shutdown_endpoint_drains_and_stops(self):
        srv = ReproServer(port=0).start()
        base = srv.url
        status, payload = _http("POST", base + "/shutdown", {})
        assert status == 202 and payload["draining"] is True
        deadline = time.monotonic() + 10.0
        while srv._thread.is_alive():
            assert time.monotonic() < deadline, "server never stopped"
            time.sleep(0.02)
        srv.shutdown(timeout=5)  # idempotent after the endpoint

    def test_non_json_body_is_400(self):
        with ReproServer(port=0) as srv:
            request = urllib.request.Request(
                srv.url + "/query", data=b"not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400


# the one field that differs between two runs of the same request
_ELAPSED = re.compile(rb'"elapsed_ms": [^,]+, ')


class TestRawReplyBytes:
    """The daemon writes a result's ``to_json()`` text into its reply
    instead of encoding the result dict again.  The raw body must still
    be ``json.dumps(payload).encode()`` of the payload ``handle()``
    returns for the same request: same key order, separators, ASCII
    escaping and trailing ``shadow`` key."""

    def test_http_bodies_equal_json_dumps_of_handle(self):
        labels = [["é", "日本", 0.9], ["日本", "😀", 0.8], ["é", "😀", 0.7],
                  ["😀", '"q"', 0.6], ['"q"', "\\", 0.5], ["é", "\\", 0.4]]
        sampler = "mc:theta=48,seed=7"
        bodies = [
            {"graph": "karate", "sampler": sampler, "k": k}
            for k in range(1, 6)
        ] + [
            {"graph": "karate", "run": "nds", "sampler": sampler, "k": 2},
            {"graph": "labels", "sampler": sampler, "k": 3},
            {"graph": "labels", "run": "nds", "sampler": sampler, "k": 1},
            {"graph": "missing-é", "sampler": sampler},
        ]
        with ReproServer(port=0, shadow_rate=1.0) as srv:
            srv.register_graph("karate", dataset="karate")
            srv.register_graph("labels", edges=labels)
            for graph in ("karate", "labels"):
                # draw the stores, so every compared reply is warm
                srv.handle("POST", "/query", {"graph": graph,
                                              "sampler": sampler})
            connection = http.client.HTTPConnection(
                srv.host, srv.port, timeout=30
            )
            try:
                for body in bodies:
                    connection.request(
                        "POST", "/query", json.dumps(body),
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    raw = response.read()
                    status, payload = srv.handle("POST", "/query", body)
                    assert response.status == status
                    expected = json.dumps(payload).encode()
                    assert raw.isascii()
                    assert _ELAPSED.sub(b"", raw) == _ELAPSED.sub(
                        b"", expected
                    ), body
                    if status == 200:
                        assert payload["shadow"]["match"] is True
                        assert raw.endswith(
                            b'"shadow": {"checked": true, "match": true}}'
                        )
                        assert _ELAPSED.search(raw)
                    else:
                        assert raw == expected
            finally:
                connection.close()
            labelled = srv.handle("POST", "/query", bodies[6])[1]
            assert "\\u00e9" in json.dumps(labelled)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_workers_arg(self):
        assert _workers_arg("auto") == "auto"
        assert _workers_arg("3") == 3
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _workers_arg("0")
        with pytest.raises(argparse.ArgumentTypeError):
            _workers_arg("lots")

    def test_parser_defaults(self):
        args = make_parser().parse_args([])
        assert args.port == 8321
        assert args.workers == "auto"
        assert args.shadow_rate == 0.0

    def test_repro_mpds_serve_subcommand_exists(self):
        from repro.cli import make_parser as cli_parser

        args = cli_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0

    def test_boot_rejects_bad_graph_spec(self, capsys):
        from repro.serve import main as serve_main

        code = serve_main(["--port", "0", "--graph", "missing-eq"])
        assert code == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_boot_rejects_unknown_dataset(self, capsys):
        from repro.serve import main as serve_main

        code = serve_main(["--port", "0", "--dataset", "nope"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err


# ----------------------------------------------------------------------
# live graph updates (POST /graphs/<name>/update)
# ----------------------------------------------------------------------
class TestDynamicUpdates:
    """Deltas ride the admission controller's exclusive gate: in-flight
    queries drain, the session updates surgically, queued arrivals
    resume -- and post-update dynamic answers byte-match a fresh
    session on the mutated graph."""

    EDGES = [
        [0, 1, 0.6], [1, 2, 0.7], [0, 2, 0.5], [2, 3, 0.4], [3, 4, 0.8],
    ]

    def _register(self, srv, name, edges=None):
        status, _ = srv.handle("POST", "/graphs", {
            "name": name, "edges": [list(r) for r in edges or self.EDGES],
        })
        assert status == 201

    def test_update_round_trip_byte_matches_fresh_session(self, server):
        self._register(server, "dyn")
        body = {
            "graph": "dyn", "sampler": "mc:theta=64,seed=5", "k": 2,
            "dynamic": True,
        }
        cold = _query(server, body)
        assert cold["dynamic"] is True and cold["cold_draw"] is True
        status, summary = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[0, 1, 0.95]], "inserts": [[4, 5, 0.6]],
        })
        assert status == 200, summary
        assert summary["graph"] == "dyn"
        assert summary["updates"] == 1 and summary["inserts"] == 1
        assert summary["columns_redrawn"] == 2
        assert summary["stores_updated"] == 1
        warm = _query(server, body)
        # maintained surgically, never re-drawn
        assert warm["cold_draw"] is False
        mutated = [
            [0, 1, 0.95], [1, 2, 0.7], [0, 2, 0.5], [2, 3, 0.4],
            [3, 4, 0.8], [4, 5, 0.6],
        ]
        self._register(server, "ref", mutated)
        reference = _query(server, dict(body, graph="ref"))
        assert warm["result"] == reference["result"]

    def test_update_drains_in_flight_queries_then_resumes(self, server):
        self._register(server, "dyn")
        release = threading.Event()
        original = server._handle_query

        def slow_query(body):
            assert release.wait(10.0)
            return original(body)

        server._handle_query = slow_query
        outcomes = {}

        def fire_query():
            outcomes["query"] = server.handle("POST", "/query", {
                "graph": "dyn", "sampler": "mc:theta=32,seed=1",
                "dynamic": True,
            })

        def fire_update():
            outcomes["update"] = server.handle(
                "POST", "/graphs/dyn/update",
                {"updates": [[0, 1, 0.9]]},
            )

        query_thread = threading.Thread(target=fire_query)
        query_thread.start()
        deadline = time.monotonic() + 5.0
        while server.admission.snapshot()["active"] < 1:
            assert time.monotonic() < deadline, "query never admitted"
            time.sleep(0.005)

        update_thread = threading.Thread(target=fire_update)
        update_thread.start()
        deadline = time.monotonic() + 5.0
        while not server.admission.snapshot()["paused"]:
            assert time.monotonic() < deadline, "update never paused gate"
            time.sleep(0.005)
        # the update waits on the in-flight query, not vice versa
        assert "update" not in outcomes

        release.set()
        query_thread.join(timeout=10.0)
        update_thread.join(timeout=10.0)
        assert outcomes["query"][0] == 200
        assert outcomes["update"][0] == 200
        assert server.admission.snapshot()["paused"] is False
        # the gate reopened: later queries are admitted normally
        post = _query(server, {
            "graph": "dyn", "sampler": "mc:theta=32,seed=1",
            "dynamic": True,
        })
        assert post["result"] is not None

    def test_update_timeout_applies_nothing_and_reopens(self, server):
        self._register(server, "dyn")
        release = threading.Event()
        original = server._handle_query

        def slow_query(body):
            assert release.wait(10.0)
            return original(body)

        server._handle_query = slow_query
        worker = threading.Thread(
            target=lambda: server.handle("POST", "/query", {
                "graph": "dyn", "sampler": "mc:theta=32,seed=1",
            }),
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while server.admission.snapshot()["active"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        status, payload = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[0, 1, 0.9]], "timeout": 0.05,
        })
        assert status == 503
        assert "timed out" in payload["error"]
        # nothing was applied
        entry = server._graphs["dyn"]
        assert entry.session.graph.probability(0, 1) == 0.6
        assert server.stats_payload()["server"]["updates_applied"] == 0
        release.set()
        worker.join(timeout=10.0)
        assert server.admission.snapshot()["paused"] is False

    def test_stats_expose_delta_counters(self, server):
        self._register(server, "dyn")
        _query(server, {
            "graph": "dyn", "sampler": "mc:theta=48,seed=3", "k": 1,
            "dynamic": True,
        })
        status, _ = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[1, 2, 0.05]],
        })
        assert status == 200
        stats = server.stats_payload()
        assert stats["server"]["updates_applied"] == 1
        session_stats = stats["sessions"]["dyn"]
        assert session_stats["graph_updates"] == 1
        assert session_stats["columns_redrawn"] == 1
        assert session_stats["stores_updated"] == 1
        assert session_stats["evals_invalidated"] >= 1
        assert "POST /graphs/{name}/update" in stats["latency_ms"]

    def test_update_error_surfaces(self, server):
        status, payload = server.handle(
            "POST", "/graphs/missing/update", {"updates": [[0, 1, 0.5]]}
        )
        assert status == 404
        self._register(server, "dyn")
        status, payload = server.handle("POST", "/graphs/dyn/update", {})
        assert status == 400
        assert "names no edges" in payload["error"]
        status, payload = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[0, 1]],  # missing probability
        })
        assert status == 400
        status, payload = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[900, 901, 0.5]],  # no such edge
        })
        assert status == 400
        assert "missing edge" in payload["error"]
        status, payload = server.handle("POST", "/graphs/dyn/update", {
            "deletes": [[0, 1, 0.5]],  # deletes take pairs
        })
        assert status == 400
        # none of the rejects touched the graph or the ledger
        assert server.stats_payload()["server"]["updates_applied"] == 0

    def test_updates_rejected_while_draining(self, server):
        self._register(server, "dyn")
        server.admission.begin_drain()
        status, payload = server.handle("POST", "/graphs/dyn/update", {
            "updates": [[0, 1, 0.9]],
        })
        assert status == 503
        assert "draining" in payload["error"]

    def test_concurrent_queries_and_updates_over_http(self):
        """A live daemon under interleaved /query + /update load: every
        request succeeds, and the post-update answer byte-matches a
        fresh one-shot session on the mutated graph."""
        with ReproServer(port=0) as srv:
            base = srv.url
            status, _ = _http("POST", base + "/graphs", {
                "name": "dyn", "edges": [list(r) for r in
                                         TestDynamicUpdates.EDGES],
            })
            assert status == 201
            body = {
                "graph": "dyn", "sampler": "mc:theta=48,seed=11", "k": 2,
                "dynamic": True,
            }
            outcomes = []

            def fire_queries():
                for _ in range(6):
                    outcomes.append(_http("POST", base + "/query", body))

            threads = [
                threading.Thread(target=fire_queries) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            status, summary = _http(
                "POST", base + "/graphs/dyn/update",
                {"updates": [[2, 3, 0.99]]},
            )
            assert status == 200, summary
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(status == 200 for status, _ in outcomes)
            final = _http("POST", base + "/query", body)[1]
            from repro.graph.uncertain import UncertainGraph
            from repro.session import Session as _Session

            mutated = UncertainGraph.from_weighted_edges(
                [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.5), (2, 3, 0.99),
                 (3, 4, 0.8)]
            )
            with _Session(mutated) as fresh:
                twin = (
                    fresh.query().sampler("mc", theta=48, seed=11)
                    .dynamic().top_k(2).mpds()
                )
            assert json.dumps(
                final["result"], sort_keys=True
            ) == json.dumps(twin.to_dict(), sort_keys=True)
            status, stats = _http("GET", base + "/stats")
            assert stats["server"]["updates_applied"] == 1
