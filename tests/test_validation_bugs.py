"""Regression tests for the PR-7 validation-bug sweep.

Three bugs, three surfaces:

* ``specs.check_int_knob`` accepted ``theta=0`` / negatives, so
  ``"mc:theta=0"`` parsed fine and died much later inside
  ``plan_blocks`` ("total must be positive") -- now rejected at the
  spec layer with a context-prefixed message, and CLI paths exit 2;
* ``Query.top_k`` / ``min_size`` / ``per_world_limit`` accepted 0,
  negatives, and ``bool`` without error until deep in finalize -- now
  validated in the builder with messages mirroring the registry rules
  (``mpds_from_store`` / ``nds_from_store`` apply the same rules);
* ``_MaskPager.block_words`` trusted ``file.read(nbytes)``: a short
  read silently flowed into ``np.frombuffer(...).reshape`` and failed
  far from the cause -- now a descriptive ``IOError`` naming the spill
  file and block;
* ``POST /query`` ignored unknown keys (``{"top_k": 3}`` ran with
  ``k=1``) and coerced ``dynamic`` / ``enumerate_all`` with ``bool()``
  (``"false"`` meant true), and its shadow twin re-read the body with
  its own copies of the defaults -- now unknown keys and non-boolean
  flags are a 400, and the twin gets exactly the validated knobs;
* the edge-list row rules (comments, blank lines, extra columns, the
  all-integer label rule) were copied into four places that drifted:
  ``POST /graphs {"edge_list": "1 2 0.5 x"}`` was a 400 while the same
  file loaded -- now :mod:`repro.graph.io` owns one row parser;
* ``repro-serve`` never answered a request whose ``Content-Length`` is
  not an integer (the client hung until its timeout), and read a
  negative length as an empty body, leaving the sent bytes on the
  keep-alive connection -- now both are a 400 and the connection closes;
* ``POST /graphs/<name>/update`` and ``POST /shutdown`` read
  ``float(body["timeout"])``: with a query in flight, ``1e300`` or
  ``Infinity`` overflowed ``Condition.wait`` (a 500 on update, a dead
  shutdown thread and a daemon draining forever), ``NaN`` spun the
  drain loop, ``true`` meant one second, and misspelt keys
  (``"timout"``) were ignored -- now the timeout must be a finite,
  non-negative JSON number, a huge one waits for the drain, and
  unknown keys are a 400 naming the accepted set;
* Python callers of ``AdmissionController.wait_drained`` /
  ``exclusive`` and ``ReproServer.shutdown`` could still pass a NaN
  timeout, and the drain loop spun on a core until the in-flight
  request released -- now the controller raises ``ValueError`` for a
  non-finite or negative timeout before any wait.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import numpy as np
import pytest

import repro.core.mpds
import repro.core.nds
from repro.cli import main
from repro.core.mpds import top_k_mpds
from repro.datasets.paper_examples import figure1_graph
from repro.datasets.real import load_uncertain_graph
from repro.engine.bitset import PackedMasks
from repro.engine.worldstore import WorldStore, _MaskPager
from repro.graph.io import read_uncertain_edge_list, write_uncertain_edge_list
from repro.serve import (
    QUERY_KEYS,
    SHUTDOWN_KEYS,
    UPDATE_KEYS,
    AdmissionController,
    ReproServer,
    _delta_groups,
)
from repro.session import Session
from repro.specs import check_int_knob, split_sampler_spec

from .conftest import random_uncertain_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "figure1.txt"
    write_uncertain_edge_list(figure1_graph(), path)
    return str(path)


# ----------------------------------------------------------------------
# bug 1: theta positivity at the spec layer
# ----------------------------------------------------------------------
class TestSpecThetaPositivity:
    @pytest.mark.parametrize("theta", [0, -1, -160])
    def test_split_sampler_spec_rejects_nonpositive_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be positive"):
            split_sampler_spec(f"mc:theta={theta},seed=7")

    def test_message_is_context_prefixed(self):
        with pytest.raises(ValueError, match="mc:theta=0"):
            split_sampler_spec("mc:theta=0")

    @pytest.mark.parametrize("value", [0, -3])
    def test_check_int_knob_positive_gate(self, value):
        with pytest.raises(ValueError, match="theta must be positive"):
            check_int_knob("ctx", "theta", value, positive=True)

    def test_check_int_knob_positive_accepts_one(self):
        assert check_int_knob("ctx", "theta", 1, positive=True) == 1

    def test_check_int_knob_still_rejects_bool(self):
        with pytest.raises(ValueError, match="must be an integer"):
            check_int_knob("ctx", "theta", True, positive=True)

    def test_check_int_knob_none_passthrough(self):
        assert check_int_knob("ctx", "theta", None, positive=True) is None


# ----------------------------------------------------------------------
# bug 2: Query builder knobs
# ----------------------------------------------------------------------
class TestQueryBuilderValidation:
    @pytest.fixture
    def session(self):
        with Session(random_uncertain_graph(random.Random(5), 12, 0.3)) as s:
            yield s

    @pytest.mark.parametrize("k", [0, -1])
    def test_top_k_rejects_nonpositive(self, session, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            session.query().top_k(k)

    @pytest.mark.parametrize("k", [True, False, 1.5, "3", None])
    def test_top_k_rejects_non_int(self, session, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            session.query().top_k(k)

    @pytest.mark.parametrize("min_size", [0, -2])
    def test_min_size_rejects_nonpositive(self, session, min_size):
        with pytest.raises(ValueError, match="min_size"):
            session.query().min_size(min_size)

    def test_min_size_rejects_bool(self, session):
        with pytest.raises(ValueError, match="min_size"):
            session.query().min_size(True)

    @pytest.mark.parametrize("limit", [0, -1, True])
    def test_per_world_limit_rejects_bad(self, session, limit):
        with pytest.raises(ValueError, match="per_world_limit"):
            session.query().per_world_limit(limit)

    def test_per_world_limit_accepts_none(self, session):
        query = session.query().per_world_limit(None)
        assert query is not None

    @pytest.mark.parametrize("theta", [0, -5])
    def test_theta_rejects_nonpositive(self, session, theta):
        with pytest.raises(ValueError, match="theta must be positive"):
            session.query().theta(theta)

    def test_sampler_keyword_theta_rejects_zero(self, session):
        with pytest.raises(ValueError, match="theta must be positive"):
            session.query().sampler("mc", theta=0)

    def test_sampler_spec_theta_rejects_zero(self, session):
        with pytest.raises(ValueError, match="theta must be positive"):
            session.query().sampler("mc:theta=0")

    def test_seed_rejects_bool(self, session):
        with pytest.raises(ValueError, match="seed must be an integer"):
            session.query().seed(True)

    def test_error_raised_at_builder_not_finalize(self, session):
        # the whole point of the fix: the bad knob never reaches
        # plan_blocks / finalize, so no store is ever drawn
        before = session.stats_snapshot()["stores_built"]
        with pytest.raises(ValueError):
            session.query().sampler("mc", theta=0, seed=1)
        assert session.stats_snapshot()["stores_built"] == before


class TestStoreFunctionValidation:
    """``mpds_from_store`` / ``nds_from_store`` apply the builder's
    rules: ``per_world_limit=0`` used to return an empty top with every
    world counted as replayed, ``k=True`` was accepted, and ``k=2.0``
    died inside finalize's slice."""

    @pytest.fixture(scope="class")
    def store(self):
        from repro.datasets import karate_club_uncertain

        graph = karate_club_uncertain(seed=2023)
        store = WorldStore.from_sampler(graph, None, 32, seed=7)
        yield store
        store.close()

    @pytest.mark.parametrize("kwargs, knob", [
        ({"per_world_limit": 0}, "per_world_limit"),
        ({"per_world_limit": -3}, "per_world_limit"),
        ({"per_world_limit": True}, "per_world_limit"),
        ({"k": True}, "k"),
        ({"k": 2.0}, "k"),
        ({"k": 0}, "k"),
        ({"k": None}, "k"),
    ])
    def test_mpds_from_store_rejects(self, store, kwargs, knob):
        from repro.core.mpds import mpds_from_store

        with pytest.raises(ValueError, match=f"mpds_from_store: {knob} must"):
            mpds_from_store(store, **kwargs)

    @pytest.mark.parametrize("kwargs, knob", [
        ({"k": True}, "k"),
        ({"k": 2.0}, "k"),
        ({"k": -1}, "k"),
        ({"min_size": 0}, "min_size"),
        ({"min_size": True}, "min_size"),
        ({"min_size": 2.5}, "min_size"),
    ])
    def test_nds_from_store_rejects(self, store, kwargs, knob):
        from repro.core.nds import nds_from_store

        with pytest.raises(ValueError, match=f"nds_from_store: {knob}"):
            nds_from_store(store, **kwargs)

    def test_unbounded_limit_still_accepted(self, store):
        from repro.core.mpds import mpds_from_store

        result = mpds_from_store(store, k=2, per_world_limit=None)
        assert result.top and result.replayed_worlds == 0


# ----------------------------------------------------------------------
# CLI surfaces exit 2 on the bad knobs
# ----------------------------------------------------------------------
class TestCLIExitCodes:
    @pytest.mark.parametrize("theta", ["0", "-4"])
    def test_mpds_theta_exits_2(self, graph_file, capsys, theta):
        assert main(["mpds", graph_file, "--theta", theta]) == 2
        assert "theta must be positive" in capsys.readouterr().err

    def test_nds_theta_exits_2(self, graph_file, capsys):
        assert main(["nds", graph_file, "--theta", "0"]) == 2
        assert "theta must be positive" in capsys.readouterr().err

    def test_mpds_sampler_spec_theta_exits_2(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--sampler", "mc:theta=0,seed=7",
        ])
        assert code == 2
        assert "theta must be positive" in capsys.readouterr().err

    def test_query_theta_exits_2(self, graph_file, capsys):
        code = main([
            "query", graph_file, "--sampler", "mc:theta=0,seed=7",
            "--run", "mpds",
        ])
        assert code == 2
        assert "theta must be positive" in capsys.readouterr().err

    def test_query_theta_flag_exits_2(self, graph_file, capsys):
        code = main(["query", graph_file, "--theta", "-1"])
        assert code == 2
        assert "theta must be positive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bug 3: pager short reads
# ----------------------------------------------------------------------
class _TruncatingFile:
    """Stub spill file whose reads come back short."""

    def __init__(self, inner, short_by: int) -> None:
        self._inner = inner
        self._short_by = short_by

    def seek(self, offset: int) -> None:
        self._inner.seek(offset)

    def read(self, nbytes: int) -> bytes:
        return self._inner.read(max(0, nbytes - self._short_by))

    def close(self) -> None:  # pragma: no cover - teardown only
        self._inner.close()


def _small_pager() -> _MaskPager:
    rng = np.random.default_rng(11)
    masks = rng.random((64, 40)) < 0.5
    packed = PackedMasks.from_bool(masks)
    blocks = [(0, 32), (32, 64)]
    budget = 32 * packed.words.shape[1] * 8
    return _MaskPager(packed, blocks, budget)


class TestPagerShortRead:
    def test_short_read_raises_descriptive_ioerror(self):
        pager = _small_pager()
        pager._file = _TruncatingFile(pager._file, short_by=8)
        with pytest.raises(IOError) as excinfo:
            pager.block_words(1)
        message = str(excinfo.value)
        assert "short read from world-store spill file" in message
        assert pager.path in message
        assert "block 1" in message

    def test_truncated_to_zero_names_expectation(self):
        pager = _small_pager()
        expected = pager._nbytes[0]
        pager._file = _TruncatingFile(pager._file, short_by=expected)
        with pytest.raises(IOError, match=f"expected {expected} bytes"):
            pager.block_words(0)

    def test_healthy_reads_unaffected(self):
        pager = _small_pager()
        first = pager.block_words(0).copy()
        again = pager.block_words(0)
        np.testing.assert_array_equal(first, again)
        assert pager.block_loads == 1  # second hit was resident

    def test_budgeted_store_roundtrip_still_exact(self):
        # end-to-end: a spilled store with an honest file still replays
        # byte-identically to the resident one
        graph = random_uncertain_graph(random.Random(7), 16, 0.3)
        resident = WorldStore.from_sampler(graph, None, 64, seed=3)
        words_per_row = resident.mask_matrix().words.shape[1]
        spilled = WorldStore.from_sampler(
            graph, None, 64, seed=3,
            memory_budget=4 * words_per_row * 8,
        )
        assert spilled._pager is not None
        for i in range(64):
            np.testing.assert_array_equal(
                resident.mask_row(i), spilled.mask_row(i)
            )
        spilled.close()


# ----------------------------------------------------------------------
# bug 4: POST /query body validation
# ----------------------------------------------------------------------
SEEDED = "mc:theta=64,seed=5"


@pytest.fixture
def server():
    srv = ReproServer(port=0)
    srv.register_graph("g", graph=figure1_graph())
    yield srv
    srv.shutdown(timeout=10)


class TestQueryBody:
    def test_unknown_key_rejected_with_accepted_set(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "g", "sampler": SEEDED, "top_k": 3,
        })
        assert status == 400
        assert "'top_k'" in payload["error"]
        for key in QUERY_KEYS:
            assert repr(key) in payload["error"]

    @pytest.mark.parametrize("flag", ["dynamic", "enumerate_all"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_flags_must_be_json_booleans(self, server, flag, value):
        status, payload = server.handle("POST", "/query", {
            "graph": "g", "sampler": SEEDED, flag: value,
        })
        assert status == 400
        assert flag in payload["error"] and "boolean" in payload["error"]

    def test_dynamic_false_draws_a_continuous_store(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "g", "sampler": SEEDED, "dynamic": False,
        })
        assert status == 200 and payload["dynamic"] is False
        expected = top_k_mpds(figure1_graph(), theta=64, seed=5)
        assert payload["result"] == expected.to_dict()

    def test_enumerate_all_false_is_honoured(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "g", "sampler": SEEDED, "k": 2,
            "enumerate_all": False,
        })
        assert status == 200
        expected = top_k_mpds(
            figure1_graph(), k=2, theta=64, seed=5, enumerate_all=False
        )
        assert payload["result"] == expected.to_dict()

    def test_every_accepted_key_passes_the_gate(self, server):
        status, payload = server.handle("POST", "/query", {
            "graph": "g", "run": "mpds", "sampler": "mc", "theta": 64,
            "seed": 5, "measure": "edge", "k": 2, "min_size": 2,
            "engine": "python", "workers": 1, "enumerate_all": True,
            "per_world_limit": 10, "dynamic": False,
        })
        assert status == 200, payload


class TestShadowTwinKnobs:
    """The shadow twin receives the validated knobs of the run, and
    nothing else: no default copies, no keys of the other run."""

    @pytest.fixture
    def twin_calls(self, monkeypatch):
        calls = []
        for module, name in ((repro.core.mpds, "top_k_mpds"),
                             (repro.core.nds, "top_k_nds")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append((_name, kwargs))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    def _shadowed(self, body):
        srv = ReproServer(port=0, shadow_rate=1.0)
        try:
            srv.register_graph("g", graph=figure1_graph())
            status, payload = srv.handle("POST", "/query", dict(
                body, graph="g", sampler=SEEDED,
            ))
        finally:
            srv.shutdown(timeout=10)
        assert status == 200, payload
        assert payload["shadow"] == {"checked": True, "match": True}

    def _knobs(self, kwargs):
        return {
            key: value for key, value in kwargs.items()
            if key in ("k", "min_size", "enumerate_all", "per_world_limit")
        }

    def test_mpds_twin_gets_the_body_knobs(self, twin_calls):
        self._shadowed({
            "run": "mpds", "k": 2, "enumerate_all": False,
            "per_world_limit": 1, "min_size": 3,
        })
        [(name, kwargs)] = twin_calls
        assert name == "top_k_mpds"
        assert self._knobs(kwargs) == {
            "k": 2, "enumerate_all": False, "per_world_limit": 1,
        }

    def test_nds_twin_gets_the_body_knobs(self, twin_calls):
        self._shadowed({"run": "nds", "k": 2, "min_size": 3})
        [(name, kwargs)] = twin_calls
        assert name == "top_k_nds"
        assert self._knobs(kwargs) == {"k": 2, "min_size": 3}

    def test_unset_knobs_fall_to_the_estimator_defaults(self, twin_calls):
        self._shadowed({"run": "mpds"})
        [(_name, kwargs)] = twin_calls
        assert self._knobs(kwargs) == {}


# ----------------------------------------------------------------------
# bug 5: one edge-list row parser
# ----------------------------------------------------------------------
ROW_TEXTS = {
    "mixed-labels": (
        "# uploaded edges\n"
        "\n"
        "1 2 0.5 extra-column\n"
        "% another comment\n"
        "2 alice 0.25\n"
        "alice bob 0.75 x y\n"
    ),
    "int-labels": "# ids\n1 2 0.5 x\n\n2 3 0.25\n% end\n3 1 0.125 y z\n",
}


class TestOneRowParser:
    def test_extra_column_uploads(self, server):
        status, payload = server.handle("POST", "/graphs", {
            "name": "extra", "edge_list": "1 2 0.5 x\n",
        })
        assert status == 201, payload
        assert payload["edges"] == 1

    @pytest.mark.parametrize("text", ROW_TEXTS.values(), ids=ROW_TEXTS.keys())
    def test_edge_list_blob_equals_file(self, server, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        status, payload = server.handle("POST", "/graphs", {
            "name": "blob", "edge_list": text,
        })
        assert status == 201, payload
        uploaded = list(server._entry("blob").graph.weighted_edges())
        from_file = list(read_uncertain_edge_list(path).weighted_edges())
        assert uploaded == from_file
        assert uploaded == list(load_uncertain_graph(path).weighted_edges())

    def test_label_rule_is_shared(self, server, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(ROW_TEXTS["int-labels"])
        from_file = read_uncertain_edge_list(path)
        status, _ = server.handle("POST", "/graphs", {
            "name": "rows", "edges": [["1", "2", 0.5], [2, 3, "0.25"],
                                      [3, 1, 0.125]],
        })
        assert status == 201
        uploaded = server._entry("rows").graph
        assert list(uploaded.weighted_edges()) == list(
            from_file.weighted_edges()
        )
        groups = _delta_groups({"updates": [["1", 2, 0.5]],
                                "deletes": [[3, "1"]]})
        assert groups == {"updates": [[1, 2, 0.5]], "inserts": [],
                          "deletes": [[3, 1]]}

    def test_json_rows_still_need_exactly_three_columns(self, server):
        status, payload = server.handle("POST", "/graphs", {
            "name": "wide", "edges": [[0, 1, 0.5, "x"]],
        })
        assert status == 400
        assert "malformed edge row" in payload["error"]

    def test_probability_column_sniff_skips_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n% more\n1 2 0.5\n")
        graph = load_uncertain_graph(path)
        assert list(graph.weighted_edges()) == [(1, 2, 0.5)]


# ----------------------------------------------------------------------
# malformed Content-Length over a raw socket
# ----------------------------------------------------------------------
def _raw_exchange(srv, length: str, body: bytes) -> bytes:
    """Send one ``POST /query`` with a literal ``Content-Length``; read to EOF."""
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode() + body
        )
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return received
            received += chunk


class TestMalformedContentLength:
    @pytest.mark.parametrize("length", ["abc", "-5", "1_0"])
    def test_rejected_and_connection_closed(self, length):
        body = b'{"graph": "g"}'
        with ReproServer(port=0) as srv:
            # recv returning EOF proves the server closed the keep-alive
            # connection; the socket timeout would fail the test instead
            response = _raw_exchange(srv, length, body)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert response.count(b"HTTP/1.1") == 1
        assert response.endswith(b'{"error": "invalid Content-Length"}')


# ----------------------------------------------------------------------
# bug 7: update / shutdown timeouts and body keys
# ----------------------------------------------------------------------
UPDATE_PATH = "/graphs/g/update"
MOVE = {"updates": [["A", "B", 0.8]]}
BAD_TIMEOUTS = [
    float("inf"), float("-inf"), float("nan"), True, False, -1, -0.5,
    "5", None, [5], {"s": 5}, pytest.param(10 ** 400, id="10**400"),
]


def _ab_probability(server) -> float:
    return server._entry("g").graph.probability("A", "B")


def _wait_closed(server, seconds=10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with server._lock:
            if server._closed:
                return True
        time.sleep(0.01)
    return False


class TestUpdateBody:
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS, ids=repr)
    def test_bad_timeout_is_400_and_applies_nothing(self, server, timeout):
        # no query in flight: a NaN must be refused, never waited on
        status, payload = server.handle(
            "POST", UPDATE_PATH, dict(MOVE, timeout=timeout)
        )
        assert status == 400, payload
        assert "'timeout'" in payload["error"]
        assert _ab_probability(server) == 0.4

    def test_bad_timeout_is_refused_before_draining(self, server):
        server.admission.admit()
        try:
            status, payload = server.handle(
                "POST", UPDATE_PATH, dict(MOVE, timeout=float("inf"))
            )
            assert status == 400, payload
            assert server.admission.snapshot()["paused"] is False
        finally:
            server.admission.release()

    @pytest.mark.parametrize("timeout", [0, 2.5, 10 ** 30])
    def test_finite_non_negative_numbers_are_accepted(self, server, timeout):
        status, payload = server.handle(
            "POST", UPDATE_PATH, dict(MOVE, timeout=timeout)
        )
        assert status == 200, payload
        assert _ab_probability(server) == 0.8

    def test_huge_timeout_waits_for_the_drain(self, server):
        server.admission.admit()
        timer = threading.Timer(0.2, server.admission.release)
        timer.start()
        try:
            status, payload = server.handle(
                "POST", UPDATE_PATH, dict(MOVE, timeout=1e300)
            )
        finally:
            timer.join()
        assert status == 200, payload
        assert _ab_probability(server) == 0.8

    def test_unknown_key_is_400_naming_the_accepted_set(self, server):
        status, payload = server.handle(
            "POST", UPDATE_PATH, dict(MOVE, timout=5)
        )
        assert status == 400
        assert "'timout'" in payload["error"]
        for key in UPDATE_KEYS:
            assert repr(key) in payload["error"]
        assert _ab_probability(server) == 0.4


class TestShutdownBody:
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS, ids=repr)
    def test_bad_timeout_is_400_and_keeps_serving(self, server, timeout):
        status, payload = server.handle(
            "POST", "/shutdown", {"timeout": timeout}
        )
        assert status == 400, payload
        assert "'timeout'" in payload["error"]
        assert not server.admission.is_draining()

    def test_unknown_key_is_400_naming_the_accepted_set(self, server):
        status, payload = server.handle(
            "POST", "/shutdown", {"timeout": 5, "force": True}
        )
        assert status == 400
        assert "'force'" in payload["error"]
        for key in SHUTDOWN_KEYS:
            assert repr(key) in payload["error"]
        assert not server.admission.is_draining()

    def test_huge_timeout_drains_then_stops(self, server):
        server.admission.admit()
        try:
            status, payload = server.handle(
                "POST", "/shutdown", {"timeout": 1e300}
            )
            assert status == 202, payload
            assert server.admission.is_draining()
        finally:
            server.admission.release()
        assert _wait_closed(server)

    def test_default_timeout_still_stops(self, server):
        status, payload = server.handle("POST", "/shutdown", {})
        assert status == 202, payload
        assert _wait_closed(server)


# ----------------------------------------------------------------------
# bug 8: Python-side drain timeouts
# ----------------------------------------------------------------------
UNWAITABLE = [float("nan"), float("inf"), float("-inf"), -1, -0.5]


def _refused_at_once(call, admission) -> None:
    """With one request in flight, ``call`` raises ``ValueError`` at
    once and leaves no thread behind; a spinning drain would hold the
    call until the safety release."""
    threads = set(threading.enumerate())
    admission.admit()
    safety = threading.Timer(5.0, admission.release)
    safety.start()
    started = time.monotonic()
    try:
        with pytest.raises(ValueError, match="timeout"):
            call()
        assert time.monotonic() - started < 1.0
    finally:
        safety.cancel()
        safety.join()
        admission.release()
    assert set(threading.enumerate()) <= threads
    assert admission.snapshot()["active"] == 0


class TestControllerTimeout:
    @pytest.mark.parametrize("timeout", UNWAITABLE, ids=repr)
    def test_wait_drained_refuses(self, timeout):
        ctl = AdmissionController()
        _refused_at_once(lambda: ctl.wait_drained(timeout), ctl)

    @pytest.mark.parametrize("timeout", UNWAITABLE, ids=repr)
    def test_exclusive_refuses_before_pausing(self, timeout):
        ctl = AdmissionController()

        def enter():
            with ctl.exclusive(timeout):
                pytest.fail("the exclusive section must not run")

        _refused_at_once(enter, ctl)
        assert ctl.snapshot()["paused"] is False

    @pytest.mark.parametrize("timeout", UNWAITABLE, ids=repr)
    def test_shutdown_refuses_before_draining(self, server, timeout):
        _refused_at_once(lambda: server.shutdown(timeout), server.admission)
        assert not server.admission.is_draining()
        status, payload = server.handle("GET", "/health", None)
        assert status == 200 and payload["draining"] is False

    def test_none_and_finite_timeouts_still_wait(self):
        ctl = AdmissionController()
        assert ctl.wait_drained(None) is True
        ctl.admit()
        assert ctl.wait_drained(0) is False
        ctl.release()
        assert ctl.wait_drained(0.0) is True
