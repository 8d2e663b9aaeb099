"""Tests for the query service (repro.service).

Four concerns:

* **registry** — the miner pool loads/evicts by name with
  ``memory_nbytes()``-based LRU accounting, errors loudly on unknown
  names, and its whole-result cache counts hits/misses/evictions;
* **query specs** — JSON parsing validates loudly, and the canonical
  signatures unify equivalent spellings (named shape vs explicit edge
  list) while ignoring execution-only knobs;
* **end-to-end** — an in-process HTTP server answers motifs/match/fsm
  byte-identically to direct ``Miner`` runs, serves repeats from the
  result cache without recompiling anything, and maps every failure
  mode to the right status code;
* **admission + budgets** — a budget-busting query gets a 422 while
  concurrent well-behaved queries complete, and an overfull pool
  answers 429.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets import UnknownDatasetError, load
from repro.graph import assign_labels, gnm_random_graph
from repro.service import (
    MinerRegistry,
    QueryService,
    ServiceError,
    UnknownGraphError,
    parse_pattern,
    parse_request,
    run_query,
    start_in_background,
)
from repro.service.registry import payload_nbytes
from repro.session import Miner


def result_cache_nbytes(registry):
    """Deep bytes the whole-result cache holds right now."""
    return registry.describe()["result_cache"]["nbytes"]


def small_graph(seed=5):
    return assign_labels(gnm_random_graph(24, 60, seed=seed), 3, seed=seed)


# ---------------------------------------------------------------------------
# MinerRegistry
# ---------------------------------------------------------------------------
class TestRegistryPool:
    def test_load_and_get_return_the_same_warm_session(self):
        registry = MinerRegistry()
        miner = registry.load("g", small_graph())
        assert registry.get("g") is miner
        assert registry.names() == ("g",)

    def test_unknown_graph_error_lists_loaded_names(self):
        registry = MinerRegistry()
        registry.load("alpha", small_graph())
        with pytest.raises(UnknownGraphError, match=r"'beta'.*alpha"):
            registry.get("beta")
        with pytest.raises(UnknownGraphError, match="cannot evict"):
            registry.evict("beta")

    def test_reload_of_a_loaded_name_is_rejected(self):
        registry = MinerRegistry()
        registry.load("g", small_graph())
        with pytest.raises(ServiceError, match="already loaded"):
            registry.load("g", small_graph(seed=7))
        registry.evict("g")
        registry.load("g", small_graph(seed=7))  # evict-then-replace works

    def test_load_dataset_goes_through_the_named_lookup(self):
        registry = MinerRegistry()
        registry.load_dataset("cs", dataset="citeseer", scale=0.02)
        assert registry.get("cs").graph.num_vertices > 0
        with pytest.raises(UnknownDatasetError, match="available datasets"):
            registry.load_dataset("nope")

    def test_memory_accounting_and_lru_eviction(self):
        g1, g2, g3 = small_graph(1), small_graph(2), small_graph(3)
        # Room for exactly two of the three (whichever pair is larger).
        limit = g1.memory_nbytes() + max(g2.memory_nbytes(), g3.memory_nbytes())
        registry = MinerRegistry(memory_limit_nbytes=limit)
        registry.load("a", g1)
        registry.load("b", g2)
        assert registry.memory_nbytes() == g1.memory_nbytes() + g2.memory_nbytes()
        registry.get("a")  # touch: 'b' becomes least recently used
        registry.load("c", g3)
        assert registry.names() == ("a", "c")
        info = registry.cache_info()
        assert info.graphs_loaded == 3 and info.graphs_evicted == 1

    def test_graph_too_big_for_the_limit_is_rejected_loudly(self):
        graph = small_graph()
        registry = MinerRegistry(memory_limit_nbytes=graph.memory_nbytes() - 1)
        with pytest.raises(ServiceError, match="memory limit"):
            registry.load("g", graph)
        assert registry.names() == ()


class TestResultCache:
    def test_miss_computes_then_hit_skips(self):
        registry = MinerRegistry()
        registry.load("g", small_graph())
        calls = []

        def compute(miner):
            calls.append(miner)
            return {"answer": 42}

        payload, hit = registry.cached("g", "q", "c", compute)
        assert (payload, hit) == ({"answer": 42}, False)
        payload, hit = registry.cached("g", "q", "c", compute)
        assert (payload, hit) == ({"answer": 42}, True)
        assert len(calls) == 1
        info = registry.cache_info()
        assert info.result_hits == 1 and info.result_misses == 1

    def test_different_signatures_are_different_entries(self):
        registry = MinerRegistry()
        registry.load("g", small_graph())
        registry.cached("g", "q1", "c", lambda m: 1)
        registry.cached("g", "q2", "c", lambda m: 2)
        registry.cached("g", "q1", "c2", lambda m: 3)
        assert registry.cache_info().result_misses == 3

    def test_evicting_a_graph_drops_its_results(self):
        registry = MinerRegistry()
        registry.load("g", small_graph())
        registry.cached("g", "q", "c", lambda m: 1)
        registry.evict("g")
        assert registry.cache_info().result_evictions == 1
        registry.load("g", small_graph())
        _, hit = registry.cached("g", "q", "c", lambda m: 2)
        assert not hit  # the stale entry is gone

    def test_lru_byte_cap_evicts_oldest_results(self):
        probe = {"rows": "x" * 1000}
        # Room for exactly two payloads of this shape.
        limit = 2 * payload_nbytes(probe) + 16
        registry = MinerRegistry(result_cache_limit_nbytes=limit)
        registry.load("g", small_graph())
        registry.cached("g", "q1", "c", lambda m: {"rows": "x" * 1000})
        registry.cached("g", "q2", "c", lambda m: {"rows": "y" * 1000})
        registry.cached("g", "q1", "c", lambda m: None)  # touch q1
        registry.cached("g", "q3", "c", lambda m: {"rows": "z" * 1000})
        _, hit = registry.cached("g", "q1", "c", lambda m: None)
        assert hit  # recently touched, survived
        _, hit = registry.cached("g", "q2", "c", lambda m: {"rows": "y" * 1000})
        assert not hit  # LRU entry was pushed out by bytes
        assert registry.cache_info().result_evictions >= 1
        assert 0 < result_cache_nbytes(registry) <= limit

    def test_oversize_payload_is_never_cached(self):
        registry = MinerRegistry(result_cache_limit_nbytes=256)
        registry.load("g", small_graph())
        _, hit = registry.cached("g", "big", "c", lambda m: {"rows": "x" * 4096})
        assert not hit
        _, hit = registry.cached("g", "big", "c", lambda m: {"rows": "x" * 4096})
        assert not hit  # still a miss: the payload exceeds the whole budget
        info = registry.cache_info()
        assert info.result_oversize == 2
        assert result_cache_nbytes(registry) == 0

    def test_zero_limit_disables_result_caching(self):
        registry = MinerRegistry(result_cache_limit_nbytes=0)
        registry.load("g", small_graph())
        registry.cached("g", "q", "c", lambda m: 1)
        _, hit = registry.cached("g", "q", "c", lambda m: 1)
        assert not hit

    def test_describe_reports_result_cache_bytes(self):
        registry = MinerRegistry()
        registry.load("g", small_graph())
        payload = {"rows": list(range(100))}
        registry.cached("g", "q", "c", lambda m: payload)
        block = registry.describe()["result_cache"]
        assert block["entries"] == 1
        assert block["nbytes"] == payload_nbytes(payload) > 0
        assert block["limit_nbytes"] == registry.result_cache_limit_nbytes


# ---------------------------------------------------------------------------
# Query specs
# ---------------------------------------------------------------------------
class TestParsing:
    def test_unknown_workload_and_keys_are_loud(self):
        with pytest.raises(ServiceError, match="unknown workload"):
            parse_request("pagerank", {})
        with pytest.raises(ServiceError, match="unknown request keys"):
            parse_request("motifs", {"graph": "g", "bogus": 1})
        with pytest.raises(ServiceError, match="support"):
            parse_request("fsm", {"graph": "g"})
        with pytest.raises(ServiceError, match="query"):
            parse_request("match", {"graph": "g"})

    @pytest.mark.parametrize(
        "body",
        [
            {"max_size": 0},
            {"max_size": True},
            {"deadline_ms": -5},
            {"max_embeddings": 0},
            {"stream": "yes"},
            {"workers": 1.5},
        ],
    )
    def test_bad_values_are_loud(self, body):
        with pytest.raises(ServiceError):
            parse_request("motifs", {"graph": "g", **body})

    def test_named_shape_and_explicit_edges_share_a_signature(self):
        named = parse_request("match", {"graph": "g", "query": "triangle"})
        explicit = parse_request(
            "match",
            {"graph": "g", "query": {"edges": [[2, 1], [0, 2], [1, 0]]}},
        )
        assert named.query_signature() == explicit.query_signature()

    def test_execution_knobs_stay_out_of_the_signatures(self):
        plain = parse_request("motifs", {"graph": "g", "max_size": 3})
        tuned = parse_request(
            "motifs",
            {
                "graph": "g",
                "max_size": 3,
                "workers": 4,
                "backend": "thread",
                "storage": "list",
                "deadline_ms": 100,
                "max_embeddings": 10,
                "stream": True,
            },
        )
        assert plain.query_signature() == tuned.query_signature()
        assert plain.config_signature() == tuned.config_signature()

    def test_limit_is_in_the_config_signature(self):
        a = parse_request("match", {"graph": "g", "query": "wedge", "limit": 5})
        b = parse_request("match", {"graph": "g", "query": "wedge", "limit": 6})
        assert a.query_signature() == b.query_signature()
        assert a.config_signature() != b.config_signature()

    def test_pattern_objects_validate_loudly(self):
        with pytest.raises(ServiceError, match="unknown query shape"):
            parse_pattern("dodecahedron")
        with pytest.raises(ServiceError, match="unknown query shape"):
            parse_pattern("/etc/passwd")  # paths are not accepted over HTTP
        with pytest.raises(ServiceError, match="non-empty list"):
            parse_pattern({"edges": []})
        with pytest.raises(ServiceError, match="distinct vertex ids"):
            parse_pattern({"edges": [[0, 0]]})
        with pytest.raises(ServiceError, match="vertex_labels"):
            parse_pattern({"edges": [[0, 1]], "vertex_labels": [1]})


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    registry = MinerRegistry()
    registry.load("tiny", small_graph())
    registry.load_dataset("citeseer", scale=0.05)
    service = QueryService(registry, max_concurrent=4, max_pending=8)
    handle = start_in_background(service)
    yield handle
    handle.stop()


def call(handle, method, path, body=None, timeout=60):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        handle.url + path, data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestEndpoints:
    def test_health_and_stats(self, server):
        status, raw = call(server, "GET", "/health")
        assert status == 200 and json.loads(raw) == {"status": "ok"}
        status, raw = call(server, "GET", "/stats")
        stats = json.loads(raw)
        assert status == 200
        assert set(stats) >= {"server", "admission", "registry", "graphs"}

    def test_graphs_listing_reports_the_pool(self, server):
        status, raw = call(server, "GET", "/graphs")
        listing = json.loads(raw)
        assert status == 200
        assert set(listing["graphs"]) >= {"tiny", "citeseer"}
        assert listing["graphs"]["tiny"]["memory_nbytes"] > 0

    def test_load_query_evict_cycle(self, server):
        status, raw = call(
            server, "POST", "/graphs",
            {"name": "cs-tmp", "dataset": "citeseer", "scale": 0.02},
        )
        assert status == 200 and json.loads(raw)["loaded"] == "cs-tmp"
        status, _ = call(
            server, "POST", "/motifs", {"graph": "cs-tmp", "max_size": 3}
        )
        assert status == 200
        status, _ = call(server, "DELETE", "/graphs/cs-tmp")
        assert status == 200
        status, _ = call(
            server, "POST", "/motifs", {"graph": "cs-tmp", "max_size": 3}
        )
        assert status == 404

    def test_error_statuses(self, server):
        assert call(server, "POST", "/motifs", {"graph": "nope"})[0] == 404
        assert call(server, "POST", "/motifs", {"graph": "tiny", "x": 1})[0] == 400
        assert call(server, "POST", "/query", {"graph": "tiny"})[0] == 400
        assert call(server, "GET", "/bogus")[0] == 404
        assert call(server, "PUT", "/health")[0] == 405

    @pytest.mark.parametrize("length", ["-5", "-1", "-0x10", "abc", "1.5", "", "5 5"])
    def test_unreadable_content_length_is_a_400(self, server, length):
        import socket

        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b"POST /motifs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: " + length.encode() + b"\r\n\r\n{}")
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        message = json.loads(body)["error"]["message"]
        assert message == f"bad Content-Length {length!r}"
        status, raw = call(server, "GET", "/health")
        assert status == 200 and json.loads(raw) == {"status": "ok"}

    def test_loading_a_duplicate_name_is_a_400(self, server):
        status, raw = call(
            server, "POST", "/graphs", {"name": "tiny", "dataset": "citeseer"}
        )
        assert status == 400
        assert "already loaded" in json.loads(raw)["error"]["message"]


class TestQueriesEndToEnd:
    """The acceptance triangle: byte-identical to direct runs, cached
    repeats, budget rejections alongside healthy traffic."""

    @pytest.mark.parametrize(
        "workload,body",
        [
            ("motifs", {"max_size": 3}),
            ("match", {"query": "triangle"}),
            ("fsm", {"support": 3, "max_edges": 2}),
            ("cliques", {"max_size": 3}),
        ],
    )
    def test_server_payloads_match_direct_miner_runs(
        self, server, workload, body
    ):
        status, raw = call(
            server, "POST", f"/{workload}", {"graph": "tiny", **body}
        )
        assert status == 200
        served = json.loads(raw)["result"]
        direct = run_query(
            Miner(small_graph()), parse_request(workload, body)
        )
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_repeat_is_a_cache_hit_with_no_recompilation(self, server):
        body = {"graph": "tiny", "query": "square"}
        status, raw = call(server, "POST", "/match", body)
        assert status == 200
        first = json.loads(raw)
        assert first["cache"]["hit"] is False

        registry = server.service.registry
        hits_before = registry.cache_info().result_hits
        session_before = registry.get("tiny").cache_info()

        status, raw = call(server, "POST", "/match", body)
        assert status == 200
        second = json.loads(raw)
        assert second["cache"]["hit"] is True
        assert second["result"] == first["result"]
        assert registry.cache_info().result_hits == hits_before + 1
        session_after = registry.get("tiny").cache_info()
        assert session_after.plan_compilations == session_before.plan_compilations
        assert session_after.runs == session_before.runs

    def test_bad_execution_options_are_400_cold_and_warm(self, server):
        # Options are validated before the result cache is consulted: a
        # warm semantic query must not turn a bad option into a 200.
        body = {"graph": "tiny", "query": "triangle", "labeled": False}
        bad_options = [{"backend": "gpu"}, {"storage": "bogus"}]

        def answers():
            return [
                (status, json.loads(raw).get("error", {}).get("type"))
                for status, raw in (
                    call(server, "POST", "/match", {**body, **option})
                    for option in bad_options
                )
            ]

        assert answers() == [(400, "bad_request")] * 2
        status, raw = call(server, "POST", "/match", body)  # prime
        assert status == 200
        status, raw = call(server, "POST", "/match", body)
        assert json.loads(raw)["cache"]["hit"] is True
        assert answers() == [(400, "bad_request")] * 2

    def test_equivalent_spellings_share_one_cache_entry(self, server):
        call(server, "POST", "/match", {"graph": "tiny", "query": "wedge"})
        status, raw = call(
            server, "POST", "/match",
            {"graph": "tiny", "query": {"edges": [[1, 0], [1, 2]]}},
        )
        assert status == 200
        assert json.loads(raw)["cache"]["hit"] is True

    def test_budget_busting_query_422_while_healthy_queries_complete(
        self, server
    ):
        results = {}

        def post(key, body):
            results[key] = call(server, "POST", "/motifs", body, timeout=120)

        threads = [
            threading.Thread(
                target=post,
                args=(
                    "burst",
                    {"graph": "citeseer", "max_size": 4, "max_embeddings": 5},
                ),
            )
        ] + [
            threading.Thread(
                target=post,
                args=(f"ok{i}", {"graph": "tiny", "max_size": 3, "min_size": i}),
            )
            for i in (1, 2, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        status, raw = results["burst"]
        assert status == 422
        error = json.loads(raw)["error"]
        assert error["type"] == "budget_exceeded"
        assert error["kind"] == "embeddings" and error["limit"] == 5
        for key in ("ok1", "ok2", "ok3"):
            assert results[key][0] == 200

    def test_deadline_ms_maps_to_422(self, server):
        status, raw = call(
            server, "POST", "/motifs",
            {"graph": "citeseer", "max_size": 4, "deadline_ms": 0.001},
        )
        assert status == 422
        assert json.loads(raw)["error"]["kind"] == "deadline"

    def test_streaming_ndjson_rows(self, server):
        status, raw = call(
            server, "POST", "/match",
            {"graph": "tiny", "query": "wedge", "stream": True},
        )
        assert status == 200
        rows = [json.loads(line) for line in raw.decode().strip().split("\n")]
        meta = rows[0]["meta"]
        assert meta["workload"] == "match" and "cache" in meta
        matches = [row["match"] for row in rows[1:]]
        assert len(matches) == meta["num_matches"] > 0
        # Streamed rows agree with the unary payload for the same query.
        _, unary_raw = call(
            server, "POST", "/match", {"graph": "tiny", "query": "wedge"}
        )
        assert matches == json.loads(unary_raw)["result"]["matches"]


class TestDisconnectCancel:
    def test_preset_cancel_flag_aborts_the_run(self):
        import asyncio

        from repro.core import CancelFlag, RunCancelled

        registry = MinerRegistry()
        registry.load("tiny", small_graph())
        service = QueryService(registry)
        try:
            flag = CancelFlag()
            flag.set()
            with pytest.raises(RunCancelled):
                asyncio.run(
                    service.execute(
                        "motifs", {"graph": "tiny", "max_size": 3}, cancel=flag
                    )
                )
        finally:
            service.close()

    def test_client_disconnect_cancels_the_run(self):
        import socket
        import time

        registry = MinerRegistry()
        registry.load_dataset("citeseer", scale=0.1)
        service = QueryService(registry, max_concurrent=1, max_pending=0)
        handle = start_in_background(service)
        try:
            # Sized by embeddings, not wall time: the last step alone
            # expands ~53k stored embeddings, i.e. ~100 cancel probes.
            body = json.dumps(
                {"graph": "citeseer", "max_size": 5, "labeled": False}
            ).encode()
            sock = socket.create_connection(handle.address)
            sock.sendall(
                (
                    "POST /motifs HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            # Walk away only once the run is really in flight (admitted
            # and handed to the pool) — a gauge, not a guess at its speed.
            deadline = time.time() + 120
            while time.time() < deadline:
                if service.stats_payload()["admission"]["in_flight"] >= 1:
                    break
                time.sleep(0.005)
            assert service.stats_payload()["admission"]["in_flight"] >= 1
            sock.close()  # the client walks away mid-query
            deadline = time.time() + 120
            while time.time() < deadline:
                if service.stats.cancelled_disconnects >= 1:
                    break
                time.sleep(0.05)
            assert service.stats.cancelled_disconnects >= 1
            # The freed slot serves new clients immediately.
            status, _ = call(
                handle, "POST", "/motifs",
                {"graph": "citeseer", "max_size": 3}, timeout=120,
            )
            assert status == 200
        finally:
            handle.stop()


class TestAdmission:
    def test_overfull_pool_answers_429(self):
        registry = MinerRegistry()
        registry.load_dataset("citeseer", scale=0.1)
        service = QueryService(registry, max_concurrent=1, max_pending=0)
        handle = start_in_background(service)
        try:
            statuses = []
            lock = threading.Lock()

            def post(min_size):
                status, _ = call(
                    handle, "POST", "/motifs",
                    {"graph": "citeseer", "max_size": 4, "min_size": min_size,
                     "labeled": False},
                    timeout=120,
                )
                with lock:
                    statuses.append(status)

            threads = [
                threading.Thread(target=post, args=(i,)) for i in (1, 2, 3, 4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert 429 in statuses  # the pool is width 1 with no queue
            assert 200 in statuses  # but admitted queries complete
            assert service.stats.rejected_busy >= 1
        finally:
            handle.stop()

    def test_server_default_budgets_apply_when_request_sets_none(self):
        registry = MinerRegistry()
        registry.load("tiny", small_graph())
        service = QueryService(registry, default_max_embeddings=5)
        handle = start_in_background(service)
        try:
            status, raw = call(
                handle, "POST", "/motifs", {"graph": "tiny", "max_size": 4}
            )
            assert status == 422
            assert json.loads(raw)["error"]["limit"] == 5
            # A request's own (generous) budget overrides the default.
            status, _ = call(
                handle, "POST", "/motifs",
                {"graph": "tiny", "max_size": 4, "max_embeddings": 10**9},
            )
            assert status == 200
        finally:
            handle.stop()
