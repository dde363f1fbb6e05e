"""ReasoningServer tests: coalescing, error isolation, stats, both front ends.

One tiny MMKGR reasoner is trained per module; every test drives it through
the serving daemon and cross-checks against direct ``query``/``query_batch``
calls, which the serving layer must reproduce exactly (same engine, same
caches).
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import Prediction, Reasoner, ReasoningServer, ServeConfig, ServerStats
from repro.serve.server import _RequestHandler


@pytest.fixture(scope="module")
def fitted_reasoner(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def test_queries(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return [(t.head, t.relation) for t in tiny_dataset.splits.test[:8]]


def _ranking(predictions):
    return [(p.entity, round(p.score, 10)) for p in predictions]


class TestSubmit:
    def test_served_results_match_direct_queries(self, fitted_reasoner, test_queries):
        direct = fitted_reasoner.query_batch(test_queries, k=5)
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=20),
        ) as server:
            futures = [server.submit(h, r, k=5) for h, r in test_queries]
            served = [f.result(timeout=30) for f in futures]
        for direct_one, served_one in zip(direct, served):
            assert _ranking(direct_one) == _ranking(served_one)

    def test_burst_traffic_forms_micro_batches(self, fitted_reasoner, test_queries):
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=100),
        ) as server:
            futures = [server.submit(h, r, k=3) for h, r in test_queries * 2]
            for future in futures:
                future.result(timeout=30)
            stats = server.stats_dict()
        assert stats["requests_total"] == len(test_queries) * 2
        assert stats["batches_total"] < stats["requests_total"], (
            "a burst of concurrent queries must coalesce into micro-batches"
        )
        assert max(int(size) for size in stats["batch_size_histogram"]) > 1

    def test_error_isolation_across_batchmates(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=50),
        ) as server:
            good = server.submit(head, relation, k=3)
            bad = server.submit("no-such-entity", relation, k=3)
            also_good = server.submit(head, relation, k=3)
            assert good.result(timeout=30)
            assert also_good.result(timeout=30)
            with pytest.raises(KeyError, match="no-such-entity"):
                bad.result(timeout=30)
        assert server.stats.errors_total == 1

    def test_mixed_k_requests_are_grouped(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=50),
        ) as server:
            three = server.submit(head, relation, k=3).result(timeout=30)
            five = server.submit(head, relation, k=5).result(timeout=30)
        assert len(three) <= 3
        assert len(five) <= 5
        assert _ranking(three) == _ranking(five)[: len(three)]

    def test_worker_pool_replicas_share_caches(self, fitted_reasoner, test_queries):
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10, workers=3),
        ) as server:
            futures = [server.submit(h, r, k=3) for h, r in test_queries * 4]
            results = [f.result(timeout=30) for f in futures]
        assert all(results)
        stats = server.stats_dict()
        # Replicas share one action-space cache, so repeated traffic hits it.
        assert stats["cache"]["actions_hits"] > 0

    def test_submit_before_start_raises(self, fitted_reasoner):
        server = ReasoningServer(fitted_reasoner)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(0, 0)


class TestStats:
    def test_latency_percentiles_and_histogram(self):
        stats = ServerStats()
        for latency_ms in range(1, 101):
            stats.record_request(latency_ms / 1000.0)
        stats.record_batch(4)
        stats.record_batch(4)
        stats.record_batch(2)
        payload = stats.to_dict(queue_depth=7)
        assert payload["requests_total"] == 100
        assert payload["queue_depth"] == 7
        assert payload["batch_size_histogram"] == {"2": 1, "4": 2}
        assert payload["mean_batch_size"] == pytest.approx(10 / 3)
        assert 45 <= payload["latency_p50_ms"] <= 55
        assert 95 <= payload["latency_p99_ms"] <= 100

    def test_empty_stats_are_all_zero(self):
        payload = ServerStats().to_dict()
        assert payload["latency_p50_ms"] == 0.0
        assert payload["mean_batch_size"] == 0.0


class TestPercentile:
    """Regression tests for the linear-interpolation percentile.

    The previous nearest-rank implementation used ``int(round(...))``, whose
    banker's rounding made small-window p50/p99 jump between neighbouring
    samples (round-half-to-even: a 2-sample window reported p50 as the lower
    sample, a 4-sample window as the upper-middle one).
    """

    def test_single_sample_window_returns_the_sample(self):
        from repro.serve.server import _percentile

        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert _percentile([0.042], fraction) == 0.042

    def test_two_sample_window_interpolates(self):
        from repro.serve.server import _percentile

        sample = [0.010, 0.020]
        assert _percentile(sample, 0.50) == pytest.approx(0.015)
        assert _percentile(sample, 0.99) == pytest.approx(0.0199)
        assert _percentile(sample, 0.0) == 0.010
        assert _percentile(sample, 1.0) == 0.020

    def test_hundred_sample_window_matches_numpy(self):
        import numpy as np

        from repro.serve.server import _percentile

        sample = [float(value) for value in range(1, 101)]
        for fraction in (0.50, 0.90, 0.99):
            assert _percentile(sample, fraction) == pytest.approx(
                float(np.percentile(sample, 100 * fraction))
            )
        assert _percentile(sample, 0.50) == pytest.approx(50.5)
        assert _percentile(sample, 0.99) == pytest.approx(99.01)

    def test_order_independence(self):
        from repro.serve.server import _percentile

        shuffled = [0.03, 0.01, 0.05, 0.02, 0.04]
        assert _percentile(shuffled, 0.5) == 0.03


class TestParseQueryObject:
    """Regression tests: booleans must not pass as entity/relation ids or k.

    ``bool`` subclasses ``int``, so ``True`` used to sail through ``int(k)``
    and resolve as entity id 1 — a silently wrong answer instead of a 400.
    """

    def test_boolean_head_and_relation_rejected(self):
        from repro.serve.server import _parse_query_object

        with pytest.raises(ValueError, match="'head' must not be a boolean"):
            _parse_query_object({"head": True, "relation": 1}, default_k=10)
        with pytest.raises(ValueError, match="'relation' must not be a boolean"):
            _parse_query_object({"head": 0, "relation": False}, default_k=10)
        with pytest.raises(ValueError, match="'head' must not be a boolean"):
            _parse_query_object([True, 1], default_k=10)

    def test_boolean_k_rejected(self):
        from repro.serve.server import _parse_query_object

        with pytest.raises(ValueError, match="'k' must not be a boolean"):
            _parse_query_object({"head": 0, "relation": 1, "k": True}, default_k=10)

    def test_integer_payloads_still_parse(self):
        from repro.serve.server import _parse_query_object

        assert _parse_query_object({"head": 0, "relation": 1, "k": 3}, 10) == (0, 1, 3)
        assert _parse_query_object([2, 1], 10) == (2, 1, 10)

    def test_boolean_query_is_a_400_over_http(self, fitted_reasoner, test_queries):
        import threading
        import urllib.request

        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps({"head": True, "relation": 1}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert "boolean" in json.loads(excinfo.value.read())["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)


class TestHTTPFrontEnd:
    @pytest.fixture()
    def http_server(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)  # ephemeral port
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            yield base
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)

    def _post(self, url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_query_roundtrip(self, http_server, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        status, payload = self._post(
            f"{http_server}/query", {"head": head, "relation": relation, "k": 3}
        )
        assert status == 200
        direct = fitted_reasoner.query(head, relation, k=3)
        assert [p["entity"] for p in payload["predictions"]] == [p.entity for p in direct]

    def test_pair_payload_accepted(self, http_server, test_queries):
        head, relation = test_queries[0]
        status, payload = self._post(f"{http_server}/query", [head, relation])
        assert status == 200
        assert payload["predictions"]

    def test_bad_query_is_a_400_not_a_crash(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{http_server}/query", {"head": "nope"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_entity_is_a_400(self, http_server, test_queries):
        _, relation = test_queries[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{http_server}/query", {"head": "no-such-entity", "relation": relation})
        assert excinfo.value.code == 400

    def test_stats_and_healthz(self, http_server, test_queries):
        head, relation = test_queries[0]
        self._post(f"{http_server}/query", {"head": head, "relation": relation})
        with urllib.request.urlopen(f"{http_server}/stats", timeout=30) as response:
            stats = json.loads(response.read())
        assert stats["requests_total"] >= 1
        assert "latency_p99_ms" in stats and "batch_size_histogram" in stats
        with urllib.request.urlopen(f"{http_server}/healthz", timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert all(model["ready"] for model in payload["models"].values())

    def test_unknown_path_is_a_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{http_server}/nope", timeout=30)
        assert excinfo.value.code == 404


class _StubReasoner:
    """Answers instantly with ``k`` synthetic predictions; no model behind it.

    ``gate`` (when set) holds the first ``query_batch`` call until released,
    so a test can keep the only worker busy; ``answered`` records every
    query the stub computed.
    """

    name = "stub"

    def __init__(self, gate: "threading.Event | None" = None):
        self.gate = gate
        self.entered = threading.Event()
        self.answered = []

    def query(self, head, relation, k=10):
        return self.query_batch([(head, relation)], k=k)[0]

    def query_batch(self, queries, k=10):
        if self.gate is not None and not self.entered.is_set():
            self.entered.set()
            self.gate.wait(timeout=10)
        self.answered.extend(queries)
        return [
            [Prediction(entity=i, entity_name=f"entity_{i:05d}", score=-float(i)) for i in range(k)]
            for _ in queries
        ]


@contextlib.contextmanager
def _stub_http(reasoner):
    """Serve ``reasoner`` over HTTP on an ephemeral port with no batching delay."""
    server = ReasoningServer(reasoner, config=ServeConfig(max_wait_ms=0))
    httpd = server.http_server("127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()
        thread.join(timeout=5)


def _post_json(connection, payload):
    connection.request(
        "POST", "/query", body=json.dumps(payload), headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class TestKeepAlive:
    """Regression: a keep-alive reply must not wait out the delayed ACK.

    With Nagle on and the header block and body sent as two writes, every
    reply on a persistent connection stalled ~40 ms; the ``urllib`` tests
    above close the connection after each request and cannot see it.
    """

    def test_sequential_posts_on_one_connection_do_not_stall(self):
        with _stub_http(_StubReasoner()) as port:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                _post_json(connection, {"head": 0, "relation": 0, "k": 3})  # warm up
                started = time.perf_counter()
                statuses = [
                    _post_json(connection, {"head": i, "relation": 0, "k": 3})[0]
                    for i in range(20)
                ]
                elapsed = time.perf_counter() - started
            finally:
                connection.close()
        assert statuses == [200] * 20
        # Half of 20 delayed-ACK stalls: a stalled handler takes ~0.8 s.
        assert elapsed < 0.4

    def test_bad_query_then_good_query_on_one_connection(self):
        with _stub_http(_StubReasoner()) as port:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                status, payload = _post_json(connection, {"head": 0})
                assert status == 400 and "error" in payload
                status, payload = _post_json(connection, {"head": 0, "relation": 0, "k": 2})
                assert status == 200 and len(payload["predictions"]) == 2
            finally:
                connection.close()

    def test_reply_larger_than_the_write_buffer_arrives_intact(self):
        k = 2000
        with _stub_http(_StubReasoner()) as port:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request(
                    "POST", "/query", body=json.dumps({"head": 0, "relation": 0, "k": k})
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert len(body) > _RequestHandler.wbufsize
                assert [p["entity"] for p in json.loads(body)["predictions"]] == list(range(k))
                # The connection is still usable after the oversized reply.
                status, _ = _post_json(connection, {"head": 1, "relation": 0, "k": 1})
                assert status == 200
            finally:
                connection.close()

    def test_expect_100_continue_is_sent_before_the_body_is_read(self):
        body = json.dumps({"head": 0, "relation": 0, "k": 1}).encode()
        with _stub_http(_StubReasoner()) as port:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                )
                # The write buffer must not hold the interim reply back: the
                # client sends no body until it sees it.
                assert sock.recv(4096).startswith(b"HTTP/1.1 100")
                sock.sendall(body)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")


def _raw_exchange(port, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket and read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestRequestBodyBound:
    """A declared body length is checked before a byte of it is read."""

    @staticmethod
    def _post_with_length(length: str, body: bytes = b"") -> bytes:
        return (
            f"POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {length}\r\n\r\n"
        ).encode("ascii") + body

    @staticmethod
    def _status_and_headers(reply: bytes):
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v.strip() for k, _, v in (line.partition(":") for line in lines[1:])}
        return int(lines[0].split()[1]), headers, body

    @pytest.mark.parametrize("length", [str(64 * 1024 * 1024), str(1 << 40)])
    def test_oversized_body_is_a_413_and_the_connection_closes(self, length):
        with _stub_http(_StubReasoner()) as port:
            reply = _raw_exchange(port, self._post_with_length(length, b'{"head": 0'))
        status, headers, body = self._status_and_headers(reply)
        assert status == 413
        assert headers["connection"] == "close"
        assert "exceeds" in json.loads(body)["error"]

    def test_negative_length_is_a_400_and_the_connection_closes(self):
        with _stub_http(_StubReasoner()) as port:
            # Were the connection kept open, the trailing bytes would be
            # parsed as a second request and draw a second reply.
            reply = _raw_exchange(
                port,
                self._post_with_length("-5", b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            )
        status, headers, body = self._status_and_headers(reply)
        assert status == 400
        assert headers["connection"] == "close"
        assert reply.count(b"HTTP/1.1 ") == 1
        assert "Content-Length" in json.loads(body)["error"]


class TestReadTimeout:
    """A client that stops sending cannot hold a handler thread forever."""

    TIMEOUT_S = 0.5

    @pytest.fixture(autouse=True)
    def _short_timeout(self, monkeypatch):
        assert 0 < _RequestHandler.timeout <= 30  # the shipped bound is finite
        monkeypatch.setattr(_RequestHandler, "timeout", self.TIMEOUT_S)

    def test_stalled_body_is_a_408_and_the_connection_closes(self):
        with _stub_http(_StubReasoner()) as port:
            started = time.perf_counter()
            # 10 of the 100 declared body bytes, then silence.
            reply = _raw_exchange(
                port, TestRequestBodyBound._post_with_length("100", b'{"head": 0')
            )
            elapsed = time.perf_counter() - started
        status, headers, body = TestRequestBodyBound._status_and_headers(reply)
        assert status == 408
        assert headers["connection"] == "close"
        assert "not received" in json.loads(body)["error"]
        assert self.TIMEOUT_S * 0.9 <= elapsed < self.TIMEOUT_S + 2.0

    def test_idle_keep_alive_connection_is_closed(self):
        with _stub_http(_StubReasoner()) as port:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                body = json.dumps({"head": 0, "relation": 0, "k": 1}).encode()
                sock.sendall(
                    TestRequestBodyBound._post_with_length(str(len(body)), body)
                )
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                started = time.perf_counter()
                assert sock.recv(65536) == b""  # the server hung up
                elapsed = time.perf_counter() - started
        assert self.TIMEOUT_S * 0.9 <= elapsed < self.TIMEOUT_S + 2.0

    def test_keep_alive_sequence_within_the_timeout_is_served(self):
        with _stub_http(_StubReasoner()) as port:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                statuses = []
                for head in range(4):
                    time.sleep(self.TIMEOUT_S / 4)
                    payload = {"head": head, "relation": 0, "k": 1}
                    statuses.append(_post_json(connection, payload)[0])
            finally:
                connection.close()
        assert statuses == [200] * 4


class TestResultTimeout:
    def test_timed_out_request_is_a_504_and_never_computed(self, monkeypatch):
        monkeypatch.setattr(_RequestHandler, "result_timeout_s", 0.05)
        gate = threading.Event()
        stub = _StubReasoner(gate=gate)
        with _stub_http(stub) as port:
            replies = {}

            def post(head):
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    replies[head] = _post_json(connection, {"head": head, "relation": 0, "k": 1})
                finally:
                    connection.close()

            # Head 1 occupies the only worker; head 2 waits in the queue
            # behind it until both time out.
            busy = threading.Thread(target=post, args=(1,))
            busy.start()
            assert stub.entered.wait(timeout=10)
            post(2)
            busy.join(timeout=10)
            gate.set()
        assert replies[1][0] == 504 and replies[2][0] == 504
        assert "no result within" in replies[2][1]["error"]
        # The server drained on close; the cancelled request never ran.
        assert stub.answered == [(1, 0)]


class TestHealthz:
    """Regression: /healthz must flip to 503 the moment a drain starts.

    The endpoint used to answer ``{"status": "ok"}`` unconditionally — load
    balancers kept routing to daemons that were already shutting down.
    """

    def test_unstarted_server_is_unready(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        healthy, payload = server.healthz_dict()
        assert healthy is False and payload["status"] == "unready"
        server.close()

    def test_running_server_reports_per_model_readiness(self, fitted_reasoner):
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            server.add_model(reasoner=fitted_reasoner.replicate(), name="replica")
            healthy, payload = server.healthz_dict()
            assert healthy is True and payload["status"] == "ok"
            assert set(payload["models"]) == {fitted_reasoner.name, "replica"}
            assert all(model["ready"] for model in payload["models"].values())

    def test_drain_flips_healthz_before_workers_finish(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ).start()
        server.close()
        healthy, payload = server.healthz_dict()
        assert healthy is False
        assert payload["status"] == "draining"
        assert all(model["ready"] is False for model in payload["models"].values())

    def test_http_healthz_returns_503_while_draining(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                assert response.status == 200
            server.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/healthz", timeout=30)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["status"] == "draining"
            assert body["models"] and all(
                model["ready"] is False for model in body["models"].values()
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)


class TestStdioFrontEnd:
    def test_json_lines_roundtrip(self, fitted_reasoner, test_queries):
        (h0, r0), (h1, r1) = test_queries[0], test_queries[1]
        lines = [
            json.dumps({"head": h0, "relation": r0, "k": 3}),
            json.dumps([h1, r1]),
            "not json at all",
            json.dumps({"head": "no-such-entity", "relation": r0}),
        ]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        assert failures == 2
        assert len(records) == 4
        ok = [r for r in records if "predictions" in r]
        failed = [r for r in records if "error" in r]
        assert len(ok) == 2 and len(failed) == 2
        assert ok[0]["head"] == h0 and len(ok[0]["predictions"]) <= 3

    def test_mixed_stream_exit_counts_and_output_order(
        self, fitted_reasoner, test_queries
    ):
        """Satellite: valid, malformed, and unknown-entity lines interleaved.

        Contract: answered lines (including unknown-entity failures, which
        fail at execution time) come back in input order relative to each
        other; lines that cannot even be submitted (malformed JSON, boolean
        fields) are answered immediately with an ``"input"`` echo; the return
        value counts every failed line of either kind.
        """
        (h0, r0), (h1, r1), (h2, r2) = test_queries[0], test_queries[1], test_queries[2]
        lines = [
            json.dumps({"head": h0, "relation": r0, "k": 3}),
            "{broken json",
            json.dumps({"head": "no-such-entity", "relation": r0}),
            json.dumps([h1, r1]),
            json.dumps({"head": True, "relation": r0}),  # boolean: submit-time reject
            json.dumps({"head": h2, "relation": r2, "k": 2}),
        ]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        # 3 failures: broken JSON + unknown entity + boolean head.
        assert failures == 3
        assert len(records) == len(lines)
        # Submitted lines (valid + unknown-entity) are emitted in input order.
        submitted = [r for r in records if "input" not in r]
        assert [r["head"] for r in submitted] == [h0, "no-such-entity", h1, h2]
        assert "error" in submitted[1]
        assert all("predictions" in r for r in (submitted[0], submitted[2], submitted[3]))
        # Unsubmittable lines echo their raw input for correlation.
        unsubmitted = [r for r in records if "input" in r]
        assert [r["input"] for r in unsubmitted] == [lines[1], lines[4]]
        assert all("error" in r for r in unsubmitted)

    def test_all_failures_stream_returns_every_error(self, fitted_reasoner):
        lines = ["nonsense", json.dumps({"head": "ghost", "relation": "ghost-rel"})]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=2, max_wait_ms=5),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        assert failures == 2
        assert len(records) == 2
        assert all("error" in r for r in records)
