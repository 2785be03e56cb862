"""The HTTP server behind ``mudbscan serve``.

One server answers at every worker count: the async front door over a
:class:`~repro.serving.fleet.Fleet`.  Each behaviour here is checked at
the default in-process worker (``n_workers=0``) and at two kd-sharded
worker processes, the layout the repo benchmark serves through —
predict parity, the info endpoints, body validation (every bad body is
a 400 carrying its request id), HTTP framing, readiness, graceful
drain, hot swap under traffic and retained traces of failed requests.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time

import pytest

from repro.data.synthetic import blobs_with_noise
from repro.observability.registry import MetricsRegistry
from repro.serving.fleet import Fleet, FleetConfig, start_in_thread
from repro.serving.fleet.frontdoor import MAX_BODY_BYTES
from repro.serving.model import fit_model, save_model
from repro.serving.predict import predict_model

WORKER_COUNTS = (0, 2)


@pytest.fixture(scope="module")
def model():
    return fit_model(blobs_with_noise(300, 2, 3, noise_fraction=0.25, seed=7), 0.08, 6)


@pytest.fixture(scope="module")
def doors(model):
    """A traced front door per worker count: ``{n_workers: handle}``."""
    with contextlib.ExitStack() as stack:
        handles = {}
        for n in WORKER_COUNTS:
            fleet = stack.enter_context(
                Fleet(model, FleetConfig(n_workers=n), registry=MetricsRegistry())
            )
            handles[n] = stack.enter_context(
                start_in_thread(fleet, port=0, tracing=True)
            )
        yield handles


def _http(port: int, method: str, path: str, body=None, headers=None):
    """(status, lower-cased headers, parsed body) for one request."""
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method, path, body, {"Content-Type": "application/json", **(headers or {})}
        )
        resp = conn.getresponse()
        raw = resp.read()
        hdrs = {k.lower(): v for k, v in resp.getheaders()}
        try:
            return resp.status, hdrs, json.loads(raw)
        except ValueError:
            return resp.status, hdrs, raw.decode()
    finally:
        conn.close()


def _assert_rejected(doors, body, needle: str = "") -> None:
    """Both worker counts answer ``body`` with a 400 that carries its
    request id (header and JSON field) and mentions ``needle``."""
    for n, door in doors.items():
        status, hdrs, payload = _http(door.port, "POST", "/predict", body)
        assert status == 400, (n, payload)
        assert payload["request_id"] == hdrs["x-request-id"]
        assert needle in payload["error"], (n, payload["error"])


def _worker_totals(port: int) -> tuple[int, int, int]:
    """(requests, cache hits, latency count) summed over the workers."""
    _, _, stats = _http(port, "GET", "/stats")
    workers = stats["workers_detail"]
    return (
        sum(w["requests"] for w in workers),
        sum(w["cache"]["hits"] for w in workers),
        sum(w["latency_seconds"]["count"] for w in workers),
    )


class TestPredictEndpoint:
    def test_batch_matches_predict_model(self, doors, model, small_blobs):
        queries = small_blobs[:16]
        want = predict_model(model, queries)
        for door in doors.values():
            status, _, body = _http(
                door.port, "POST", "/predict", {"points": queries.tolist()}
            )
            assert status == 200
            assert body["labels"] == want.labels.tolist()
            assert body["would_be_core"] == want.would_be_core.tolist()
            assert body["nearest_core"] == want.nearest_core.tolist()
            assert body["n_neighbors"] == want.n_neighbors.tolist()

    def test_single_point_form(self, doors, model, small_blobs):
        want = predict_model(model, small_blobs[0])
        for door in doors.values():
            status, _, body = _http(
                door.port, "POST", "/predict", {"point": small_blobs[0].tolist()}
            )
            assert status == 200
            assert body["labels"] == [int(want.labels[0])]
            assert len(body["n_neighbors"]) == 1

    def test_noise_distance_serialized_as_null(self, doors):
        for door in doors.values():
            status, _, body = _http(
                door.port, "POST", "/predict", {"point": [1e6, 1e6]}
            )
            assert status == 200
            assert body["labels"] == [-1]
            assert body["nearest_core_dist"] == [None]

    def test_bad_json(self, doors):
        _assert_rejected(doors, b"{not json", "JSON")

    def test_missing_points_key(self, doors):
        _assert_rejected(doors, {"rows": [[0.0, 0.0]]}, "points")

    def test_wrong_dimension(self, doors):
        _assert_rejected(doors, {"points": [[1.0, 2.0, 3.0]]}, "(1, 3)")

    def test_ragged_rows(self, doors):
        _assert_rejected(doors, {"points": [[1.0, 2.0], [3.0]]})

    def test_non_finite_rejected(self, doors):
        _assert_rejected(doors, {"points": [[float("nan"), 0.0]]}, "finite")

    def test_empty_body(self, doors):
        _assert_rejected(doors, b"", "JSON")

    def test_one_d_body(self, doors):
        _assert_rejected(doors, {"points": [1.0, 2.0]}, "(2,)")

    def test_unknown_post_path(self, doors):
        for door in doors.values():
            assert _http(door.port, "POST", "/nope", {"points": [[0.0, 0.0]]})[0] == 404


class TestInfoEndpoints:
    def test_healthz(self, doors, model):
        for n, door in doors.items():
            status, _, body = _http(door.port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["n_workers"] == n
            assert body["model"]["n"] == model.n
            assert body["model"]["dim"] == 2
            assert body["model"]["eps"] == pytest.approx(0.08)

    def test_stats_reflects_traffic(self, doors, small_blobs):
        for door in doors.values():
            before = _worker_totals(door.port)
            batch = {"points": small_blobs[:4].tolist()}
            for _ in range(2):
                _http(door.port, "POST", "/predict", batch)
            requests, hits, latencies = (
                a - b for a, b in zip(_worker_totals(door.port), before)
            )
            assert requests == 8
            assert hits >= 4  # the repeat batch was cached
            assert latencies == 8

    def test_unknown_get_path(self, doors):
        for door in doors.values():
            assert _http(door.port, "GET", "/nope")[0] == 404


class TestConcurrency:
    def test_parallel_single_point_clients(self, doors, model, small_blobs):
        """Many simultaneous single-point POSTs all come back correct."""
        n_req = 12
        want = predict_model(model, small_blobs[:n_req]).labels.tolist()
        for door in doors.values():
            results: list = [None] * n_req

            def call(i):
                _, _, body = _http(
                    door.port, "POST", "/predict", {"point": small_blobs[i].tolist()}
                )
                results[i] = body["labels"][0]

            threads = [threading.Thread(target=call, args=(i,)) for i in range(n_req)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == want


class TestReadyzAndDrain:
    def test_readyz_tracks_engine_warmup(self, model):
        """The door binds only once the generation is warm, so /readyz
        is 200 from its first answer; it turns 503 when the fleet
        closes, while /healthz keeps answering."""
        fleet = Fleet(model, FleetConfig(n_workers=0)).start()
        with start_in_thread(fleet, port=0) as door:
            status, _, body = _http(door.port, "GET", "/readyz")
            assert status == 200
            assert body["ready"] is True
            assert body["version"] == model.version_token()
            fleet.close()
            status, _, body = _http(door.port, "GET", "/readyz")
            assert status == 503
            assert body["ready"] is False
            assert _http(door.port, "GET", "/healthz")[0] == 200

    def test_graceful_shutdown_drains_inflight(self, model, small_blobs):
        """Stopping the door waits for an admitted request to finish:
        the in-flight POST, parked inside the worker, still gets its 200."""
        with Fleet(model, FleetConfig(n_workers=0)) as fleet:
            engine = fleet._active.workers[0].core.engine
            release = threading.Event()
            orig_predict = engine.predict

            def slow_predict(queries):
                release.wait(timeout=10.0)
                return orig_predict(queries)

            engine.predict = slow_predict
            handle = start_in_thread(fleet, port=0)
            statuses: list[int] = []
            req = threading.Thread(
                target=lambda: statuses.append(
                    _http(handle.port, "POST", "/predict",
                          {"points": small_blobs[:4].tolist()})[0]
                )
            )
            req.start()
            time.sleep(0.2)  # the request is inside the worker, parked
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            time.sleep(0.2)
            assert stopper.is_alive()  # the stop is waiting on the request
            release.set()
            req.join(timeout=10.0)
            stopper.join(timeout=10.0)
            assert statuses == [200]
            assert not stopper.is_alive()


class TestFraming:
    """Malformed HTTP framing is answered, never dropped or misread."""

    @staticmethod
    def _raw(port: int, head: str) -> tuple[int, bytes, bytes]:
        """Send a request head; (status, response head, response body).
        Reads to EOF, so it also checks the server closes after a refusal."""
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head.encode("latin-1") + b"\r\n\r\n")
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        resp_head, _, rest = data.partition(b"\r\n\r\n")
        return int(resp_head.split()[1]), resp_head, rest

    def test_non_integer_content_length_is_400_and_close(self, doors):
        status, head, rest = self._raw(
            doors[0].port, "POST /predict HTTP/1.1\r\nContent-Length: ten"
        )
        assert status == 400
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(rest)["error"]

    def test_negative_content_length_is_400_and_close(self, doors):
        status, head, _ = self._raw(
            doors[0].port, "POST /predict HTTP/1.1\r\nContent-Length: -5"
        )
        assert status == 400
        assert b"Connection: close" in head

    def test_oversize_is_413_and_close(self, doors):
        status, head, rest = self._raw(
            doors[0].port,
            f"POST /predict HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}",
        )
        assert status == 413
        assert b"Connection: close" in head
        assert str(MAX_BODY_BYTES) in json.loads(rest)["error"]

    def test_former_oversize_marker_is_an_ordinary_body(self, doors):
        status, _, body = _http(doors[0].port, "POST", "/predict", b"__TOO_LARGE__")
        assert status == 400
        assert "JSON" in body["error"]


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
class TestPerWorkerCount:
    def test_deadline_exceeded_is_504(self, doors, n_workers, small_blobs):
        status, hdrs, body = _http(
            doors[n_workers].port, "POST", "/predict",
            {"points": small_blobs.tolist()}, headers={"X-Deadline-Ms": "0.001"},
        )
        assert status == 504
        assert "deadline" in body["error"]
        assert body["request_id"] == hdrs["x-request-id"]

    def test_errored_request_keeps_its_trace(self, doors, n_workers):
        port = doors[n_workers].port
        status, hdrs, _ = _http(port, "POST", "/predict", {"points": [[1.0, 2.0, 3.0]]})
        assert status == 400
        rid = hdrs["x-request-id"]
        deadline = time.monotonic() + 5.0  # retention happens after the reply
        while (got := _http(port, "GET", f"/traces/{rid}"))[0] != 200:
            assert time.monotonic() < deadline, f"trace {rid} never retained"
            time.sleep(0.02)
        trace = got[2]
        assert trace["status"] == 400 and trace["reason"] == "error"
        assert "(1, 3)" in trace["error"]

    def test_hot_swap_under_traffic_fails_nothing(
        self, model, n_workers, small_blobs, tmp_path
    ):
        """Traffic through the door across ``POST /admin/swap``: every
        request answers 200 and post-swap answers are the new model's."""
        model_v2 = fit_model(model.points, 0.12, 8)
        path = tmp_path / "v2.mudb"
        save_model(model_v2, path)
        with Fleet(model, FleetConfig(n_workers=n_workers)) as fleet:
            with start_in_thread(fleet, port=0) as door:
                stop = threading.Event()
                statuses: list[int] = []

                def traffic() -> None:
                    while not stop.is_set():
                        statuses.append(
                            _http(door.port, "POST", "/predict",
                                  {"points": small_blobs[:8].tolist()})[0]
                        )

                t = threading.Thread(target=traffic)
                t.start()
                try:
                    time.sleep(0.2)
                    status, _, report = _http(
                        door.port, "POST", "/admin/swap", {"model_path": str(path)}
                    )
                    time.sleep(0.2)
                finally:
                    stop.set()
                    t.join(timeout=30)
                assert status == 200
                assert report["to_version"] == model_v2.version_token()
                assert statuses and set(statuses) == {200}
                _, _, body = _http(
                    door.port, "POST", "/predict", {"points": small_blobs.tolist()}
                )
                want = predict_model(model_v2, small_blobs)
                assert body["labels"] == want.labels.tolist()
