"""The fleet end-to-end: spawned and in-process workers, front door,
hot swap.

Spawned-process tests are kept deliberately small (2-worker fleets on
a few-hundred-point model) — the exactness burden lives in the
in-process sharded parity suite (test_fleet_router.py); here the
contract under test is the *fleet machinery*: shared-memory loading,
pipe transport, admission control, deadlines, graceful shutdown and
the zero-failure hot swap.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.observability.prometheus import render_prometheus
from repro.observability.registry import MetricsRegistry
from repro.serving.fleet import Fleet, FleetClosed, FleetConfig, start_in_thread
from repro.serving.model import fit_model
from repro.serving.predict import predict_model


@pytest.fixture(scope="module")
def model(request):
    rng = np.random.default_rng(17)
    pts = np.concatenate(
        [
            rng.normal([0.0, 0.0], 0.05, (120, 2)),
            rng.normal([1.0, 1.0], 0.05, (120, 2)),
            rng.uniform(-0.5, 1.5, (40, 2)),
        ]
    )
    return fit_model(pts, 0.08, 6)


@pytest.fixture(scope="module")
def model_v2(model):
    return fit_model(model.points, 0.12, 8)


@pytest.fixture(scope="module")
def queries(model):
    rng = np.random.default_rng(23)
    return rng.uniform(-0.6, 1.6, (200, 2))


@pytest.fixture(scope="module")
def fleet(model):
    registry = MetricsRegistry(enabled=True)
    with Fleet(model, FleetConfig(n_workers=2, router="kd"), registry=registry) as f:
        yield f


def _http(port: int, method: str, path: str, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method,
            path,
            json.dumps(body) if body is not None else None,
            {"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        raw = resp.read()
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            return resp.status, raw.decode()
    finally:
        conn.close()


class TestFleet:
    def test_metrics_scrape_on_idle_fleet(self, fleet):
        """Scraping before any traffic must not crash: idle workers
        report a None latency p99 the collector has to tolerate."""
        text = render_prometheus(fleet.registry)
        assert "mudbscan_fleet_workers 2" in text
        assert "mudbscan_fleet_worker_requests_total" in text
        assert "mudbscan_fleet_worker_latency_p99_seconds" in text

    def test_parity_with_single_process(self, fleet, model, queries):
        got = fleet.predict(queries, timeout=60)
        want = predict_model(model, queries)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.would_be_core, want.would_be_core)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)
        np.testing.assert_array_equal(got.nearest_core_dist, want.nearest_core_dist)
        np.testing.assert_array_equal(got.n_neighbors, want.n_neighbors)

    def test_ready_and_describe(self, fleet, model):
        assert fleet.ready
        desc = fleet.describe()
        assert desc["serving"] and desc["n_workers"] == 2
        assert desc["version"] == model.version_token()
        assert all(w["alive"] for w in desc["workers"])
        stats = fleet.worker_stats()
        assert len(stats) == 2 and all("requests" in s for s in stats)

    def test_single_row_and_concurrent_submits(self, fleet, model, queries):
        want = predict_model(model, queries)
        futures = [fleet.submit(queries[i]) for i in range(32)]
        for i, fut in enumerate(futures):
            got = fut.result(timeout=60)
            assert got.labels[0] == want.labels[i]
            assert got.nearest_core[0] == want.nearest_core[i]

    def test_round_robin_replicas(self, model, queries):
        with Fleet(model, FleetConfig(n_workers=2, router="none")) as f:
            got = f.predict(queries, timeout=60)
            want = predict_model(model, queries)
            np.testing.assert_array_equal(got.labels, want.labels)
            # both replicas actually served traffic
            for _ in range(4):
                f.predict(queries[:4], timeout=60)
            served = [s["requests"] for s in f.worker_stats()]
            assert all(r > 0 for r in served)

    def test_close_rejects_new_work(self, model):
        f = Fleet(model, FleetConfig(n_workers=1)).start()
        assert f.predict(np.zeros((1, 2)), timeout=60) is not None
        f.close()
        with pytest.raises(FleetClosed):
            f.predict(np.zeros((1, 2)))

    def test_worker_sigterm_drains_then_exits(self, model):
        """SIGTERM makes a worker finish up and exit cleanly."""
        f = Fleet(model, FleetConfig(n_workers=1)).start()
        try:
            f.predict(np.zeros((1, 2)), timeout=60)
            worker = f._active.workers[0]
            os.kill(worker.proc.pid, signal.SIGTERM)
            worker.proc.join(timeout=30)
            assert worker.proc.exitcode == 0
        finally:
            f.close()


class TestInProcessWorker:
    def test_starts_no_process_or_segment(self, model, queries):
        """``n_workers=0``: the worker runs in this process, over the
        model itself — no child process, no shared-memory segment."""
        shm_before = set(os.listdir("/dev/shm"))
        children_before = set(multiprocessing.active_children())
        with Fleet(model, FleetConfig(n_workers=0)) as f:
            assert set(multiprocessing.active_children()) == children_before
            assert set(os.listdir("/dev/shm")) == shm_before
            assert f._active.segments == []
            desc = f.describe()
            assert desc["n_workers"] == 0
            assert [w["pid"] for w in desc["workers"]] == [os.getpid()]
            got = f.predict(queries, timeout=60)
            want = predict_model(model, queries)
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.nearest_core, want.nearest_core)
            np.testing.assert_array_equal(got.nearest_core_dist, want.nearest_core_dist)
        assert set(os.listdir("/dev/shm")) == shm_before


class TestHotSwap:
    def test_concurrent_swap_zero_failures(self, model, model_v2, queries):
        """Sustained traffic across a v1→v2 swap: zero errors, monotonic
        version, and post-swap answers match a fresh v2 oracle."""
        with Fleet(model, FleetConfig(n_workers=2, router="kd")) as f:
            v1 = f.version
            assert v1 == model.version_token() and f.generation == 1

            stop = threading.Event()
            failures: list[BaseException] = []
            completed = [0]
            versions_seen: list[str] = []

            def _traffic() -> None:
                rng = np.random.default_rng(31)
                while not stop.is_set():
                    rows = rng.integers(0, queries.shape[0], 8)
                    try:
                        f.predict(queries[rows], timeout=60)
                        completed[0] += 1
                        versions_seen.append(f.version)
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)

            drivers = [threading.Thread(target=_traffic, daemon=True) for _ in range(3)]
            for t in drivers:
                t.start()
            time.sleep(0.3)
            report = f.swap(model_v2)
            time.sleep(0.3)
            stop.set()
            for t in drivers:
                t.join(timeout=30)

            assert failures == []
            assert completed[0] > 0
            assert report.from_version == v1
            assert report.to_version == model_v2.version_token()
            assert f.generation == 2 and f.version == model_v2.version_token()
            # observed version sequence is monotonic: once v2 appears,
            # v1 never does again
            order = [v == report.to_version for v in versions_seen]
            first_v2 = order.index(True) if True in order else len(order)
            assert all(order[first_v2:]), "version went backwards mid-traffic"

            got = f.predict(queries, timeout=60)
            want = predict_model(model_v2, queries)
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.nearest_core, want.nearest_core)


class TestFrontDoor:
    @pytest.fixture(scope="class")
    def door(self, fleet):
        with start_in_thread(fleet, port=0, max_inflight=8) as handle:
            yield handle

    def test_readyz_healthz(self, door):
        status, body = _http(door.port, "GET", "/readyz")
        assert status == 200 and body["ready"] is True
        status, body = _http(door.port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_predict_parity_over_http(self, door, model, queries):
        status, body = _http(
            door.port, "POST", "/predict", {"points": queries[:32].tolist()}
        )
        assert status == 200
        want = predict_model(model, queries[:32])
        assert body["labels"] == [int(x) for x in want.labels]
        assert body["nearest_core"] == [int(x) for x in want.nearest_core]

    def test_bad_bodies(self, door):
        assert _http(door.port, "POST", "/predict", {"nope": 1})[0] == 400
        assert _http(door.port, "POST", "/predict", {"points": []})[0] == 400
        assert (
            _http(door.port, "POST", "/predict", {"points": [[1.0, float("nan")]]})[0]
            == 400
        )
        assert _http(door.port, "GET", "/nothing")[0] == 404

    def test_deadline_exceeded_is_504(self, door, queries):
        status, body = _http(
            door.port,
            "POST",
            "/predict",
            {"points": queries.tolist()},
            headers={"X-Deadline-Ms": "0.001"},
        )
        assert status == 504
        assert "deadline" in body["error"]

    def test_backpressure_is_429_with_retry_after(self, door, queries):
        """Past the admission limit the door answers 429 + Retry-After
        instead of queueing (limit pinned to 0 to make it deterministic)."""
        door.door.max_inflight = 0
        try:
            conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/predict",
                    json.dumps({"points": queries[:4].tolist()}),
                    {"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                body = json.loads(resp.read())
                assert resp.status == 429
                assert float(resp.headers["Retry-After"]) > 0
                assert body["error"] == "fleet saturated"
            finally:
                conn.close()
        finally:
            door.door.max_inflight = 8
        # admitted again after the limit is restored
        assert _http(door.port, "POST", "/predict", {"points": queries[:4].tolist()})[0] == 200

    def test_stats_and_metrics(self, door, fleet):
        status, body = _http(door.port, "GET", "/stats")
        assert status == 200
        assert body["front_door"]["max_inflight"] == 8
        assert len(body["workers_detail"]) == 2
        status, text = _http(door.port, "GET", "/metrics")
        assert status == 200
        if fleet.registry.enabled:
            assert "mudbscan_fleet_requests_total" in text

    def test_graceful_stop_finishes_inflight(self, fleet, model, queries):
        """Stopping the door drains requests already admitted."""
        with start_in_thread(fleet, port=0, max_inflight=8) as handle:
            results: list[int] = []

            def _slow_request() -> None:
                results.append(
                    _http(
                        handle.port, "POST", "/predict",
                        {"points": queries.tolist()},
                    )[0]
                )

            t = threading.Thread(target=_slow_request)
            t.start()
            time.sleep(0.05)
            handle.stop(timeout=60)
            t.join(timeout=60)
            assert results == [200]
