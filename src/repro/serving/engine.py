"""The thread-safe online query engine.

:class:`QueryEngine` turns a :class:`~repro.serving.model.FittedModel`
into a serving object:

* **micro-batching** — concurrent single-point requests submitted via
  :meth:`submit` are gathered (up to ``max_batch`` points or
  ``max_wait_ms`` after the first arrival, whichever comes first) and
  answered as **one** vectorized prediction block, so under load the
  per-request Python overhead is amortised exactly like the fit-time
  batched engine amortises per-point queries;
* **LRU caching** — answers are cached keyed by coordinates quantized
  to ``cache_decimals`` decimal places, so repeat lookups of hot
  points (the million-user serving pattern) skip the index entirely;
* **instrumentation** — hit/miss/batch counters land in a
  :class:`~repro.instrumentation.counters.Counters` (``extra`` slots)
  and per-request latencies in a
  :class:`~repro.instrumentation.latency.LatencyWindow`, both exposed
  through :meth:`stats`.

The cache is exact-by-construction only up to quantization: two
queries that agree in the first ``cache_decimals`` decimals share an
answer.  The default (12) is far below any meaningful ε, and
``cache_size=0`` disables caching entirely for exact-paranoid callers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import NamedTuple

import numpy as np

from repro.instrumentation.counters import Counters
from repro.instrumentation.latency import LatencyWindow
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE
from repro.observability.adapters import (
    CountersCollector,
    LatencyWindowCollector,
)
from repro.observability.registry import (
    FamilySnapshot,
    MetricsRegistry,
    Sample,
    get_registry,
)
from repro.serving.predict import PredictResult, predict_model

__all__ = ["QueryEngine", "PredictRow"]


class PredictRow(NamedTuple):
    """One query's answer (the scalar view of a result row)."""

    label: int
    would_be_core: bool
    nearest_core: int
    nearest_core_dist: float
    n_neighbors: int


def _rows(result: PredictResult) -> list[PredictRow]:
    return [
        PredictRow(
            int(result.labels[i]),
            bool(result.would_be_core[i]),
            int(result.nearest_core[i]),
            float(result.nearest_core_dist[i]),
            int(result.n_neighbors[i]),
        )
        for i in range(len(result))
    ]


def _pack(rows: list[PredictRow]) -> PredictResult:
    return PredictResult(
        labels=np.asarray([r.label for r in rows], dtype=np.int64),
        would_be_core=np.asarray([r.would_be_core for r in rows], dtype=bool),
        nearest_core=np.asarray([r.nearest_core for r in rows], dtype=np.int64),
        nearest_core_dist=np.asarray(
            [r.nearest_core_dist for r in rows], dtype=np.float64
        ),
        n_neighbors=np.asarray([r.n_neighbors for r in rows], dtype=np.int64),
    )


class QueryEngine:
    """Micro-batching, caching front-end over a fitted model.

    Parameters
    ----------
    model:
        The :class:`FittedModel` to serve.
    max_batch:
        Most requests answered in one micro-batch block.
    max_wait_ms:
        How long the batcher holds the first request of a batch while
        waiting for company — the latency/throughput knob.
    cache_size:
        LRU entries (0 disables the cache).
    cache_decimals:
        Coordinate quantization for cache keys.
    block_size:
        Row budget per vectorized distance block (see docs/TUNING.md).
    registry:
        :class:`~repro.observability.registry.MetricsRegistry` the
        engine publishes into (request/batch/cache counters, a latency
        histogram, and scrape-time cache/model gauges — the series
        behind ``GET /metrics``).  Defaults to the active registry,
        which is the disabled no-op unless one was installed.
    """

    def __init__(
        self,
        model,
        *,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        cache_size: int = 4096,
        cache_decimals: int = 12,
        block_size: int = DEFAULT_BLOCK_SIZE,
        latency_capacity: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.model = model
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.cache_size = cache_size
        self.cache_decimals = cache_decimals
        self.block_size = block_size
        self.counters = Counters()
        self.latency = LatencyWindow(latency_capacity)
        # observability: direct primitives on the hot path, scrape-time
        # collectors for everything derived — all no-ops when the
        # registry is the disabled default
        self.registry = registry if registry is not None else get_registry()
        self._m_requests = self.registry.counter(
            "mudbscan_serving_requests_total", "prediction requests answered"
        )
        self._m_batches = self.registry.counter(
            "mudbscan_serving_batches_total", "micro-batches executed"
        )
        self._m_cache_hits = self.registry.counter(
            "mudbscan_serving_cache_hits_total", "LRU answer-cache hits"
        )
        self._m_cache_misses = self.registry.counter(
            "mudbscan_serving_cache_misses_total", "LRU answer-cache misses"
        )
        self._m_latency = self.registry.histogram(
            "mudbscan_serving_request_latency_seconds",
            "per-request latency through the engine",
        )
        if self.registry.enabled:
            self.registry.register_collector(self._collect_engine_state)
            self.registry.register_collector(
                LatencyWindowCollector(self.latency)
            )
            self.registry.register_collector(self._collect_index_counters)
        self._cache: OrderedDict[bytes, PredictRow] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._predict_lock = threading.Lock()
        # cache keys are namespaced by the served model's content hash +
        # engine tier, so a hot swap can never serve another model's rows
        self._model_token = self._token_for(model)
        self._warm = False
        self._swaps = 0
        # micro-batch queue: (coords, future, t_submitted)
        self._queue: list[tuple[np.ndarray, Future, float]] = []
        self._queue_cv = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._batch_loop, name="mudbscan-batcher", daemon=True
        )
        self._worker.start()
        # build the routing table eagerly so the first request does not
        # pay its (one-off) construction
        self.model.route_table

    # ------------------------------------------------------------------
    # observability

    def _collect_engine_state(self):
        """Scrape-time gauges derived from engine state (cache, ratio)."""
        extra = self.counters.extra
        hits = extra.get("serve_cache_hits", 0)
        misses = extra.get("serve_cache_misses", 0)
        lookups = hits + misses
        ratio = hits / lookups if lookups else 0.0
        yield FamilySnapshot(
            "mudbscan_serving_cache_hit_ratio",
            "gauge",
            "lifetime cache hit ratio (hits / lookups)",
            [Sample("mudbscan_serving_cache_hit_ratio", (), float(ratio))],
        )
        yield FamilySnapshot(
            "mudbscan_serving_cache_entries",
            "gauge",
            "LRU answer-cache entries currently held",
            [Sample("mudbscan_serving_cache_entries", (), float(self.cache_len()))],
        )
        yield FamilySnapshot(
            "mudbscan_serving_cache_capacity",
            "gauge",
            "LRU answer-cache capacity (0 = caching disabled)",
            [Sample("mudbscan_serving_cache_capacity", (), float(self.cache_size))],
        )
        model_labels = (
            ("eps", format(self.model.params.eps, "g")),
            ("metric", str(self.model.metric_name)),
            ("min_pts", str(self.model.params.min_pts)),
        )
        yield FamilySnapshot(
            "mudbscan_serving_model_points",
            "gauge",
            "points in the served model (labelled with its parameters)",
            [Sample("mudbscan_serving_model_points", model_labels, float(self.model.n))],
        )
        yield FamilySnapshot(
            "mudbscan_serving_model_swaps",
            "counter",
            "hot model swaps performed (labelled with the live version)",
            [
                Sample(
                    "mudbscan_serving_model_swaps",
                    (("version", self.model_version),),
                    float(self._swaps),
                )
            ],
        )

    def _collect_index_counters(self):
        """Index-work counters of the *currently served* model (a level
        of indirection so a hot swap redirects the series too)."""
        yield from CountersCollector(
            self.model.serving_counters, namespace="mudbscan_serving_index"
        )()

    # ------------------------------------------------------------------
    # cache

    @staticmethod
    def _token_for(model) -> bytes:
        return f"{model.version_token()}:{model.engine}\x00".encode()

    def _key(self, point: np.ndarray) -> bytes:
        return self._model_token + np.round(point, self.cache_decimals).tobytes()

    def flush_cache(self) -> int:
        """Drop every cached answer; returns how many were held."""
        with self._cache_lock:
            n = len(self._cache)
            self._cache.clear()
        return n

    def _cache_get(self, key: bytes) -> PredictRow | None:
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            row = self._cache.get(key)
            if row is not None:
                self._cache.move_to_end(key)
                self.counters.add_extra("serve_cache_hits")
                self._m_cache_hits.inc()
            else:
                self.counters.add_extra("serve_cache_misses")
                self._m_cache_misses.inc()
            return row

    def _cache_put(self, key: bytes, row: PredictRow) -> None:
        if self.cache_size == 0:
            return
        with self._cache_lock:
            self._cache[key] = row
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def cache_len(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # synchronous batch API

    def predict(self, queries: np.ndarray) -> PredictResult:
        """Answer a whole batch now (cache-aware, no micro-batch wait).

        Cached rows are served from the LRU; the uncached remainder is
        answered in one vectorized prediction call.
        """
        start = time.perf_counter()
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        keys = [self._key(q[i]) for i in range(q.shape[0])]
        rows: list[PredictRow | None] = [self._cache_get(key) for key in keys]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            with self._predict_lock:
                fresh = predict_model(
                    self.model, q[missing], block_size=self.block_size
                )
            for slot, row in zip(missing, _rows(fresh)):
                rows[slot] = row
                self._cache_put(keys[slot], row)
        self.counters.add_extra("serve_requests", q.shape[0])
        self._m_requests.inc(q.shape[0])
        elapsed = time.perf_counter() - start
        per_row = elapsed / max(1, q.shape[0])
        for _ in range(q.shape[0]):
            self.latency.record(per_row)
            self._m_latency.observe(per_row)
        return _pack(rows)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # concurrent single-point API (micro-batched)

    def submit(self, point: np.ndarray) -> Future:
        """Enqueue one query; resolves to a :class:`PredictRow`.

        Requests from many threads coalesce into shared prediction
        blocks — the returned future completes when its batch does.
        """
        p = np.ascontiguousarray(point, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.model.dim:
            raise ValueError(
                f"point must have {self.model.dim} coordinates, got {p.shape[0]}"
            )
        fut: Future = Future()
        with self._queue_cv:
            if self._closed:
                raise RuntimeError("QueryEngine is closed")
            self._queue.append((p, fut, time.perf_counter()))
            self._queue_cv.notify()
        return fut

    def predict_one(self, point: np.ndarray, timeout: float | None = None) -> PredictRow:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(point).result(timeout=timeout)

    def _batch_loop(self) -> None:
        max_wait = self.max_wait_ms / 1000.0
        while True:
            with self._queue_cv:
                while not self._queue and not self._closed:
                    self._queue_cv.wait()
                if self._closed and not self._queue:
                    return
                # hold the batch open until it fills or the oldest
                # request has waited max_wait
                deadline = self._queue[0][2] + max_wait
                while len(self._queue) < self.max_batch and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._queue_cv.wait(timeout=remaining):
                        break
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
            self._answer_batch(batch)

    def _answer_batch(self, batch: list[tuple[np.ndarray, Future, float]]) -> None:
        try:
            points = np.stack([p for p, _, _ in batch])
            keys = [self._key(p) for p, _, _ in batch]
            rows: list[PredictRow | None] = [self._cache_get(k) for k in keys]
            missing = [i for i, row in enumerate(rows) if row is None]
            if missing:
                with self._predict_lock:
                    fresh = predict_model(
                        self.model, points[missing], block_size=self.block_size
                    )
                for slot, row in zip(missing, _rows(fresh)):
                    rows[slot] = row
                    self._cache_put(keys[slot], row)
            self.counters.add_extra("serve_batches")
            self.counters.add_extra("serve_requests", len(batch))
            self.counters.add_extra("serve_batched_rows", len(batch))
            self._m_batches.inc()
            self._m_requests.inc(len(batch))
            now = time.perf_counter()
            for (_, fut, t_submit), row in zip(batch, rows):
                self.latency.record(now - t_submit)
                self._m_latency.observe(now - t_submit)
                fut.set_result(row)
        except BaseException as exc:  # propagate to waiters, keep serving
            for _, fut, _ in batch:
                if not fut.done():
                    fut.set_exception(exc)

    # ------------------------------------------------------------------
    # readiness + hot swap

    @property
    def model_version(self) -> str:
        """Content-hash version of the model currently being served."""
        return self.model.version_token()

    @property
    def ready(self) -> bool:
        """Warm and accepting traffic (the ``/readyz`` signal)."""
        return self._warm and not self._closed

    def warmup(self) -> None:
        """Run one throwaway prediction so the first real request pays
        no lazy-initialisation latency; flips :attr:`ready`."""
        probe = (
            self.model.points[int(self.model.center_rows[0])]
            if self.model.n_micro_clusters
            else np.zeros(max(self.model.dim, 1))
        )
        with self._predict_lock:
            predict_model(self.model, probe.reshape(1, -1), block_size=self.block_size)
        self._warm = True

    def swap_model(self, new_model) -> str:
        """Atomically replace the served model (hot swap).

        The new model's routing table is built *before* any lock is
        taken (the expensive part), then the flip — model pointer,
        cache namespace token, cache flush — happens under the predict
        lock, so no prediction can straddle two models.  In-flight
        requests that already keyed against the old token may still
        write entries under it; those keys are unreachable after the
        token change, so a swapped-in model can never serve another
        model's cached labels.  Returns the new version token.
        """
        new_model.route_table  # warm the routing table outside the lock
        new_token = self._token_for(new_model)
        with self._predict_lock:
            self.model = new_model
            self._model_token = new_token
        self.flush_cache()
        self._swaps += 1
        self.counters.add_extra("serve_model_swaps")
        self.warmup()
        return new_model.version_token()

    # ------------------------------------------------------------------
    # lifecycle + stats

    def stats(self) -> dict:
        """Counters + latency summary for reports and ``/stats``."""
        extra = dict(self.counters.extra)
        return {
            "model": {
                "n": self.model.n,
                "dim": self.model.dim,
                "n_micro_clusters": self.model.n_micro_clusters,
                "eps": self.model.params.eps,
                "min_pts": self.model.params.min_pts,
                "metric": self.model.metric_name,
                "version": self.model_version,
                "engine": self.model.engine,
            },
            "ready": self.ready,
            "swaps": self._swaps,
            "requests": extra.get("serve_requests", 0),
            "batches": extra.get("serve_batches", 0),
            "batched_rows": extra.get("serve_batched_rows", 0),
            "cache": {
                "size": self.cache_len(),
                "capacity": self.cache_size,
                "hits": extra.get("serve_cache_hits", 0),
                "misses": extra.get("serve_cache_misses", 0),
            },
            "latency_seconds": self.latency.stats(),
            "index_work": {
                "dist_calcs": self.model.serving_counters.dist_calcs,
                "nodes_visited": self.model.serving_counters.nodes_visited,
                "queries_run": self.model.serving_counters.queries_run,
            },
        }

    def close(self) -> None:
        """Stop the batcher; outstanding requests are still answered."""
        with self._queue_cv:
            if self._closed:
                return
            self._closed = True
            self._queue_cv.notify_all()
        self._worker.join(timeout=10.0)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
