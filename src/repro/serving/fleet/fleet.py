"""The serving fleet: N workers, one active model generation.

:class:`Fleet` owns the workers and the request fan-out.  With
``n_workers=0`` its one worker runs inside this process; with
``n_workers >= 1`` each worker is a spawned process:

* **routing** — with ``router="kd"`` each worker serves one spatial
  shard and a batch is split by the generation's
  :class:`~repro.serving.fleet.router.ShardPlan` (each query goes to
  exactly one worker; answers merge back in query order, bitwise equal
  to the single-process engine).  With ``router="none"`` every worker
  holds a full replica and whole requests round-robin across them.
* **non-blocking dispatch** — :meth:`submit` returns a future that
  completes when every involved worker has answered; the front door
  awaits it with a per-request deadline, so slow shards cost latency,
  never threads.
* **hot swap** — :meth:`swap` warms a complete new worker set on the
  new model, flips the active-generation pointer atomically, then
  drains and retires the old set (:mod:`repro.serving.fleet.swap`).
  In-flight requests hold a reference on their generation, so a swap
  never fails a request.
* **observability** — ``mudbscan_fleet_*`` counter/gauge/histogram
  families in the fleet's registry, including scrape-time per-worker
  series aggregated from each worker's own engine stats.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.observability.logging import EventLog, get_event_log
from repro.observability.registry import (
    FamilySnapshot,
    MetricsRegistry,
    Sample,
    get_registry,
)
from repro.observability.tracing import Span, Tracer, finish_span
from repro.serving.fleet.swap import (
    Generation,
    SwapReport,
    launch_generation,
    retire_generation,
)
from repro.serving.fleet.worker import WorkerDied
from repro.serving.model import FittedModel, load_model
from repro.serving.predict import PredictResult

__all__ = ["Fleet", "FleetConfig", "FleetClosed"]


class FleetClosed(RuntimeError):
    """The fleet has been closed; no further requests are accepted."""


@dataclass
class FleetConfig:
    """Knobs for one fleet deployment (docs/TUNING.md)."""

    #: worker processes; 0 runs the one worker inside this process
    n_workers: int = 2
    #: "kd" = spatial shards (one per worker), "none" = full replicas
    router: str = "kd"
    #: per-worker engine LRU entries (0 disables)
    cache_size: int = 4096
    #: rows per vectorized prediction block inside each worker
    block_size: int | None = None
    #: seconds to wait for a worker set to warm before giving up
    ready_timeout: float = 120.0
    #: seconds to wait for in-flight requests when retiring a generation
    drain_timeout: float = 60.0

    def engine_opts(self) -> dict[str, Any]:
        opts: dict[str, Any] = {"cache_size": self.cache_size}
        if self.block_size is not None:
            opts["block_size"] = self.block_size
        return opts


class Fleet:
    """Sharded multi-worker serving of one (swappable) fitted model."""

    def __init__(
        self,
        model: FittedModel | str | Path,
        config: FleetConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self._initial_model = self._load(model)
        self.registry = registry if registry is not None else get_registry()
        self.log = (
            event_log if event_log is not None else get_event_log()
        ).child("fleet")
        self._gen_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._active: Generation | None = None
        self._gen_counter = 0
        self._rr = 0
        self._closed = False
        self.swap_reports: list[SwapReport] = []
        self._m_requests = self.registry.counter(
            "mudbscan_fleet_requests_total", "requests dispatched to the fleet"
        )
        self._m_queries = self.registry.counter(
            "mudbscan_fleet_queries_total", "query points answered by the fleet"
        )
        self._m_errors = self.registry.counter(
            "mudbscan_fleet_errors_total", "requests that failed inside the fleet"
        )
        self._m_swaps = self.registry.counter(
            "mudbscan_fleet_swaps_total", "hot model swaps completed"
        )
        self._m_latency = self.registry.histogram(
            "mudbscan_fleet_request_latency_seconds",
            "fleet request latency (dispatch to merged answer)",
        )
        if self.registry.enabled:
            self.registry.register_collector(self._collect_fleet_state)

    @staticmethod
    def _load(model: FittedModel | str | Path) -> FittedModel:
        if isinstance(model, (str, Path)):
            return load_model(model)
        return model

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "Fleet":
        """Launch generation 1 (blocks until every worker is warm)."""
        if self._active is not None:
            return self
        self._gen_counter += 1
        gen = launch_generation(
            self._initial_model,
            number=self._gen_counter,
            n_workers=self.config.n_workers,
            router=self.config.router,
            engine_opts=self.config.engine_opts(),
            ready_timeout=self.config.ready_timeout,
            obs_opts=self._obs_opts(),
        )
        with self._gen_lock:
            self._active = gen
        self._initial_model = None  # the workers own it now; free the parent copy
        self.log.info(
            "fleet_started", n_workers=self.config.n_workers,
            router=self.config.router, version=gen.version,
        )
        return self

    def _obs_opts(self) -> dict[str, Any]:
        """Observability config shipped to each spawned worker."""
        return {"event_log": self.log.config(), "worker_metrics": True}

    def close(self) -> None:
        """Drain and stop every worker; further requests raise."""
        with self._swap_lock:
            if self._closed:
                return
            self._closed = True
            with self._gen_lock:
                gen, self._active = self._active, None
        if gen is not None:
            retire_generation(gen, drain_timeout=self.config.drain_timeout)
        self.log.info("fleet_closed")

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request path

    def _current(self) -> Generation:
        with self._gen_lock:
            gen = self._active
            if gen is None or self._closed:
                raise FleetClosed("fleet is not serving")
            gen.enter()
            return gen

    def submit(
        self,
        queries: np.ndarray,
        *,
        deadline_ts: float | None = None,
        trace: Tracer | None = None,
    ) -> Future:
        """Dispatch one batch; resolves to a merged :class:`PredictResult`.

        The request is pinned to the generation active at admission
        time — a concurrent swap drains around it.  When ``trace`` is
        an enabled tracer, a ``fleet.dispatch`` span brackets fan-out
        to merge and each worker's spans are adopted into the trace.
        """
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        gen = self._current()
        agg: Future = Future()
        agg.add_done_callback(lambda _: gen.leave())
        self._m_requests.inc()
        self._m_queries.inc(q.shape[0])
        start = time.perf_counter()

        worker_ctx: dict[str, Any] | None = None
        dispatch_span: Span | None = None
        if trace is not None and trace.enabled:
            # hand-managed: the span closes in a reader-thread callback,
            # which a thread-local context manager cannot bracket
            ctx = trace.context()
            dispatch_span = Span(
                "fleet.dispatch", trace.trace_id, ctx["parent_id"],
                {"queries": int(q.shape[0]), "generation": gen.number},
            )
            worker_ctx = {
                "trace_id": trace.trace_id,
                "parent_id": dispatch_span.span_id,
                "service": "fleet-worker",
            }

        state_lock = threading.Lock()
        dispatch_closed = [False]

        def _close_dispatch(n_shards: int) -> None:
            if dispatch_span is None:
                return
            with state_lock:
                if dispatch_closed[0]:
                    return
                dispatch_closed[0] = True
            dispatch_span.set_attr("shards", n_shards)
            trace.adopt([finish_span(dispatch_span)])

        def _finish_ok(result: PredictResult) -> None:
            self._m_latency.observe(time.perf_counter() - start)
            if not agg.done():
                agg.set_result(result)

        def _finish_err(exc: BaseException) -> None:
            self._m_errors.inc()
            if not agg.done():
                agg.set_exception(exc)

        try:
            if gen.plan is not None:
                assignments = gen.plan.assign(q)
                shard_ids = [int(s) for s in np.unique(assignments)]
            else:
                with self._gen_lock:
                    wid = self._rr % len(gen.workers)
                    self._rr += 1
                assignments = np.full(q.shape[0], wid, dtype=np.int64)
                shard_ids = [wid]
            if not shard_ids:  # zero-row batch: answer immediately
                _close_dispatch(0)
                _finish_ok(_empty_result())
                return agg
            parts: dict[int, tuple] = {}
            remaining = [len(shard_ids)]

            def _on_part(s: int, fut: Future) -> None:
                try:
                    payload, extras = fut.result()
                except BaseException as exc:  # noqa: BLE001
                    _close_dispatch(len(shard_ids))
                    _finish_err(exc)
                    return
                if trace is not None and extras and extras.get("spans"):
                    trace.adopt(extras["spans"])
                with state_lock:
                    parts[s] = payload
                    remaining[0] -= 1
                    last = remaining[0] == 0
                if last:
                    _close_dispatch(len(shard_ids))
                    try:
                        _finish_ok(_merge_parts(q.shape[0], assignments, parts))
                    except BaseException as exc:  # noqa: BLE001
                        _finish_err(exc)

            for s in shard_ids:
                worker = gen.workers[s]
                if not worker.alive:
                    raise WorkerDied(f"worker {s} is not serving")
                sub = q[assignments == s]
                worker.submit_predict(sub, deadline_ts, worker_ctx).add_done_callback(
                    lambda fut, s=s: _on_part(s, fut)
                )
        except BaseException as exc:  # noqa: BLE001 — dispatch-time failure
            _close_dispatch(0)
            _finish_err(exc)
        return agg

    def predict(
        self, queries: np.ndarray, *, timeout: float | None = None
    ) -> PredictResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        deadline_ts = time.time() + timeout if timeout is not None else None
        return self.submit(queries, deadline_ts=deadline_ts).result(timeout=timeout)

    # ------------------------------------------------------------------
    # hot swap

    def swap(self, model: FittedModel | str | Path) -> SwapReport:
        """Hot-swap to ``model``: warm new workers, flip, drain old ones."""
        with self._swap_lock:
            if self._closed:
                raise FleetClosed("fleet is closed")
            new_model = self._load(model)
            self.log.info("swap_started", generation=self._gen_counter + 1)
            warm_start = time.monotonic()
            new_gen = launch_generation(
                new_model,
                number=self._gen_counter + 1,
                n_workers=self.config.n_workers,
                router=self.config.router,
                engine_opts=self.config.engine_opts(),
                ready_timeout=self.config.ready_timeout,
                obs_opts=self._obs_opts(),
            )
            warmup_seconds = time.monotonic() - warm_start
            with self._gen_lock:
                old = self._active
                self._active = new_gen
                self._gen_counter += 1
            drain_seconds = retire_generation(
                old, drain_timeout=self.config.drain_timeout
            )
            report = SwapReport(
                from_version=old.version,
                to_version=new_gen.version,
                generation=new_gen.number,
                warmup_seconds=round(warmup_seconds, 4),
                drain_seconds=round(drain_seconds, 4),
            )
            self.swap_reports.append(report)
            self._m_swaps.inc()
            self.log.info(
                "swap_completed", generation=report.generation,
                from_version=report.from_version, to_version=report.to_version,
                warmup_seconds=report.warmup_seconds,
                drain_seconds=report.drain_seconds,
            )
            return report

    # ------------------------------------------------------------------
    # introspection

    @property
    def ready(self) -> bool:
        with self._gen_lock:
            gen = self._active
        return gen is not None and not self._closed and gen.ready

    @property
    def generation(self) -> int:
        return self._gen_counter

    @property
    def dim(self) -> int | None:
        """Dimension of the active generation's model (None when idle)."""
        with self._gen_lock:
            return self._active.model_meta["dim"] if self._active is not None else None

    @property
    def version(self) -> str | None:
        with self._gen_lock:
            return self._active.version if self._active is not None else None

    @property
    def inflight(self) -> int:
        with self._gen_lock:
            return self._active.inflight if self._active is not None else 0

    def describe(self) -> dict[str, Any]:
        with self._gen_lock:
            gen = self._active
        if gen is None:
            return {"serving": False}
        return {
            "serving": True,
            "generation": gen.number,
            "version": gen.version,
            "router": gen.router,
            "n_workers": gen.n_workers,
            "inflight": gen.inflight,
            "model": dict(gen.model_meta),
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "alive": w.alive,
                    **(w.ready_meta or {}),
                }
                for w in gen.workers
            ],
            "swaps": [vars(r) for r in self.swap_reports],
        }

    def worker_stats(self, timeout: float = 5.0) -> list[dict[str, Any]]:
        """Each live worker's engine stats (cache, latency, counters)."""
        with self._gen_lock:
            gen = self._active
        if gen is None:
            return []
        out = []
        for w in gen.workers:
            if not w.alive:
                out.append({"worker_id": w.worker_id, "alive": False})
                continue
            try:
                out.append({"alive": True, **w.fetch_stats(timeout=timeout)})
            except Exception as exc:  # scrape must not take the fleet down
                out.append({"worker_id": w.worker_id, "alive": True, "error": repr(exc)})
        return out

    def _collect_fleet_state(self):
        """Scrape-time fleet gauges + per-worker aggregated series."""
        with self._gen_lock:
            gen = self._active
        yield FamilySnapshot(
            "mudbscan_fleet_workers",
            "gauge",
            "worker processes in the active generation (0: one in-process worker)",
            [Sample("mudbscan_fleet_workers", (), float(gen.n_workers if gen else 0))],
        )
        yield FamilySnapshot(
            "mudbscan_fleet_generation",
            "gauge",
            "active model generation (monotonic across swaps)",
            [Sample("mudbscan_fleet_generation", (), float(gen.number if gen else 0))],
        )
        yield FamilySnapshot(
            "mudbscan_fleet_inflight",
            "gauge",
            "requests currently inside the fleet",
            [Sample("mudbscan_fleet_inflight", (), float(gen.inflight if gen else 0))],
        )
        if gen is None:
            return
        req_samples, cache_samples, p99_samples = [], [], []
        # worker-process registries, merged per family with a `worker` label
        merged: dict[str, tuple[str, str, list[Sample]]] = {}
        for stats in self.worker_stats(timeout=2.0):
            wid = str(stats.get("worker_id", "?"))
            if "requests" not in stats:
                continue
            labels = (("worker", wid),)
            req_samples.append(
                Sample("mudbscan_fleet_worker_requests_total", labels,
                       float(stats["requests"]))
            )
            cache_samples.append(
                Sample("mudbscan_fleet_worker_cache_hits_total", labels,
                       float(stats["cache"]["hits"]))
            )
            # an idle worker's latency window reports p99=None
            p99 = stats["latency_seconds"].get("p99")
            p99_samples.append(
                Sample("mudbscan_fleet_worker_latency_p99_seconds", labels,
                       float(p99 if p99 is not None else 0.0))
            )
            for name, ftype, fhelp, samples in stats.get("metrics_families", []):
                _, _, acc = merged.setdefault(name, (ftype, fhelp, []))
                acc.extend(
                    Sample(s_name, tuple(s_labels) + (("worker", wid),), value)
                    for s_name, s_labels, value in samples
                )
        if req_samples:
            yield FamilySnapshot(
                "mudbscan_fleet_worker_requests_total", "counter",
                "requests answered per worker", req_samples,
            )
            yield FamilySnapshot(
                "mudbscan_fleet_worker_cache_hits_total", "counter",
                "per-worker LRU answer-cache hits", cache_samples,
            )
            yield FamilySnapshot(
                "mudbscan_fleet_worker_latency_p99_seconds", "gauge",
                "per-worker windowed p99 latency", p99_samples,
            )
        for name, (ftype, fhelp, acc) in sorted(merged.items()):
            yield FamilySnapshot(name, ftype, f"{fhelp} (per worker process)", acc)


def _merge_parts(
    n_queries: int, assignments: np.ndarray, parts: dict[int, tuple]
) -> PredictResult:
    """Reassemble worker answer tuples (global rows) in query order."""
    labels = np.full(n_queries, -1, dtype=np.int64)
    would = np.zeros(n_queries, dtype=bool)
    nearest = np.full(n_queries, -1, dtype=np.int64)
    dist = np.full(n_queries, np.inf, dtype=np.float64)
    counts = np.zeros(n_queries, dtype=np.int64)
    for s, (p_labels, p_would, p_nearest, p_dist, p_counts) in parts.items():
        idx = np.flatnonzero(assignments == s)
        labels[idx] = p_labels
        would[idx] = p_would
        nearest[idx] = p_nearest
        dist[idx] = p_dist
        counts[idx] = p_counts
    return PredictResult(
        labels=labels,
        would_be_core=would,
        nearest_core=nearest,
        nearest_core_dist=dist,
        n_neighbors=counts,
    )


def _empty_result() -> PredictResult:
    return PredictResult(
        labels=np.empty(0, dtype=np.int64),
        would_be_core=np.empty(0, dtype=bool),
        nearest_core=np.empty(0, dtype=np.int64),
        nearest_core_dist=np.empty(0, dtype=np.float64),
        n_neighbors=np.empty(0, dtype=np.int64),
    )
