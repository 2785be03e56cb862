"""Fleet workers: the spawned process, its parent-side handle, and
the in-process worker.

A worker serves one shard (or a full replica) of a
:class:`~repro.serving.model.FittedModel`.  With ``n_workers >= 1``
each worker is a spawned process:

* the **payload arrays ride shared memory** — the parent reads the
  artifact once, places the arrays in
  :mod:`multiprocessing.shared_memory` segments (the process backend's
  dataset idiom), and every worker maps them read-only and rebuilds its
  model over the views with :meth:`FittedModel.from_arrays` — no
  per-worker artifact read, no per-worker pickle of the dataset;
* **sharded workers** then materialise their kd-shard sub-model
  (:func:`~repro.serving.fleet.router.build_shard_model`) from the
  mapped full model and translate nearest-core rows back to global ids
  before answering, so the parent's merge never needs shard context;
* requests/responses are small pickled tuples on a dedicated pipe pair
  per worker; a worker answers ``predict`` through its own
  :class:`~repro.serving.engine.QueryEngine` (versioned LRU cache,
  latency window), and ``stats`` with the engine's counters **plus a
  snapshot of the worker's own metrics registry**, so the front door's
  ``/metrics`` can expose per-worker series without a sidecar;
* a ``predict`` request may carry a picklable **trace context**
  (:meth:`~repro.observability.tracing.Tracer.context`); the worker
  then re-roots a tracer under the front door's span, brackets the
  engine call in a ``worker.predict`` span (the engine's
  ``serving.predict``/``route``/``score`` spans nest inside via
  ``maybe_span``) and ships the finished spans back on the result
  reply — one request, one span tree across N processes;
* **SIGTERM drains**: the in-progress request is finished and answered
  before the worker exits (the fleet's graceful-shutdown contract).

With ``n_workers=0`` the one worker is an :class:`InProcessWorker`: no
process, pipe or shared memory, just a single-thread executor in the
caller's process.  Both kinds answer through :class:`WorkerCore`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing import connection, shared_memory
from typing import Any

import numpy as np

from repro.observability.logging import EventLog
from repro.observability.registry import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.serving.engine import QueryEngine
from repro.serving.model import FittedModel

__all__ = ["InProcessWorker", "WorkerClient", "WorkerCore", "fleet_worker_main"]

#: (segment name, shape, dtype str) describing one shared array
ShmSpec = tuple[str, tuple[int, ...], str]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without re-registering ownership (parent owns lifetime)."""
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def fleet_worker_main(
    worker_id: int,
    shm_specs: dict[str, ShmSpec],
    header: dict[str, Any],
    plan,
    shard_id: int | None,
    req_conn: connection.Connection,
    resp_conn: connection.Connection,
    engine_opts: dict[str, Any],
    obs_opts: dict[str, Any],
) -> None:
    """Spawn-side entry: map the model, build the shard, serve the pipe."""
    terminating = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminating.set())
    log = EventLog.from_config(
        obs_opts.get("event_log"), component=f"worker{worker_id}"
    )
    segments: list[shared_memory.SharedMemory] = []
    try:
        arrays: dict[str, np.ndarray] = {}
        for name, (seg_name, shape, dtype_str) in shm_specs.items():
            shm = _attach_segment(seg_name)
            segments.append(shm)
            arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
            arr.flags.writeable = False
            arrays[name] = arr
        full = FittedModel.from_arrays(arrays, header)
        core = WorkerCore(
            worker_id, full, plan, shard_id, engine_opts, obs_opts, log
        )
        resp_conn.send(("ready", core.ready_meta))
        try:
            _serve_loop(core, req_conn, resp_conn, terminating)
        finally:
            core.engine.close()
    except BaseException as exc:  # noqa: BLE001 — ferried to the parent
        log.error("worker_fatal", error=repr(exc))
        try:
            resp_conn.send(("fatal", repr(exc)))
        except Exception:
            pass
    finally:
        log.close()
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass  # live model views pin the mapping; exit unmaps it


class WorkerCore:
    """One worker's serving state and its per-request helpers.

    Both worker kinds answer through this class: the spawned worker's
    pipe loop and the in-process worker's executor call the same
    :meth:`predict` and :meth:`stats`, so deadlines, tracing, answer
    tuples and error texts cannot drift between them.
    """

    def __init__(
        self,
        worker_id: int,
        full: FittedModel,
        plan,
        shard_id: int | None,
        engine_opts: dict[str, Any],
        obs_opts: dict[str, Any],
        log: EventLog,
    ) -> None:
        self.worker_id = worker_id
        self.log = log
        self.global_rows: np.ndarray | None = None
        model = full
        if plan is not None and shard_id is not None:
            from repro.serving.fleet.router import build_shard_model

            shard = build_shard_model(full, plan, shard_id)
            model, self.global_rows = shard.model, shard.global_rows
        # the worker's own registry: snapshotted onto stats replies so
        # the front door can aggregate per-worker series at scrape time
        self.registry = MetricsRegistry(enabled=obs_opts.get("worker_metrics", True))
        self.engine = QueryEngine(
            model, max_wait_ms=0.0, registry=self.registry, **engine_opts
        )
        self.engine.warmup()
        self.ready_meta = {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "shard_id": shard_id,
            "version": full.version_token(),
            "n_points": model.n,
            "n_micro_clusters": model.n_micro_clusters,
        }
        log.info(
            "worker_ready", pid=os.getpid(), shard_id=shard_id,
            n_points=int(model.n), version=full.version_token(),
        )

    def predict(
        self,
        queries: np.ndarray,
        deadline_ts: float | None,
        trace_ctx: dict[str, Any] | None,
    ) -> tuple[tuple, dict[str, Any] | None]:
        """Answer one request: ``(answer arrays, extras | None)``.

        Raises :class:`RuntimeError` carrying the text the fleet maps
        to a status — ``"deadline exceeded before work"`` when the
        deadline passed while the request was queued, else the repr of
        the engine's exception.
        """
        trace_id = (trace_ctx or {}).get("trace_id")
        if deadline_ts is not None and time.time() > deadline_ts:
            self.log.warning(
                "request_dropped", reason="deadline exceeded before work",
                trace_id=trace_id,
            )
            raise RuntimeError("deadline exceeded before work")
        try:
            res, spans = _traced_predict(
                self.engine, queries, trace_ctx, self.worker_id
            )
        except Exception as exc:  # keep serving after a bad request
            self.log.warning("request_failed", error=repr(exc), trace_id=trace_id)
            raise RuntimeError(repr(exc)) from exc
        nearest = res.nearest_core
        if self.global_rows is not None:
            nearest = np.full(res.nearest_core.shape, -1, dtype=np.int64)
            hit = res.nearest_core >= 0
            nearest[hit] = self.global_rows[res.nearest_core[hit]]
        answer = (
            res.labels,
            res.would_be_core,
            nearest,
            res.nearest_core_dist,
            res.n_neighbors,
        )
        return answer, ({"spans": spans} if spans else None)

    def stats(self) -> dict[str, Any]:
        """Engine counters plus a snapshot of the worker's registry."""
        stats = self.engine.stats()
        stats["worker_id"] = self.worker_id
        stats["pid"] = os.getpid()
        stats["metrics_families"] = _registry_snapshot(self.registry)
        return stats


def _serve_loop(
    core: WorkerCore,
    req_conn: connection.Connection,
    resp_conn: connection.Connection,
    terminating: threading.Event,
) -> None:
    while True:
        # poll so a SIGTERM between requests is noticed promptly; a
        # request already being answered below always completes first
        if not req_conn.poll(0.05):
            if terminating.is_set():
                core.log.info("worker_drained", reason="sigterm")
                resp_conn.send(
                    ("bye", {"worker_id": core.worker_id, "reason": "sigterm"})
                )
                return
            continue
        try:
            msg = req_conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing left to answer
        kind = msg[0]
        if kind == "predict":
            _, req_id, queries, deadline_ts, trace_ctx = msg
            try:
                answer, extras = core.predict(queries, deadline_ts, trace_ctx)
            except RuntimeError as exc:
                resp_conn.send(("error", req_id, str(exc)))
            else:
                resp_conn.send(("result", req_id, answer, extras))
        elif kind == "stats":
            resp_conn.send(("stats", msg[1], core.stats()))
        elif kind == "shutdown":
            core.log.info("worker_drained", reason="shutdown")
            resp_conn.send(
                ("bye", {"worker_id": core.worker_id, "reason": "shutdown"})
            )
            return


def _traced_predict(
    engine: QueryEngine,
    queries: np.ndarray,
    trace_ctx: dict[str, Any] | None,
    worker_id: int,
):
    """Run one predict, re-rooted under the door's trace when given.

    Returns ``(result, span_dicts_or_None)``; the tracer is activated
    so the engine's ``serving.predict`` / ``route`` / ``score``
    ``maybe_span`` sites nest under the ``worker.predict`` span.
    """
    if trace_ctx is None:
        return engine.predict(queries), None
    tracer = Tracer.from_context(trace_ctx)
    with tracer.activate(), tracer.span(
        "worker.predict",
        worker_id=worker_id,
        pid=os.getpid(),
        queries=int(np.atleast_2d(queries).shape[0]),
    ):
        res = engine.predict(queries)
    return res, tracer.finished()


def _registry_snapshot(registry: MetricsRegistry) -> list[tuple]:
    """The worker registry as plain picklable tuples (scrape payload)."""
    if not registry.enabled:
        return []
    return [
        (
            fam.name,
            fam.type,
            fam.help,
            [(s.name, tuple(s.labels), float(s.value)) for s in fam.samples],
        )
        for fam in registry.collect()
    ]


class WorkerDied(RuntimeError):
    """The worker process exited while requests were outstanding."""


class WorkerClient:
    """Parent-side handle: request/response multiplexing over the pipes.

    ``submit`` is non-blocking — it posts the request and returns a
    :class:`~concurrent.futures.Future`; a background reader thread
    resolves futures as responses arrive, so many requests can be in
    flight per worker and the front door never blocks on pipe I/O.
    """

    def __init__(self, worker_id: int, proc, req_conn, resp_conn) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self._req_conn = req_conn
        self._resp_conn = resp_conn
        self._send_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._next_id = 0
        self.ready_meta: dict[str, Any] | None = None
        self.ready_event = threading.Event()
        self.fatal: str | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fleet-worker-reader-{worker_id}", daemon=True
        )
        self._reader.start()

    # -- reader ---------------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                msg = self._resp_conn.recv()
            except (EOFError, OSError):
                self._fail_pending(WorkerDied(f"worker {self.worker_id} died"))
                self.ready_event.set()  # unblock waiters; ready_meta stays None
                return
            kind = msg[0]
            if kind == "ready":
                self.ready_meta = msg[1]
                self.ready_event.set()
            elif kind == "result":
                # (arrays, extras) — extras carries worker-side spans
                self._resolve(msg[1], lambda fut, p=msg[2:]: fut.set_result(p))
            elif kind == "stats":
                self._resolve(msg[1], lambda fut, payload=msg[2]: fut.set_result(payload))
            elif kind == "error":
                self._resolve(
                    msg[1],
                    lambda fut, text=msg[2]: fut.set_exception(RuntimeError(text)),
                )
            elif kind == "fatal":
                self.fatal = msg[1]
                self._fail_pending(WorkerDied(f"worker {self.worker_id}: {msg[1]}"))
                self.ready_event.set()
                return
            elif kind == "bye":
                self._fail_pending(WorkerDied(f"worker {self.worker_id} shut down"))
                return

    def _resolve(self, req_id: int, action) -> None:
        with self._pending_lock:
            fut = self._pending.pop(req_id, None)
        if fut is not None and not fut.done():
            action(fut)

    def _fail_pending(self, exc: Exception) -> None:
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    # -- requests -------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.proc.is_alive() and self.fatal is None

    def wait_ready(self, timeout: float = 60.0) -> dict[str, Any]:
        if not self.ready_event.wait(timeout):
            raise TimeoutError(f"worker {self.worker_id} not ready after {timeout}s")
        if self.ready_meta is None:
            raise WorkerDied(
                f"worker {self.worker_id} failed during startup"
                + (f": {self.fatal}" if self.fatal else "")
            )
        return self.ready_meta

    def _post(self, message: tuple) -> Future:
        fut: Future = Future()
        with self._pending_lock:
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = fut
        try:
            with self._send_lock:
                self._req_conn.send((message[0], req_id, *message[1:]))
        except (OSError, ValueError, BrokenPipeError) as exc:
            self._resolve(req_id, lambda f: None)
            fut.set_exception(WorkerDied(f"worker {self.worker_id}: {exc!r}"))
        return fut

    def submit_predict(
        self,
        queries: np.ndarray,
        deadline_ts: float | None = None,
        trace_ctx: dict[str, Any] | None = None,
    ) -> Future:
        """Future resolving to ``(answer arrays tuple, extras | None)``."""
        return self._post(("predict", queries, deadline_ts, trace_ctx))

    def fetch_stats(self, timeout: float = 5.0) -> dict[str, Any]:
        return self._post(("stats",)).result(timeout=timeout)

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Ask the worker to exit, then join (terminate as last resort)."""
        try:
            with self._send_lock:
                self._req_conn.send(("shutdown",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self._reader.join(timeout=5.0)
        self._fail_pending(WorkerDied(f"worker {self.worker_id} shut down"))
        for conn in (self._req_conn, self._resp_conn):
            try:
                conn.close()
            except OSError:
                pass


class InProcessWorker:
    """The one worker of an ``n_workers=0`` fleet, inside the caller.

    It has :class:`WorkerClient`'s surface, but a single-thread executor
    stands in for the process and its pipes: each request runs
    :meth:`WorkerCore.predict` on the executor thread, so the door's
    event loop never computes and the answers, errors and spans are the
    ones a spawned worker would send.
    """

    def __init__(
        self,
        model: FittedModel,
        engine_opts: dict[str, Any],
        obs_opts: dict[str, Any],
    ) -> None:
        self.worker_id = 0
        log = EventLog.from_config(obs_opts.get("event_log"), component="worker0")
        self.core = WorkerCore(0, model, None, None, engine_opts, obs_opts, log)
        self.ready_meta = self.core.ready_meta
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fleet-worker-0"
        )
        self._closed = False

    @property
    def alive(self) -> bool:
        return not self._closed

    def submit_predict(
        self,
        queries: np.ndarray,
        deadline_ts: float | None = None,
        trace_ctx: dict[str, Any] | None = None,
    ) -> Future:
        """Future resolving to ``(answer arrays tuple, extras | None)``."""
        return self._executor.submit(self.core.predict, queries, deadline_ts, trace_ctx)

    def fetch_stats(self, timeout: float = 5.0) -> dict[str, Any]:
        return self.core.stats()

    def shutdown(self) -> None:
        """Finish the queued requests, then close the engine."""
        self._closed = True
        self._executor.shutdown(wait=True)
        self.core.log.info("worker_drained", reason="shutdown")
        self.core.engine.close()
        self.core.log.close()
