"""Async HTTP front door: the one HTTP server of ``mudbscan serve``.

A single-threaded :mod:`asyncio` server sits in front of the
:class:`~repro.serving.fleet.fleet.Fleet` at every worker count,
including the default in-process worker (``n_workers=0``).  It parses
HTTP/1.1 with keep-alive, validates request bodies against the active
model (bad JSON, wrong keys, wrong dimension, non-finite values are
400s), and applies the two admission policies the fleet contract
requires —

* **back-pressure**: at most ``max_inflight`` predict requests are
  inside the fleet at once; beyond that the door answers ``429`` with
  a ``Retry-After`` header instead of queueing unboundedly, and
* **deadline budgets**: every predict carries a deadline (the
  ``X-Deadline-Ms`` header, else the configured default); the door
  awaits the fleet future at most that long and answers ``504`` when
  the budget is spent.  Workers also pre-check the deadline so queued
  work that can no longer make it is dropped, not computed.

Every predict response carries a minted request id (the
``X-Request-Id`` header and the ``request_id`` JSON field).  With
``tracing=True`` that id is also a trace id: the door opens a
``frontdoor.predict`` root span, the fleet parents its dispatch and
worker spans under it, and the finished tree is offered to a
tail-based :class:`~repro.observability.tail.TraceRetention` — errored
requests always retained, successes only when slower than the rolling
percentile — queryable at ``GET /traces/<id>``.

Endpoints: ``POST /predict``, ``POST /admin/swap`` (hot model swap),
``GET /healthz`` / ``/readyz`` / ``/stats`` / ``/metrics`` / ``/slo``
/ ``/traces`` / ``/traces/<request-id>``.

The door shuts down gracefully: on SIGTERM (or :meth:`request_stop`)
it stops accepting connections, lets in-flight requests finish, then
returns.  Stdlib only — no web framework, per the dependency policy.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.observability.logging import EventLog, get_event_log
from repro.observability.prometheus import CONTENT_TYPE, render_prometheus
from repro.observability.slo import SLOEngine, SLOSpec, default_serving_slos
from repro.observability.tail import TraceRetention
from repro.observability.tracing import Tracer, new_trace_id
from repro.serving.fleet.fleet import Fleet, FleetClosed
from repro.serving.fleet.worker import WorkerDied

__all__ = ["MAX_BODY_BYTES", "FrontDoor", "FrontDoorHandle", "start_in_thread"]

#: refuse request bodies larger than this (64 MiB) with a 413
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class _Request:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    #: (status, message) when the framing is refused; the body is unread
    refused: tuple[int, str] | None = None


class FrontDoor:
    """Admission-controlling HTTP server over one :class:`Fleet`."""

    def __init__(
        self,
        fleet: Fleet,
        *,
        host: str = "127.0.0.1",
        port: int = 8766,
        max_inflight: int = 64,
        default_deadline_ms: float = 2000.0,
        retry_after_s: float = 1.0,
        verbose: bool = False,
        tracing: bool = False,
        event_log: EventLog | None = None,
        retention: TraceRetention | None = None,
        slow_log_path: str | None = None,
        slow_percentile: float = 99.0,
        trace_capacity: int = 256,
        slo_specs: list[SLOSpec] | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.fleet = fleet
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.default_deadline_ms = float(default_deadline_ms)
        self.retry_after_s = retry_after_s
        self.verbose = verbose
        self.tracing = bool(tracing)
        self.log = (
            event_log if event_log is not None else get_event_log()
        ).child("frontdoor")
        if retention is None and (self.tracing or slow_log_path):
            retention = TraceRetention(
                capacity=trace_capacity,
                slow_percentile=slow_percentile,
                log_path=slow_log_path,
            )
        self.retention = retention
        self._slo_specs = list(slo_specs) if slo_specs is not None else None
        self._slo_eng: SLOEngine | None = None
        self._inflight = 0  # touched only on the event loop thread
        self._stop = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self.bound_port: int | None = None
        self._bound = threading.Event()
        self._m_admitted = fleet.registry.counter(
            "mudbscan_fleet_admitted_total", "predict requests admitted"
        )
        self._m_rejected = fleet.registry.counter(
            "mudbscan_fleet_rejected_total",
            "predict requests rejected by back-pressure (HTTP 429)",
        )
        self._m_deadline = fleet.registry.counter(
            "mudbscan_fleet_deadline_exceeded_total",
            "predict requests that missed their deadline (HTTP 504)",
        )

    # ------------------------------------------------------------------
    # lifecycle

    def request_stop(self) -> None:
        """Thread-safe graceful-stop trigger (what SIGTERM calls)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop.set)
        else:
            self._stop.set()

    async def serve(self, *, install_signal_handlers: bool = True) -> None:
        """Run until stopped; drains in-flight requests before returning."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self._bound.set()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    self._loop.add_signal_handler(sig, self._stop.set)
        self.log.info(
            "listening",
            url=f"http://{self.host}:{self.bound_port}",
            n_workers=self.fleet.config.n_workers,
            router=self.fleet.config.router,
            max_inflight=self.max_inflight,
            tracing=self.tracing,
        )
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # graceful drain: finish what was admitted before we stop
            deadline = time.monotonic() + 30.0
            while self._inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            self.log.info("stopped", inflight=self._inflight)
            if self.retention is not None:
                self.retention.close()

    # ------------------------------------------------------------------
    # connection handling (minimal HTTP/1.1 with keep-alive)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._stop.is_set():
                request = await self._read_request(reader)
                if request is None:
                    return
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(self, reader) -> _Request | None:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return _Request(
                method, path, headers, b"",
                refused=(400, f"bad Content-Length {length!r}"),
            )
        if int(length) > MAX_BODY_BYTES:
            return _Request(
                method, path, headers, b"",
                refused=(413, f"body larger than {MAX_BODY_BYTES} bytes"),
            )
        body = await reader.readexactly(int(length))
        return _Request(method, path, headers, body)

    async def _write_response(
        self,
        writer,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    async def _send_json(
        self, writer, status: int, payload: Any, **kw: Any
    ) -> None:
        await self._write_response(
            writer, status, json.dumps(payload).encode("utf-8"), **kw
        )

    # ------------------------------------------------------------------
    # routing

    async def _dispatch(self, request: _Request, writer) -> bool:
        keep = request.headers.get("connection", "keep-alive").lower() != "close"
        try:
            if request.refused is not None:
                # the body was not read, so the connection cannot be reused
                status, message = request.refused
                await self._send_json(
                    writer, status, {"error": message}, keep_alive=False
                )
                return False
            if request.method == "GET":
                await self._handle_get(request.path, writer, keep)
            elif request.method == "POST" and request.path == "/predict":
                await self._handle_predict(request, writer, keep)
            elif request.method == "POST" and request.path == "/admin/swap":
                await self._handle_swap(request, writer, keep)
            else:
                await self._send_json(
                    writer, 404,
                    {"error": f"unknown {request.method} {request.path!r}"},
                    keep_alive=keep,
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # the door must outlive any one request
            with contextlib.suppress(Exception):
                await self._send_json(
                    writer, 500, {"error": repr(exc)}, keep_alive=False
                )
            return False
        return keep

    async def _handle_get(self, path: str, writer, keep: bool) -> None:
        if path == "/healthz":
            desc = self.fleet.describe()
            await self._send_json(
                writer, 200,
                {"status": "ok" if desc.get("serving") else "starting", **desc},
                keep_alive=keep,
            )
        elif path == "/readyz":
            ready = self.fleet.ready
            await self._send_json(
                writer,
                200 if ready else 503,
                {
                    "ready": ready,
                    "generation": self.fleet.generation,
                    "version": self.fleet.version,
                },
                keep_alive=keep,
            )
        elif path == "/stats":
            stats = self.fleet.describe()
            stats["front_door"] = {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "default_deadline_ms": self.default_deadline_ms,
                "tracing": self.tracing,
            }
            if self.retention is not None:
                stats["front_door"]["retention"] = self.retention.stats()
            stats["workers_detail"] = await asyncio.to_thread(
                self.fleet.worker_stats
            )
            await self._send_json(writer, 200, stats, keep_alive=keep)
        elif path == "/metrics":
            body = render_prometheus(self.fleet.registry).encode("utf-8")
            await self._write_response(
                writer, 200, body, content_type=CONTENT_TYPE, keep_alive=keep
            )
        elif path == "/slo":
            engine = self._slo_engine()
            if engine is None:
                await self._send_json(
                    writer, 503,
                    {"error": "metrics registry disabled; SLOs unavailable"},
                    keep_alive=keep,
                )
            else:
                evaluation = await asyncio.to_thread(engine.evaluate)
                await self._send_json(writer, 200, evaluation, keep_alive=keep)
        elif path == "/traces":
            if self.retention is None:
                payload: dict[str, Any] = {"tracing": self.tracing, "traces": []}
            else:
                payload = {
                    "tracing": self.tracing,
                    "stats": self.retention.stats(),
                    "traces": [t.summary() for t in self.retention.traces()],
                }
            await self._send_json(writer, 200, payload, keep_alive=keep)
        elif path.startswith("/traces/"):
            rid = path[len("/traces/"):]
            trace = self.retention.get(rid) if self.retention is not None else None
            if trace is None:
                await self._send_json(
                    writer, 404,
                    {"error": f"no retained trace {rid!r}"},
                    keep_alive=keep,
                )
            else:
                await self._send_json(writer, 200, trace.to_dict(), keep_alive=keep)
        else:
            await self._send_json(
                writer, 404, {"error": f"unknown path {path!r}"}, keep_alive=keep
            )

    def _slo_engine(self) -> SLOEngine | None:
        """Lazily build the burn-rate engine over the fleet's registry."""
        if not self.fleet.registry.enabled:
            return None
        if self._slo_eng is None:
            specs = (
                self._slo_specs
                if self._slo_specs is not None
                else default_serving_slos()
            )
            self._slo_eng = SLOEngine(self.fleet.registry, specs)
        return self._slo_eng

    # ------------------------------------------------------------------
    # predict (admission control + deadline budget)

    def _parse_queries(self, request: _Request) -> np.ndarray:
        try:
            body = json.loads(request.body)
        except ValueError as exc:  # includes UnicodeDecodeError
            raise ValueError(f"body is not valid JSON: {exc}") from exc
        if isinstance(body, dict) and "point" in body:
            raw_points = [body["point"]]
        elif isinstance(body, dict) and "points" in body:
            raw_points = body["points"]
        else:
            raise ValueError(
                'body must be {"points": [[...], ...]} or {"point": [...]}'
            )
        queries = np.asarray(raw_points, dtype=np.float64)
        dim = self.fleet.dim
        if (
            queries.ndim != 2
            or queries.shape[0] == 0
            or (dim is not None and queries.shape[1] != dim)
        ):
            raise ValueError(
                f"expected a non-empty (k, {dim}) coordinate array, "
                f"got shape {queries.shape}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValueError("coordinates must be finite")
        return queries

    async def _handle_predict(self, request: _Request, writer, keep: bool) -> None:
        rid = new_trace_id()
        start_unix = time.time()
        t0 = time.perf_counter()
        tracer = Tracer("frontdoor", trace_id=rid) if self.tracing else None
        extra = {"X-Request-Id": rid}
        queries: np.ndarray | None = None

        if self._inflight >= self.max_inflight:
            self._m_rejected.inc()
            extra["Retry-After"] = format(self.retry_after_s, "g")
            status, payload = 429, {
                "error": "fleet saturated",
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
            }
        else:
            try:
                queries = self._parse_queries(request)
                deadline_ms = float(
                    request.headers.get("x-deadline-ms", self.default_deadline_ms)
                )
                if not (deadline_ms > 0):
                    raise ValueError(f"X-Deadline-Ms must be > 0, got {deadline_ms}")
            except (ValueError, TypeError) as exc:
                status, payload = 400, {"error": str(exc)}
            else:
                self._inflight += 1
                self._m_admitted.inc()
                try:
                    status, payload = await self._run_predict(
                        queries, deadline_ms, tracer
                    )
                finally:
                    self._inflight -= 1
        payload["request_id"] = rid
        await self._send_json(
            writer, status, payload, extra_headers=extra, keep_alive=keep
        )
        self._finish_request(
            rid,
            status=status,
            latency_s=time.perf_counter() - t0,
            start_unix=start_unix,
            queries=queries,
            tracer=tracer,
            error=payload.get("error"),
        )

    async def _run_predict(
        self, queries: np.ndarray, deadline_ms: float, tracer: Tracer | None
    ) -> tuple[int, dict[str, Any]]:
        """Fleet round-trip for one admitted request: (status, payload)."""
        deadline_ts = time.time() + deadline_ms / 1000.0
        span = (
            tracer.span(
                "frontdoor.predict",
                queries=int(queries.shape[0]),
                deadline_ms=deadline_ms,
            )
            if tracer is not None
            else contextlib.nullcontext()
        )
        with span:
            future = self.fleet.submit(
                queries, deadline_ts=deadline_ts, trace=tracer
            )
            try:
                result = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=deadline_ms / 1000.0
                )
            except asyncio.TimeoutError:
                self._m_deadline.inc()
                return 504, {"error": f"deadline of {deadline_ms:g} ms exceeded"}
            except (WorkerDied, FleetClosed) as exc:
                return 503, {"error": str(exc)}
            except RuntimeError as exc:
                # worker-side per-request failure (includes its own
                # deadline pre-check: "deadline exceeded before work")
                if "deadline exceeded" in str(exc):
                    self._m_deadline.inc()
                    return 504, {"error": str(exc)}
                return 500, {"error": str(exc)}
        return 200, result.as_payload()

    def _finish_request(
        self,
        rid: str,
        *,
        status: int,
        latency_s: float,
        start_unix: float,
        queries: np.ndarray | None,
        tracer: Tracer | None,
        error: str | None,
    ) -> None:
        """Post-response bookkeeping: event log + tail-based retention."""
        latency_ms = round(latency_s * 1e3, 3)
        if status >= 400:
            self.log.warning(
                "predict_failed", trace_id=rid, status=status,
                latency_ms=latency_ms, error=error,
            )
        else:
            self.log.debug(
                "predict_ok", trace_id=rid, status=status, latency_ms=latency_ms
            )
        if self.retention is not None:
            self.retention.offer(
                rid,
                status=status,
                latency_s=latency_s,
                start_unix=start_unix,
                n_queries=int(queries.shape[0]) if queries is not None else 0,
                queries=queries,
                spans=tracer.finished() if tracer is not None else None,
                error=error,
            )

    async def _handle_swap(self, request: _Request, writer, keep: bool) -> None:
        try:
            body = json.loads(request.body)
            model_path = body["model_path"]
        except (ValueError, KeyError, TypeError):
            await self._send_json(
                writer, 400,
                {"error": 'body must be {"model_path": "/path/to/model.mudb"}'},
                keep_alive=keep,
            )
            return
        try:
            # the swap blocks on worker warmup; keep the loop serving
            report = await asyncio.to_thread(self.fleet.swap, model_path)
        except FleetClosed as exc:
            await self._send_json(writer, 503, {"error": str(exc)}, keep_alive=keep)
            return
        except Exception as exc:  # bad artifact, worker startup failure, ...
            await self._send_json(writer, 500, {"error": repr(exc)}, keep_alive=keep)
            return
        await self._send_json(writer, 200, vars(report), keep_alive=keep)


# ---------------------------------------------------------------------------
# thread harness (tests, embedding)


class FrontDoorHandle:
    """A front door running on its own event-loop thread."""

    def __init__(self, door: FrontDoor, thread: threading.Thread) -> None:
        self.door = door
        self._thread = thread

    @property
    def port(self) -> int:
        assert self.door.bound_port is not None
        return self.door.bound_port

    @property
    def url(self) -> str:
        return f"http://{self.door.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        self.door.request_stop()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontDoorHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    fleet: Fleet, *, ready_timeout: float = 30.0, **door_kwargs: Any
) -> FrontDoorHandle:
    """Start a :class:`FrontDoor` on a daemon thread; returns its handle."""
    door = FrontDoor(fleet, **door_kwargs)

    def _run() -> None:
        asyncio.run(door.serve(install_signal_handlers=False))

    thread = threading.Thread(target=_run, name="fleet-front-door", daemon=True)
    thread.start()
    if not door._bound.wait(ready_timeout):
        door.request_stop()
        thread.join(timeout=5.0)
        raise TimeoutError("front door failed to bind")
    return FrontDoorHandle(door, thread)
