"""Open-loop load generator for the serving stack.

The harness behind ``mudbscan loadtest`` and ``perf_smoke --fleet``:

* **open-loop arrivals** — requests are released on a precomputed
  schedule (Poisson or uniform) regardless of how fast earlier ones
  complete, so a slow server *accumulates* latency instead of silently
  throttling the generator (the closed-loop trap that hides
  saturation).  Latency is measured from the *scheduled* release time,
  which makes queueing delay visible.
* **two traffic shapes** — synthetic queries drawn uniformly from a
  box around the model's data, or **replay** of a caller-supplied
  query array (e.g. held-out rows of the fitted dataset).
* **two targets** — an HTTP URL (the front door; persistent keep-alive
  connection per client thread) or any in-process object with a
  ``predict(queries)`` method (a :class:`~repro.serving.fleet.fleet.Fleet` or
  :class:`~repro.serving.engine.QueryEngine`), which takes HTTP
  parsing out of the measurement.
* **rate sweeps + saturation detection** — :func:`sweep_rates` maps
  the latency-under-load curve; :func:`find_saturation` ramps the
  offered rate geometrically until the target stops keeping up
  (achieved throughput < 90 % of offered, rejections, or errors) and
  brackets the knee.

Everything is stdlib + numpy; results are plain dicts ready for
BENCH_FLEET.json and the benchmark ledger.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence
from urllib.parse import urlparse

import numpy as np

__all__ = [
    "LoadResult",
    "make_schedule",
    "synthetic_queries",
    "run_open_loop",
    "sweep_rates",
    "find_saturation",
]


# ---------------------------------------------------------------------------
# traffic


def synthetic_queries(
    model, n: int, *, rng: np.random.Generator | None = None, margin: float = 0.1
) -> np.ndarray:
    """Uniform queries over the model's bounding box (plus a margin)."""
    rng = rng or np.random.default_rng(0)
    if model.n == 0:
        return rng.uniform(-1.0, 1.0, (n, max(model.dim, 1)))
    lo = model.points.min(axis=0)
    hi = model.points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return rng.uniform(lo - margin * span, hi + margin * span, (n, model.dim))


def make_schedule(
    n_requests: int,
    rate: float,
    *,
    arrivals: str = "poisson",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Release offsets (seconds from start) for ``n_requests`` at ``rate``/s."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if arrivals == "poisson":
        rng = rng or np.random.default_rng(0)
        gaps = rng.exponential(1.0 / rate, n_requests)
    elif arrivals == "uniform":
        gaps = np.full(n_requests, 1.0 / rate)
    else:
        raise ValueError(f"arrivals must be 'poisson' or 'uniform', got {arrivals!r}")
    return np.cumsum(gaps) - gaps[0]


# ---------------------------------------------------------------------------
# results


@dataclass
class LoadResult:
    """One open-loop run's measurements."""

    offered_rate: float
    n_requests: int
    batch_size: int
    wall_seconds: float
    #: per-request latency from *scheduled* release to completion (s)
    latencies: np.ndarray
    #: HTTP status (or 200/599 for in-process ok/error) per request
    statuses: np.ndarray
    target: str = "in-process"
    #: server-minted ``X-Request-Id`` per request (None off the HTTP path)
    request_ids: list | None = None
    #: server-reported error string per request (None when it succeeded)
    errors: list | None = None

    @property
    def achieved_rate(self) -> float:
        return self.n_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def achieved_qps(self) -> float:
        """Completed *query points* per second (requests × batch)."""
        ok = int(np.sum(self.statuses == 200))
        return ok * self.batch_size / self.wall_seconds if self.wall_seconds else 0.0

    def status_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.statuses, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    @property
    def error_rate(self) -> float:
        return float(np.mean(self.statuses != 200)) if self.n_requests else 0.0

    def percentile(self, q: float) -> float:
        ok = self.latencies[self.statuses == 200]
        return float(np.percentile(ok, q)) if ok.size else float("nan")

    def worst_offenders(self, k: int = 5) -> list[dict[str, Any]]:
        """The ``k`` worst requests: every failure, then the slowest
        successes — each with its status, latency and (when the target
        minted one) request id, so a bad request in a load-test report
        can be chased straight into ``GET /traces/<request-id>``."""
        def _row(i: int) -> dict[str, Any]:
            row: dict[str, Any] = {
                "index": int(i),
                "status": int(self.statuses[i]),
                "latency_ms": round(float(self.latencies[i]) * 1e3, 3)
                if np.isfinite(self.latencies[i])
                else None,
            }
            if self.request_ids is not None and self.request_ids[i]:
                row["request_id"] = self.request_ids[i]
            if self.errors is not None and self.errors[i]:
                row["error"] = self.errors[i]
            return row

        failed = np.flatnonzero(self.statuses != 200)
        # failures first (slowest first), then the slowest successes
        failed = failed[np.argsort(-np.nan_to_num(self.latencies[failed]))]
        rows = [_row(i) for i in failed[:k]]
        if len(rows) < k:
            ok = np.flatnonzero(self.statuses == 200)
            ok = ok[np.argsort(-np.nan_to_num(self.latencies[ok]))]
            rows.extend(_row(i) for i in ok[: k - len(rows)])
        return rows

    def summary(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "offered_rate": round(self.offered_rate, 3),
            "achieved_rate": round(self.achieved_rate, 3),
            "achieved_qps": round(self.achieved_qps, 3),
            "n_requests": self.n_requests,
            "batch_size": self.batch_size,
            "wall_seconds": round(self.wall_seconds, 4),
            "status_counts": {str(k): v for k, v in self.status_counts().items()},
            "error_rate": round(self.error_rate, 5),
            "latency_seconds": {
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99),
            },
            "worst_offenders": self.worst_offenders(),
        }


# ---------------------------------------------------------------------------
# clients


class _HttpClient:
    """One keep-alive connection posting predict bodies."""

    def __init__(self, url: str, timeout: float) -> None:
        parsed = urlparse(url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._path = parsed.path or "/predict"
        if not self._path.endswith("/predict"):
            self._path = self._path.rstrip("/") + "/predict"
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    def __call__(self, queries: np.ndarray) -> tuple[int, str | None, str | None]:
        """Returns ``(status, request_id, error)`` for one predict."""
        body = json.dumps({"points": queries.tolist()})
        for attempt in (0, 1):  # one reconnect on a dropped keep-alive
            conn = self._connection()
            try:
                conn.request(
                    "POST", self._path, body,
                    {"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                payload = resp.read()
                rid = resp.getheader("X-Request-Id")
                error = None
                if resp.status != 200:
                    try:
                        error = json.loads(payload).get("error")
                    except (ValueError, AttributeError):
                        error = None
                return resp.status, rid, error
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if attempt:
                    return 599, None, repr(exc)
        return 599, None, "unreachable"

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


def _inproc_client(target) -> Callable[[np.ndarray], tuple[int, None, str | None]]:
    def call(queries: np.ndarray) -> tuple[int, None, str | None]:
        try:
            target.predict(queries)
            return 200, None, None
        except Exception as exc:
            return 599, None, repr(exc)

    return call


# ---------------------------------------------------------------------------
# the open loop


def run_open_loop(
    target,
    queries: np.ndarray,
    *,
    rate: float,
    n_requests: int = 200,
    batch_size: int = 16,
    arrivals: str = "poisson",
    n_clients: int = 8,
    timeout: float = 30.0,
    rng: np.random.Generator | None = None,
) -> LoadResult:
    """Fire ``n_requests`` batches at ``rate`` req/s, open loop.

    ``target`` is a URL string or an object with ``predict``.
    ``queries`` is the replay pool — each request samples
    ``batch_size`` consecutive rows (wrapping), so a pool of real
    held-out points replays actual traffic while a synthetic pool
    exercises the whole space.
    """
    rng = rng or np.random.default_rng(0)
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] == 0:
        raise ValueError(f"query pool must be non-empty (k, dim), got {q.shape}")
    schedule = make_schedule(n_requests, rate, arrivals=arrivals, rng=rng)
    is_http = isinstance(target, str)
    clients = [
        _HttpClient(target, timeout) if is_http else _inproc_client(target)
        for _ in range(n_clients)
    ]
    starts = rng.integers(0, q.shape[0], n_requests)

    latencies = np.full(n_requests, np.nan)
    statuses = np.full(n_requests, 599, dtype=np.int64)
    request_ids: list = [None] * n_requests
    errors: list = [None] * n_requests
    next_idx = [0]
    idx_lock = threading.Lock()
    t0 = time.perf_counter()

    def _worker(client) -> None:
        while True:
            with idx_lock:
                i = next_idx[0]
                if i >= n_requests:
                    return
                next_idx[0] += 1
            release = t0 + schedule[i]
            delay = release - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rows = (starts[i] + np.arange(batch_size)) % q.shape[0]
            statuses[i], request_ids[i], errors[i] = client(q[rows])
            latencies[i] = time.perf_counter() - release

    threads = [
        threading.Thread(target=_worker, args=(c,), name=f"loadgen-{i}", daemon=True)
        for i, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    for c in clients:
        if isinstance(c, _HttpClient):
            c.close()
    return LoadResult(
        offered_rate=rate,
        n_requests=n_requests,
        batch_size=batch_size,
        wall_seconds=wall,
        latencies=latencies,
        statuses=statuses,
        target=target if is_http else type(target).__name__,
        request_ids=request_ids,
        errors=errors,
    )


def sweep_rates(
    target,
    queries: np.ndarray,
    rates: Sequence[float],
    **kwargs: Any,
) -> list[LoadResult]:
    """One :func:`run_open_loop` per offered rate (latency-vs-load curve)."""
    return [run_open_loop(target, queries, rate=r, **kwargs) for r in rates]


def find_saturation(
    target,
    queries: np.ndarray,
    *,
    start_rate: float = 5.0,
    growth: float = 2.0,
    max_steps: int = 8,
    p99_cap_s: float | None = None,
    **kwargs: Any,
) -> dict[str, Any]:
    """Ramp the offered rate geometrically until the target falls over.

    A step *saturates* when achieved rate < 90 % of offered, any
    request is rejected (429) or errors, or (optionally) p99 exceeds
    ``p99_cap_s``.  Returns the last sustainable rate, the first
    saturated rate (None if never reached), and every step's summary.
    """
    steps: list[LoadResult] = []
    last_ok: float | None = None
    saturated_at: float | None = None
    rate = start_rate
    for _ in range(max_steps):
        res = run_open_loop(target, queries, rate=rate, **kwargs)
        steps.append(res)
        overloaded = (
            res.achieved_rate < 0.9 * res.offered_rate
            or res.error_rate > 0
            or (p99_cap_s is not None and res.percentile(99) > p99_cap_s)
        )
        if overloaded:
            saturated_at = rate
            break
        last_ok = rate
        rate *= growth
    return {
        "sustainable_rate": last_ok,
        "saturated_rate": saturated_at,
        "steps": [s.summary() for s in steps],
    }
