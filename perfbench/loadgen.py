"""Open-loop HTTP load with Poisson arrivals, and the knee search.

One process, two threads, two keep-alive connections.  Each request is
due at a time drawn from a Poisson schedule; a thread sends its next
request when it is due (or at once, if the thread is late) and latency
is timed from the *due* time, so a stall also shows in the requests
queued behind it.  Request bodies are encoded before a step starts and
responses are decoded after it ends, so the client's JSON work stays out
of the timed loop (``json_ms`` reports what it costs).

A step at rate ``r`` *passes* when no request failed, p99 latency is
within ``P99_LIMIT_S`` and the backlog is not growing: it grows when the
median latencies of the step's third and last quarters have both risen
against its first quarter (:func:`backlog_growing`).  Requiring both
keeps a burst of host CPU steal in the final quarter from passing for a
backlog.  The achieved rate is not used: a short dip of achieved below
offered is Poisson noise, not a knee.  The knee is found by an up-down
staircase on the offered rate (:func:`staircase`).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import median, percentile

#: the repo's default serving latency objective (p99 ≤ 250 ms)
P99_LIMIT_S = 0.250
#: a step's later quarters may exceed its first quarter's median latency
#: by this factor plus RISE_FLOOR_S before the backlog counts as growing
RISE_FACTOR = 2.0
RISE_FLOOR_S = 0.005
#: fewest requests per quarter for the rise test to mean anything
MIN_QUARTER = 8
#: the knee staircase's finest rate step
MIN_FACTOR = 1.05
CLIENT_THREADS = 2
REQUEST_TIMEOUT_S = 10.0


def backlog_growing(latencies) -> bool:
    """True when the median latencies of the third and the last quarter
    have both risen against the first quarter's (requests in due-time
    order)."""
    lat = np.asarray(latencies, dtype=float)
    q = lat.size // 4
    if q < MIN_QUARTER:
        return False
    first = float(np.median(lat[:q]))
    later = min(float(np.median(lat[2 * q:3 * q])), float(np.median(lat[-q:])))
    return later > RISE_FACTOR * first + RISE_FLOOR_S


@dataclass
class Step:
    rate: float
    keys: np.ndarray      # (n, BATCH) oracle keys per request
    due: np.ndarray       # (n,) due offsets (s)
    latency: np.ndarray   # (n,) due -> response (s); nan if never sent
    lag: np.ndarray       # (n,) due -> actual send (s)
    status: np.ndarray    # (n,) HTTP status; 0 never sent, 599 transport error
    bodies: list          # response bodies (bytes) or None
    encode_s: float
    wall_s: float

    @property
    def sent(self) -> np.ndarray:
        return self.status != 0

    @property
    def n_sent(self) -> int:
        return int(self.sent.sum())

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.sent & (self.status != 200)))

    def p(self, q: float) -> float:
        return percentile(self.latency[self.sent], q)

    @property
    def passed(self) -> bool:
        if self.n_sent < self.status.size or self.n_failed:
            return False
        return self.p(99) <= P99_LIMIT_S and not backlog_growing(self.latency)


class Client:
    """Two keep-alive connections to one server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conns: list[http.client.HTTPConnection | None] = [None] * CLIENT_THREADS

    def post(self, slot: int, body: bytes) -> tuple[int, bytes | None]:
        for attempt in (0, 1):  # one reconnect on a dropped keep-alive
            conn = self._conns[slot]
            if conn is None:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
                self._conns[slot] = conn
            try:
                conn.request(
                    "POST", "/predict", body, {"Content-Type": "application/json"}
                )
                resp = conn.getresponse()
                return resp.status, resp.read()
            except (http.client.HTTPException, OSError):
                conn.close()
                self._conns[slot] = None
                if attempt:
                    return 599, None
        return 599, None

    def close(self) -> None:
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns = [None] * CLIENT_THREADS


def encode(points: np.ndarray) -> bytes:
    return json.dumps({"points": points.tolist()}).encode()


def run_step(client: Client, pool: np.ndarray, keys: np.ndarray, rate: float,
             gaps: np.ndarray) -> Step:
    """Send ``len(keys)`` requests at ``rate`` req/s, open loop.

    ``gaps`` are unit-rate exponential inter-arrival gaps; dividing by
    ``rate`` gives the Poisson schedule.  The step stops sending once
    more than 1% of its requests missed ``P99_LIMIT_S``: it has failed
    and the rest would only deepen the backlog.
    """
    n = keys.shape[0]
    due = np.concatenate([[0.0], np.cumsum(gaps[: n - 1]) / rate])
    t = time.perf_counter()
    bodies_out = [encode(pool[k]) for k in keys]
    encode_s = time.perf_counter() - t
    latency = np.full(n, np.nan)
    lag = np.full(n, np.nan)
    status = np.zeros(n, dtype=np.int64)
    bodies: list = [None] * n
    lock = threading.Lock()
    state = {"next": 0, "slow": 0}
    give_up = int(0.01 * n)

    def worker(slot: int) -> None:
        while True:
            with lock:
                i = state["next"]
                if i >= n or state["slow"] > give_up:
                    return
                state["next"] = i + 1
            release = t0 + due[i]
            wait = release - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status[i], bodies[i] = client.post(slot, bodies_out[i])
            done = time.perf_counter()
            lag[i] = sent - release
            latency[i] = done - release
            if latency[i] > P99_LIMIT_S:
                with lock:
                    state["slow"] += 1

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(CLIENT_THREADS)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    return Step(rate, keys, due, latency, lag, status, bodies, encode_s, wall)


def send_serially(client: Client, pool: np.ndarray, keys: np.ndarray) -> Step:
    """Send ``keys`` one request at a time on one connection (the cache
    warm-up: complete, never aborted, not timed against a schedule)."""
    n = keys.shape[0]
    latency = np.zeros(n)
    status = np.zeros(n, dtype=np.int64)
    bodies: list = [None] * n
    t0 = time.perf_counter()
    for i, k in enumerate(keys):
        t = time.perf_counter()
        status[i], bodies[i] = client.post(0, encode(pool[k]))
        latency[i] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    return Step(0.0, keys, np.zeros(n), latency, np.zeros(n), status, bodies, 0.0, wall)


def decode_labels(step: Step) -> tuple[list[np.ndarray | None], float]:
    """Labels per request (``None`` when not 200) and decode seconds."""
    t = time.perf_counter()
    out = []
    for st, body in zip(step.status, step.bodies):
        out.append(np.asarray(json.loads(body)["labels"]) if st == 200 else None)
    return out, time.perf_counter() - t


def staircase(probe, start: float, passed_start: bool, n_probes: int,
              factor: float = 2.0, min_factor: float = MIN_FACTOR,
              ) -> tuple[float, list[tuple[float, bool]]]:
    """The offered rate at which a step passes half the time.

    ``probe(rate) -> bool`` runs one step; ``start`` was already run
    (verdict ``passed_start``).  After a passing step the rate goes up by
    ``factor``, after a failing one down by it, and at every reversal
    the factor shrinks to its square root, down to ``min_factor``.  The
    staircase then oscillates around the rate where steps pass as often
    as they fail; the estimate is the median of the rates it probed at
    ``min_factor`` (the highest passing rate, or 0.0, if it never got
    there).  Unlike a bisection, no single noisy verdict near the knee
    decides the answer.  Returns the estimate and every probe.
    """
    trail = [(start, passed_start)]
    rate, up = start, passed_start
    fine = []
    for _ in range(n_probes):
        rate = rate * factor if up else rate / factor
        if factor == min_factor:
            fine.append(rate)
        ok = probe(rate)
        trail.append((rate, ok))
        if ok != up:
            factor = max(min_factor, float(np.sqrt(factor)))
        up = ok
    if fine:
        return median(fine), trail
    return max((r for r, ok in trail if ok), default=0.0), trail


def lag_stats(steps: list[Step]) -> tuple[float, float]:
    """Median and max sender lag (s) over every scheduled request sent."""
    lags = np.concatenate([s.lag[s.sent] for s in steps if s.rate > 0])
    return median(lags), float(lags.max())
