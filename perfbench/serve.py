"""Launching, probing, measuring and stopping ``mudbscan serve``.

The server runs as ``python3 -m repro.cli serve --workers 2 --router kd``
on a saved artifact, in a session of its own so the whole tree (front
door, two workers, the shared-memory tracker) can be found and stopped.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import MIB_PER_KIB, end_processes, program_env, session_pids

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
STOP_GRACE_S = 5.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    def __init__(self, model_path: Path, log_path: Path) -> None:
        self.model_path = model_path
        self.log_path = log_path
        self.port = 0
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Launch and wait for the first 200 from ``/readyz``; returns
        the seconds from launch to that answer."""
        self.port = _free_port()
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", str(self.model_path),
            "--workers", "2", "--router", "kd",
            "--port", str(self.port), "--log-level", "warning",
        ]
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=program_env(), stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {self.log_path}"
                )
            try:
                status, _ = self.request("GET", "/readyz", timeout=1.0)
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:.0f} s")
            time.sleep(0.005)

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = 10.0) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over the workers' LRU caches."""
        hits = misses = 0
        for w in self.stats().get("workers_detail", []):
            cache = w.get("cache", {})
            hits += int(cache.get("hits", 0))
            misses += int(cache.get("misses", 0))
        return hits, misses

    def pids(self) -> list[int]:
        """The server process and every process it started (its session)."""
        return [] if self.proc is None else session_pids(self.proc.pid)

    def cpu_s(self) -> float:
        """User + system CPU seconds the server tree has used so far."""
        ticks = 0
        for pid in self.pids():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / CLOCK_TICKS

    def pss_mb(self) -> float:
        """Summed proportional set size of the server tree (MiB)."""
        total_kib = 0
        for pid in self.pids():
            try:
                text = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("Pss:"):
                    total_kib += int(line.split()[1])
                    break
        return total_kib * MIB_PER_KIB

    def stop(self) -> None:
        """SIGTERM (the front door drains and joins its workers), SIGKILL
        for the whole session if it does not exit in time; returns once
        every process of the session has ended and been waited for."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        # helpers that outlive the server (its resource tracker) exit once
        # it has; the benchmark is their subreaper (common.become_subreaper)
        end_processes(lambda: session_pids(proc.pid), grace_s=STOP_GRACE_S)
