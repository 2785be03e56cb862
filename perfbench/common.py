"""Paths, statistics and provenance shared by the benchmark's modules.

The benchmark runs from the root of a source checkout: the program under
test is imported from ``<root>/src`` and every file the benchmark writes
goes under ``<root>/perfbench/.work``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

#: ``ru_maxrss`` and ``/proc`` report KiB
MIB_PER_KIB = 1.0 / 1024.0


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, bad arguments)."""


def use_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (or fail)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: the benchmark and every process of the program it starts (they
#: inherit the environment) run matrix products on one BLAS thread, so
#: that a process's CPU time is its own work: a second BLAS thread adds
#: its share, including spin-waiting that depends on how the host
#: schedules the two threads
ONE_BLAS_THREAD = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# process lifetime: every process the benchmark starts has ended, and has
# been waited for, before the benchmark exits

#: ``prctl`` option (linux/prctl.h)
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A stopped server's helpers (the multiprocessing resource tracker)
    can outlive it; as a subreaper the benchmark inherits them and can
    wait for them, instead of leaving zombies for init to collect.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # end_processes then waits for init
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _processes() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, session id) of every process, zombies too."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        fields = stat.rsplit(")", 1)[1].split()
        table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def session_pids(sid: int) -> list[int]:
    """Every process of session ``sid``."""
    return [pid for pid, (_, s) in _processes().items() if s == sid]


def descendant_pids(pid: int) -> list[int]:
    """Every process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = {}
    for p, (pp, _) in _processes().items():
        children.setdefault(pp, []).append(p)
    tree = list(children.get(pid, []))
    for p in tree:
        tree.extend(children.get(p, []))
    return tree


def end_processes(find, grace_s: float, timeout_s: float = 30.0) -> None:
    """Wait up to ``grace_s`` for the processes ``find()`` lists to exit
    on their own, SIGKILL the rest, and return once every one of them
    has ended and (when it is this process's child) been reaped."""
    t0 = time.monotonic()
    while True:
        for pid in find():
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # not ours: init reaps it
                pass
        pids = find()
        if not pids:
            return
        waited = time.monotonic() - t0
        if waited >= grace_s:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if waited > grace_s + timeout_s:
            raise RuntimeError(f"processes {pids} did not end")
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it has
    one, and wait for it (it would otherwise exit only after us)."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spread(values) -> float | None:
    """Inter-quartile range over the median (``None`` below 2 values)."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return None
    q1, _, q3 = statistics.quantiles(data, n=4)
    mid = statistics.median(data)
    return (q3 - q1) / mid if mid else None


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` without running git
    (a checkout without ``.git`` reports "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Hash of every file under ``src`` — identifies the program even in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks since boot, from ``/proc/stat``: the share
    of time the hypervisor gave this machine's CPUs to other guests."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
