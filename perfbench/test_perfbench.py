"""Tests of the benchmark's own arithmetic and machinery: the knee
detector, the knee staircase, span self times, the fit child's command
loop and the clean-up of the processes a run starts.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import subprocess
import tracemalloc

import numpy as np
import pytest

from common import become_subreaper, end_processes, session_pids, use_program
from fitstage import FitChild
from loadgen import MIN_FACTOR, P99_LIMIT_S, Step, backlog_growing, staircase
from spans import MemoryRecorder, Recorder, Span, by_name, self_times


def _step(latency, status=None, rate=100.0, wall_s=None):
    latency = np.asarray(latency, dtype=float)
    n = latency.size
    status = np.full(n, 200) if status is None else np.asarray(status)
    due = np.arange(n) / rate
    wall = wall_s if wall_s is not None else n / rate
    return Step(rate, np.zeros((n, 1), dtype=int), due, latency, np.zeros(n),
                status, [None] * n, 0.0, wall)


# ---------------------------------------------------------------------------
# knee detector


def test_flat_latency_is_not_a_backlog():
    rng = np.random.default_rng(0)
    flat = 0.004 + rng.exponential(0.002, 400)
    assert not backlog_growing(flat)
    assert _step(flat).passed


def test_rising_latency_is_a_backlog():
    rising = np.linspace(0.004, 0.200, 400)
    assert backlog_growing(rising)
    step = _step(rising)
    assert step.p(99) <= P99_LIMIT_S  # fails on the rise alone
    assert not step.passed


def test_a_burst_in_the_last_quarter_alone_is_not_a_rise():
    lat = np.full(400, 0.005)
    lat[-60:] = 0.090  # e.g. host CPU steal near the end of the step
    assert not backlog_growing(lat)


def test_noise_around_a_flat_level_is_not_a_rise():
    rng = np.random.default_rng(1)
    series = 0.020 * rng.lognormal(0.0, 0.4, 400)
    assert not backlog_growing(series)


def test_too_few_requests_never_count_as_rising():
    assert not backlog_growing(np.linspace(0.001, 0.2, 12))


def test_achieved_rate_dip_does_not_fail_a_step():
    # the step ran 25% long (achieved 0.8 x offered) with flat latency:
    # Poisson arrivals bunch, so this alone is not a knee
    flat = np.full(200, 0.005)
    step = _step(flat, rate=100.0, wall_s=2.5)
    assert step.n_sent / step.wall_s < 0.9 * step.rate
    assert step.passed


def test_failures_tail_and_aborts_fail_a_step():
    flat = np.full(200, 0.005)
    status = np.full(200, 200)
    status[7] = 503
    assert not _step(flat, status=status).passed
    tail = flat.copy()
    tail[-5:] = 0.4  # 2.5% of requests over the p99 limit
    assert not _step(tail).passed
    unsent = np.full(200, 200)
    unsent[150:] = 0
    assert not _step(flat, status=unsent).passed


# ---------------------------------------------------------------------------
# knee staircase


@pytest.mark.parametrize("knee", [30.0, 95.0, 100.0, 170.0, 700.0])
def test_staircase_settles_on_a_sharp_knee(knee):
    est, trail = staircase(lambda r: r <= knee, 45.0, 45.0 <= knee, n_probes=16)
    # it oscillates between the last passing and the first failing rate
    assert knee / MIN_FACTOR ** 2 <= est <= knee * MIN_FACTOR ** 2
    assert len(trail) == 17


def test_staircase_averages_noisy_verdicts():
    # between 0.9x and 1.1x the knee a step passes or fails by chance
    rng = np.random.default_rng(2)
    knee = 170.0

    def probe(rate):
        return rate < 0.9 * knee or (rate <= 1.1 * knee and rng.random() < 0.5)

    ests = [staircase(probe, 42.0, True, n_probes=16)[0] for _ in range(200)]
    # the middle half lands in the coin-flip zone, and no run strays far
    # from it on a few unlucky verdicts
    q1, q3 = np.percentile(ests, [25, 75])
    assert 0.9 * knee <= q1 and q3 <= 1.1 * knee
    lo, hi = np.percentile(ests, [5, 95])
    assert 0.85 * knee <= lo and hi <= 1.15 * knee


def test_staircase_without_reversals_reports_the_highest_pass():
    est, trail = staircase(lambda r: True, 45.0, True, n_probes=3)
    assert est == 45.0 * 8
    est, _ = staircase(lambda r: False, 45.0, False, n_probes=3)
    assert est == 0.0


# ---------------------------------------------------------------------------
# span self times


def _span(i, parent, start, end, name="s"):
    return Span(name, i, parent, None, start, end)


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 5.0, 9.0, "b"),
        _span(4, 3, 6.0, 7.0, "c"),
    ]
    st = self_times(spans)
    assert st == pytest.approx({1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0})
    assert sum(st.values()) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 6.0),
        _span(3, 1, 4.0, 8.0),   # overlaps the previous child
        _span(4, 1, 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_by_name_totals():
    spans = [
        _span(1, None, 0.0, 2.0, "req"),
        _span(2, 1, 0.5, 1.5, "call"),
        _span(3, None, 3.0, 4.0, "req"),
        _span(4, 3, 3.0, 3.25, "call"),
    ]
    table = by_name(spans)
    assert table["req"]["count"] == 2
    assert table["req"]["total_s"] == pytest.approx(3.0)
    assert table["req"]["self_s"] == pytest.approx(1.75)
    assert table["call"]["self_s"] == pytest.approx(1.25)


def test_recorder_nests_and_shares_request_ids():
    rec = Recorder()
    with rec.span("root", request_id=7):
        with rec.span("child"):
            pass
    root, child = rec.spans
    assert child.parent_id == root.span_id
    assert child.request_id == 7
    assert root.start <= child.start <= child.end <= root.end


def test_memory_recorder_attributes_peaks():
    rec = MemoryRecorder()
    tracemalloc.start()
    try:
        with rec.span("root"):
            with rec.span("big"):
                block = np.ones(4 * 1024 * 1024 // 8)  # 4 MiB
                del block
            with rec.span("small"):
                pass
    finally:
        tracemalloc.stop()
    peaks = {s.name: s.attrs["peak_mb"] for s in rec.spans}
    assert peaks["big"] >= 4.0
    assert peaks["small"] < 1.0
    assert peaks["root"] >= peaks["big"]


# ---------------------------------------------------------------------------
# processes


def test_fit_child_times_fits_per_slot_and_saves_them(tmp_path):
    use_program()
    from repro.data.synthetic import blobs_with_noise

    points = blobs_with_noise(300, 2, 3, seed=0)
    inputs = tmp_path / "inputs.npz"
    np.savez(inputs, train=points, eps=0.1, min_pts=5)
    with FitChild(inputs, tmp_path, slot_s=0.0) as fits:
        assert (tmp_path / "model.mudb").is_file()  # written by the warm-up
        fits.batch()
        fits.batch()
        summary = fits.finish()
    assert summary["n"] == 300
    assert len(summary["fit_s"]) == len(summary["fit_cpu_s"]) == 2  # one a slot
    assert summary["peak_rss_mb"] > 0
    with np.load(tmp_path / "fits.npz") as z:
        assert z["fit_labels"].shape == (2, 300)
        assert np.array_equal(z["fit_core"][1], z["model_core"])
    assert fits.proc.returncode == 0


def test_end_processes_waits_for_orphans():
    become_subreaper()
    # a shell in a session of its own starts a sleeper and exits: the
    # sleeper lives on as an orphan of the session
    shell = subprocess.Popen(
        ["sh", "-c", "sleep 60 & echo $!"], stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    orphan = int(shell.stdout.readline())
    shell.wait()
    shell.stdout.close()
    assert orphan in session_pids(shell.pid)
    end_processes(lambda: session_pids(shell.pid), grace_s=0.0)
    assert session_pids(shell.pid) == []
