"""The observability layer: registry, tracing, exposition, reports."""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.mudbscan import mu_dbscan
from repro.distributed.mudbscan_d import mu_dbscan_d
from repro.instrumentation.report import (
    DISTRIBUTED_PHASE_ORDER,
    PHASE_ORDER,
    percent_split,
    phase_seconds_from_registry,
    phase_seconds_from_trace,
    run_report_from_registry,
    run_report_from_trace,
)
from repro.observability.prometheus import CONTENT_TYPE, render_prometheus
from repro.observability.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.observability.registry import NOOP_METRIC
from repro.observability.tracing import (
    NOOP_SPAN,
    Tracer,
    current_tracer,
    load_jsonl,
    maybe_span,
    span_children,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(2.5)
        assert reg.get_sample("requests_total") == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("temperature")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert reg.get_sample("temperature") == 13.0

    def test_labels_create_independent_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("runs_total", "runs", labels=("algorithm",))
        fam.labels(algorithm="mu").inc()
        fam.labels(algorithm="brute").inc(3)
        assert reg.get_sample("runs_total", {"algorithm": "mu"}) == 1
        assert reg.get_sample("runs_total", {"algorithm": "brute"}) == 3

    def test_wrong_label_set_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            fam.labels(b="1")
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("a", "b"))  # redeclared differently

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_collector_runs_at_scrape_time(self):
        reg = MetricsRegistry()
        calls = []
        reg.register_collector(lambda: calls.append(1) or iter(()))
        assert not calls
        reg.collect()
        assert calls == [1]

    def test_disabled_registry_is_noop_singleton(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a_total") is NOOP_METRIC
        assert reg.gauge("b") is NOOP_METRIC
        assert reg.histogram("c") is NOOP_METRIC
        reg.counter("a_total").inc()
        reg.register_collector(lambda: iter(()))
        assert reg.collect() == []
        assert render_prometheus(reg) == ""

    def test_default_registry_is_disabled(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_use_registry_scopes_to_thread(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
        assert get_registry() is NULL_REGISTRY


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tr = Tracer()
        with tr.span("root") as root, tr.span("child") as child:
            with tr.span("grandchild") as grand:
                pass
        spans = tr.finished()
        assert [s["name"] for s in spans] == ["root", "child", "grandchild"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == root.span_id
        assert by_name["grandchild"]["parent_id"] == child.span_id
        assert all(s["trace_id"] == tr.trace_id for s in spans)
        assert all(s["duration_s"] >= 0 for s in spans)
        del grand

    def test_maybe_span_without_tracer_is_noop(self):
        assert current_tracer() is None
        assert maybe_span("anything") is NOOP_SPAN

    def test_maybe_span_with_active_tracer_records(self):
        tr = Tracer()
        with tr.activate():
            with maybe_span("work", n=3):
                pass
        assert current_tracer() is None
        (span,) = tr.finished()
        assert span["name"] == "work"
        assert span["attrs"] == {"n": 3}

    def test_disabled_tracer_returns_noop(self):
        tr = Tracer(enabled=False)
        assert tr.span("x") is NOOP_SPAN
        with tr.activate():
            assert maybe_span("y") is NOOP_SPAN
        assert tr.finished() == []

    def test_context_reroots_child_tracer(self):
        tr = Tracer()
        with tr.span("driver") as driver:
            ctx = tr.context()
        child = Tracer.from_context(ctx)
        assert child.trace_id == tr.trace_id
        with child.span("rank"):
            pass
        (rank_span,) = child.finished()
        assert rank_span["parent_id"] == driver.span_id
        tr.adopt(child.finished())
        names = {s["name"] for s in tr.finished()}
        assert names == {"driver", "rank"}

    def test_from_none_context_is_disabled(self):
        assert not Tracer.from_context(None).enabled

    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer()
        with tr.span("a", k="v"), tr.span("b"):
            pass
        path = tr.export_jsonl(tmp_path / "trace.jsonl")
        spans = load_jsonl(path)
        assert spans == tr.finished()
        roots = list(span_children(spans, None))
        assert [s["name"] for s in roots] == ["a"]


class TestPrometheusRendering:
    def test_golden_output(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests served", labels=("route",)).labels(
            route="predict"
        ).inc(4)
        reg.gauge("ratio", "cache hit ratio").set(0.25)
        reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(reg)
        assert text == (
            "# HELP lat_seconds latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 0\n'
            'lat_seconds_bucket{le="1"} 1\n'
            'lat_seconds_bucket{le="+Inf"} 1\n'
            "lat_seconds_sum 0.5\n"
            "lat_seconds_count 1\n"
            "# HELP ratio cache hit ratio\n"
            "# TYPE ratio gauge\n"
            "ratio 0.25\n"
            "# HELP req_total requests served\n"
            "# TYPE req_total counter\n"
            'req_total{route="predict"} 4\n'
        )

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("p",)).labels(p='a"b\\c\nd').inc()
        line = render_prometheus(reg).splitlines()[-1]
        assert line == 'c_total{p="a\\"b\\\\c\\nd"} 1'


class TestFitInstrumentation:
    def test_fit_publishes_phases_and_counters(self, small_blobs):
        reg = MetricsRegistry()
        with use_registry(reg):
            res = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        phases = phase_seconds_from_registry(reg, algorithm="mu_dbscan")
        assert set(PHASE_ORDER) <= set(phases)
        for phase in PHASE_ORDER:
            assert phases[phase] == pytest.approx(res.timers.get(phase))
        assert reg.get_sample(
            "mudbscan_work_queries_run_total",
            {"algorithm": "mu_dbscan", "engine": "exact"},
        ) == float(res.counters.queries_run)
        assert (
            reg.get_sample(
                "mudbscan_runs_total", {"algorithm": "mu_dbscan", "engine": "exact"}
            )
            == 1
        )

    def test_fit_trace_reproduces_table_iii_split(self, small_blobs):
        tracer = Tracer()
        res = mu_dbscan(small_blobs, eps=0.08, min_pts=6, tracer=tracer)
        spans = tracer.finished()
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["fit"]
        child_names = [
            s["name"] for s in span_children(spans, roots[0]["span_id"])
        ]
        assert child_names == list(PHASE_ORDER)
        trace_split = percent_split(phase_seconds_from_trace(spans, "fit"))
        timer_split = res.timers.percent_split()
        for phase in PHASE_ORDER:
            # span timing brackets the timer's phase; allow small skew
            assert trace_split[phase] == pytest.approx(
                timer_split[phase], abs=2.0
            )
        report = run_report_from_trace(spans, root_name="fit")
        assert "tree_construction" in report and "%" in report

    def test_untraced_fit_labels_unchanged(self, small_blobs):
        plain = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        traced = mu_dbscan(small_blobs, eps=0.08, min_pts=6, tracer=Tracer())
        np.testing.assert_array_equal(plain.labels, traced.labels)


class TestDistributedTracing:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_rank_spans_land_in_one_tree(self, medium_blobs_3d, backend):
        tracer = Tracer()
        reg = MetricsRegistry()
        with use_registry(reg):
            mu_dbscan_d(
                medium_blobs_3d, 0.25, 10, n_ranks=2, backend=backend, tracer=tracer
            )
        spans = tracer.finished()
        assert {s["trace_id"] for s in spans} == {tracer.trace_id}
        roots = [s for s in spans if s["name"] == "mu_dbscan_d"]
        assert len(roots) == 1
        ranks = list(span_children(spans, roots[0]["span_id"]))
        assert [s["name"] for s in ranks] == ["rank", "rank"]
        assert sorted(s["attrs"]["rank"] for s in ranks) == [0, 1]
        phases = phase_seconds_from_trace(spans, "mu_dbscan_d")
        assert set(DISTRIBUTED_PHASE_ORDER) <= set(phases)
        report = run_report_from_registry(reg, algorithm="mu_dbscan_d")
        assert "halo_exchange" in report
        assert reg.get_sample(
            "mudbscan_comm_bytes_sent_total", {"backend": backend, "rank": "0"}
        ) > 0


class TestMetricsEndpoint:
    def test_metrics_scrape_is_valid_prometheus(self, small_blobs):
        """``GET /metrics`` on the default server (the front door over
        the in-process worker): valid text, fleet series, and the
        worker engine's series labelled ``worker="0"``."""
        from repro.serving.fleet import Fleet, FleetConfig, start_in_thread
        from repro.serving.model import fit_model

        model = fit_model(small_blobs, 0.08, 6)
        fleet = Fleet(model, FleetConfig(n_workers=0), registry=MetricsRegistry())
        with fleet, start_in_thread(fleet, port=0) as door:
            body = json.dumps({"points": small_blobs[:4].tolist()}).encode()
            req = urllib.request.Request(
                door.url + "/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10.0):
                pass
            with urllib.request.urlopen(door.url + "/metrics", timeout=10.0) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                text = resp.read().decode("utf-8")
        lines = text.splitlines()
        assert lines, "scrape must not be empty"
        for line in lines:
            assert line.startswith("#") or " " in line
        samples = {}
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            samples[name_part] = float(value)
        assert samples["mudbscan_fleet_requests_total"] == 1
        assert samples['mudbscan_serving_requests_total{worker="0"}'] >= 4
        assert 0.0 <= samples['mudbscan_serving_cache_hit_ratio{worker="0"}'] <= 1.0
        hist_lines = [
            name for name in samples
            if name.startswith("mudbscan_serving_request_latency_seconds_bucket")
        ]
        assert any('le="+Inf"' in name for name in hist_lines)
        count = 'mudbscan_serving_request_latency_seconds_count{worker="0"}'
        assert samples[count] >= 4


class TestDisabledModeCost:
    def test_disabled_paths_allocate_no_registry_state(self, small_blobs):
        reg = MetricsRegistry(enabled=False)
        tracer = Tracer(enabled=False)
        with use_registry(reg):
            mu_dbscan(small_blobs, eps=0.08, min_pts=6, tracer=tracer)
        assert reg.collect() == []
        assert reg._families == {}
        assert reg._collectors == []
        assert tracer.finished() == []


class TestConcurrentExposition:
    def test_render_is_consistent_under_concurrent_writers(self):
        """Prometheus exposition while counters/gauges/histograms are
        being hammered from other threads: every scrape must parse and
        the final totals must be exact."""
        reg = MetricsRegistry()
        counter = reg.counter("writers_total", "hits", labels=("worker",))
        gauge = reg.gauge("writers_gauge", "level", labels=("worker",))
        hist = reg.histogram("writers_latency_seconds", "obs")
        n_workers, n_iter = 8, 500
        start = threading.Barrier(n_workers + 1)
        errors: list[BaseException] = []

        def writer(idx: int) -> None:
            try:
                start.wait()
                labels = {"worker": str(idx)}
                for i in range(n_iter):
                    counter.labels(**labels).inc()
                    gauge.labels(**labels).set(float(i))
                    hist.observe(i / n_iter)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        start.wait()
        # scrape concurrently with the writers: text must always parse
        for _ in range(20):
            text = render_prometheus(reg)
            for line in text.splitlines():
                if line.startswith("#") or not line:
                    continue
                _, value = line.rsplit(" ", 1)
                float(value)  # parseable value on every sample line
        for t in threads:
            t.join()
        assert not errors
        final = render_prometheus(reg)
        samples = {}
        for line in final.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        for idx in range(n_workers):
            assert samples[f'writers_total{{worker="{idx}"}}'] == n_iter
            assert samples[f'writers_gauge{{worker="{idx}"}}'] == n_iter - 1
        assert samples["writers_latency_seconds_count"] == n_workers * n_iter
        assert samples['writers_latency_seconds_bucket{le="+Inf"}'] == (
            n_workers * n_iter
        )
