"""Command-line interface.

::

    mudbscan datasets
    mudbscan run --dataset 3DSRN --algo mu
    mudbscan run --input points.npy --eps 0.1 --min-pts 5
    mudbscan compare --dataset DGB0.5M3D
    mudbscan distributed --dataset MPAGD8M3D --ranks 4 --algo mu-d
    mudbscan fit --dataset 3DSRN --save model.mudb
    mudbscan fit --dataset 3DSRN --save model.mudb \
        --trace-out trace.jsonl --metrics-out metrics.prom
    mudbscan stream --dataset 3DSRN --batch 256 --window 4000 \
        --delete-fraction 0.1 --checkpoint-every 8 --checkpoint-dir ckpts \
        --verify
    mudbscan predict --model model.mudb --input queries.npy
    mudbscan serve --model model.mudb --port 8765
    mudbscan serve --model model.mudb --workers 4 --router kd --port 8766
    mudbscan serve --model model.mudb --workers 4 \
        --trace --slow-log slow.jsonl --event-log events.jsonl
    mudbscan slo --url http://127.0.0.1:8766
    mudbscan loadtest --model model.mudb --workers 2 --saturation

(also reachable as ``python -m repro.cli``)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from typing import Callable

import numpy as np

from repro._version import __version__
from repro.baselines import brute_dbscan, g_dbscan, grid_dbscan, rtree_dbscan
from repro.core.mudbscan import mu_dbscan
from repro.microcluster.builder import DEFAULT_BUILDER_BLOCK_SIZE
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE
from repro.core.result import ClusteringResult
from repro.data.io import load_points
from repro.data.registry import REGISTRY, load_dataset
from repro.distributed.backends import BACKENDS
from repro.distributed.baselines_d import (
    grid_dbscan_d,
    hpdbscan_like,
    pdsdbscan_d,
    rp_dbscan_like,
)
from repro.distributed.mudbscan_d import mu_dbscan_d, parallel_time
from repro.instrumentation.report import format_table
from repro.validation.exactness import check_exact

SEQUENTIAL_ALGOS: dict[str, Callable] = {
    "mu": mu_dbscan,
    "rtree": rtree_dbscan,
    "g": g_dbscan,
    "grid": grid_dbscan,
    "brute": brute_dbscan,
}

DISTRIBUTED_ALGOS: dict[str, Callable] = {
    "mu-d": mu_dbscan_d,
    "pds": pdsdbscan_d,
    "grid-d": grid_dbscan_d,
    "hp": hpdbscan_like,
    "rp": rp_dbscan_like,
}


def _resolve_workload(args: argparse.Namespace) -> tuple[np.ndarray, float, int, str]:
    if args.dataset:
        pts, spec = load_dataset(args.dataset, scale=args.scale)
        eps = args.eps if args.eps is not None else spec.eps
        min_pts = args.min_pts if args.min_pts is not None else spec.min_pts
        return pts, eps, min_pts, args.dataset
    if args.input:
        if args.eps is None or args.min_pts is None:
            raise SystemExit("--input requires explicit --eps and --min-pts")
        return load_points(args.input), args.eps, args.min_pts, args.input
    raise SystemExit("provide --dataset <name> or --input <file>")


def _print_result(name: str, res: ClusteringResult, wall: float) -> None:
    print(res.summary())
    print(f"dataset={name} wall_time={wall:.3f}s")
    counters = res.counters
    print(
        f"queries: run={counters.queries_run} saved={counters.queries_saved} "
        f"({counters.query_save_fraction:.1%}) dist_calcs={counters.dist_calcs}"
    )
    phases = res.timers.as_dict()
    if phases:
        rows = [[k, f"{v:.4f}", f"{p:.1f}%"]
                for (k, v), p in zip(phases.items(), res.timers.percent_split().values())]
        print(format_table(["phase", "seconds", "share"], rows))


def cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name, spec in REGISTRY.items():
        rows.append(
            [name, spec.base_n, spec.dim, spec.eps, spec.min_pts, spec.description]
        )
    print(
        format_table(
            ["name", "base_n", "d", "eps", "min_pts", "description"],
            rows,
            title="registered datasets (sizes scale with REPRO_SCALE / --scale)",
        )
    )
    return 0


def _mu_kwargs(args: argparse.Namespace) -> dict:
    """Block-size knobs, honoured by the μDBSCAN algorithms only."""
    return {
        "block_size": args.block_size,
        "builder_block_size": args.builder_block_size,
    }


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """``engine=`` + engine options for the facade (run / fit only)."""
    kwargs: dict = {"engine": args.engine, **_mu_kwargs(args)}
    if args.sample_fraction is not None:
        if args.engine != "sampled":
            raise SystemExit("--sample-fraction requires --engine sampled")
        kwargs["sample_fraction"] = args.sample_fraction
    return kwargs


@contextlib.contextmanager
def _observability(args: argparse.Namespace, root_name: str = "fit"):
    """Honour ``--trace-out`` / ``--metrics-out`` / ``--profile``.

    When any flag is given, the matching instruments (tracer, metrics
    registry, phase profiler) are activated for the command body; on
    exit the trace JSON-lines and the Prometheus text snapshot are
    written, the trace-derived phase split-up (the Table III / VII
    shape) is printed, and with ``--profile`` the Table IV-style
    memory split-up follows.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", None)
    if not trace_out and not metrics_out and not profile:
        yield
        return
    from repro.instrumentation.report import (
        DISTRIBUTED_PHASE_ORDER,
        PHASE_ORDER,
        memory_report_from_profile,
        memory_report_from_profiles,
        run_report_from_trace,
    )
    from repro.observability import (
        MetricsRegistry,
        PhaseProfiler,
        Tracer,
        use_registry,
        write_prometheus,
    )

    tracer = Tracer() if (trace_out or metrics_out) else Tracer(enabled=False)
    registry = MetricsRegistry(enabled=bool(trace_out or metrics_out))
    profiler = PhaseProfiler(profile) if profile else None
    profiling = (
        profiler.activate() if profiler is not None else contextlib.nullcontext()
    )
    with use_registry(registry), tracer.activate(), profiling:
        yield
    if trace_out:
        spans = tracer.finished()
        path = tracer.export_jsonl(trace_out)
        print(f"wrote trace: {path} ({len(spans)} spans)")
        print(run_report_from_trace(spans, root_name=root_name))
    if metrics_out:
        path = write_prometheus(registry, metrics_out)
        print(f"wrote metrics snapshot: {path}")
    if profiler is not None:
        order = (
            DISTRIBUTED_PHASE_ORDER if root_name == "mu_dbscan_d" else PHASE_ORDER
        )
        per_rank = profiler.per_rank()
        if per_rank:
            print(memory_report_from_profiles(per_rank, profiler.rank_rusages()))
        if profiler.as_dict():
            print(memory_report_from_profile(profiler.as_dict(), order=order))
        if profile == "deep":
            for phase, rec in profiler.as_dict().items():
                for alloc in rec.get("top_allocations", [])[:3]:
                    print(
                        f"  {phase}: +{alloc['size_diff_bytes']} B "
                        f"({alloc['count_diff']} blocks) at {alloc['site']}"
                    )


def cmd_run(args: argparse.Namespace) -> int:
    if args.sample_fraction is not None and args.engine != "sampled":
        raise SystemExit("--sample-fraction requires --engine sampled")
    pts, eps, min_pts, name = _resolve_workload(args)
    if args.engine != "exact":
        if args.algo != "mu":
            raise SystemExit(f"--engine {args.engine} requires --algo mu")
        from repro.api import fit

        with _observability(args, root_name="fit"):
            start = time.perf_counter()
            res = fit(pts, eps, min_pts, **_engine_kwargs(args))
            wall = time.perf_counter() - start
        _print_result(name, res, wall)
        return 0
    algo = SEQUENTIAL_ALGOS[args.algo]
    kwargs = _mu_kwargs(args) if args.algo == "mu" else {}
    with _observability(args, root_name="fit"):
        start = time.perf_counter()
        res = algo(pts, eps, min_pts, **kwargs)
        wall = time.perf_counter() - start
    _print_result(name, res, wall)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    pts, eps, min_pts, name = _resolve_workload(args)
    ref = brute_dbscan(pts, eps, min_pts)
    kwargs = _mu_kwargs(args) if args.algo == "mu" else {}
    with _observability(args, root_name="fit"):
        res = SEQUENTIAL_ALGOS[args.algo](pts, eps, min_pts, **kwargs)
    report = check_exact(res, ref, points=pts)
    print(f"{name}: {res.algorithm} vs brute oracle -> {report}")
    return 0 if report.ok else 1


def cmd_distributed(args: argparse.Namespace) -> int:
    pts, eps, min_pts, name = _resolve_workload(args)
    algo = DISTRIBUTED_ALGOS[args.algo]
    kwargs = _mu_kwargs(args) if args.algo == "mu-d" else {}
    if args.algo == "mu-d":
        kwargs["backend"] = args.backend
    elif args.backend != "thread":
        raise SystemExit(f"--backend {args.backend} is only supported by --algo mu-d")

    monitor = None
    render_stop = None
    render_thread = None
    if args.progress or args.heartbeat_out:
        if args.algo != "mu-d":
            raise SystemExit("--progress/--heartbeat-out require --algo mu-d")
        import threading

        from repro.observability import RunMonitor

        monitor = RunMonitor(n_ranks=args.ranks, heartbeat_log=args.heartbeat_out)
        kwargs["monitor"] = monitor
        if args.progress:
            render_stop = threading.Event()

            def _render_loop() -> None:
                while not render_stop.wait(1.0):
                    print(monitor.render(), file=sys.stderr)

            render_thread = threading.Thread(
                target=_render_loop, name="mudbscan-progress", daemon=True
            )
            render_thread.start()

    try:
        with _observability(args, root_name="mu_dbscan_d"):
            start = time.perf_counter()
            res = algo(pts, eps, min_pts, n_ranks=args.ranks, **kwargs)
            wall = time.perf_counter() - start
    finally:
        if render_stop is not None:
            render_stop.set()
            render_thread.join(timeout=2)
        if monitor is not None:
            monitor.close()
    _print_result(name, res, wall)
    if monitor is not None:
        print(monitor.render())
        if args.heartbeat_out:
            print(f"wrote heartbeat log: {args.heartbeat_out}")
    if res.algorithm == "mu_dbscan_d":
        print(f"as-if-parallel time (max rank + merge): {parallel_time(res):.4f}s")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from repro.serving import fit_model

    if args.sample_fraction is not None and args.engine != "sampled":
        raise SystemExit("--sample-fraction requires --engine sampled")
    pts, eps, min_pts, name = _resolve_workload(args)
    with _observability(args, root_name="fit"):
        start = time.perf_counter()
        model = fit_model(pts, eps, min_pts, metric=args.metric, **_engine_kwargs(args))
        wall = time.perf_counter() - start
    path = model.save(args.save)
    print(model.summary())
    print(f"dataset={name} fit_wall={wall:.3f}s")
    print(f"saved model artifact: {path} ({path.stat().st_size} bytes)")
    return 0


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _fraction(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0.0 <= parsed < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {parsed}")
    return parsed


def cmd_stream(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.api import stream as make_stream

    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print("mudbscan stream: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    pts, eps, min_pts, name = _resolve_workload(args)
    rng = np.random.default_rng(args.seed)
    clusterer = make_stream(
        eps,
        min_pts,
        window=args.window,
        metric=args.metric,
        builder_block_size=args.builder_block_size,
        compact_every=args.compact_every,
    )
    ckpt_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    inserted = deleted = expired = n_batches = 0
    checkpoints: list[Path] = []
    with _observability(args, root_name="stream_partial_fit"):
        start = time.perf_counter()
        for lo in range(0, pts.shape[0], args.batch):
            batch = pts[lo : lo + args.batch]
            clusterer.partial_fit(batch)
            n_batches += 1
            inserted += int(clusterer.last_update_stats.get("inserted", 0))
            expired += int(clusterer.last_update_stats.get("expired", 0))
            if args.delete_fraction:
                alive = clusterer.ids_
                k = int(args.delete_fraction * batch.shape[0])
                k = min(k, alive.shape[0])
                if k:
                    victims = rng.choice(alive, size=k, replace=False)
                    clusterer.delete(victims)
                    deleted += k
            if (
                args.checkpoint_every is not None
                and n_batches % args.checkpoint_every == 0
            ):
                model = clusterer.to_fitted_model()
                path = ckpt_dir / (
                    f"ckpt-{n_batches:05d}-{model.version_token()[:12]}.mudb"
                )
                model.save(path)
                checkpoints.append(path)
                print(f"checkpoint: {path}")
        wall = time.perf_counter() - start

    updates = inserted + deleted + expired
    rate = updates / wall if wall > 0 else float("inf")
    print(
        f"dataset={name} batches={n_batches} inserted={inserted} "
        f"deleted={deleted} expired={expired} live={clusterer.n_live}"
    )
    print(
        f"clusters={clusterer.n_clusters_} "
        f"compactions={clusterer.compactions_total} "
        f"wall={wall:.3f}s sustained={rate:.0f} updates/s"
    )
    if checkpoints:
        print(f"wrote {len(checkpoints)} checkpoint(s) to {ckpt_dir}")
    if args.verify:
        from repro.validation.exactness import check_window_parity

        report = check_window_parity(
            clusterer.result(), clusterer.window_points, metric=clusterer.metric
        )
        print(
            f"window parity vs batch refit: ari={report.ari:.4f} "
            f"exact={report.exact.ok} n_window={report.n_window}"
        )
        if not report.ok:
            return 1
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.serving import load_model, predict_model

    model = load_model(args.model)
    queries = load_points(args.input)
    result = predict_model(model, queries, block_size=args.block_size)
    if args.json:
        print(json.dumps(result.as_payload()))
        return 0
    print(model.summary())
    rows = []
    for i in range(len(result)):
        dist = result.nearest_core_dist[i]
        rows.append(
            [
                i,
                int(result.labels[i]),
                "yes" if result.would_be_core[i] else "no",
                int(result.nearest_core[i]),
                f"{dist:.6g}" if np.isfinite(dist) else "-",
                int(result.n_neighbors[i]),
            ]
        )
    print(
        format_table(
            ["query", "label", "would_be_core", "nearest_core", "core_dist", "n_nbrs"],
            rows,
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate split-up tables / ledger comparisons from artifacts.

    Works entirely offline: ``--trace-in`` rebuilds the Table III/VII
    time split-up (and, when the trace carries profiler attributes,
    the memory split-up) from a ``--trace-out`` file; ``--compare``
    regression-checks a candidate ledger against a baseline ledger and
    exits non-zero on a violation.
    """
    did_something = False
    exit_code = 0
    if args.trace_in:
        from repro.instrumentation.report import (
            format_table,
            memory_bytes_from_trace,
            run_report_from_trace,
        )
        from repro.observability.tracing import load_jsonl

        spans = load_jsonl(args.trace_in)
        print(run_report_from_trace(spans, root_name=args.root))
        mem = memory_bytes_from_trace(spans, root_name=args.root)
        if mem:
            rows = [[p, f"{b / (1024 * 1024):.2f}"] for p, b in mem.items()]
            print(
                format_table(
                    ["phase", "traced peak (MiB)"],
                    rows,
                    title="memory split-up (from trace attributes)",
                )
            )
        did_something = True
    if args.compare:
        from repro.observability.ledger import (
            compare,
            format_comparison,
            latest_baselines,
            load_ledger,
        )

        if not args.ledger:
            raise SystemExit("--compare requires --ledger PATH (candidate records)")
        candidates_load = load_ledger(args.ledger)
        baseline_load = load_ledger(args.baseline)
        for label, load in (("candidate", candidates_load), ("baseline", baseline_load)):
            if load.corrupt_lines:
                print(
                    f"note: skipped {load.corrupt_lines} corrupt line(s) in the "
                    f"{label} ledger"
                )
        candidates = list(latest_baselines(candidates_load.records).values())
        tolerances = {}
        if args.wall_tolerance is not None:
            tolerances["wall_tolerance"] = args.wall_tolerance
        if args.rss_tolerance is not None:
            tolerances["rss_tolerance"] = args.rss_tolerance
        report = compare(
            candidates,
            baseline_load.records,
            same_host_only=not args.any_host,
            **tolerances,
        )
        print(format_comparison(report))
        for result in report["results"]:
            if result["status"] == "skip":
                print(f"SKIPPED {result['case']}: {result['reason']}")
        if not report["ok"]:
            exit_code = 1
        did_something = True
    if not did_something:
        raise SystemExit("nothing to do: pass --trace-in and/or --compare")
    return exit_code


def cmd_monitor(args: argparse.Namespace) -> int:
    """Replay (or follow) a ``--heartbeat-out`` log in the monitor view."""
    import os

    from repro.observability import load_heartbeats, replay_heartbeats

    if not args.follow:
        heartbeats = load_heartbeats(args.heartbeats)
        if not heartbeats:
            print(f"no heartbeats in {args.heartbeats}")
            return 1
        monitor = replay_heartbeats(heartbeats, n_ranks=args.ranks)
        print(monitor.render())
        summary = monitor.summary()
        print(
            f"stragglers: {summary['stragglers'] or 'none'}   "
            f"stalled: {summary['stalled'] or 'none'}   "
            f"heartbeats: {summary['heartbeats_total']}"
        )
        return 0

    # --follow: poll the file, re-render on growth, stop when every
    # reporting rank has sent its final (done) heartbeat
    seen = 0
    while True:
        if os.path.exists(args.heartbeats):
            heartbeats = load_heartbeats(args.heartbeats)
            if len(heartbeats) > seen:
                seen = len(heartbeats)
                monitor = replay_heartbeats(heartbeats, n_ranks=args.ranks)
                print(monitor.render())
                summary = monitor.summary()
                reporting = summary["ranks_reporting"]
                if reporting and len(summary["ranks_done"]) == reporting:
                    print("all ranks done")
                    return 0
        time.sleep(args.poll_interval)


def _serve_event_log(args: argparse.Namespace):
    """The serve-time event log: a file when ``--event-log`` is given,
    else live JSONL on stderr (the old stdout banner's replacement)."""
    from repro.observability.logging import EventLog

    if getattr(args, "event_log", None):
        return EventLog(args.event_log, level=args.log_level)
    return EventLog(stream=sys.stderr, level=args.log_level)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.observability.registry import MetricsRegistry
    from repro.serving.fleet import Fleet, FleetConfig, FrontDoor

    event_log = _serve_event_log(args)
    config = FleetConfig(
        n_workers=args.workers,
        router=args.router,
        cache_size=args.cache_size,
        block_size=args.block_size,
    )
    registry = MetricsRegistry(enabled=True)
    with Fleet(args.model, config, registry=registry, event_log=event_log) as fleet:
        door = FrontDoor(
            fleet,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            default_deadline_ms=args.deadline_ms,
            verbose=True,
            tracing=args.trace,
            event_log=event_log,
            slow_log_path=args.slow_log,
        )
        try:
            asyncio.run(door.serve())
        except KeyboardInterrupt:
            pass
        print("fleet drained and stopped")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Fetch ``GET /slo`` from a front door and render the burn table."""
    import urllib.request

    from repro.observability.slo import format_slo_report

    url = args.url.rstrip("/") + "/slo"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            evaluation = json.load(resp)
    except Exception as exc:  # connection refused, 503, bad JSON, ...
        print(f"could not evaluate SLOs at {url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(evaluation, indent=2))
    else:
        print(format_slo_report(evaluation))
    return 1 if evaluation.get("burning") else 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive open-loop load at a serving target and report the curve."""
    import contextlib as _ctx

    from repro.serving import loadgen
    from repro.serving.model import load_model

    model = load_model(args.model) if args.model else None
    if args.replay:
        pool = load_points(args.replay)
    elif model is not None:
        pool = loadgen.synthetic_queries(
            model, args.pool_size, rng=np.random.default_rng(args.seed)
        )
    else:
        raise SystemExit("provide --replay QUERIES.npy or --model for synthetic traffic")

    stack = _ctx.ExitStack()
    with stack:
        if args.url:
            target = args.url
        elif model is not None:
            from repro.serving.fleet import Fleet, FleetConfig

            target = stack.enter_context(
                Fleet(model, FleetConfig(n_workers=args.workers, router=args.router))
            )
        else:
            raise SystemExit("provide --url or --model")

        kwargs = dict(
            n_requests=args.requests,
            batch_size=args.batch_size,
            arrivals=args.arrivals,
            n_clients=args.clients,
            rng=np.random.default_rng(args.seed),
        )
        if args.saturation:
            out = loadgen.find_saturation(
                target, pool, start_rate=args.rate, growth=args.growth,
                max_steps=args.max_steps, p99_cap_s=args.p99_cap_ms / 1000.0
                if args.p99_cap_ms else None, **kwargs,
            )
            print(
                f"sustainable rate: {out['sustainable_rate']} req/s   "
                f"saturated at: {out['saturated_rate']} req/s"
            )
            summaries = out["steps"]
        else:
            rates = [float(r) for r in args.rates.split(",")] if args.rates else [args.rate]
            results = loadgen.sweep_rates(target, pool, rates, **kwargs)
            summaries = [r.summary() for r in results]
            out = {"steps": summaries}
        rows = [
            [
                s["offered_rate"],
                s["achieved_rate"],
                s["achieved_qps"],
                f"{s['latency_seconds']['p50'] * 1000:.2f}",
                f"{s['latency_seconds']['p99'] * 1000:.2f}",
                f"{s['error_rate']:.1%}",
            ]
            for s in summaries
        ]
        print(
            format_table(
                ["offered req/s", "achieved req/s", "points/s", "p50 ms", "p99 ms", "errors"],
                rows,
                title=f"open-loop load ({args.arrivals} arrivals, "
                f"batch={args.batch_size}, clients={args.clients})",
            )
        )
        offenders = [
            o
            for s in summaries
            for o in s.get("worst_offenders", [])
            if o["status"] != 200
        ]
        if offenders:
            print(
                format_table(
                    ["status", "latency ms", "request id", "error"],
                    [
                        [
                            o["status"],
                            o.get("latency_ms", "-"),
                            o.get("request_id", "-"),
                            (o.get("error") or "-")[:60],
                        ]
                        for o in offenders[:10]
                    ],
                    title="worst offenders (failed/rejected requests)",
                )
            )
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(out, fh, indent=2)
            print(f"wrote {args.json_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mudbscan",
        description="μDBSCAN reproduction (IEEE CLUSTER 2019) command line",
    )
    parser.add_argument(
        "--version", action="version", version=f"mudbscan {__version__}"
    )
    # exact flag names only: a prefix such as ``--builder`` must not
    # silently resolve to ``--builder-block-size``
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    sub.add_parser("datasets", help="list the registered paper-dataset stand-ins")

    def add_workload_args(
        p: argparse.ArgumentParser, *, block_size: bool = True
    ) -> None:
        p.add_argument("--dataset", help="registry dataset name")
        p.add_argument("--input", help="points file (.npy/.csv/.tsv)")
        p.add_argument("--scale", type=float, default=None, help="size multiplier")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--min-pts", type=int, default=None)
        if block_size:
            p.add_argument(
                "--block-size",
                type=int,
                default=DEFAULT_BLOCK_SIZE,
                help="rows per batched distance block (memory/speed trade-off)",
            )
        p.add_argument(
            "--builder-block-size",
            type=int,
            default=DEFAULT_BUILDER_BLOCK_SIZE,
            help="rows per grid-builder sweep block",
        )
        p.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write the run's span tree as JSON-lines (one span per line)",
        )
        p.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write a Prometheus text-format metrics snapshot",
        )
        p.add_argument(
            "--profile", choices=("light", "deep"), default=None,
            help="per-phase memory profiling: 'light' samples tracemalloc "
            "deltas and RSS per phase, 'deep' adds allocation top-N",
        )

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            choices=("exact", "sampled", "summary"),
            default="exact",
            help="clustering engine / exactness tier (docs/ENGINES.md); "
            "'exact' is full μDBSCAN, the others trade exactness for speed",
        )
        p.add_argument(
            "--sample-fraction",
            type=float,
            default=None,
            help="candidate-core fraction for --engine sampled",
        )

    run = sub.add_parser("run", help="run one sequential algorithm")
    add_workload_args(run)
    add_engine_args(run)
    run.add_argument("--algo", choices=sorted(SEQUENTIAL_ALGOS), default="mu")

    cmp_ = sub.add_parser("compare", help="check exactness against the brute oracle")
    add_workload_args(cmp_)
    cmp_.add_argument("--algo", choices=sorted(SEQUENTIAL_ALGOS), default="mu")

    dist = sub.add_parser("distributed", help="run a distributed algorithm on simmpi")
    add_workload_args(dist)
    dist.add_argument("--algo", choices=sorted(DISTRIBUTED_ALGOS), default="mu-d")
    dist.add_argument("--ranks", type=int, default=4)
    dist.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="thread",
        help="execution substrate: thread-sim (exact, GIL-bound) or "
        "process workers over shared memory (real parallelism; mu-d only)",
    )
    dist.add_argument(
        "--progress",
        action="store_true",
        help="live per-rank progress view on stderr while the run executes "
        "(mu-d only)",
    )
    dist.add_argument(
        "--heartbeat-out", metavar="PATH", default=None,
        help="append per-rank heartbeats as JSON-lines for offline "
        "'mudbscan monitor' replay (mu-d only)",
    )

    report = sub.add_parser(
        "report",
        help="regenerate split-up tables / ledger comparisons from artifacts",
    )
    report.add_argument(
        "--trace-in", metavar="PATH", default=None,
        help="rebuild the time (and memory) split-up from a --trace-out file",
    )
    report.add_argument(
        "--root", choices=("fit", "mu_dbscan_d"), default="fit",
        help="root span of the trace being reported on",
    )
    report.add_argument(
        "--compare", action="store_true",
        help="regression-check --ledger against --baseline; exits non-zero "
        "on a wall-time or peak-RSS regression past tolerance",
    )
    report.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="candidate ledger (JSON-lines) for --compare",
    )
    report.add_argument(
        "--baseline", metavar="PATH", default="BENCH_LEDGER.jsonl",
        help="baseline ledger to compare against (default: repo ledger)",
    )
    report.add_argument(
        "--wall-tol", dest="wall_tolerance", type=float, default=None,
        help="allowed wall-time regression fraction (default 0.15)",
    )
    report.add_argument(
        "--rss-tol", dest="rss_tolerance", type=float, default=None,
        help="allowed peak-RSS regression fraction (default 0.20)",
    )
    report.add_argument(
        "--any-host", action="store_true",
        help="compare across hosts (wall-times are machine-dependent; "
        "off by default)",
    )

    monitor = sub.add_parser(
        "monitor", help="replay or follow a distributed run's heartbeat log"
    )
    monitor.add_argument(
        "--heartbeats", required=True, metavar="PATH",
        help="heartbeat JSON-lines file from 'distributed --heartbeat-out'",
    )
    monitor.add_argument(
        "--ranks", type=int, default=None,
        help="expected world size (default: infer from the log)",
    )
    monitor.add_argument(
        "--follow", action="store_true",
        help="poll the file and re-render until every rank reports done",
    )
    monitor.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="seconds between polls with --follow",
    )

    fit = sub.add_parser(
        "fit", help="fit μDBSCAN and save a servable model artifact"
    )
    add_workload_args(fit)
    add_engine_args(fit)
    fit.add_argument(
        "--save", required=True, metavar="PATH",
        help="where to write the model artifact (e.g. model.mudb)",
    )
    fit.add_argument(
        "--metric", default="euclidean",
        help="distance metric (euclidean / manhattan / chebyshev)",
    )

    strm = sub.add_parser(
        "stream",
        help="replay a dataset as a live insert/delete stream "
        "(exact incremental maintenance; docs/STREAMING.md)",
    )
    # the stream's updates have no row-block knob to pass --block-size to
    add_workload_args(strm, block_size=False)
    strm.add_argument(
        "--batch", type=_positive_int, default=512,
        help="points per insert batch during the replay",
    )
    strm.add_argument(
        "--window", type=_positive_int, default=None,
        help="sliding-window capacity; oldest points expire beyond it",
    )
    strm.add_argument(
        "--delete-fraction", type=_fraction, default=0.0,
        help="after each insert batch, delete this fraction of the batch "
        "size as random live points (exercises the repair path)",
    )
    strm.add_argument(
        "--compact-every", type=_positive_int, default=None,
        help="force a micro-cluster compaction every N update batches "
        "(default: automatic dirty-fraction trigger only)",
    )
    strm.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        help="save a versioned FittedModel every N batches "
        "(requires --checkpoint-dir)",
    )
    strm.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for checkpoint artifacts",
    )
    strm.add_argument(
        "--metric", default="euclidean",
        help="distance metric (euclidean / manhattan / chebyshev)",
    )
    strm.add_argument("--seed", type=int, default=0, help="delete-selection seed")
    strm.add_argument(
        "--verify", action="store_true",
        help="after the replay, prove label parity (ARI=1.0) against a "
        "batch refit of the live window; non-zero exit on mismatch",
    )

    pred = sub.add_parser(
        "predict", help="assign new points to a saved model's clustering"
    )
    pred.add_argument("--model", required=True, help="model artifact from 'fit --save'")
    pred.add_argument(
        "--input", required=True, help="query points file (.npy/.csv/.tsv)"
    )
    pred.add_argument("--json", action="store_true", help="machine-readable output")
    pred.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)

    serve = sub.add_parser(
        "serve", help="serve a saved model over HTTP through the async front door"
    )
    serve.add_argument("--model", required=True, help="model artifact from 'fit --save'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU answer-cache entries (0 disables caching)",
    )
    serve.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes behind the front door; 0 runs the one "
        "worker inside the server process (docs/SERVING.md)",
    )
    serve.add_argument(
        "--router", choices=("kd", "none"), default="kd",
        help="fleet routing: 'kd' spatial shards (one per worker, exact "
        "via the 2eps halo) or 'none' full replicas round-robined",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="fleet admission limit; beyond it requests get 429 + Retry-After",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=2000.0,
        help="default per-request deadline budget (X-Deadline-Ms overrides)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="trace every predict end-to-end (X-Request-Id, /traces, "
        "tail-based retention of errored/slow requests)",
    )
    serve.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="rotating slow-query JSONL for retained traces "
        "(implies retention even without --trace)",
    )
    serve.add_argument(
        "--event-log", default=None, metavar="PATH",
        help="structured JSONL event log (default: live JSONL on stderr)",
    )
    serve.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info", help="event-log threshold",
    )

    slo = sub.add_parser(
        "slo", help="evaluate a running front door's SLO burn rates"
    )
    slo.add_argument(
        "--url", default="http://127.0.0.1:8766",
        help="front door base URL (its GET /slo endpoint is queried)",
    )
    slo.add_argument("--timeout", type=float, default=10.0)
    slo.add_argument(
        "--json", action="store_true", help="raw evaluation JSON, not the table"
    )

    load = sub.add_parser(
        "loadtest", help="open-loop load test against a serving target"
    )
    load.add_argument("--model", default=None, help="model artifact (in-process target / synthetic pool)")
    load.add_argument("--url", default=None, help="HTTP target (a front door)")
    load.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay real query points (.npy/.csv/.tsv) instead of synthetic",
    )
    load.add_argument(
        "--workers", type=int, default=0,
        help="worker processes of the fleet built when no --url is given",
    )
    load.add_argument("--router", choices=("kd", "none"), default="kd")
    load.add_argument("--rate", type=float, default=50.0, help="offered req/s (or ramp start)")
    load.add_argument(
        "--rates", default=None,
        help="comma-separated offered rates for a sweep (overrides --rate)",
    )
    load.add_argument(
        "--saturation", action="store_true",
        help="ramp the rate geometrically until the target stops keeping up",
    )
    load.add_argument("--growth", type=float, default=2.0, help="ramp factor per step")
    load.add_argument("--max-steps", type=int, default=8)
    load.add_argument(
        "--p99-cap-ms", type=float, default=None,
        help="treat p99 above this as saturated during the ramp",
    )
    load.add_argument("--requests", type=int, default=200, help="requests per step")
    load.add_argument("--batch-size", type=int, default=16, help="points per request")
    load.add_argument("--clients", type=int, default=8, help="concurrent client connections")
    load.add_argument("--arrivals", choices=("poisson", "uniform"), default="poisson")
    load.add_argument("--pool-size", type=int, default=2048, help="synthetic query pool size")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--json-out", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "run": cmd_run,
        "compare": cmd_compare,
        "distributed": cmd_distributed,
        "report": cmd_report,
        "monitor": cmd_monitor,
        "fit": cmd_fit,
        "stream": cmd_stream,
        "predict": cmd_predict,
        "serve": cmd_serve,
        "slo": cmd_slo,
        "loadtest": cmd_loadtest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
