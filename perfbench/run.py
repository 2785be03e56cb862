"""The repo benchmark: fit a model, check it, serve it over HTTP, measure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  Human-readable results and provenance go to standard output;
the last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` is a separate traced run that reports the
per-layer metrics and writes span JSONL under ``perfbench/.work``.
An oracle mismatch exits 1; a checkout without the program exits 2.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from common import ONE_BLAS_THREAD

os.environ.update(ONE_BLAS_THREAD)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    SetupError, become_subreaper, cpu_ticks, descendant_pids, dumps,
    end_processes, git_sha, median, nproc, percentile, program_env,
    source_digest, spread, stop_resource_tracker, use_program, work_dir,
)
from loadgen import (  # noqa: E402
    Client, Step, decode_labels, encode, lag_stats, run_step, send_serially,
    staircase,
)
from fitstage import FitChild  # noqa: E402
from oracle import dbscan_reference, fit_mismatch, predict_labels  # noqa: E402
from serve import Server  # noqa: E402
from spans import Recorder, Span, by_name  # noqa: E402
from workloads import (  # noqa: E402
    BATCH, WORKLOADS, Traffic, fingerprint, ledger_fingerprint, training_points,
)

#: shares of --seconds: fit timing (split into a slot before each
#: launch of the server and one after the last), the fixed-rate steps
#: (split over the launches), the knee staircase, and (traced runs) the
#: one-at-a-time replay
FIT_SHARE = 0.8
FIXED_SHARE = 0.7
SEARCH_SHARE = 0.75
REPLAY_SHARE = 0.5
#: launches of the server per run; setup_s and server_cpu_ms_per_req
#: are medians over them, so one launch's luck does not decide them
SETUP_LAUNCHES = 3
#: steps of the knee staircase (failing steps far above the knee abort
#: early, so the staircase takes less than its share)
N_PROBES = 16
MIN_STEP_REQUESTS = 48
REPLAY_MIN, REPLAY_MAX = 20, 400


def log(msg: str = "") -> None:
    print(msg, flush=True)


@dataclass
class Session:
    """A live server, warmed up, after the fixed-rate steps."""

    server: Server
    client: Client
    traffic: Traffic
    gaps: np.ndarray       # unit-rate exponential gaps of every step
    steps: list[Step]      # every step sent so far, in order
    setup_s: list[float]   # launch -> first /readyz 200, per launch
    cache0: tuple[int, int]  # LRU (hits, misses) of the live launch
                             # before its timed steps
    fixed: list[Step]      # the fixed-rate step of each launch
    fixed_cpu_s: list[float]  # CPU seconds the server tree used in each


class Run:
    """Everything one invocation measures, counts and checks."""

    def __init__(self, args, workload) -> None:
        self.args = args
        self.workload = workload
        self.ds = workload.dataset
        self.out = work_dir("runs", f"{workload.name}-s{args.seed}-t{args.trace}")
        for old in self.out.iterdir():
            if old.is_file():
                old.unlink()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        #: wall-clock figures, printed and kept in results.jsonl but not
        #: in the result line: on a shared VM they follow the host's CPU
        #: steal more than the program (perfbench/README.md)
        self.ungated: dict[str, tuple[float, str]] = {}
        #: seconds and host CPU steal per stage, printed as provenance
        self.host: dict[str, dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def metric(self, name: str, value: float, unit: str, samples=None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = [float(s) for s in samples]

    # ------------------------------------------------------------------
    # inputs

    def make_inputs(self):
        train = training_points(self.ds)
        self.train = train
        self.fp = fingerprint(
            train, dataset=self.ds.name, eps=self.ds.eps, min_pts=self.ds.min_pts,
        )
        self.inputs = self.out / "inputs.npz"
        np.savez(self.inputs, train=train, eps=self.ds.eps, min_pts=self.ds.min_pts)

    # ------------------------------------------------------------------
    # fit stage (child process) + oracle check

    def fit_and_serve(self) -> dict:
        """The measured fit and serve stages, interleaved: the fit child's
        warm-up (which writes the served model), then a slot of timed fits
        before each server launch and one after the last, so the fits'
        median spans the run.  No server is up during a fit.  Returns the
        fit child's summary."""
        slot_s = FIT_SHARE * self.args.seconds / (SETUP_LAUNCHES + 1)
        with FitChild(self.inputs, self.out, slot_s) as fits:
            self.serve_measured(between=fits.batch)
            fits.batch()
            return fits.finish()

    def fit_stage(self) -> dict:
        """The traced fit stage (one child process, run to its end)."""
        cmd = [
            sys.executable, str(Path(__file__).with_name("fitstage.py")),
            str(self.inputs), str(self.out), "--trace",
        ]
        proc = subprocess.run(
            cmd, env=program_env(), capture_output=True, text=True, timeout=170
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"fit stage exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_fits(self) -> None:
        ref = dbscan_reference(self.train, self.ds.eps, self.ds.min_pts, self.fp)
        with np.load(self.out / "fits.npz") as z:
            fits = [(z["model_labels"], z["model_core"])]
            fits += list(zip(z["fit_labels"], z["fit_core"]))
        self.model_labels, self.model_core = fits[0]
        for i, (labels, core) in enumerate(fits):
            self.attempted += 1
            why = fit_mismatch(labels, core, ref, self.train)
            if why is not None:
                self.failed += 1
                self.mismatches.append(f"fit {i}: {why}")

    # ------------------------------------------------------------------
    # serve stage

    def oracle_labels(self, pool: np.ndarray) -> np.ndarray:
        key = f"{self.fp}-{fingerprint(pool)}"
        return predict_labels(
            self.train, self.model_labels, self.model_core,
            self.ds.eps, self.ds.min_pts, pool, key,
        )

    def check_steps(self, steps, pool) -> int:
        """Counts attempts and failures of every sent request; returns
        the number of wrong answers."""
        expected = self.oracle_labels(pool)
        wrong = 0
        json_s, json_n = 0.0, 0
        for step in steps:
            labels, decode_s = decode_labels(step)
            if step.rate > 0:  # open-loop steps: bodies encoded up front
                json_s += decode_s + step.encode_s
                json_n += step.n_sent
            for i in np.flatnonzero(step.sent):
                self.attempted += 1
                if step.status[i] != 200:
                    self.failed += 1
                elif not np.array_equal(labels[i], expected[step.keys[i]]):
                    self.failed += 1
                    wrong += 1
        if wrong:
            self.mismatches.append(f"{wrong} served requests differ from brute_predict")
        self.json_ms = 1e3 * json_s / max(1, json_n)
        return wrong

    def save_steps(self, steps) -> None:
        """Every step's schedule, latencies, lags and statuses."""
        arrays = {}
        for i, st in enumerate(steps):
            for field in ("due", "latency", "lag", "status"):
                arrays[f"{i}_{field}"] = getattr(st, field)
            arrays[f"{i}_rate"] = np.float64(st.rate)
        np.savez(self.out / "steps.npz", **arrays)

    def steps_for(self, rate: float, seconds: float) -> int:
        return max(MIN_STEP_REQUESTS, int(round(rate * seconds)))

    @contextmanager
    def serving(self, launches: int, between=None):
        """Launch the server ``launches`` times; each launch is warmed
        with the traffic's warm-up keys and runs one fixed-rate step (an
        equal part of ``FIXED_SHARE``), and the last one stays up.
        ``between()``, if given, runs before each launch, with no server
        up.  Yields the :class:`Session` and stops the server on exit."""
        server = Server(self.out / "model.mudb", self.out / "server.log")
        traffic = Traffic(self.workload, self.train, self.args.seed)
        gaps = np.random.default_rng([self.args.seed, 4]).exponential(1.0, 200_000)
        rate0 = self.workload.fixed_rate
        fixed_s = FIXED_SHARE * self.args.seconds / launches
        client = None
        steps, setup, fixed, cpu = [], [], [], []
        try:
            for i in range(launches):
                if i:
                    client.close()
                    server.stop()
                if between is not None:
                    between()
                setup.append(server.start())
                client = Client(server.port)
                warm = traffic.warmup()
                steps.append(send_serially(client, traffic.pool(), warm))
                cache0 = server.cache_counts()
                keys = traffic.take(self.steps_for(rate0, fixed_s))
                cpu0 = server.cpu_s()
                fixed.append(run_step(client, traffic.pool(), keys, rate0, gaps))
                cpu.append(server.cpu_s() - cpu0)
                steps.append(fixed[-1])
            yield Session(server, client, traffic, gaps, steps, setup, cache0, fixed, cpu)
        finally:
            if client is not None:
                client.close()
            server.stop()

    def serve_measured(self, between=None) -> None:
        with self.serving(SETUP_LAUNCHES, between) as s:
            step_s = SEARCH_SHARE * self.args.seconds / N_PROBES

            def probe(rate: float) -> bool:
                keys = s.traffic.take(self.steps_for(rate, step_s))
                s.steps.append(run_step(s.client, s.traffic.pool(), keys, rate, s.gaps))
                return s.steps[-1].passed

            rate0 = self.workload.fixed_rate
            max_rps, trail = staircase(probe, rate0, s.fixed[-1].passed, N_PROBES)
            hits1, miss1 = s.server.cache_counts()
            pss = s.server.pss_mb()
        self.served = (s, max_rps, trail, hits1, miss1, pss)

    def serve_report(self) -> None:
        """Checks every answer of the measured serve stage and reports its
        metrics (after the fits' oracle check, which the answers need)."""
        s, max_rps, trail, hits1, miss1, pss = self.served
        rate0 = self.workload.fixed_rate
        self.save_steps(s.steps)
        t = time.perf_counter()
        wrong = self.check_steps(s.steps, s.traffic.pool())
        log(f"serve: answer check {time.perf_counter() - t:.2f} s")
        hits0, miss0 = s.cache0
        lookups = (hits1 - hits0) + (miss1 - miss0)
        hit_ratio = (hits1 - hits0) / lookups if lookups else 0.0
        cpu_ms = [1e3 * c / st.n_sent for c, st in zip(s.fixed_cpu_s, s.fixed)]
        fixed = np.concatenate([st.latency[st.sent] for st in s.fixed])
        p50, p90, p99 = (1e3 * percentile(fixed, q) for q in (50, 90, 99))
        self.metric("server_cpu_ms_per_req", median(cpu_ms), "ms", cpu_ms)
        self.metric("server_pss_mb", pss, "MiB")
        self.metric("setup_s", median(s.setup_s), "s", s.setup_s)
        self.ungated.update(
            max_rps=(max_rps, "req/s"), p50_ms=(p50, "ms"), p90_ms=(p90, "ms"),
        )
        log(f"serve: cache {'warm' if s.traffic.hot else 'cold'} before timing, "
            f"hit ratio {hit_ratio:.3f} over the live launch's {lookups} timed lookups")
        log(f"serve: fixed rate {rate0:g} req/s, {fixed.size} requests over "
            f"{len(s.fixed)} launches: p50 {p50:.2f} ms, p90 {p90:.2f} ms, "
            f"p99 {p99:.2f} ms ({fixed.size // 100} beyond p99), passed="
            + ",".join(str(st.passed) for st in s.fixed))
        log(f"serve: knee staircase -> {max_rps:.1f} (req/s, verdict) "
            + ", ".join(f"{r:.1f}{'+' if ok else '-'}" for r, ok in trail))
        log(f"serve: {sum(st.n_sent for st in s.steps)} requests sent, "
            f"{wrong} wrong answers")

    # ------------------------------------------------------------------
    # traced serve stage

    def serve_traced(self) -> None:
        from repro.instrumentation.counters import Counters
        from repro.serving import QueryEngine, load_model, predict_model
        from repro.serving.fleet import Fleet, FleetConfig
        from repro.serving.fleet.router import plan_shards

        model_path = self.out / "model.mudb"
        model = load_model(model_path)
        engine = QueryEngine(model, max_wait_ms=0.0, cache_size=4096)
        fleet = Fleet(model_path, FleetConfig(n_workers=2, router="kd"))
        rec = Recorder()
        replay_answers = []
        try:
            fleet.start()
            with self.serving(1) as s:
                hits1, miss1 = s.server.cache_counts()
                traffic, client = s.traffic, s.client
                for k in s.steps[0].keys:  # the server's warm-up keys
                    engine.predict(traffic.pool()[k])
                    fleet.predict(traffic.pool()[k], timeout=30)

                def replay_one(traced: bool) -> float:
                    keys = traffic.take(1)[0]
                    q = traffic.pool()[keys]
                    body = encode(q)
                    t = time.perf_counter()
                    if traced:
                        c = Counters()
                        with rec.span("replay", request_id=len(replay_answers)):
                            with rec.span("serving.predict") as span:
                                r1 = predict_model(model, q, counters=c)
                            span.attrs["dist_calcs"] = c.dist_calcs
                            with rec.span("serving.engine"):
                                r2 = engine.predict(q)
                            with rec.span("fleet.predict"):
                                r3 = fleet.predict(q, timeout=30)
                            with rec.span("door.http"):
                                status, raw = client.post(0, body)
                    else:
                        r1 = predict_model(model, q)
                        r2 = engine.predict(q)
                        r3 = fleet.predict(q, timeout=30)
                        status, raw = client.post(0, body)
                    wall = time.perf_counter() - t
                    replay_answers.append((keys, status, raw, r1.labels, r2.labels, r3.labels))
                    return wall

                # untraced and traced requests alternate, so drift over the
                # replay cannot pass for tracing overhead
                walls = {False: [], True: []}
                t0 = time.perf_counter()
                while len(walls[True]) < REPLAY_MIN or (
                    len(walls[True]) < REPLAY_MAX
                    and time.perf_counter() - t0 < REPLAY_SHARE * self.args.seconds
                ):
                    for traced in (False, True):
                        walls[traced].append(replay_one(traced))
                n_traced = len(walls[True])
                untraced_per_req = float(np.mean(walls[False]))
                traced_per_req = float(np.mean(walls[True]))
                plan = plan_shards(model, 2)
        finally:
            fleet.close()
            engine.close()

        # correctness: open-loop steps and all four replay paths
        steps = s.steps
        hits0, miss0 = s.cache0
        wrong = self.check_steps(steps, traffic.pool())
        expected = self.oracle_labels(traffic.pool())
        for keys, status, raw, *answers in replay_answers:
            self.attempted += 1
            if status == 200:
                answers.append(np.asarray(json.loads(raw)["labels"]))
            bad = any(not np.array_equal(a, expected[keys]) for a in answers)
            wrong += bad
            self.failed += status != 200 or bad
        if wrong:
            self.mismatches.append(f"{wrong} answers differ from brute_predict")
        statuses = np.concatenate(
            [st.status[st.sent] for st in steps] + [np.array([a[1] for a in replay_answers])]
        )

        rec.write_jsonl(self.out / "serve_spans.jsonl")
        table = by_name(rec.spans)
        ms = {name: 1e3 * row["total_s"] / row["count"] for name, row in table.items()}
        traced_keys = [a[0] for a in replay_answers[1::2]]
        fanout = np.mean([np.unique(plan.assign(traffic.pool()[k])).size for k in traced_keys])
        dist = [sp.attrs["dist_calcs"] for sp in rec.spans if sp.name == "serving.predict"]
        lookups = (hits1 - hits0) + (miss1 - miss0)
        lag_p50, lag_max = lag_stats(steps)

        self.metric("serving.predict_ms", ms["serving.predict"], "ms")
        self.metric("serving.dist_calcs_per_query",
                    sum(dist) / (len(dist) * BATCH), "count")
        self.metric("serving.engine_ms", ms["serving.engine"], "ms")
        self.metric("serving.cache_hit_ratio",
                    (hits1 - hits0) / lookups if lookups else 0.0, "ratio")
        self.metric("fleet.predict_ms", ms["fleet.predict"], "ms")
        self.metric("fleet.fanout", fanout, "shards")
        self.metric("door.http_ms", ms["door.http"], "ms")
        self.metric("door.rejected_429", int(np.sum(statuses == 429)), "count")
        self.metric("door.deadline_504", int(np.sum(statuses == 504)), "count")
        self.metric("door.errors",
                    int(np.sum((statuses != 200) & (statuses != 429) & (statuses != 504))),
                    "count")
        self.metric("serving.wrong_answers", wrong, "count")
        self.metric("loadgen.lag_p50_ms", 1e3 * lag_p50, "ms")
        self.metric("loadgen.lag_max_ms", 1e3 * lag_max, "ms")
        self.metric("loadgen.json_ms", self.json_ms, "ms")
        self.metric("trace.serve_overhead_pct",
                    100.0 * (traced_per_req / untraced_per_req - 1.0), "%")

        log(f"serve trace: {n_traced} requests replayed one at a time "
            f"(cache {'warm' if traffic.hot else 'cold'}; live-server hit ratio "
            f"{self.metrics['serving.cache_hit_ratio'][0]:.3f} over {lookups} lookups)")
        replay_total = table["replay"]["total_s"]
        log(f"  {'span':<20}{'per req ms':>12}{'self ms':>10}{'share':>8}")
        for name in ("serving.predict", "serving.engine", "fleet.predict", "door.http", "replay"):
            row = table[name]
            label = name if name != "replay" else "replay (self: rest)"
            log(f"  {label:<20}{1e3 * row['total_s'] / row['count']:>12.3f}"
                f"{1e3 * row['self_s'] / row['count']:>10.3f}"
                f"{row['self_s'] / replay_total:>8.1%}")
        log(f"  tracing overhead {self.metrics['trace.serve_overhead_pct'][0]:+.1f}% "
            f"({1e3 * traced_per_req:.2f} vs {1e3 * untraced_per_req:.2f} ms per replayed request)")

    # ------------------------------------------------------------------
    # results

    def fit_measured(self, fit: dict) -> None:
        n, wall, cpu = fit["n"], fit["fit_s"], fit["fit_cpu_s"]
        self.metric("fit_points_per_cpu_s", n / median(cpu), "points/cpu-s",
                    [n / c for c in cpu])
        self.metric("peak_rss_mb", fit["peak_rss_mb"], "MiB")
        self.ungated["fit_points_per_s"] = (n / median(wall), "points/s")
        log(f"fit: n={n} mcs={fit['n_mcs']} import {fit['import_s']:.3f} s, "
            f"warm-up fit {fit['warmup_s']:.3f} s, timed fits (wall / CPU s) "
            + ", ".join(f"{w:.3f} / {c:.3f}" for w, c in zip(wall, cpu)))

    def fit_traced(self, fit: dict) -> None:
        def load(name):
            with open(self.out / name) as fh:
                return [Span(**json.loads(line)) for line in fh]

        spans = load("fit_spans.jsonl")
        mem = {s.name: s.attrs["peak_mb"] for s in load("fit_mem_spans.jsonl")}
        attrs = {s.name: s.attrs for s in spans}
        table = by_name(spans)
        wall = table["fit"]["total_s"]
        if not fit["identical"]:
            self.mismatches.append("traced fit driver differs from repro.fit")
            self.failed += 1
        sec = {name: row["total_s"] for name, row in table.items()}
        c = fit["counters"]
        self.metric("microcluster.build_s", sec["microcluster.build"], "s")
        self.metric("microcluster.build_dist_calcs", attrs["microcluster.build"]["dist_calcs"], "count")
        self.metric("microcluster.reach_s", sec["microcluster.reach"], "s")
        self.metric("microcluster.reach_pairs", attrs["microcluster.reach"]["reach_pairs"], "count")
        self.metric("microcluster.n_mcs", attrs["microcluster.build"]["n_mcs"], "count")
        self.metric("core.mcs_s", sec["core.mcs"], "s")
        self.metric("core.remaining_s", sec["core.remaining"], "s")
        self.metric("core.queries_run", attrs["core.remaining"]["queries_run"], "count")
        self.metric("core.query_save_ratio", c["queries_saved"] / fit["n"], "ratio")
        self.metric("core.post_core_s", sec["core.post_core"], "s")
        self.metric("core.post_core_dist_calcs", attrs["core.post_core"]["dist_calcs"], "count")
        self.metric("core.post_noise_s", sec["core.post_noise"], "s")
        self.metric("unionfind.labels_s", sec["unionfind.labels"], "s")
        for span_name in FIT_SPANS:
            self.metric(f"{span_name}_peak_mb", mem[span_name], "MiB")
        self.metric("trace.fit_remainder_s", table["fit"]["self_s"], "s")
        self.metric("trace.fit_overhead_pct", 100.0 * (wall / fit["untraced_s"] - 1.0), "%")

        log(f"fit trace: n={fit['n']} traced {wall:.3f} s vs untraced "
            f"{fit['untraced_s']:.3f} s (overhead {self.metrics['trace.fit_overhead_pct'][0]:+.1f}%), "
            f"bit-identical to repro.fit: {fit['identical']}")
        log(f"  {'span':<20}{'self s':>9}{'share':>8}{'peak MiB':>10}")
        for name in FIT_SPANS + ("core.state",):
            row = table[name]
            log(f"  {name:<20}{row['self_s']:>9.3f}{row['self_s'] / wall:>8.1%}"
                f"{mem.get(name, float('nan')):>10.1f}")
        log(f"  {'remainder':<20}{table['fit']['self_s']:>9.3f}"
            f"{table['fit']['self_s'] / wall:>8.1%}")

    def report(self, wall_s: float) -> int:
        correct = not self.mismatches
        prov = {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "git_sha": git_sha(),
            "src_digest": source_digest(),
            "input_fingerprint": self.fp,
            "ledger_fingerprint": ledger_fingerprint(self.ds),
            "nproc": nproc(),
            "python": sys.version.split()[0],
            "wall_s": round(wall_s, 3),
            **self.host,
        }
        log("provenance " + dumps(prov))
        log(f"{'metric':<32}{'value':>14}  {'unit':<13}{'spread':>8}  samples")
        for name, (value, unit) in self.metrics.items():
            samples = self.samples.get(name, [value])
            sp = spread(samples)
            log(f"{name:<32}{value:>14.4f}  {unit:<13}"
                f"{'-' if sp is None else f'{sp:.1%}':>8}  {len(samples)}")
        for name, (value, unit) in self.ungated.items():
            log(f"{name:<32}{value:>14.4f}  {unit:<13}{'':>8}  (wall clock, not gated)")
        log(f"operations attempted {self.attempted}, failed {self.failed}")
        for why in self.mismatches:
            log(f"MISMATCH {why}")
        with open(work_dir() / "results.jsonl", "a") as fh:
            fh.write(dumps({**prov, "correct": correct, "attempted": self.attempted,
                            "failed": self.failed,
                            "metrics": {k: v for k, (v, _) in self.metrics.items()},
                            "samples": self.samples,
                            "ungated": {k: v for k, (v, _) in self.ungated.items()}})
                     + "\n")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }), flush=True)
        return 0 if correct else 1


FIT_SPANS = (
    "microcluster.build", "microcluster.reach", "core.mcs", "core.remaining",
    "core.post_core", "core.post_noise", "unionfind.labels",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0, ticks0 = time.perf_counter(), cpu_ticks()
    try:
        use_program()
        if args.workload not in WORKLOADS:
            raise SetupError(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        if args.seconds <= 0:
            raise SetupError("--seconds must be positive")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # a terminated run still stops the servers it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    become_subreaper()
    try:
        return measure(args, t0, ticks0)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        stop_resource_tracker()  # the traced run's in-process fleet made one
        end_processes(lambda: descendant_pids(os.getpid()), grace_s=0.0)


def measure(args, t0: float, ticks0: tuple[int, int]) -> int:
    run = Run(args, WORKLOADS[args.workload])
    log(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    stages = {}
    steal = {}

    def stage(name, fn, *a):
        t, (s0, n0) = time.perf_counter(), cpu_ticks()
        out = fn(*a)
        s1, n1 = cpu_ticks()
        stages[name] = time.perf_counter() - t
        steal[name] = 100.0 * (s1 - s0) / max(1, n1 - n0)
        return out

    stage("inputs", run.make_inputs)
    if args.trace:
        fit = stage("fit", run.fit_stage)
        stage("fit_oracle", run.check_fits)
        run.fit_traced(fit)
        stage("serve", run.serve_traced)
    else:
        fit = stage("fit_serve", run.fit_and_serve)
        stage("fit_oracle", run.check_fits)
        run.fit_measured(fit)
        stage("serve_check", run.serve_report)
    run.host = {"stage_s": {k: round(v, 2) for k, v in stages.items()},
                "steal_pct": {k: round(v, 1) for k, v in steal.items()}}
    if args.trace:
        ticks1 = cpu_ticks()
        run.metric("host.steal_pct",
                   100.0 * (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1]), "%")
    return run.report(time.perf_counter() - t0)


if __name__ == "__main__":
    sys.exit(main())
