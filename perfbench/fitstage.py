"""The fit stage, run in a child process of its own so its peak RSS is
the fit's alone.

    python3 perfbench/fitstage.py INPUTS.npz OUT_DIR [--trace]

Both modes first fit once through ``fit_model`` (the warm-up; it also
writes the model artifact the serve stage loads).  Measured mode then
prints a JSON line and times ``repro.fit`` (wall and CPU seconds) on
command, one command a line on standard input: ``fit S`` runs one fit,
and more while they fit in S seconds, and answers with their times as
one JSON line; ``done`` ends it.  The parent (:class:`FitChild`) sends a
``fit`` before each server launch and one after the last, so the timed
fits spread over the whole run and their median samples more of the
host's drifting speed than one burst of fits would.  Traced mode runs
one untraced ``repro.fit`` and then the span driver below, which calls
the public phase functions in ``run_mu_dbscan_state``'s order with a
span around each; a third pass repeats the driver under tracemalloc for
per-span peak memory.  Labels, core masks and counters go to
``OUT_DIR/fits.npz`` for the parent's oracle check; a JSON summary is
the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import MIB_PER_KIB, program_env, use_program
from spans import MemoryRecorder, Recorder

_T0 = time.perf_counter()

#: most seconds the parent waits for one answer of the child
ANSWER_TIMEOUT_S = 120.0


def traced_fit(points: np.ndarray, eps: float, min_pts: int, rec: Recorder):
    """μDBSCAN with the repo's default knobs, one span per phase.

    Mirrors ``repro.core.mudbscan.run_mu_dbscan_state`` + ``mu_dbscan``
    step for step; the parent asserts its labels, core mask and counters
    are bit-identical to ``repro.fit``'s.
    """
    from repro.core.params import DBSCANParams
    from repro.core.postprocess import postprocess_core, postprocess_noise
    from repro.core.process_mcs import process_micro_clusters
    from repro.core.remaining import process_remaining_points
    from repro.core.state import MuDBSCANState
    from repro.instrumentation.counters import Counters
    from repro.microcluster.murtree import MuRTree

    params = DBSCANParams(eps=eps, min_pts=min_pts)
    c = Counters()
    with rec.span("fit", n=int(points.shape[0])):
        with rec.span("microcluster.build") as s:
            murtree = MuRTree(points, params.eps, counters=c)
            s.attrs.update(dist_calcs=c.dist_calcs, n_mcs=murtree.n_micro_clusters)
        with rec.span("microcluster.reach") as s:
            before = c.dist_calcs
            murtree.compute_reachability()
            s.attrs.update(
                dist_calcs=c.dist_calcs - before,
                reach_pairs=int(sum(len(mc.reach_ids) for mc in murtree.mcs)),
            )
        with rec.span("core.state"):
            state = MuDBSCANState(murtree, params, c)
        with rec.span("core.mcs"):
            process_micro_clusters(state)
        with rec.span("core.remaining") as s:
            before = c.queries_run
            process_remaining_points(state)
            s.attrs["queries_run"] = c.queries_run - before
        with rec.span("core.post_core") as s:
            before = c.dist_calcs
            postprocess_core(state)
            s.attrs["dist_calcs"] = c.dist_calcs - before
        with rec.span("core.post_noise"):
            postprocess_noise(state)
        c.queries_saved += state.n - c.queries_run
        with rec.span("unionfind.labels"):
            labels = state.uf.labels(noise_mask=state.final_noise_mask())
    return labels, state.core.copy(), c


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * MIB_PER_KIB


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    use_program()
    import repro
    from repro.serving.model import fit_model

    import_s = time.perf_counter() - _T0
    out = Path(args.out)
    with np.load(args.inputs) as z:
        train = z["train"]
        eps, min_pts = float(z["eps"]), int(z["min_pts"])

    t = time.perf_counter()
    model = fit_model(train, eps, min_pts)  # the warm-up fit
    warmup_s = time.perf_counter() - t
    model.save(out / "model.mudb")
    fits = {"model_labels": model.labels, "model_core": model.core_mask}
    summary = {
        "n": int(train.shape[0]),
        "import_s": import_s,
        "warmup_s": warmup_s,
        "n_mcs": int(model.n_micro_clusters),
    }

    if not args.trace:
        print(json.dumps(summary), flush=True)  # ready for commands
        times, cpu, labels, cores = [], [], [], []
        for line in sys.stdin:
            cmd = line.split()
            if cmd == ["done"]:
                break
            budget, t0, batch = float(cmd[1]), time.perf_counter(), []
            while not batch or (
                time.perf_counter() - t0 + float(np.mean(batch)) <= budget
            ):
                t, c = time.perf_counter(), time.process_time()
                result = repro.fit(train, eps, min_pts)
                batch.append(time.perf_counter() - t)
                times.append(batch[-1])
                cpu.append(time.process_time() - c)
                labels.append(result.labels)
                cores.append(result.core_mask)
            print(json.dumps({"fits": len(batch)}), flush=True)
        fits.update(fit_labels=np.stack(labels), fit_core=np.stack(cores))
        summary = {"fit_s": times, "fit_cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}
    else:
        t = time.perf_counter()
        ref = repro.fit(train, eps, min_pts)
        untraced_s = time.perf_counter() - t
        rec = Recorder()
        labels, core, counters = traced_fit(train, eps, min_pts, rec)
        identical = (
            np.array_equal(labels, ref.labels)
            and np.array_equal(core, ref.core_mask)
            and counters.to_dict() == ref.counters.to_dict()
        )
        mem = MemoryRecorder()
        import tracemalloc

        tracemalloc.start()
        try:
            traced_fit(train, eps, min_pts, mem)
        finally:
            tracemalloc.stop()
        rec.write_jsonl(out / "fit_spans.jsonl")
        mem.write_jsonl(out / "fit_mem_spans.jsonl")
        fits.update(
            fit_labels=np.stack([ref.labels, labels]),
            fit_core=np.stack([ref.core_mask, core]),
        )
        summary.update(
            untraced_s=untraced_s,
            identical=bool(identical),
            counters=counters.to_dict(),
            peak_rss_mb=_peak_rss_mb(),
        )
    np.savez(out / "fits.npz", **fits)
    print(json.dumps(summary))
    return 0


class FitChild:
    """The parent's handle on a measured-mode fit child.

    Starting it runs the warm-up fit (and writes the model artifact);
    :meth:`batch` times fits for a slot of the run; :meth:`finish` ends
    the child and returns the summary: ``n``, ``import_s``,
    ``warmup_s``, ``n_mcs``, ``fit_s``, ``fit_cpu_s``, ``peak_rss_mb``.
    Used as a context manager, the child is killed and waited for on
    every way out.
    """

    def __init__(self, inputs: Path, out: Path, slot_s: float) -> None:
        self.slot_s = slot_s
        self._err = open(out / "fitstage.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), str(inputs), str(out)],
            env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._err, text=True,
        )
        try:
            self.summary = self._answer()
        except BaseException:
            self.__exit__()
            raise

    def _answer(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], ANSWER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"fit stage gave no answer (see {self._err.name})")
        return json.loads(line)

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def batch(self) -> None:
        self._send(f"fit {self.slot_s:.3f}")
        self._answer()

    def finish(self) -> dict:
        self._send("done")
        self.summary.update(self._answer())
        if self.proc.wait(timeout=ANSWER_TIMEOUT_S) != 0:
            raise RuntimeError(f"fit stage exited with {self.proc.returncode}")
        return self.summary

    def __enter__(self) -> "FitChild":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        self._err.close()


if __name__ == "__main__":
    sys.exit(main())
