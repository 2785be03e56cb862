"""Tests for the command-line interface and dataset file I/O."""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.data.io import load_points, save_points
from repro.data.synthetic import blobs_with_noise
from repro.observability.tracing import load_jsonl
from repro.serving.model import fit_model, save_model
from repro.serving.predict import predict_model


class TestIO:
    def test_npy_roundtrip(self, tmp_path, rng):
        pts = rng.random((20, 3))
        path = tmp_path / "pts.npy"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts)

    def test_csv_roundtrip(self, tmp_path, rng):
        pts = rng.random((10, 2))
        path = tmp_path / "pts.csv"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts, rtol=1e-6)

    def test_tsv_roundtrip(self, tmp_path, rng):
        pts = rng.random((5, 4))
        path = tmp_path / "pts.tsv"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts, rtol=1e-6)

    def test_single_column_text(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        assert load_points(path).shape == (3, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_points(tmp_path / "nope.npy")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.empty((0, 2)))
        with pytest.raises(ValueError, match="point array"):
            load_points(path)


class TestCLI:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "3DSRN" in out and "MPAGD1B3D" in out

    def test_run_on_registry_dataset(self, capsys):
        code = main(["run", "--dataset", "3DSRN", "--scale", "0.1", "--algo", "mu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_dbscan" in out and "queries" in out

    def test_run_on_input_file(self, tmp_path, rng, capsys):
        path = tmp_path / "pts.npy"
        save_points(path, rng.random((80, 2)))
        code = main(
            ["run", "--input", str(path), "--eps", "0.2", "--min-pts", "4",
             "--algo", "brute"]
        )
        assert code == 0
        assert "brute_dbscan" in capsys.readouterr().out

    def test_run_input_requires_params(self, tmp_path, rng):
        path = tmp_path / "pts.npy"
        save_points(path, rng.random((10, 2)))
        with pytest.raises(SystemExit):
            main(["run", "--input", str(path)])

    def test_run_requires_some_workload(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_compare_exact_returns_zero(self):
        assert main(["compare", "--dataset", "3DSRN", "--scale", "0.1"]) == 0

    def test_compare_honours_observability_flags(self, tmp_path, capsys):
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.prom"
        code = main([
            "compare", "--dataset", "3DSRN", "--scale", "0.05",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--profile", "light",
        ])
        assert code == 0
        names = {span["name"] for span in load_jsonl(trace)}
        assert {"fit", "tree_construction", "post_processing"} <= names
        assert "mudbscan_phase_seconds" in metrics.read_text()
        out = capsys.readouterr().out
        assert "memory split-up" in out and "EXACT" in out

    def test_stream_offers_no_block_size(self, capsys):
        # the stream's updates have no row-block knob; the flag used to
        # be parsed and ignored
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--dataset", "3DSRN", "--scale", "0.05", "--block-size", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --block-size 7" in capsys.readouterr().err

    def test_distributed_runs(self, capsys):
        code = main(
            ["distributed", "--dataset", "3DSRN", "--scale", "0.1",
             "--ranks", "2", "--algo", "mu-d"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_dbscan_d" in out and "as-if-parallel" in out

    def test_eps_override(self, capsys):
        assert main(
            ["run", "--dataset", "3DSRN", "--scale", "0.1", "--eps", "0.2",
             "--min-pts", "3"]
        ) == 0
        assert "eps=0.2" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("mudbscan ")
        assert out.split()[1][0].isdigit()  # "mudbscan <semver>"

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2
        assert "explode" in capsys.readouterr().err

    def test_no_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--builder", "scan"], ["--no-batch-queries"]])
    @pytest.mark.parametrize("verb", ["run", "fit", "stream"])
    def test_removed_path_flags_exit_2(self, verb, flag, tmp_path, capsys):
        argv = [verb, "--dataset", "3DSRN", "--scale", "0.05", *flag]
        if verb == "fit":
            argv += ["--save", str(tmp_path / "m.mudb")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestServingCLI:
    def test_fit_save_predict_round_trip(self, tmp_path, rng, capsys):
        pts = rng.random((120, 2))
        pts_path = tmp_path / "pts.npy"
        save_points(pts_path, pts)
        model_path = tmp_path / "model.mudb"
        code = main(
            ["fit", "--input", str(pts_path), "--eps", "0.15", "--min-pts", "4",
             "--save", str(model_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved model artifact" in out and model_path.exists()

        queries_path = tmp_path / "q.npy"
        save_points(queries_path, pts[:6])
        code = main(
            ["predict", "--model", str(model_path), "--input", str(queries_path)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "would_be_core" in table and "n_nbrs" in table

    def test_predict_json_output(self, tmp_path, rng, capsys):
        import json as json_mod

        pts = rng.random((80, 2))
        pts_path = tmp_path / "pts.npy"
        save_points(pts_path, pts)
        model_path = tmp_path / "m.mudb"
        assert main(
            ["fit", "--input", str(pts_path), "--eps", "0.2", "--min-pts", "4",
             "--save", str(model_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["predict", "--model", str(model_path), "--input", str(pts_path),
             "--json"]
        ) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert set(payload) == {
            "labels", "would_be_core", "nearest_core",
            "nearest_core_dist", "n_neighbors",
        }
        assert len(payload["labels"]) == 80

    def test_fit_registry_dataset(self, tmp_path, capsys):
        model_path = tmp_path / "m.mudb"
        assert main(
            ["fit", "--dataset", "3DSRN", "--scale", "0.1",
             "--save", str(model_path)]
        ) == 0
        assert model_path.exists()

    def test_fit_honours_builder_block_size(self, tmp_path, monkeypatch):
        """The exact engine gets ``--builder-block-size`` as ``run`` does.
        Results do not depend on the block size, so spy on the builder."""
        from repro.microcluster import builder, murtree

        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["block_size"])
            return builder.build_micro_cluster_arrays(*args, **kwargs)

        monkeypatch.setattr(murtree, "build_micro_cluster_arrays", spy)
        assert main(
            ["fit", "--dataset", "3DSRN", "--scale", "0.05",
             "--builder-block-size", "7", "--save", str(tmp_path / "m.mudb")]
        ) == 0
        assert seen == [7]

    def test_predict_missing_model(self, tmp_path, rng):
        queries_path = tmp_path / "q.npy"
        save_points(queries_path, rng.random((4, 2)))
        with pytest.raises(FileNotFoundError):
            main(["predict", "--model", str(tmp_path / "nope.mudb"),
                  "--input", str(queries_path)])


def _session_pids(sid: int) -> list[int]:
    """Live processes whose session id is ``sid`` (from /proc)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.parametrize(
    "extra",
    [[], ["--workers", "2", "--router", "kd"]],
    ids=["in-process", "two-kd-workers"],
)
class TestServeVerb:
    def test_serve_end_to_end(self, tmp_path, extra):
        """``python -m repro.cli serve`` as a real server: ready, exact
        answers, a 400's trace retrievable by its request id, and a
        SIGTERM exit 0 that leaves no process and no shared memory."""
        pts = blobs_with_noise(300, 2, 3, noise_fraction=0.25, seed=7)
        model = fit_model(pts, 0.08, 6)
        save_model(model, tmp_path / "m.mudb")
        events = tmp_path / "events.jsonl"
        shm_before = set(os.listdir("/dev/shm"))
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        with open(tmp_path / "server.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--model", str(tmp_path / "m.mudb"), "--port", "0", "--trace",
                 "--event-log", str(events), *extra],
                env=env, stdout=log, stderr=log, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )

        def request(method, path, body=None):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(method, path, body)
                resp = conn.getresponse()
                rid = resp.getheader("X-Request-Id")
                return resp.status, rid, json.loads(resp.read())
            finally:
                conn.close()

        try:
            deadline = time.monotonic() + 120.0
            port = None
            while port is None:
                assert proc.poll() is None, (tmp_path / "server.log").read_text()
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
                if events.exists():
                    # only complete lines: the server may be mid-write
                    for line in events.read_text().split("\n")[:-1]:
                        event = json.loads(line)
                        if event["event"] == "listening":
                            port = int(event["url"].rsplit(":", 1)[1])

            assert request("GET", "/readyz")[0] == 200
            queries = pts[:32]
            status, _, body = request(
                "POST", "/predict", json.dumps({"points": queries.tolist()})
            )
            assert status == 200
            want = predict_model(model, queries)
            assert body["labels"] == want.labels.tolist()
            assert body["nearest_core"] == want.nearest_core.tolist()

            status, rid, body = request("POST", "/predict", b'{"points": [[1, 2, 3]]}')
            assert status == 400 and body["request_id"] == rid
            while (trace := request("GET", f"/traces/{rid}"))[0] != 200:
                assert time.monotonic() < deadline, "errored request not retained"
                time.sleep(0.02)
            assert trace[2]["status"] == 400

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            while _session_pids(proc.pid):  # helpers exit once the server has
                assert time.monotonic() < deadline + 30.0, _session_pids(proc.pid)
                time.sleep(0.05)
            assert set(os.listdir("/dev/shm")) == shm_before
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
