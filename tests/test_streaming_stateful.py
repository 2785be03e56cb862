"""Stateful property test of the streaming engine.

Hypothesis drives a :class:`StreamingMuDBSCAN` through random sequences
of inserts, deletes, expiries, compactions and exports, in 2-D and 3-D,
under every metric, on blob data and on an integer lattice whose
distances land exactly on ε.  After every step the live window must
equal a batch refit, the label union-find must stay within twice the
live cores, the degenerate-MC count must be the live MCs whose center
row is dead, and the arrays the engine splices on every update (the
reach CSR and the member cache) must equal a fresh rebuild;
every exported model must predict like the brute oracle over its own
points.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.microcluster.reachability import compute_reachable
from repro.serving import brute_predict, predict_model
from repro.streaming import StreamingMuDBSCAN
from repro.validation.exactness import check_window_parity

METRICS = ("euclidean", "manhattan", "chebyshev")


class StreamMachine(RuleBasedStateMachine):
    @initialize(
        dim=st.sampled_from([2, 3]),
        metric=st.sampled_from(METRICS),
        lattice=st.booleans(),
        min_pts=st.integers(2, 5),
        window=st.one_of(st.none(), st.integers(20, 90)),
    )
    def start(self, dim, metric, lattice, min_pts, window):
        self.dim, self.lattice = dim, lattice
        self.eps = 1.0 if lattice else 0.15
        self.blob_centers = np.random.default_rng(dim).random((3, dim))
        self.stream = StreamingMuDBSCAN(
            self.eps, min_pts, metric=metric, window=window
        )

    def _points(self, size: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if self.lattice:
            return rng.integers(0, 4, (size, self.dim)).astype(np.float64)
        pick = self.blob_centers[rng.integers(0, 3, size)]
        return pick + rng.normal(0.0, 0.06, (size, self.dim))

    @rule(size=st.integers(1, 30), seed=st.integers(0, 2**16))
    def partial_fit(self, size, seed):
        self.stream.partial_fit(self._points(size, seed))

    @precondition(lambda self: self.stream.n_live > 0)
    @rule(fraction=st.floats(0.05, 0.6), seed=st.integers(0, 2**16))
    def delete(self, fraction, seed):
        ids = self.stream.ids_
        k = max(1, int(fraction * ids.size))
        self.stream.delete(np.random.default_rng(seed).choice(ids, k, replace=False))

    @rule(n=st.integers(1, 15))
    def expire(self, n):
        self.stream.expire(n)

    @rule()
    def compact(self):
        self.stream.compact()

    @rule()
    def compact_force(self):
        self.stream.compact(force=True)
        assert self.stream.n_degenerate_mcs == 0

    @precondition(lambda self: self.stream.n_live > 0)
    @rule(seed=st.integers(0, 2**16))
    def to_fitted_model(self, seed):
        model = self.stream.to_fitted_model()
        probes = model.points[:6] + np.random.default_rng(seed).normal(
            0.0, self.eps / 2, (min(6, model.n), self.dim)
        )
        got = predict_model(model, probes)
        want = brute_predict(
            model.points, model.labels, model.core_mask, self.eps,
            self.stream.params.min_pts, probes, metric=model.metric,
        )
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.n_neighbors, want.n_neighbors)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)

    @invariant()
    def window_equals_batch_refit(self):
        if self.stream.n_live:
            report = check_window_parity(
                self.stream.result(), self.stream.window_points,
                metric=self.stream.metric,
            )
            assert report.ok, f"ari={report.ari} exact={report.exact}"

    @invariant()
    def label_ids_bounded(self):
        n_cores = int(np.count_nonzero(self.stream.core_sample_mask_))
        assert len(self.stream._label_uf) <= 2 * n_cores

    @invariant()
    def degenerate_mcs_have_dead_centers(self):
        s = self.stream
        dead_center = [
            mc for mc, (row, alive) in enumerate(zip(s._center_rows, s._mc_alive))
            if alive and not s._alive[row]
        ]
        assert s.n_degenerate_mcs == len(dead_center)

    @invariant()
    def spliced_arrays_equal_a_rebuild(self):
        s = self.stream
        live = np.flatnonzero(s._mc_alive)
        offsets, flat = compute_reachable(
            s.points[s._center_rows[live]], s.params.eps, metric=s.metric
        )
        sizes = np.zeros(s._center_rows.size, dtype=np.int64)
        sizes[live] = np.diff(offsets)
        np.testing.assert_array_equal(np.diff(s._reach_offsets), sizes)
        np.testing.assert_array_equal(s._reach_flat, live[flat])
        live = s.live_rows()
        by_mc = live[np.argsort(s._point_mc[live], kind="stable")]
        offsets, members, coords = s._live_members()
        np.testing.assert_array_equal(
            np.diff(offsets),
            np.bincount(s._point_mc[live], minlength=s._center_rows.size),
        )
        np.testing.assert_array_equal(members, by_mc)
        np.testing.assert_array_equal(coords, s.points[by_mc])


StreamMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStreamMachine = StreamMachine.TestCase
