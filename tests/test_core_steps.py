"""Unit-level tests of μDBSCAN's individual steps (Algorithms 4, 6, 7, 8)."""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.core import postprocess
from repro.core.params import DBSCANParams
from repro.core.postprocess import postprocess_core, postprocess_noise
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import process_remaining_points
from repro.core.state import MuDBSCANState
from repro.data.registry import dataset_names, load_dataset
from repro.data.synthetic import blobs_with_noise
from repro.distributed.local import DistributedMuDBSCANState, _local_inputs
from repro.instrumentation.counters import Counters
from repro.microcluster.microcluster import MCKind
from repro.microcluster.murtree import MuRTree
from repro.unionfind.unionfind import UnionFind


def _make_state(
    points: np.ndarray, eps: float, min_pts: int, **tree_kwargs
) -> MuDBSCANState:
    tree = MuRTree(points, eps, **tree_kwargs)
    tree.compute_reachability()
    return MuDBSCANState(tree, DBSCANParams(eps=eps, min_pts=min_pts), Counters())


def _reference_postprocess_core(state: MuDBSCANState) -> tuple[UnionFind, np.ndarray]:
    """Algorithm 7 with no skip: union every ε-close (wndq row, core
    candidate) pair into a copy of the state's partition.

    Returns the resulting union-find and ``assigned`` flags; ``state``
    is left as it was.  Distances use the same kernel as the mode under
    test (one block per MC in ``cached`` mode, one row at a time
    otherwise), so pairs on the ε boundary get the same verdict.
    """
    tree = state.murtree
    uf = UnionFind(state.n)
    for row, root in enumerate(state.uf.roots().tolist()):
        uf.union(row, root)
    assigned = state.assigned.copy()
    pairs = []
    if tree.aux_index == "cached":
        by_mc: dict[int, list[int]] = {}
        for row in state.wndq_corelist:
            by_mc.setdefault(int(tree.point_mc[row]), []).append(row)
        for mc_id, rows in by_mc.items():
            cands = tree.mcs[mc_id].reach_rows
            cands = cands[state.core[cands]]
            raw = tree.metric.raw_pairwise(tree.points[rows], tree.points[cands])
            ii, jj = np.nonzero(raw < state.eps_raw)
            pairs += zip(np.asarray(rows)[ii].tolist(), cands[jj].tolist())
    else:
        for row in state.wndq_corelist:
            cands = tree.candidates_for_postprocessing(row)
            cands = cands[state.core[cands]]
            raw = tree.metric.raw_to_point(tree.points[cands], tree.points[row])
            pairs += ((row, q) for q in cands[raw < state.eps_raw].tolist())
    for row, q in pairs:
        if row != q:
            uf.union(row, q)
            assigned[[row, q]] = True
    return uf, assigned


def _cross_component_pairs(state: MuDBSCANState) -> int:
    """(wndq row, core candidate) pairs of the cached blocks whose start
    roots differ — the pairs Algorithm 7 has to compute."""
    tree = state.murtree
    roots = state.uf.roots()
    total = 0
    for row in state.wndq_corelist:
        cands = tree.mcs[int(tree.point_mc[row])].reach_rows
        cands = cands[state.core[cands]]
        total += int(np.count_nonzero(roots[cands] != roots[row]))
    return total


class TestProcessMicroClusters:
    def test_dmc_marks_inner_circle_wndq(self):
        # 6 points within 0.05 of origin (IC for eps=0.5), 1 farther out
        pts = np.vstack([np.random.default_rng(0).normal(0, 0.01, (6, 2)),
                         [[0.4, 0.0]]])
        state = _make_state(pts, eps=0.5, min_pts=5)
        mc = state.murtree.mcs[0]
        assert len(state.murtree.mcs) == 1
        assert mc.kind(5) is MCKind.DMC
        process_micro_clusters(state)
        for row in mc.ic_rows:
            assert state.wndq[row] and state.core[row]
        # the outer member is assigned (union with center) but not core
        assert state.assigned.all()
        assert not state.core[6]

    def test_cmc_marks_only_center(self):
        # ring: 5 points at distance 0.4 from center, center at origin
        angles = np.linspace(0, 2 * np.pi, 5, endpoint=False)
        ring = 0.4 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.vstack([[[0.0, 0.0]], ring])
        state = _make_state(pts, eps=0.5, min_pts=5)
        assert len(state.murtree.mcs) == 1
        mc = state.murtree.mcs[0]
        assert mc.kind(5) is MCKind.CMC
        process_micro_clusters(state)
        assert state.wndq[mc.center_row]
        assert state.wndq.sum() == 1
        assert state.assigned.all()

    def test_smc_untouched(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        state = _make_state(pts, eps=0.5, min_pts=5)
        process_micro_clusters(state)
        assert not state.wndq.any()
        assert not state.assigned.any()
        assert state.uf.n_sets == 2


class TestProcessRemaining:
    def test_all_points_queried_when_no_wndq(self, small_blobs):
        state = _make_state(small_blobs, eps=0.01, min_pts=5)
        process_remaining_points(state)
        assert state.counters.queries_run == small_blobs.shape[0]

    def test_wndq_points_skipped(self):
        pts = np.random.default_rng(1).normal(0, 0.01, (30, 2))
        state = _make_state(pts, eps=0.5, min_pts=5)
        process_micro_clusters(state)
        n_wndq = int(state.wndq.sum())
        assert n_wndq > 0
        process_remaining_points(state)
        assert state.counters.queries_run == 30 - n_wndq

    def test_process_mask_restricts(self, small_blobs):
        state = _make_state(small_blobs, eps=0.01, min_pts=5)
        mask = np.zeros(small_blobs.shape[0], dtype=bool)
        mask[:50] = True
        process_remaining_points(state, process_mask=mask)
        assert state.counters.queries_run == 50

    def test_noise_list_stores_neighborhoods(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [10.05, 10.0]])
        state = _make_state(pts, eps=0.2, min_pts=3)
        process_remaining_points(state)
        assert set(state.noise_nbrs) == {0, 1, 2}
        np.testing.assert_array_equal(np.sort(state.noise_nbrs[1]), [1, 2])

    def test_dynamic_wndq_promotes_unprocessed(self):
        # a tight clump: the first queried point promotes the others
        pts = np.random.default_rng(2).normal(0, 0.001, (10, 2))
        state = _make_state(pts, eps=1.0, min_pts=10)
        # skip Algorithm 4 to exercise the dynamic path directly
        process_remaining_points(state, dynamic_wndq=True)
        assert state.counters.queries_run == 1  # only the first point
        assert state.core.all()


@st.composite
def _merge_cases(draw):
    """Prior unions, a pivot and a merge list that may repeat rows,
    hold the pivot itself and hold rows already joined to it."""
    n = draw(st.integers(1, 40))
    row = st.integers(0, n - 1)
    prior = draw(st.lists(st.tuples(row, row), max_size=40))
    pivot = draw(row)
    others = draw(st.lists(row, max_size=60))
    joined = [b for a, b in prior if a == pivot] + [a for a, b in prior if b == pivot]
    if draw(st.booleans()):
        others += joined
    if draw(st.booleans()):
        others.append(pivot)
    if others and draw(st.booleans()):
        others += others[: draw(st.integers(1, len(others)))]  # duplicates
    order = draw(st.permutations(range(len(others))))
    return n, prior, pivot, [others[i] for i in order]


class TestUnionMany:
    """``union_many`` joins each distinct parent once; it must leave the
    same state as ``union(x, q)`` for every ``q`` in turn."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_merge_cases())
    def test_matches_a_loop_of_unions(self, case):
        n, prior, pivot, others = case
        pts = np.arange(n, dtype=np.float64)[:, None] * 10.0
        batched = _make_state(pts, eps=1.0, min_pts=2)
        looped = _make_state(pts, eps=1.0, min_pts=2)
        for state in (batched, looped):
            for a, b in prior:
                state.union(a, b)
        batched.union_many(pivot, np.asarray(others, dtype=np.int64))
        for q in others:
            looped.union(pivot, q)
        np.testing.assert_array_equal(batched.uf.labels(), looped.uf.labels())
        np.testing.assert_array_equal(batched.uf.roots(), looped.uf.roots())
        assert batched.counters.unions == looped.counters.unions
        assert batched.uf.n_sets == looped.uf.n_sets
        np.testing.assert_array_equal(batched.assigned, looped.assigned)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_merge_cases(), owned_bits=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_distributed_state_matches_a_loop_of_unions(self, case, owned_bits):
        # owned↔owned pairs merge, owned↔halo pairs become cross pairs
        # in ``others`` order, halo↔halo pairs are dropped — per pair
        n, prior, pivot, others = case
        pts = np.arange(n, dtype=np.float64)[:, None] * 10.0
        owned = np.asarray(owned_bits[:n], dtype=bool)
        gids = np.arange(n, dtype=np.int64)[::-1] + 100
        batched, looped = (_make_distributed_state(pts, owned, gids) for _ in range(2))
        for state in (batched, looped):
            for a, b in prior:
                state.union(a, b)
        batched.union_many(pivot, np.asarray(others, dtype=np.int64))
        for q in others:
            looped.union(pivot, q)
        np.testing.assert_array_equal(_cross(batched), _cross(looped))
        np.testing.assert_array_equal(batched.assigned, looped.assigned)
        np.testing.assert_array_equal(batched.uf.labels(), looped.uf.labels())
        np.testing.assert_array_equal(batched.uf.roots(), looped.uf.roots())
        assert batched.counters.to_dict() == looped.counters.to_dict()


def _make_distributed_state(pts, owned, gids) -> DistributedMuDBSCANState:
    tree = MuRTree(pts, 1.0)
    tree.compute_reachability()
    return DistributedMuDBSCANState(
        tree, DBSCANParams(eps=1.0, min_pts=2), Counters(), owned, gids
    )


def _cross(state: DistributedMuDBSCANState) -> np.ndarray:
    return np.concatenate([np.empty((0, 2), dtype=np.int64)] + state.cross_pairs)


class TestPostprocessCore:
    def test_wndq_cores_from_adjacent_mcs_get_connected(self):
        # Two dense 1-d clumps whose centers sit just over eps apart
        # (so they become distinct micro-clusters, both DMC) while their
        # inner-circle points still bridge the gap with dist < eps.
        # Every point ends up wndq-core, so only Algorithm 7 can create
        # the cross-MC connection.
        xs_a = [0.0, 0.01, 0.02, 0.03, 0.04, -0.01, -0.02, -0.03]
        xs_b = [0.101, 0.106, 0.111, 0.116, 0.121, 0.126, 0.131, 0.141]
        pts = np.array([[x, 0.0] for x in xs_a + xs_b])
        state = _make_state(pts, eps=0.1, min_pts=5)
        assert len(state.murtree.mcs) == 2
        process_micro_clusters(state)
        assert state.wndq.all(), "both clumps should be DMC inner circles"
        process_remaining_points(state)
        postprocess_core(state)
        # bridge: 0.04 <-> 0.101 at distance 0.061 < eps
        roots = {state.uf.find(i) for i in range(16)}
        assert len(roots) == 1

    def test_counts_distance_work(self, small_blobs):
        state = _make_state(small_blobs, eps=0.08, min_pts=5)
        process_micro_clusters(state)
        before = state.counters.dist_calcs
        postprocess_core(state)
        if state.wndq_corelist:
            assert state.counters.dist_calcs >= before

    def test_no_distance_work_when_cores_already_connected(self):
        # a dense strip: Algorithm 4 joins each MC's members to its
        # center and Algorithm 6's queried ring points join neighbouring
        # MCs, so every core is in one component before Algorithm 7
        # starts — it has no pair left to compute
        rng = np.random.default_rng(21)
        pts = np.column_stack([rng.uniform(0, 1, 400), rng.uniform(0, 0.05, 400)])
        state = _make_state(pts, eps=0.1, min_pts=5)
        process_micro_clusters(state)
        process_remaining_points(state)
        assert len(state.murtree.mcs) > 1 and state.wndq_corelist
        assert np.unique(state.uf.roots()[state.core]).size == 1
        dist_before, unions_before = state.counters.dist_calcs, state.counters.unions
        postprocess_core(state)
        assert state.counters.dist_calcs == dist_before
        assert state.counters.unions == unions_before

    @pytest.mark.parametrize("aux_index", ["cached", "flat"])
    def test_block_rows_in_two_components_still_join(self, aux_index):
        # one MC around row 0; its wndq rows start in two components
        # {1, 2} and {3, 4}, and only the pair (2, 3) is closer than eps
        xs = [0.0, -0.9, -0.5, 0.45, 0.9]
        pts = np.array([[x, 0.0] for x in xs])
        state = _make_state(pts, eps=1.0, min_pts=2, aux_index=aux_index)
        assert len(state.murtree.mcs) == 1
        for row in (1, 2, 3, 4):
            state.mark_wndq_core(row)
        state.union(1, 2)
        state.union(3, 4)
        unions_before = state.counters.unions
        postprocess_core(state)
        assert state.uf.connected(1, 4)
        assert state.counters.unions == unions_before + 1
        # each row against the two cores of the other component
        assert state.counters.dist_calcs == 4 * 2

    @pytest.mark.parametrize(
        "name,metric,aux_index",
        [
            (name, metric, aux)
            for name in dataset_names()
            for aux in ("cached", "flat")
            for metric in ("euclidean", "manhattan", "chebyshev")
        ]
        + [(name, "euclidean", "rtree") for name in dataset_names()],
    )
    def test_matches_all_pairs_reference(self, name, metric, aux_index):
        pts, spec = load_dataset(name, scale=0.06, seed=3)
        state = _make_state(
            pts, spec.eps, spec.min_pts, aux_index=aux_index, metric=metric
        )
        process_micro_clusters(state)
        process_remaining_points(state)
        self._assert_matches_reference(state)

    @pytest.mark.parametrize("aux_index", ["cached", "flat"])
    @pytest.mark.parametrize("name", dataset_names())
    def test_matches_all_pairs_reference_right_after_algorithm_4(self, name, aux_index):
        # without Algorithm 6 the wndq-cores of different MCs are still
        # apart, so on half of these sets the phase has merges to make
        pts, spec = load_dataset(name, scale=0.06, seed=3)
        state = _make_state(pts, spec.eps, spec.min_pts, aux_index=aux_index)
        process_micro_clusters(state)
        self._assert_matches_reference(state)

    @staticmethod
    def _assert_matches_reference(state: MuDBSCANState) -> None:
        core_before = state.core.copy()
        ref_uf, ref_assigned = _reference_postprocess_core(state)
        cached = state.murtree.aux_index == "cached"
        expected_calcs = _cross_component_pairs(state) if cached else None
        dist_before = state.counters.dist_calcs
        postprocess_core(state)
        np.testing.assert_array_equal(state.uf.labels(), ref_uf.labels())
        np.testing.assert_array_equal(state.core, core_before)
        np.testing.assert_array_equal(state.assigned, ref_assigned)
        if expected_calcs is not None:
            assert state.counters.dist_calcs - dist_before == expected_calcs


def _full_block_postprocess_core(state: MuDBSCANState) -> None:
    """Cached-mode Algorithm 7 over whole reach blocks, no reachable MC
    dropped: the union sequence the pre-filter must reproduce exactly."""
    tree, roots = state.murtree, state.uf.roots()
    points, eps_raw = tree.points, state.eps_raw
    by_mc: dict[int, list[int]] = {}
    for row in state.wndq_corelist:
        by_mc.setdefault(int(tree.point_mc[row]), []).append(row)
    for mc_id, rows_list in by_mc.items():
        candidates = np.concatenate([tree.member_rows(w) for w in tree.reach_ids(mc_id)])
        rows = np.asarray(rows_list, dtype=np.int64)
        core_cand = candidates[state.core[candidates]]
        row_roots, cand_roots = roots[rows], roots[core_cand]
        ii, jj = [], []
        for root in np.unique(row_roots):
            sel = np.flatnonzero(row_roots == root)
            cols = np.flatnonzero(cand_roots != root)
            if cols.size:
                state.counters.dist_calcs += int(sel.size) * int(cols.size)
                raw = tree.metric.raw_pairwise(points[rows[sel]], points[core_cand[cols]])
                i, j = np.nonzero(raw < eps_raw)
                ii.append(sel[i])
                jj.append(cols[j] + rows.size)
        if ii and np.concatenate(ii).size:
            nodes = np.concatenate([rows, core_cand])
            edges = (np.concatenate(ii), np.concatenate(jj))
            graph = sparse.coo_matrix(
                (np.ones(edges[0].size), edges), shape=(nodes.size, nodes.size)
            )
            _, comp = connected_components(graph, directed=False)
            for label in range(comp.max() + 1):
                group = nodes[comp == label]
                if group.size > 1:
                    state.union_many(int(group[0]), group[group != group[0]])
        unknown = candidates[state.postprocess_unknown_mask(candidates)]
        if unknown.size:
            state.counters.dist_calcs += int(rows.size) * int(unknown.size)
            hit = tree.metric.raw_pairwise(points[rows], points[unknown]) < eps_raw
            j = np.flatnonzero(hit.any(axis=0))
            first = rows[np.argmax(hit[:, j], axis=0)]
            owned = state.owned[first]
            state.defer(first[owned], unknown[j[owned]])


def _random_state(seed: int, distributed: bool) -> MuDBSCANState:
    """A synthetic state on the eve of Algorithm 7: random cores and
    wndq rows, the cores of each vertical band 1.5ε wide unioned (not
    ε-bound), so blocks across a band edge have rows of several start
    roots, and reachable MCs have cores of one, several or no roots; in
    the distributed state a third of the points are halo."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 6.0, (300, 2))
    tree = MuRTree(pts, 1.0)
    tree.compute_reachability()
    params, counters = DBSCANParams(eps=1.0, min_pts=3), Counters()
    if distributed:
        owned = rng.random(300) < 2 / 3
        state = DistributedMuDBSCANState(tree, params, counters, owned, np.arange(300))
    else:
        state = MuDBSCANState(tree, params, counters)
    core = np.flatnonzero(rng.random(300) < 0.6)
    state.core[core] = True
    for row in rng.permutation(core)[:90].tolist():
        state.mark_wndq_core(row)
    band = (pts[core, 0] // 1.5).astype(np.int64)
    for b in np.unique(band):
        state.union_many(int(core[band == b][0]), core[band == b])
    return state


class TestPostprocessCorePrefilter:
    """Algorithm 7 drops, before any gather, the reachable MCs that
    cannot add an edge.  Against the same pass over whole blocks it must
    leave the same union-find roots, ``unions``, ``dist_calcs`` and
    ``assigned`` flags and, in μDBSCAN-D, the same cross pairs in the
    same order (their first occurrence decides border claims)."""

    @staticmethod
    def _assert_same_pass(make) -> None:
        full, filtered = make(), make()
        before = len(getattr(full, "cross_pairs", []))
        _full_block_postprocess_core(full)
        postprocess_core(filtered)
        np.testing.assert_array_equal(filtered.uf.roots(), full.uf.roots())
        assert filtered.counters.to_dict() == full.counters.to_dict()
        np.testing.assert_array_equal(filtered.assigned, full.assigned)
        if isinstance(full, DistributedMuDBSCANState):
            assert len(full.cross_pairs) > before  # unknown candidates met
            np.testing.assert_array_equal(_cross(filtered), _cross(full))

    @staticmethod
    def _gathered_rows(state: MuDBSCANState) -> tuple[int, int]:
        """(candidate rows the pre-filter keeps, rows of the full blocks)."""
        tree = state.murtree
        mcs, bounds, rows = postprocess._wndq_groups(state)
        offsets, _ = postprocess._useful_blocks(state, state.uf.roots(), mcs, bounds, rows)
        return int(offsets[-1]), int(np.diff(tree.block_offsets)[mcs].sum())

    @pytest.mark.parametrize("name", dataset_names())
    def test_sequential_states(self, name):
        pts, spec = load_dataset(name, scale=0.06, seed=3)

        def after(step):
            def make():
                state = _make_state(pts, spec.eps, spec.min_pts)
                process_micro_clusters(state)
                if step == 6:
                    process_remaining_points(state)
                return state
            return make

        for step in (4, 6):
            self._assert_same_pass(after(step))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("distributed", [False, True], ids=["sequential", "distributed"])
    def test_multi_root_blocks(self, seed, distributed):
        make = lambda: _random_state(seed, distributed)  # noqa: E731
        state = make()
        groups = {}
        for row in state.wndq_corelist:
            groups.setdefault(int(state.murtree.point_mc[row]), set()).add(
                state.uf.find(row)
            )
        assert any(len(r) > 1 for r in groups.values())
        self._assert_same_pass(make)

    @pytest.mark.parametrize("scene", ["blobs", "halos"])
    def test_distributed_states_with_unknown_halo_candidates(self, scene):
        if scene == "blobs":
            pts, eps, min_pts = blobs_with_noise(3000, 2, 6, seed=3), 0.06, 7
        else:
            pts, spec = load_dataset("MPAGD100M3D", scale=0.3)
            eps, min_pts = spec.eps, spec.min_pts
        cut = float(np.median(pts[:, 0]))
        owned_rows = np.flatnonzero(pts[:, 0] < cut)
        halo_rows = np.flatnonzero((pts[:, 0] >= cut) & (pts[:, 0] - cut < eps))
        local, owned, factory = _local_inputs(
            pts[owned_rows], owned_rows, pts[halo_rows], halo_rows
        )

        def make():
            tree = MuRTree(local, eps)
            tree.compute_reachability()
            state = factory(tree, DBSCANParams(eps=eps, min_pts=min_pts), Counters())
            process_micro_clusters(state)
            process_remaining_points(state, process_mask=owned)
            return state

        self._assert_same_pass(make)
        kept, full = self._gathered_rows(make())
        assert kept < full


class TestPostprocessNoise:
    def test_rescues_border_marked_before_core_was_known(self):
        # p is processed first (no core known yet -> provisional noise);
        # its neighbor later turns core; Algorithm 8 must rescue p.
        state_pts = np.vstack(
            [
                [[0.0, 0.0]],                       # p: only 2 neighbors
                [[0.05, 0.0]],                      # q: will be core
                np.random.default_rng(4).normal(
                    [0.1, 0.0], 0.004, (5, 2)
                ),                                   # q's support clump
            ]
        )
        state = _make_state(state_pts, eps=0.07, min_pts=5)
        process_micro_clusters(state)
        process_remaining_points(state)
        postprocess_core(state)
        postprocess_noise(state)
        noise = state.final_noise_mask()
        assert not noise[0], "p has a core neighbor and must not stay noise"

    def test_assigned_noise_entries_not_remerged(self):
        """A rescued border must not glue two clusters (the Alg. 8 guard)."""
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        state = _make_state(pts, eps=0.5, min_pts=1)
        # synthetic state: row 0 noise-listed with a stored neighbor that
        # is now core, but row 0 was meanwhile assigned elsewhere
        state.noise_nbrs[0] = np.array([1])
        state.core[1] = True
        state.assigned[0] = True
        before = state.uf.n_sets
        postprocess_noise(state)
        assert state.uf.n_sets == before
