"""Tests for fragment resolution (the distributed merge, §V-C)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.merging import resolve_fragments
from repro.distributed.protocol import LocalFragment
from repro.instrumentation.counters import Counters
from repro.unionfind.unionfind import UnionFind


def _frag(gids, core, assigned, intra=(), cross=()):
    return LocalFragment(
        owned_gids=np.asarray(gids, dtype=np.int64),
        core=np.asarray(core, dtype=bool),
        assigned=np.asarray(assigned, dtype=bool),
        intra_edges=np.asarray(list(intra), dtype=np.int64).reshape(-1, 2),
        cross_pairs=np.asarray(list(cross), dtype=np.int64).reshape(-1, 2),
    )


class TestResolveFragments:
    def test_core_core_pair_merges(self):
        frags = [
            _frag([0, 1], [True, True], [True, True], intra=[(0, 1)], cross=[(1, 2)]),
            _frag([2, 3], [True, True], [True, True], intra=[(2, 3)]),
        ]
        out = resolve_fragments(frags, 4)
        assert len(set(out.labels)) == 1  # one cluster

    def test_border_claim_first_come(self):
        # point 1 is non-core; cores 0 and 2 both claim it
        frags = [
            _frag([0], [True], [True], cross=[(0, 1)]),
            _frag([1], [False], [False]),
            _frag([2], [True], [True], cross=[(2, 1)]),
        ]
        out = resolve_fragments(frags, 3)
        labels = out.labels
        assert labels[1] == labels[0]  # first claim wins
        assert labels[2] != labels[0]
        assert out.assigned_mask[1]

    def test_locally_assigned_border_not_reclaimed(self):
        # point 1 already assigned locally to core 0's cluster
        frags = [
            _frag([0, 1], [True, False], [True, True], intra=[(1, 0)]),
            _frag([2], [True], [True], cross=[(2, 1)]),
        ]
        out = resolve_fragments(frags, 3)
        labels = out.labels
        assert labels[1] == labels[0]
        assert labels[2] != labels[0]

    def test_noncore_pair_is_noop(self):
        frags = [
            _frag([0], [False], [False], cross=[(0, 1)]),
            _frag([1], [False], [False]),
        ]
        out = resolve_fragments(frags, 2)
        assert (out.labels == -1).all()

    def test_noise_rescue_via_remote_core(self):
        frags = [
            _frag([0], [False], [False], cross=[(0, 1)]),
            _frag([1], [True], [True]),
        ]
        out = resolve_fragments(frags, 2)
        assert out.labels[0] == out.labels[1] >= 0

    def test_overlapping_ownership_rejected(self):
        frags = [
            _frag([0, 1], [True, True], [True, True]),
            _frag([1, 2], [True, True], [True, True]),
        ]
        with pytest.raises(ValueError, match="owned twice"):
            resolve_fragments(frags, 3)

    def test_missing_ownership_rejected(self):
        frags = [_frag([0], [True], [True])]
        with pytest.raises(ValueError, match="unowned"):
            resolve_fragments(frags, 2)

    def test_deterministic_order(self):
        # same fragments, two runs -> identical labels
        frags = [
            _frag([0, 1], [True, False], [True, False], cross=[(0, 2), (0, 1)]),
            _frag([2, 3], [True, False], [True, False], cross=[(2, 1)]),
        ]
        a = resolve_fragments(frags, 4).labels
        b = resolve_fragments(frags, 4).labels
        np.testing.assert_array_equal(a, b)

    def test_fragment_validation(self):
        with pytest.raises(ValueError, match="align"):
            LocalFragment(
                owned_gids=np.array([0, 1]),
                core=np.array([True]),
                assigned=np.array([True, False]),
                intra_edges=np.empty((0, 2)),
                cross_pairs=np.empty((0, 2)),
            )


def _per_pair_merge(fragments, n_global):
    """The merge as a per-pair loop: intra edges, then every cross pair
    in (rank, emission) order under the global flags."""
    core = np.zeros(n_global, dtype=bool)
    assigned = np.zeros(n_global, dtype=bool)
    for frag in fragments:
        core[frag.owned_gids] = frag.core
        assigned[frag.owned_gids] = frag.assigned
    uf = UnionFind(n_global, counters=Counters())
    for frag in fragments:
        for a, b in frag.intra_edges:
            uf.union(int(a), int(b))
    n_cross = 0
    for frag in fragments:
        for a, b in frag.cross_pairs:
            a, b = int(a), int(b)
            n_cross += 1
            if core[a] and core[b]:
                uf.union(a, b)
            elif core[a] and not assigned[b]:
                uf.union(a, b)
                assigned[b] = True
            elif core[b] and not assigned[a]:
                uf.union(a, b)
                assigned[a] = True
    labels = uf.labels(noise_mask=~core & ~assigned)
    return labels, assigned, n_cross, uf.counters.unions


@st.composite
def _fragment_sets(draw):
    """Random ownership over 1-4 ranks, random flags (some endpoints
    already assigned by their owners), intra edges among owned ids and
    cross pairs to other ranks' ids with duplicates and reversals."""
    n = draw(st.integers(1, 30))
    n_ranks = draw(st.integers(1, 4))
    owner = np.asarray(draw(st.lists(st.integers(0, n_ranks - 1), min_size=n, max_size=n)))
    core = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assigned = core | np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    gid = st.integers(0, n - 1)
    frags = []
    for r in range(n_ranks):
        mine = np.flatnonzero(owner == r)
        intra = []
        if mine.size:
            local = st.sampled_from(mine.tolist())
            intra = draw(st.lists(st.tuples(local, local), max_size=10))
        cross = draw(st.lists(st.tuples(gid, gid), max_size=25))
        if cross and draw(st.booleans()):
            cross += cross[: draw(st.integers(1, len(cross)))]  # duplicates
        if cross and draw(st.booleans()):
            cross += [(b, a) for a, b in cross[:5]]  # reversed
        frags.append(_frag(mine, core[mine], assigned[mine], intra=intra, cross=cross))
    return frags, n


class TestResolveFragmentsMatchesPerPairLoop:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_fragment_sets())
    def test_labels_flags_and_counts(self, case):
        frags, n = case
        labels, assigned, n_cross, unions = _per_pair_merge(frags, n)
        counters = Counters()
        out = resolve_fragments(frags, n, counters=counters)
        np.testing.assert_array_equal(out.labels, labels)
        np.testing.assert_array_equal(out.assigned_mask, assigned)
        assert out.n_cross_pairs == n_cross
        assert counters.unions == unions
