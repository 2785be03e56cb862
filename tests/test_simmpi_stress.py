"""Stress and property tests for the simulated MPI substrate.

The distributed algorithms' correctness rests on simmpi honouring MPI's
ordering and matching semantics under load — these tests hammer those
guarantees harder than the happy-path unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.backends.thread import run_mpi

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMessageStorm:
    def test_many_messages_preserve_order(self):
        def main(comm):
            n_msgs = 500
            if comm.rank == 0:
                for i in range(n_msgs):
                    comm.send(i, dest=1, tag=i % 7)
                return None
            got = {tag: [] for tag in range(7)}
            for i in range(n_msgs):
                tag = i % 7
                got[tag].append(comm.recv(source=0, tag=tag))
            return got

        result = run_mpi(2, main)[1]
        for tag, values in result.items():
            assert values == sorted(values), f"tag {tag} out of order"

    def test_all_pairs_exchange(self):
        def main(comm):
            for dst in range(comm.size):
                if dst != comm.rank:
                    comm.send((comm.rank, dst), dest=dst, tag=3)
            seen = []
            for src in range(comm.size):
                if src != comm.rank:
                    seen.append(comm.recv(source=src, tag=3))
            return sorted(seen)

        results = run_mpi(6, main)
        for rank, seen in enumerate(results):
            assert seen == sorted(
                (src, rank) for src in range(6) if src != rank
            )

    def test_repeated_collectives_do_not_cross(self):
        def main(comm):
            out = []
            for round_no in range(30):
                out.append(comm.allreduce(comm.rank * 100 + round_no, op=max))
            return out

        results = run_mpi(4, main)
        expected = [300 + r for r in range(30)]
        assert all(r == expected for r in results)

    def test_interleaved_p2p_and_collectives(self):
        def main(comm):
            partner = comm.rank ^ 1
            comm.send(f"hello-{comm.rank}", dest=partner, tag=9)
            total = comm.allreduce(1)
            msg = comm.recv(source=partner, tag=9)
            comm.barrier()
            return (total, msg)

        results = run_mpi(4, main)
        for rank, (total, msg) in enumerate(results):
            assert total == 4
            assert msg == f"hello-{rank ^ 1}"

    def test_large_numpy_payload(self):
        def main(comm):
            data = np.arange(200_000, dtype=np.float64) if comm.rank == 0 else None
            got = comm.bcast(data, root=0)
            return float(got.sum())

        results = run_mpi(3, main)
        expected = float(np.arange(200_000, dtype=np.float64).sum())
        assert results == [expected] * 3


class TestCollectiveProperties:
    @_SETTINGS
    @given(
        p=st.integers(1, 6),
        values=st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
    )
    def test_allreduce_equals_python_sum(self, p, values):
        def main(comm):
            return comm.allreduce(values[comm.rank])

        expected = sum(values[:p])
        assert run_mpi(p, main) == [expected] * p

    @_SETTINGS
    @given(p=st.integers(1, 6), root=st.integers(0, 5))
    def test_gather_scatter_roundtrip(self, p, root):
        root = root % p

        def main(comm):
            gathered = comm.gather(comm.rank * 2, root=root)
            return comm.scatter(gathered, root=root)

        assert run_mpi(p, main) == [r * 2 for r in range(p)]

    @_SETTINGS
    @given(p=st.integers(2, 6))
    def test_alltoall_is_transpose(self, p):
        def main(comm):
            objs = [comm.rank * 10 + dst for dst in range(comm.size)]
            return comm.alltoall(objs)

        results = run_mpi(p, main)
        for dst in range(p):
            assert results[dst] == [src * 10 + dst for src in range(p)]


class TestFailureInjection:
    def test_crash_during_collective_reported(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("injected fault")
            # peers block in the collective; the launcher must still
            # surface rank 1's failure instead of hanging
            try:
                comm.barrier()
            except Exception:
                pass
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_mpi(3, main)

    def test_lowest_failing_rank_reported(self):
        def main(comm):
            if comm.rank in (1, 3):
                raise ValueError(f"fault {comm.rank}")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_mpi(4, main)
