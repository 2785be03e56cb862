"""Tests for the simulated MPI substrate."""

import numpy as np
import pytest

from repro.distributed.backends.thread import ThreadCommunicator as Communicator, World, run_mpi


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        results = run_mpi(2, main)
        assert results[1] == {"x": 42}

    def test_fifo_per_channel(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(10)]

        assert run_mpi(2, main)[1] == list(range(10))

    def test_tags_do_not_cross(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # receive in the opposite order of sending
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert run_mpi(2, main)[1] == ("a", "b")

    def test_numpy_payload(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), dest=1)
                return None
            return comm.recv(source=0)

        np.testing.assert_array_equal(run_mpi(2, main)[1], np.arange(5))

    def test_byte_accounting(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000), dest=1)
            else:
                comm.recv(source=0)
            return comm.bytes_sent

        sent = run_mpi(2, main)
        assert sent[0] > 8000  # 1000 doubles
        assert sent[1] == 0

    def test_invalid_rank_targets(self):
        world = World(2)
        comm = Communicator(world, 0)
        with pytest.raises(ValueError, match="dest"):
            comm.send(1, dest=5)
        with pytest.raises(ValueError, match="source"):
            comm.recv(source=-1)


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_bcast(self, p):
        def main(comm):
            data = "payload" if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert run_mpi(p, main) == ["payload"] * p

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_gather(self, p):
        def main(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = run_mpi(p, main)
        assert results[0] == [r * 10 for r in range(p)]
        assert all(r is None for r in results[1:])

    def test_scatter(self):
        def main(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert run_mpi(3, main) == ["item0", "item1", "item2"]

    def test_scatter_wrong_length(self):
        def main(comm):
            objs = [1] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_mpi(2, main)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_allgather(self, p):
        def main(comm):
            return comm.allgather(comm.rank)

        assert run_mpi(p, main) == [list(range(p))] * p

    def test_allreduce_default_sum(self):
        def main(comm):
            return comm.allreduce(comm.rank + 1)

        assert run_mpi(4, main) == [10, 10, 10, 10]

    def test_allreduce_custom_op(self):
        def main(comm):
            return comm.allreduce(comm.rank, op=max)

        assert run_mpi(4, main) == [3, 3, 3, 3]

    def test_alltoall(self):
        def main(comm):
            objs = [(comm.rank, dst) for dst in range(comm.size)]
            return comm.alltoall(objs)

        results = run_mpi(3, main)
        for dst in range(3):
            assert results[dst] == [(src, dst) for src in range(3)]

    def test_barrier_completes(self):
        def main(comm):
            for _ in range(5):
                comm.barrier()
            return comm.rank

        assert run_mpi(4, main) == [0, 1, 2, 3]


class TestLauncher:
    def test_exception_propagates_with_rank(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            run_mpi(4, main)

    def test_extra_args_forwarded(self):
        def main(comm, a, b=0):
            return a + b + comm.rank

        assert run_mpi(2, main, 10, b=5) == [15, 16]

    def test_single_rank(self):
        assert run_mpi(1, lambda comm: comm.size) == [1]

    def test_invalid_world_size(self):
        with pytest.raises(ValueError, match="n_ranks"):
            run_mpi(0, lambda comm: None)
