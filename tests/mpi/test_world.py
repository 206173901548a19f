"""World construction, rank placement and intra-node communication."""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.mpi import BYTE, FLOAT, Datatype, MpiError, MpiWorld, run_world
from repro.sim import SimulationError


class TestPlacement:
    def test_default_one_rank_per_node(self):
        cluster = Cluster(4)
        world = MpiWorld(cluster)
        assert world.size == 4
        nodes = [ep.node.node_id for ep in world.endpoints]
        assert nodes == [0, 1, 2, 3]

    def test_two_ranks_per_node_round_robin(self):
        cluster = Cluster(2, gpus_per_node=2)
        world = MpiWorld(cluster, nprocs=4)
        placements = [
            (ep.node.node_id, ep.cuda.gpu.gpu_id) for ep in world.endpoints
        ]
        assert placements == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_distinct_gpus_for_co_resident_ranks(self):
        cluster = Cluster(1, gpus_per_node=2)
        world = MpiWorld(cluster, nprocs=2)
        g0 = world.endpoints[0].cuda.gpu
        g1 = world.endpoints[1].cuda.gpu
        assert g0 is not g1

    def test_zero_ranks_rejected(self):
        with pytest.raises(MpiError):
            MpiWorld(Cluster(1), nprocs=0)


class TestIntraNode:
    def test_host_messages_between_co_resident_ranks(self):
        cluster = Cluster(1, gpus_per_node=2)
        world = MpiWorld(cluster, nprocs=2)

        def program(ctx):
            buf = ctx.node.malloc_host(256)
            if ctx.rank == 0:
                buf.view()[:] = 0x5C
                yield from ctx.comm.Send(buf, 256, BYTE, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 256, BYTE, source=0)
                assert (buf.view() == 0x5C).all()

        world.run(program)

    def test_gpu_to_gpu_same_node(self):
        """Two GPUs on one node: the pipeline still stages through host
        memory and the loopback 'wire' (no peer-to-peer modeled, matching
        the 2011-era software)."""
        rows = 1 << 15
        vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
        cluster = Cluster(1, gpus_per_node=2)
        world = MpiWorld(cluster, nprocs=2)

        def program(ctx):
            buf = ctx.cuda.malloc(rows * 8)
            if ctx.rank == 0:
                pat = np.random.default_rng(3).integers(0, 256, rows * 8,
                                                        dtype=np.uint8)
                buf.fill_from(pat)
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return pat.reshape(rows, 8)[:, :4].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()

        sent, got = world.run(program)
        assert np.array_equal(sent, got)

    def test_mixed_intra_and_inter_node(self):
        """4 ranks over 2 nodes: ring exchange crosses both kinds of link."""
        cluster = Cluster(2, gpus_per_node=2)
        world = MpiWorld(cluster, nprocs=4)

        def program(ctx):
            sbuf = ctx.cuda.malloc(4096)
            rbuf = ctx.cuda.malloc(4096)
            sbuf.view()[:4] = ctx.rank + 1
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            yield from ctx.comm.Sendrecv(
                sbuf, 4096, BYTE, right, rbuf, 4096, BYTE, left
            )
            return int(rbuf.view()[0])

        assert world.run(program) == [4, 1, 2, 3]


class TestControlRouting:
    def test_message_for_unhosted_rank_raises(self):
        cluster = Cluster(2)
        world = MpiWorld(cluster, nprocs=4)
        # Node 1 hosts ranks 1 and 3.
        world.endpoints[0].hca.send_control(1, {"type": "eager", "dst_rank": 2})
        with pytest.raises(SimulationError, match="node 1") as info:
            cluster.env.run()
        assert "rank 2" in str(info.value)

    def test_unknown_message_type_raises(self):
        cluster = Cluster(2)
        world = MpiWorld(cluster)
        world.endpoints[0].post_control(1, {"type": "bogus"})
        with pytest.raises(MpiError, match="rank 1: no handler for 'bogus'"):
            cluster.env.run()

    def test_dispatch_starts_no_process(self):
        cluster = Cluster(2)
        before = cluster.env._eid
        MpiWorld(cluster, nprocs=4)
        assert cluster.env._eid == before


class TestRunControl:
    def test_deadlock_detection_with_until(self):
        def program(ctx):
            buf = ctx.node.malloc_host(4)
            # Nobody ever sends: this blocks forever.
            yield from ctx.comm.Recv(buf, 4, BYTE, source=0, tag=1)

        cluster = Cluster(2)
        world = MpiWorld(cluster)
        with pytest.raises(MpiError, match="deadlock"):
            world.run(program, until=1.0)

    def test_results_in_rank_order(self):
        def program(ctx):
            yield ctx.env.timeout((ctx.size - ctx.rank) * 1e-6)
            return ctx.rank * 10

        assert run_world(program, 4) == [0, 10, 20, 30]

    def test_exception_in_rank_program_propagates(self):
        def program(ctx):
            yield ctx.env.timeout(1e-6)
            if ctx.rank == 1:
                raise RuntimeError("rank 1 exploded")

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            run_world(program, 2)
