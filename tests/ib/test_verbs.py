"""Tests for the InfiniBand verbs and fabric model."""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.ib import RemoteBuffer
from repro.sim import SimulationError


@pytest.fixture
def cluster():
    return Cluster(3)


def run(cluster, gen):
    return cluster.env.run(cluster.env.process(gen))


class TestRegistration:
    def test_register_host_buffer(self, cluster):
        node = cluster.nodes[0]
        buf = node.malloc_host(1024)
        rb = node.hca.register(buf)
        assert rb == RemoteBuffer(0, buf.offset, 1024)

    def test_register_device_buffer_rejected(self, cluster):
        node = cluster.nodes[0]
        dbuf = node.gpu.malloc(1024)
        with pytest.raises(ValueError):
            node.hca.register(dbuf)

    def test_register_foreign_buffer_rejected(self, cluster):
        buf = cluster.nodes[1].malloc_host(64)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.register(buf)

    def test_resolve_roundtrip(self, cluster):
        node = cluster.nodes[1]
        buf = node.malloc_host(256)
        rb = node.hca.register(buf)
        back = node.hca.resolve(rb)
        assert back.offset == buf.offset and back.nbytes == 256

    def test_resolve_wrong_node_rejected(self, cluster):
        buf = cluster.nodes[1].malloc_host(64)
        rb = cluster.nodes[1].hca.register(buf)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.resolve(rb)

    def test_remote_buffer_sub_window(self):
        rb = RemoteBuffer(2, 1000, 100)
        sub = rb.sub(40, 20)
        assert sub == RemoteBuffer(2, 1040, 20)
        with pytest.raises(ValueError):
            rb.sub(90, 20)


class TestRdmaWrite:
    def test_moves_bytes_to_remote_memory(self, cluster):
        src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
        src = src_node.malloc_host(512)
        dst = dst_node.malloc_host(512)
        payload = np.arange(512, dtype=np.uint8)
        src.fill_from(payload)
        rb = dst_node.hca.register(dst)

        def program():
            yield src_node.hca.rdma_write(src, rb)
            # Local completion precedes remote visibility by one wire
            # latency; wait it out before checking the target memory.
            yield cluster.env.timeout(cluster.cfg.net_latency * 1.01)

        run(cluster, program())
        assert np.array_equal(dst.view(), payload)

    def test_takes_modeled_time(self, cluster):
        """Local completion fires at TX completion: post overhead plus the
        wire-streaming time, *without* the one-way propagation latency
        (which only delays remote visibility)."""
        cfg = cluster.cfg
        n = 1 << 20
        src = cluster.nodes[0].malloc_host(n)
        dst = cluster.nodes[1].malloc_host(n)
        rb = cluster.nodes[1].hca.register(dst)

        def program():
            yield cluster.nodes[0].hca.rdma_write(src, rb)
            return cluster.env.now

        t = run(cluster, program())
        expected = cfg.net_post_overhead + n / cfg.net_bandwidth
        assert t == pytest.approx(expected, rel=0.001)

    def test_remote_visibility_one_latency_after_completion(self, cluster):
        """The written bytes land at the target one wire latency after the
        sender's local completion."""
        cfg = cluster.cfg
        n = 4096
        src = cluster.nodes[0].malloc_host(n)
        src.view()[:] = 0xA7
        dst = cluster.nodes[1].malloc_host(n)
        rb = cluster.nodes[1].hca.register(dst)
        env = cluster.env

        def program():
            done = cluster.nodes[0].hca.rdma_write(src, rb)
            yield done
            at_completion = int(dst.view()[0])
            yield env.timeout(cfg.net_latency * 1.01)
            return at_completion, int(dst.view()[0])

        before, after = run(cluster, program())
        assert before == 0  # not yet visible at local completion
        assert after == 0xA7

    def test_size_mismatch_rejected(self, cluster):
        src = cluster.nodes[0].malloc_host(100)
        dst = cluster.nodes[1].malloc_host(200)
        rb = cluster.nodes[1].hca.register(dst)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.rdma_write(src, rb)

    def test_device_source_rejected(self, cluster):
        src = cluster.nodes[0].gpu.malloc(64)
        dst = cluster.nodes[1].malloc_host(64)
        rb = cluster.nodes[1].hca.register(dst)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.rdma_write(src, rb)

    def test_tx_serializes_concurrent_writes(self, cluster):
        """Two large writes from one node share the TX engine."""
        cfg = cluster.cfg
        n = 1 << 22
        srcs = [cluster.nodes[0].malloc_host(n) for _ in range(2)]
        dsts = [cluster.nodes[i + 1].malloc_host(n) for i in range(2)]
        rbs = [cluster.nodes[i + 1].hca.register(dsts[i]) for i in range(2)]

        def program():
            e1 = cluster.nodes[0].hca.rdma_write(srcs[0], rbs[0])
            e2 = cluster.nodes[0].hca.rdma_write(srcs[1], rbs[1])
            yield e1 & e2
            return cluster.env.now

        t = run(cluster, program())
        one = n / cfg.net_bandwidth
        assert t > 2 * one  # serialized, not parallel


def collect(hca):
    """Attach a sink to ``hca`` that records ``(time, src_node, payload)``."""
    got = []
    hca.control_sink = lambda src, payload: got.append(
        (hca.env.now, src, payload)
    )
    return got


class TestControlMessages:
    def test_delivered_to_remote_sink(self, cluster):
        sinks = [collect(node.hca) for node in cluster.nodes]

        def sender():
            yield cluster.nodes[0].hca.send_control(1, {"type": "RTS", "tag": 7})

        run(cluster, sender())
        cluster.env.run()
        assert sinks[0] == [] and sinks[2] == []
        [(_, src, payload)] = sinks[1]
        assert src == 0
        assert payload == {"type": "RTS", "tag": 7}

    def test_pairwise_ordering(self, cluster):
        """Messages between one pair arrive in send order (RC semantics)."""
        got = collect(cluster.nodes[1].hca)

        def sender():
            for i in range(5):
                yield cluster.nodes[0].hca.send_control(1, i)

        run(cluster, sender())
        cluster.env.run()
        assert [payload for _, _, payload in got] == [0, 1, 2, 3, 4]

    def test_loopback_delivery(self, cluster):
        got = collect(cluster.nodes[0].hca)
        cluster.nodes[0].hca.send_control(0, "self")
        cluster.env.run()
        assert [(src, payload) for _, src, payload in got] == [(0, "self")]

    def test_loopback_models_size(self, cluster):
        """Loopback pays a size-dependent host-memcpy term, so a large
        self-message takes measurably longer than a tiny one."""
        cfg = cluster.cfg
        got = collect(cluster.nodes[0].hca)

        cluster.nodes[0].hca.send_control(0, "self", size_bytes=64)
        cluster.env.run()
        t_small = got[-1][0]
        expected = cfg.net_control_overhead + 64 / cfg.host_memcpy_bandwidth
        assert t_small == pytest.approx(expected, rel=0.001)

        big = 1 << 20
        cluster.nodes[0].hca.send_control(0, "self", size_bytes=big)
        cluster.env.run()
        t_big = got[-1][0] - t_small
        assert t_big == pytest.approx(
            cfg.net_control_overhead + big / cfg.host_memcpy_bandwidth,
            rel=0.001,
        )

    def test_loopback_completes_before_delivery(self, cluster):
        """The send completes one queue hop before the sink runs, both at
        the same instant."""
        order = []
        hca = cluster.nodes[0].hca
        hca.control_sink = lambda src, payload: order.append(
            ("deliver", cluster.env.now)
        )
        done = hca.send_control(0, "self")
        done.callbacks.append(lambda _ev: order.append(("done", cluster.env.now)))
        cluster.env.run()
        assert [what for what, _ in order] == ["deliver", "done"]
        assert order[0][1] == order[1][1]

    def test_control_message_latency_is_microseconds(self, cluster):
        got = collect(cluster.nodes[1].hca)

        def sender():
            yield cluster.nodes[0].hca.send_control(1, "ping")

        run(cluster, sender())
        cluster.env.run()
        [(t, _, _)] = got
        assert 1e-6 < t < 10e-6

    def test_rdma_then_finish_message_ordering(self, cluster):
        """The paper's correctness requirement: a FIN control message sent
        after RDMA local completion must observe the data at the receiver."""
        src = cluster.nodes[0].malloc_host(4096)
        src.view()[:] = 0x5A
        dst = cluster.nodes[1].malloc_host(4096)
        rb = cluster.nodes[1].hca.register(dst)
        seen = []
        # Data must already be visible when the FIN is handled.
        cluster.nodes[1].hca.control_sink = lambda src_node, payload: seen.append(
            (payload, int(dst.view()[0]))
        )

        def sender():
            yield cluster.nodes[0].hca.rdma_write(src, rb)
            yield cluster.nodes[0].hca.send_control(1, "FIN")

        run(cluster, sender())
        cluster.env.run()
        assert seen == [("FIN", 0x5A)]

    def test_landing_without_sink_raises(self, cluster):
        cluster.nodes[0].hca.send_control(1, {"type": "rts", "dst_rank": 4})
        with pytest.raises(SimulationError, match="node 1") as info:
            cluster.env.run()
        assert "rank 4" in str(info.value)

    def test_loopback_without_sink_raises(self, cluster):
        cluster.nodes[2].hca.send_control(2, {"type": "cts", "dst_rank": 5})
        with pytest.raises(SimulationError, match="node 2") as info:
            cluster.env.run()
        assert "rank 5" in str(info.value)
