"""Pinned simulation oracles: the kernel's event order must not drift.

Each run below hashes the canonical trace (every engine interval and
every fault record) together with the final simulated clock. Each digest
was recorded before the kernel or transfer-engine work it guards; wall-clock work on the
event kernel, the hardware engines, control delivery or process
plumbing must reproduce them exactly. A changed digest means simulated
behaviour changed: either the change is a bug, or it is a deliberate
behaviour change that must re-pin these values and say why.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import StencilConfig
from repro.apps.stencil2d import _initial_global, _stencil_program
from repro.core import GpuNcConfig
from repro.core.backends import GpuPipelineBackend
from repro.core.config import RecoveryConfig
from repro.hw import Cluster, HardwareConfig
from repro.ib.faults import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.perf.stats import PERF
from repro.sim import Tracer


def _digest(cluster) -> str:
    blob = repr((cluster.tracer.canonical(), cluster.env.now))
    return hashlib.sha256(blob.encode()).hexdigest()


def _vector_transfer() -> str:
    """fig3-style pipelined transfer: a 1 MiB strided device vector."""
    rows = 1 << 18
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(2)

    def program(ctx):
        buf = ctx.cuda.malloc(rows * 8)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(rows * 8, dtype=np.uint64) % 251
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)

    MpiWorld(cluster).run(program)
    return _digest(cluster)


def _stencil(variant: str) -> str:
    """16-rank functional Stencil2D with an enabled tracer."""
    cfg = StencilConfig(4, 4, 12, 12, iterations=2, variant=variant)
    cluster = Cluster(cfg.nprocs, tracer=Tracer())
    MpiWorld(cluster, nprocs=cfg.nprocs).run(
        _stencil_program, cfg, _initial_global(cfg)
    )
    return _digest(cluster)


def _faulty_rendezvous() -> str:
    """A strided rendezvous under TX stall, control drop/delay/duplicate,
    then a one-sided Get whose RDMA read stalls in the responder's TX."""
    rows = 1 << 12
    span = rows * 8
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    plan = FaultPlan(specs=(
        FaultSpec("ctl", "drop", ctl_type="rts"),
        FaultSpec("ctl", "delay", ctl_type="cts", delay=120e-6),
        FaultSpec("ctl", "duplicate", ctl_type="fin"),
        FaultSpec("rdma_write", "stall", delay=40e-6),
        FaultSpec("rdma_read", "stall", delay=60e-6),
    ))
    cluster = Cluster(2, faults=plan)

    def program(ctx):
        window = ctx.node.malloc_host(4096)
        window.view()[:] = ctx.rank + 1
        win = yield from ctx.comm.Win_create(window)
        yield from win.Fence()
        buf = ctx.cuda.malloc(span)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 249
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
            got = ctx.node.malloc_host(4096)
            yield from win.Get(got, 4096, BYTE, target_rank=1)
            assert (got.view() == 2).all()
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
        yield from win.Fence()

    MpiWorld(cluster).run(program, until=1.0)
    assert cluster.tracer.faults, "the fault plan injected nothing"
    return _digest(cluster)


def _colocated_ranks() -> str:
    """Four ranks on two nodes: ranks 0 and 2 share node 0, 1 and 3 node 1.

    Rank 2 sends a strided device vector to rank 0 over the loopback
    control path (two endpoints behind one HCA) and rank 0 forwards it to
    rank 1. Rank 1 blocks in ``Probe(source=3)`` before rank 3's delayed
    host send is posted, so arrival signals fire with a waiter attached.
    """
    rows = 4096
    span = rows * 8
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(2, tracer=Tracer())

    def program(ctx):
        buf = ctx.cuda.malloc(span)
        if ctx.rank == 2:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 241
            yield from ctx.comm.Send(buf, 1, vec, dest=0)
        elif ctx.rank == 0:
            yield from ctx.comm.Recv(buf, 1, vec, source=2)
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        elif ctx.rank == 3:
            msg = ctx.node.malloc_host(64)
            msg.view()[:] = 7
            yield ctx.env.timeout(50e-6)
            yield from ctx.comm.Send(msg, 64, BYTE, dest=1)
        else:
            status = yield from ctx.comm.Probe(source=3)
            assert status.source == 3
            msg = ctx.node.malloc_host(64)
            yield from ctx.comm.Recv(msg, 64, BYTE, source=3)
            assert (msg.view() == 7).all()
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
            got = buf.view().reshape(rows, 8)[:, :4]
            want = (np.arange(span, dtype=np.uint64) % 241).astype(np.uint8)
            assert (got == want.reshape(rows, 8)[:, :4]).all()
        yield from ctx.comm.Barrier()

    MpiWorld(cluster, nprocs=4).run(program)
    return _digest(cluster)


def _ran(counters, before):
    """Assert each PERF counter in ``counters`` rose since ``before``."""
    after = PERF.snapshot()
    for name in counters:
        assert after.get(name, 0) > before.get(name, 0), f"{name} did not run"


def _strided_device(rows=1 << 20, gpu_config=None, recv_count=1,
                    recovery=None, ran=("backend_gpu_chunks",),
                    plans=True) -> str:
    """A strided device vector of ``rows`` 4-byte blocks, rank 0 -> 1.

    The default 4 MiB message is 64 chunks, more than the 32-chunk
    rendezvous window, so the receiver's granter refills from drained
    chunks. ``recv_count`` > 1 posts a receive larger than the message,
    which drains without a compiled plan. ``plans=False`` keeps the GPU
    pipeline off compiled plans altogether (the ad-hoc pack/unpack
    reference route) and asserts that no plan was compiled or served.
    """
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    span = rows * 8
    cluster = Cluster(2)
    world = MpiWorld(cluster, gpu_config=gpu_config, recovery=recovery)

    def program(ctx):
        if ctx.rank == 0:
            buf = ctx.cuda.malloc(span)
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 239
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            buf = ctx.cuda.malloc(span * recv_count)
            yield from ctx.comm.Recv(buf, recv_count, vec, source=0)
            got = buf.view()[:span].reshape(rows, 8)[:, :4]
            want = (np.arange(span, dtype=np.uint64) % 239).astype(np.uint8)
            assert (got == want.reshape(rows, 8)[:, :4]).all()

    before = PERF.snapshot()
    with pytest.MonkeyPatch.context() as patch:
        if not plans:
            patch.setattr(GpuPipelineBackend, "wants_plans", False)
        world.run(program, until=1.0)
    _ran(ran, before)
    if not plans:
        after = PERF.snapshot()
        for name in ("plan_cache_hit", "plan_cache_miss"):
            assert after.get(name, 0) == before.get(name, 0), f"{name} ran"
    return _digest(cluster)


def _strided_host_windowed() -> str:
    """A 4-chunk strided host rendezvous through a 2-chunk grant window,
    plus a contiguous host rendezvous (one zero-copy grant)."""
    rows = 1 << 16
    span = rows * 8
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cfg = HardwareConfig().with_overrides(rendezvous_window=2)
    cluster = Cluster(2, cfg=cfg)

    def program(ctx):
        buf = ctx.node.malloc_host(span)
        flat = ctx.node.malloc_host(1 << 16)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 233
            flat.view()[:] = 5
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
            yield from ctx.comm.Send(flat, 1 << 16, BYTE, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
            yield from ctx.comm.Recv(flat, 1 << 16, BYTE, source=0)
            got = buf.view().reshape(rows, 8)[:, :4]
            want = (np.arange(span, dtype=np.uint64) % 233).astype(np.uint8)
            assert (got == want.reshape(rows, 8)[:, :4]).all()
            assert (flat.view() == 5).all()
            assert ctx.endpoint.recv_vbufs.peak_in_use == 2

    MpiWorld(cluster).run(program)
    return _digest(cluster)


def _eager_to_device(offload=True) -> str:
    """Host -> device eager messages: into a contiguous and a strided
    device receive, plus a zero-byte device send."""
    rows = 512
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(2)
    world = MpiWorld(cluster, gpu_config=GpuNcConfig(use_gpu_offload=offload))

    def program(ctx):
        flat = ctx.node.malloc_host(4096)
        packed = ctx.node.malloc_host(rows * 4)
        dev = ctx.cuda.malloc(4096)
        strided = ctx.cuda.malloc(rows * 8)
        if ctx.rank == 0:
            flat.view()[:] = 3
            packed.view()[:] = np.arange(rows * 4) % 227
            yield from ctx.comm.Send(flat, 4096, BYTE, dest=1)
            yield from ctx.comm.Send(packed, rows * 4, BYTE, dest=1)
            yield from ctx.comm.Send(dev, 0, BYTE, dest=1)
        else:
            yield from ctx.comm.Recv(dev, 4096, BYTE, source=0)
            yield from ctx.comm.Recv(strided, 1, vec, source=0)
            yield from ctx.comm.Recv(dev, 0, BYTE, source=0)
            assert (dev.view() == 3).all()
            got = strided.view().reshape(rows, 8)[:, :4].reshape(-1)
            assert (got == np.arange(rows * 4) % 227).all()

    world.run(program)
    assert cluster.tracer.by_label("eager-h2d")
    assert bool(cluster.tracer.by_label("pcie-strided")) is not offload
    return _digest(cluster)


#: name -> (run, SHA-256 of repr((tracer.canonical(), env.now))).
PINNED = {
    "vector_1mib": (
        _vector_transfer,
        "14c58cdd937f70a85e3f1e8fef977a0e8f0ad7a50a11a6400eee5b4aa5f70691",
    ),
    "stencil16_mv2nc": (
        lambda: _stencil("mv2nc"),
        "3a7b4e2afd9fedff906ea85fa8e7511d62d32f0d864978a6d36d71268732fd51",
    ),
    "stencil16_def": (
        lambda: _stencil("def"),
        "b7113c53ed1fa13892553dee4767bce2fc975e96917257f67baab4880da548d1",
    ),
    "faulty_rendezvous": (
        _faulty_rendezvous,
        "c6d4b82e92abcc0e427e9e216adce875b394649ff129b6caf662b2b1b2d0cf73",
    ),
    "colocated_ranks": (
        _colocated_ranks,
        "4bac385ca6134eff4840e2de00bb22c6d33e96c1270314997a12be63ef4e99b5",
    ),
    # Transfer-engine flow paths the five runs above do not reach.
    "vector_4mib_refill": (
        _strided_device,
        "6ee934e7aec83481f49d5de0cdc5672afd10e254c17f0145801efc5873d942b0",
    ),
    "vector_4mib_host_backend": (
        lambda: _strided_device(gpu_config=GpuNcConfig(backend="host"),
                                ran=("backend_host_chunks",)),
        "8e99002ef7afba5774820812b490a304c8e8c6be9c72312308b862d75c9f11fc",
    ),
    "vector_4mib_nic_backend": (
        lambda: _strided_device(gpu_config=GpuNcConfig(backend="nic"),
                                ran=("backend_nic_chunks",)),
        "88ed3abe7e9b8f420a61d567cbecefb5d2061c7484d2be5697d9c8fb19319d0e",
    ),
    "vector_oversized_recv": (
        lambda: _strided_device(rows=1 << 16, recv_count=2),
        "1b74ccdc11512d5e841c58422e3dd930a18a3902814981149d3818c35138c9d4",
    ),
    "vector_no_plans": (
        lambda: _strided_device(rows=1 << 16, plans=False),
        "1b74ccdc11512d5e841c58422e3dd930a18a3902814981149d3818c35138c9d4",
    ),
    "host_rendezvous_window2": (
        _strided_host_windowed,
        "0b24a7989df002a3c4d1c64e95180abba2c1fcf315b27b04a8cd4bb75760dc1f",
    ),
    "eager_to_device": (
        _eager_to_device,
        "7bc96c9b2927bd05c37ebe97562fb1fe5bc89113bed3ca3cf8fab3c991d60b2c",
    ),
    "eager_to_device_no_offload": (
        lambda: _eager_to_device(offload=False),
        "2d6d632e0ddbd7938ee4840e0c972545cd871cff75dfbe711b7dea4c2c99724c",
    ),
    "degraded_tbufs": (
        lambda: _strided_device(
            rows=1 << 15, gpu_config=GpuNcConfig(tbuf_chunks=1),
            recovery=RecoveryConfig(staging_timeout=1e-6),
            ran=("degrade_to_host", "backend_gpu_chunks"),
        ),
        "d73a3ab8a452e70d7594e9fd21dbe59b417574a15468998a599daa21916fbad1",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digest(name):
    run, expected = PINNED[name]
    assert run() == expected
