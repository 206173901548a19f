"""Pinned simulation oracles: the kernel's event order must not drift.

Each run below hashes the canonical trace (every engine interval and
every fault record) together with the final simulated clock. Each digest
was recorded before the kernel work it guards; wall-clock work on the
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
from repro.hw import Cluster
from repro.ib.faults import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld
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
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digest(name):
    run, expected = PINNED[name]
    assert run() == expected
