"""Message flows must be freed by reference counting, not by the cycle
collector.

Every rendezvous and eager transfer runs as flow objects
(:mod:`repro.mpi.protocol`, :mod:`repro.core.pipeline`). A flow that
ends up in a reference cycle -- say, a stored bound method of itself --
lives until the next full collection, so a long run would carry every
finished message's state graph and its peak RSS would grow with the
collector's period. The run below makes one of each flow kind with the
collector off; afterwards the collector must find no flow or chunk
record among the unreachable objects.
"""

import gc

import numpy as np

from repro.core import pipeline
from repro.hw import Cluster
from repro.mpi import BYTE, Datatype, MpiWorld, protocol

FLOW_TYPES = (
    protocol.SendFlow, protocol.RecvFlow, protocol.EagerSend,
    protocol._EagerDeliver, protocol.Chunk, protocol.Drive,
    pipeline._EagerToDevice,
)


def _one_of_each_flow():
    """Device and host-staged rendezvous, eager, host -> device eager."""
    rows = 1 << 15  # 128 KiB packed: two 64 KiB chunks
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(2)

    def program(ctx):
        dev = ctx.cuda.malloc(rows * 8)
        host = ctx.node.malloc_host(rows * 8)
        small = ctx.node.malloc_host(256)
        small_dev = ctx.cuda.malloc(256)
        if ctx.rank == 0:
            dev.view()[:] = np.arange(rows * 8) % 251
            yield from ctx.comm.Send(dev, 1, vec, dest=1)
            yield from ctx.comm.Send(host, 1, vec, dest=1)
            yield from ctx.comm.Send(small, 256, BYTE, dest=1)
            yield from ctx.comm.Send(small, 256, BYTE, dest=1)
        else:
            yield from ctx.comm.Recv(dev, 1, vec, source=0)
            yield from ctx.comm.Recv(host, 1, vec, source=0)
            yield from ctx.comm.Recv(small, 256, BYTE, source=0)
            yield from ctx.comm.Recv(small_dev, 256, BYTE, source=0)

    MpiWorld(cluster).run(program)


def test_flows_leave_no_cyclic_garbage(monkeypatch):
    created = []
    for cls in FLOW_TYPES:
        real = cls.__init__

        def init(self, *args, _real=real, **kwargs):
            created.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _one_of_each_flow()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, FLOW_TYPES)
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    for kind in ("GpuSendFlow", "GpuRecvFlow", "_SendChunk", "_DrainChunk",
                 "HostSendFlow", "HostRecvFlow", "_HostDrain", "EagerSend",
                 "_EagerDeliver", "_EagerToDevice"):
        assert kind in created, f"the run made no {kind}"
    assert leaked == [], f"flow objects left to the cycle collector: {leaked}"
