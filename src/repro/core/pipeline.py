"""MV2-GPU-NC: the pipelined GPU-aware transfer engine (Section IV).

This module implements the paper's contribution: MPI point-to-point
transfers whose source and/or destination buffers live in GPU device
memory, with datatype processing offloaded to the GPU and every stage
pipelined at chunk (64 KB) granularity:

.. code-block:: text

   sender GPU          sender host        wire        receiver host   receiver GPU
   D2D nc2c (pack) ->  D2H c2c (vbuf) ->  RDMA  ->    H2D c2c     ->  D2D c2nc (unpack)
     exec engine        D2H engine       HCA TX        H2D engine      exec engine

Each chunk flows through the five stages independently: a send runs one
flow object (:class:`GpuSendFlow`) holding one small chunk record per
chunk, each advanced by callbacks on the events its stages complete, and
a receive runs one :class:`GpuRecvFlow` that starts a drain record per
arriving FIN. FIFO streams and the hardware engine resources provide
exactly the overlap structure of Figure 3. Contiguous device buffers skip
the pack/unpack stages and reduce to the three-stage pipeline of the
earlier MVAPICH2-GPU work the paper builds on.

The flows extend :mod:`repro.mpi.protocol`'s rendezvous flows: same
RTS/CTS/FIN wire protocol and the same shared granter, so any combination
of host/device source and destination works -- including the mixed cases
(host->device, device->host). Each flow keeps the same-instant hops of the
generator processes it replaced (see :func:`repro.mpi.protocol.hop`), so
the schedule is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..hw.config import CopyKind
from ..mpi import protocol as _proto
from ..perf.stats import PERF
from ..mpi.datatype import Datatype, SegmentList
from ..mpi.pack import pack_range_bytes, unpack_range_from
from ..mpi.protocol import Drive, hop, vbuf_then, wait, write_then
from ..mpi.request import Request
from ..mpi.status import MpiError, Status
from ..sim import Event
from .backends import BACKENDS
from .config import GpuNcConfig
from .gpu_pack import gpu_unpack_chunk
from .staging import TbufPool

if TYPE_CHECKING:  # pragma: no cover
    from .backends import TransferBackend
    from ..cuda.runtime import CudaContext
    from ..cuda.stream import Stream
    from ..hw.memory import BufferPtr
    from ..mpi.endpoint import Endpoint
    from ..mpi.matching import Envelope, PostedRecv
    from ..mpi.world import MpiWorld

__all__ = ["GpuNcEngine", "LayoutPlan"]


@dataclass(frozen=True)
class LayoutPlan:
    """How ``count`` elements of a datatype map onto a buffer."""

    #: "contig" (single run; staging copies go straight to/from the user
    #: buffer) or "strided" (needs pack/unpack).
    kind: str
    #: Buffer offset of packed byte 0 (contig only).
    base_offset: int
    total_bytes: int

    @classmethod
    def of(cls, dtype: Datatype, count: int) -> "LayoutPlan":
        segs = dtype.segments_for_count(count)
        total = dtype.size * count
        if segs.count <= 1:
            base = int(segs.offsets[0]) if segs.count else 0
            return cls("contig", base, total)
        return cls("strided", 0, total)


from types import SimpleNamespace


class _EndpointResources(SimpleNamespace):
    """Per-endpoint streams and device staging pool (lazily created)."""


class GpuNcEngine:
    """The GPU-aware transfer engine installed on every endpoint."""

    def __init__(self, world: "MpiWorld", config: Optional[GpuNcConfig] = None):
        self.world = world
        self.config = config if config is not None else GpuNcConfig()
        self._resources: Dict[int, _EndpointResources] = {}
        #: Resolved tuning table (or None = untuned, bit-identical engine).
        self.tuning = getattr(world, "tuning", None)
        # Device staging must fit the largest chunk the table may pick;
        # without a table this is exactly the configured chunk size, so
        # pool geometry (and therefore every trace) is unchanged.
        self._staging_bytes = self.config.chunk_bytes
        if self.tuning is not None:
            self._staging_bytes = self.tuning.max_chunk_bytes(
                floor=self.config.chunk_bytes
            )

    # -- plumbing -----------------------------------------------------------------
    def resources(self, endpoint: "Endpoint") -> _EndpointResources:
        res = self._resources.get(endpoint.rank)
        if res is None:
            cuda = endpoint.cuda
            res = _EndpointResources(
                pack=cuda.stream(f"rank{endpoint.rank}.pack"),
                d2h=cuda.stream(f"rank{endpoint.rank}.d2h"),
                h2d=cuda.stream(f"rank{endpoint.rank}.h2d"),
                unpack=cuda.stream(f"rank{endpoint.rank}.unpack"),
                tbufs=TbufPool(cuda, self._staging_bytes, self.config.tbuf_chunks),
            )
            self._resources[endpoint.rank] = res
            endpoint.stats.tbufs = res.tbufs
        return res

    def _chunking(self, total: int, granted: Optional[int] = None) -> tuple:
        """Chunk size and count for a ``total``-byte transfer.

        ``granted`` is the peer-dictated chunk size (the RTS
        ``chunk_pref``); zero/None mean "no preference" and fall back to
        the engine's configured block size. Both sides of a transfer must
        derive the same ``(chunk, nchunks)`` from the same inputs -- the
        chunk size is part of the transfer-plan cache key, so an
        inconsistency would compile mismatched plans for one message (and
        trip the CTS chunk-size check). All chunk geometry used by the
        engine comes from this one method.
        """
        chunk = granted if granted else self.config.chunk_bytes
        nchunks = max(1, math.ceil(total / chunk)) if total else 1
        return chunk, nchunks

    def _transfer_choice(self, endpoint, dtype, count: int, total: int,
                         pool=None, ctx=None):
        """The tuning table's ``(backend, chunk)`` choice, or None.

        None (no table, or no entry for this layout class) keeps the
        static ``config.chunk_bytes`` and the default backend -- the
        untuned engine, bit-identical to pre-tuning behaviour. A tuned
        chunk preference is clamped to the staging capacity actually
        allocated on *both* sides: tbuf chunk size, this endpoint's vbuf
        pool, and the peer's vbuf size when the world recorded it
        (``endpoint.peer_vbuf_bytes``) -- the receiver hard-errors on an
        RTS chunk that exceeds its pool, so the clamp must see both ends.
        ``ctx`` is the request's collective context (None for p2p).
        """
        if self.tuning is None:
            return None
        from ..tune.table import tuned_transfer_choice

        pool = pool if pool is not None else endpoint.send_vbufs
        cap = min(self._staging_bytes, pool.buf_bytes)
        peer = getattr(endpoint, "peer_vbuf_bytes", None)
        if peer:
            cap = min(cap, peer)
        return tuned_transfer_choice(
            self.tuning, dtype, count, total, cap,
            memo=getattr(endpoint, "tune_memo", None), ctx=ctx,
        )

    def _backend_for(self, choice) -> "TransferBackend":
        """Resolve the strided-chunk backend for one transfer.

        An explicit ``config.backend`` always wins (ablations, the
        conformance sweep). ``"auto"`` follows the offload switch and
        then the table's per-bucket choice; without either, the GPU-pack
        pipeline -- the engine's historical single path.
        """
        if self.config.backend != "auto":
            return BACKENDS[self.config.backend]
        if not self.config.use_gpu_offload:
            return BACKENDS["host"]
        if choice is not None and choice.backend in BACKENDS:
            return BACKENDS[choice.backend]
        return BACKENDS["gpu"]

    # ------------------------------------------------------------------------
    # Entry points: each starts one flow
    # ------------------------------------------------------------------------
    def isend_device(
        self,
        endpoint: "Endpoint",
        envelope: "Envelope",
        buf: "BufferPtr",
        count: int,
        dtype: Datatype,
        req: Request,
    ) -> None:
        """Entry point for sends whose buffer is in device memory."""
        if endpoint.cuda.node.find_gpu(buf) is not endpoint.cuda.gpu:
            raise MpiError("send buffer lives on a GPU not bound to this rank")
        if envelope.size_bytes == 0:
            _proto.EagerSend(endpoint, envelope, buf, count, dtype, req)
            return
        GpuSendFlow(self, endpoint, envelope, buf, count, dtype, req)

    def rdv_recv_device(
        self, endpoint: "Endpoint", posted: "PostedRecv", rts
    ) -> None:
        """Entry point for rendezvous receives into device memory."""
        GpuRecvFlow(self, endpoint, posted, rts)

    def deliver_eager_device(
        self, endpoint: "Endpoint", req: Request, data: np.ndarray, status: Status
    ) -> None:
        """Entry point for eager payloads matched to a device receive."""
        _EagerToDevice(self, endpoint, req, data, status)

    def tbuf_then(self, endpoint, res, then) -> None:
        """Acquire a device staging chunk, then ``then(result)``; the tbuf
        is ``result._value``, None when the recovery layer degraded it."""
        rec = endpoint.recovery
        if rec is None or not rec.degrade_enabled:
            wait(res.tbufs.acquire(), then)
        else:
            Drive(self._acquire_tbuf(endpoint, res), then)

    def _acquire_tbuf(self, endpoint, res):
        """Acquire a device staging chunk; None = degrade (a generator;
        armed runs with degradation enabled only).

        A tbuf that cannot be had within ``staging_timeout`` degrades this
        chunk from the GPU-offload path to the host-style strided-PCIe path
        instead of blocking the pipeline indefinitely.
        """
        rec = endpoint.recovery
        env = endpoint.env
        get = res.tbufs.acquire()
        yield env.any_of([get, env.timeout(rec.staging_timeout)])
        if get.processed:
            return get.value
        res.tbufs.cancel(get)
        PERF.bump("degrade_to_host")
        endpoint.stats.degrades += 1
        endpoint.tracer.record_fault(
            env.now, "recovery:degrade", src=endpoint.node.node_id,
            rank=endpoint.rank,
        )
        return None

    def _strided_pcie_chunk(
        self, endpoint, stream, kind, user_buf, dtype, count, lo, hi, staging, i
    ) -> Event:
        """No-offload fallback: move a strided chunk across PCIe directly."""
        cfg = endpoint.cfg
        segs = dtype.segments_for_range(count, lo, hi)
        duration = strided_pcie_cost(cfg, segs)
        if kind is CopyKind.D2H:
            def apply():
                data = pack_range_bytes(user_buf, dtype, count, lo, hi)
                staging.view()[: data.nbytes] = data
        else:
            def apply():
                unpack_range_from(staging, dtype, count, user_buf, lo, hi)
        engine = endpoint.cuda.gpu.engine_for(kind)
        return stream.enqueue(engine, duration, apply, label=f"pcie-strided[{i}]")


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

class GpuSendFlow(_proto.SendFlow):
    """Sender side of one device-buffer rendezvous.

    After the RTS every chunk runs its stages concurrently (a
    :class:`_SendChunk` each): stage into a send vbuf -- a D2H straight out
    of a contiguous buffer, or the selected backend's strided stages --,
    wait for the chunk's grant, RDMA-write, post its FIN. Each chunk ends
    with a completion hop, and the last one fires a join hop that
    completes the send: the hops stand where the chunk processes'
    completion events and their ``AllOf`` fired.
    """

    __slots__ = ("engine", "buf", "count", "dtype", "plan", "chunk", "backend",
                 "res", "tplan", "costs", "_pending")

    def __init__(self, engine: GpuNcEngine, endpoint, envelope, buf, count,
                 dtype, req):
        self.engine = engine
        self.buf = buf
        self.count = count
        self.dtype = dtype
        super().__init__(endpoint, envelope, req)

    def _start(self, _event) -> None:
        engine, endpoint = self.engine, self.endpoint
        dtype, count, total = self.dtype, self.count, self.total
        self.plan = plan = LayoutPlan.of(dtype, count)
        # Contiguous sends deliberately bypass the table (no staging
        # geometry to tune); counted so tuned runs can see the traffic
        # the table never saw instead of it looking like lookup misses.
        choice = None
        if plan.kind == "strided":
            choice = engine._transfer_choice(
                endpoint, dtype, count, total, ctx=self.req.coll_ctx,
            )
        elif engine.tuning is not None:
            PERF.bump("tune_contig_bypass")
        chunk, self.nchunks = engine._chunking(
            total, granted=choice.chunk_bytes if choice is not None else None
        )
        self.chunk = chunk
        self.backend = backend = engine._backend_for(choice)
        self.res = engine.resources(endpoint)
        # Compiled replay path: strided offloaded sends walk a cached
        # TransferPlan -- precomputed chunk ranges, slices, labels, costs --
        # and fuse the pack + stage byte movement into one gather into the
        # vbuf. Identical schedule, half the functional copies. Only the
        # GPU-pack backend replays plans.
        self.tplan = self.costs = None
        if (
            plan.kind == "strided"
            and engine.config.use_gpu_offload and backend.wants_plans
        ):
            self.tplan = dtype.plan_for(count, chunk, self.buf.space, "wire")
            self.costs = self.tplan.costs_for(endpoint.cuda.cfg)
        self._open({
            "type": "rts",
            "ssn": None,
            "envelope": self.envelope,
            "total": total,
            "chunk_pref": chunk,
            "mode": "gpu",
        })

    def _rts_sent(self) -> None:
        rec = self.endpoint.recovery
        if rec is not None:
            # Packing starts immediately after the RTS, so the RTS-retry
            # loop runs as a monitor beside the chunks instead of gating
            # them.
            self.env.spawn(_proto.await_cts(self.endpoint, self, self.rts, rec),
                           name="cts-monitor")
        self._pending = self.nchunks
        for i in range(self.nchunks):
            _SendChunk(self, i)

    def _chunk_done(self, _event) -> None:
        self._pending -= 1
        if self._pending == 0:
            hop(self.env, self._joined)  # the join hop

    def _joined(self, _event) -> None:
        self._finish("gpu")


class GpuRecvFlow(_proto.RecvFlow):
    """Receiver side of a rendezvous into device memory.

    Grants staging vbufs through the shared granter and drains each chunk
    (a :class:`_DrainChunk`) as its FIN arrives: an H2D into a contiguous
    buffer, or the drain backend's strided stages.
    """

    __slots__ = ("engine", "plan", "res", "backend", "rplan", "rcosts")

    def __init__(self, engine: GpuNcEngine, endpoint, posted, rts):
        self.engine = engine
        super().__init__(endpoint, posted, rts)

    def _start(self, _event) -> None:
        engine, endpoint, req = self.engine, self.endpoint, self.req
        total = self.rts.total
        chunk, _ = engine._chunking(total, granted=self.rts.chunk_pref or None)
        if chunk > endpoint.recv_vbufs.buf_bytes:
            raise MpiError(
                f"sender chunk {chunk} exceeds receiver vbuf "
                f"{endpoint.recv_vbufs.buf_bytes}"
            )
        self.res = engine.resources(endpoint)
        self.plan = plan = LayoutPlan.of(req.datatype, req.count)
        # The receiver resolves its drain backend locally from its own
        # datatype and table (the RTS wire format is unchanged); the
        # chunk size stays whatever the sender dictated. Contiguous
        # receives never consult the table -- they have no strided drain.
        choice = None
        if plan.kind == "strided":
            choice = engine._transfer_choice(
                endpoint, req.datatype, req.count, total,
                pool=endpoint.recv_vbufs, ctx=req.coll_ctx,
            )
        self.backend = backend = engine._backend_for(choice)
        # Compiled replay (mirror of the send side). A posted receive may
        # be larger than the incoming message; plans describe whole
        # datatype instances, so partial-size messages keep the ad-hoc
        # path.
        self.rplan = self.rcosts = None
        if (
            plan.kind == "strided"
            and engine.config.use_gpu_offload and backend.wants_plans
            and total == req.datatype.size * req.count
        ):
            self.rplan = req.datatype.plan_for(
                req.count, chunk, "wire", req.buf.space
            )
            self.rcosts = self.rplan.costs_for(endpoint.cuda.cfg)
        self._open(chunk, staged=True)
        hop(self.env, self._grant_start)
        wait(self.done, self._completed)

    def fin(self, index: int) -> None:
        _DrainChunk(self, index)


class _SendChunk(_proto.Chunk):
    """One send chunk: stage into a vbuf, await the grant, write, FIN."""

    __slots__ = ("tbuf",)

    def _start(self, _event) -> None:
        flow = self.flow
        self.lo = lo = self.i * flow.chunk
        self.hi = min(lo + flow.chunk, flow.total)
        if flow.plan.kind == "contig":
            # Three-stage pipeline of the earlier MVAPICH2-GPU design: D2H
            # straight from the user buffer.
            vbuf_then(flow.endpoint, flow.endpoint.send_vbufs,
                      self.on(_SendChunk._contig_vbuf))
        else:
            # Strided chunk: the selected transfer backend (GPU-pack
            # pipeline, strided-PCIe host path, or NIC offload) runs its
            # stages on this record and hands back the filled vbuf.
            PERF.bump(f"backend_{flow.backend.name}_chunks")
            flow.backend.send_chunk(self)

    def _contig_vbuf(self, got) -> None:
        flow = self.flow
        n = self.hi - self.lo
        self.vbuf = vbuf = got._value
        wait(
            flow.endpoint.cuda.memcpy_async(
                vbuf.sub(0, n), flow.buf.sub(flow.plan.base_offset + self.lo, n),
                stream=flow.res.d2h, label=f"d2h[{self.i}]",
            ),
            self.on(_SendChunk._copied),
        )

    def _copied(self, _event) -> None:
        self.staged(self.vbuf)

    def staged(self, vbuf) -> None:
        """Continuation of the staging stages: ``vbuf`` holds the bytes."""
        self.vbuf = vbuf
        self._await_grant(None)

    def _await_grant(self, _event) -> None:
        flow = self.flow
        if len(flow.grants) <= self.i:
            flow.grant_event.callbacks.append(self.on(_SendChunk._await_grant))
            return
        if flow.chunk_bytes != flow.chunk:
            raise MpiError(
                f"receiver granted {flow.chunk_bytes}-byte chunks but "
                f"the sender pipelined at {flow.chunk}; configure matching "
                "vbuf/chunk sizes on both worlds"
            )
        write_then(flow.endpoint, self.vbuf.sub(0, self.hi - self.lo),
                   flow.grants[self.i], self.on(_SendChunk._written))

    def _written(self, event) -> None:
        _proto._raise_failed(event)
        flow = self.flow
        endpoint = flow.endpoint
        if endpoint.recovery is not None:
            flow.fin_sent.add(self.i)
        wait(
            endpoint.post_control(
                flow.dst, {"type": "fin", "ssn": flow.ssn, "chunk": self.i}
            ),
            self.on(_SendChunk._fin_posted),
        )

    def _fin_posted(self, _event) -> None:
        flow = self.flow
        flow.endpoint.send_vbufs.release(self.vbuf)
        self.vbuf = None
        hop(flow.env, flow._chunk_done)  # the chunk's completion hop


class _DrainChunk(_proto.Chunk):
    """One receive chunk: H2D (+ unpack) out of its staging vbuf."""

    __slots__ = ("tbuf",)

    def _start(self, _event) -> None:
        flow = self.flow
        self.lo, self.hi = lo, hi = flow.chunk_range(self.i)
        self.vbuf = vbuf = flow.staging[self.i]
        if flow.plan.kind == "contig":
            n = hi - lo
            wait(
                flow.endpoint.cuda.memcpy_async(
                    flow.req.buf.sub(flow.plan.base_offset + lo, n),
                    vbuf.sub(0, n), stream=flow.res.h2d, label=f"h2d[{self.i}]",
                ),
                self.on(_DrainChunk._copied),
            )
        else:
            PERF.bump(f"backend_{flow.backend.name}_chunks")
            flow.backend.drain_chunk(self)

    def _copied(self, _event) -> None:
        self.flow.release_staging(self.i)
        self.drained()

    def drained(self) -> None:
        """Continuation of the drain stages: the chunk has fully landed."""
        self.vbuf = None
        self.flow.finish_chunk()


class _EagerToDevice:
    """An eager payload matched to a device receive: staged through host
    memory and copied (plus unpacked, for strided receives) chunk by
    chunk."""

    __slots__ = ("engine", "endpoint", "req", "data", "status", "res", "plan",
                 "tmp", "lo", "hi", "tbuf")

    def __init__(self, engine: GpuNcEngine, endpoint, req, data, status):
        self.engine = engine
        self.endpoint = endpoint
        self.req = req
        self.data = data
        self.status = status
        hop(endpoint.env, self._start)

    def _start(self, _event) -> None:
        endpoint = self.endpoint
        self.res = self.engine.resources(endpoint)
        self.plan = LayoutPlan.of(self.req.datatype, self.req.count)
        if self.data.nbytes == 0:
            self.req._complete(self.status)
            return
        self.tmp = endpoint.node.malloc_host(self.data.nbytes)
        self.tmp.view()[:] = self.data
        self.hi = 0
        self._next_chunk(None)

    def _next_chunk(self, _event) -> None:
        endpoint, req, res, tmp = self.endpoint, self.req, self.res, self.tmp
        total = self.data.nbytes
        lo = self.lo = self.hi
        if lo >= total:
            endpoint.node.free_host(tmp)
            self.tmp = None
            req._complete(self.status)
            return
        hi = self.hi = min(lo + self.engine.config.chunk_bytes, total)
        n = hi - lo
        if self.plan.kind == "contig":
            wait(endpoint.cuda.memcpy_async(
                req.buf.sub(self.plan.base_offset + lo, n), tmp.sub(lo, n),
                stream=res.h2d, label="eager-h2d",
            ), self._next_chunk)
        elif self.engine.config.use_gpu_offload:
            wait(res.tbufs.acquire(), self._stage)
        else:
            wait(self.engine._strided_pcie_chunk(
                endpoint, res.h2d, CopyKind.H2D, req.buf, req.datatype,
                req.count, lo, hi, tmp.sub(lo, n), 0,
            ), self._next_chunk)

    def _stage(self, got) -> None:
        self.tbuf = tbuf = got._value
        n = self.hi - self.lo
        wait(self.endpoint.cuda.memcpy_async(
            tbuf.sub(0, n), self.tmp.sub(self.lo, n),
            stream=self.res.h2d, label="eager-h2d",
        ), self._unpack)

    def _unpack(self, _event) -> None:
        req = self.req
        wait(gpu_unpack_chunk(
            self.endpoint.cuda, self.tbuf, req.datatype, req.count,
            self.lo, self.hi, req.buf, self.res.unpack,
        ), self._unpacked)

    def _unpacked(self, _event) -> None:
        self.res.tbufs.release(self.tbuf)
        self.tbuf = None
        self._next_chunk(None)


def strided_pcie_cost(cfg, segs: SegmentList) -> float:
    """Cost of moving an arbitrary segment list across PCIe directly.

    Uniform layouts use the exact 2-D law; irregular ones approximate the
    per-row DMA behaviour with the average spacing as the pitch.
    """
    uniform = segs.uniform()
    if uniform is not None:
        width, height, pitch = uniform
        return cfg.memcpy2d_time(CopyKind.D2H, width, height, pitch, width)
    nbytes = segs.total_bytes
    if segs.count <= 1:
        return cfg.memcpy_time(CopyKind.D2H, nbytes)
    lo, hi = segs.span()
    pitch_est = (hi - lo) // max(segs.count - 1, 1)
    return (
        cfg.pcie_copy_overhead
        + segs.count * (cfg.pcie_row_cost_nc2c + pitch_est * cfg.pcie_row_pitch_surcharge)
        + nbytes / cfg.pcie_bandwidth
    )
