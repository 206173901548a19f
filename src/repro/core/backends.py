"""Transfer backends: the pluggable strided-chunk movers behind the engine.

The engine of :mod:`repro.core.pipeline` historically hard-coded two ways
of moving a *strided* chunk between device memory and the host vbuf: the
paper's 5-stage GPU-pack pipeline and the strided-PCIe host fallback.
Di Girolamo et al. ("Network-Accelerated Non-Contiguous Memory
Transfers") show a third design point -- the NIC gathers the segments
itself via per-segment DMA descriptors, with no staging copies at all --
and, more importantly, that *which* path wins depends on the layout and
message size. This module makes the path a first-class, tunable choice:

``TransferBackend``
    The interface: a named pair of callback stages, ``send_chunk``
    (device buffer -> send vbuf) and ``drain_chunk`` (recv vbuf ->
    device buffer). Each takes the engine's chunk record, starts the
    chunk's backend work by waiting on exactly the events the engine
    code it was carved out of waited on, and ends by calling the chunk's
    continuation (``chunk.staged(vbuf)`` / ``chunk.drained()``). A
    backend adds *no* events of its own, so the default path stays
    schedule-identical to the pre-backend engine.

``GpuPipelineBackend``
    The paper's design: GPU pack kernel into a device tbuf, contiguous
    D2H into the vbuf (plan-replay fuses the two copies when compiled
    plans are on). Degrades to the host backend when the tbuf pool
    times out, exactly as before.

``HostStagedBackend``
    The pre-offload MVAPICH2 behaviour: a strided PCIe 2-D copy (one
    DMA transaction per row) straight between the user buffer and the
    vbuf.

``NicOffloadBackend``
    The HCA gathers/scatters the strided segments itself: one DMA
    descriptor per segment, rung through the descriptor ring in batches.
    No pack kernel, no tbuf -- the chunk's segments land directly in the
    vbuf (send) or the user buffer (drain), so the two device-side
    pipeline stages disappear and the cost is descriptor processing plus
    the raw PCIe byte time.

The module also carries the *modeled* per-chunk cost of each backend
(:func:`modeled_chunk_cost`) and the Hunold/Träff guideline guard
(:func:`guideline_backend`): a non-default backend may only be chosen
when its modeled cost does not exceed the default path's by more than
``GUIDELINE_TOLERANCE`` -- "tuned >= default", asserted mechanically.

NIC constants live here as module constants (not ``HardwareConfig``
fields) so the cluster-config hash -- and therefore the on-disk tuning
table identity -- is unchanged by their introduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..hw.config import CopyKind
from ..mpi.pack import pack_range_bytes, unpack_range_from
from ..mpi.protocol import vbuf_then, wait
from ..perf.stats import PERF

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.datatype import Datatype, SegmentList

__all__ = [
    "TransferBackend",
    "GpuPipelineBackend",
    "HostStagedBackend",
    "NicOffloadBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "NIC_RING_OVERHEAD",
    "NIC_DESC_COST",
    "NIC_MAX_DESCRIPTORS",
    "GUIDELINE_TOLERANCE",
    "nic_offload_cost",
    "modeled_chunk_cost",
    "guideline_backend",
]

#: Cost of ringing the HCA doorbell and draining one descriptor batch
#: through the ring (per batch of ``NIC_MAX_DESCRIPTORS``).
NIC_RING_OVERHEAD = 1.2e-6
#: Per-segment DMA descriptor processing time at the HCA (fetch, address
#: translation, completion). The dominant term for fine-grained layouts.
NIC_DESC_COST = 0.12e-6
#: Descriptor-ring capacity: segments are posted in batches of this many.
NIC_MAX_DESCRIPTORS = 256

#: Hunold/Träff slack: a non-default backend is eligible only while its
#: modeled cost stays within (1 + tolerance) of the default path's.
GUIDELINE_TOLERANCE = 0.10

#: The engine's historical path -- what ``backend="auto"`` resolves to
#: when no table entry says otherwise.
DEFAULT_BACKEND = "gpu"


def nic_offload_cost(cfg, segs: "SegmentList") -> float:
    """Modeled time for the HCA to gather/scatter ``segs`` over PCIe.

    One DMA descriptor per segment, posted in ring batches, plus the raw
    byte time at PCIe bandwidth. There is no pack kernel and no staging
    copy, so for wide segments this beats the 5-stage pipeline; for
    thousands of tiny segments the descriptor term dominates and loses
    badly -- exactly the crossover the chooser has to learn.
    """
    nseg = segs.count
    if nseg == 0:
        return cfg.pcie_copy_overhead
    batches = (nseg + NIC_MAX_DESCRIPTORS - 1) // NIC_MAX_DESCRIPTORS
    return (
        NIC_RING_OVERHEAD * batches
        + nseg * NIC_DESC_COST
        + segs.total_bytes / cfg.pcie_bandwidth
    )


class TransferBackend:
    """One way of moving a strided chunk between device memory and a vbuf.

    Subclasses implement two callback stages, both taking the engine's
    chunk record (``chunk.flow`` is the message's flow: engine, endpoint,
    resources, buffers, compiled plans). Each waits on exactly the events
    the engine code it was carved out of waited on -- every wait resumes a
    ``stage(chunk, event)`` method through ``chunk.on(stage)`` -- and ends
    by calling the chunk's continuation, so everything a backend schedules
    lands exactly as if it were written inline in the engine (which, for
    the gpu and host backends, it originally was).
    """

    #: Table/config identifier ("gpu", "host", "nic").
    name: str = "abstract"
    #: Whether the engine should compile transfer plans for this backend
    #: (only the GPU pipeline replays them).
    wants_plans: bool = False

    def send_chunk(self, chunk) -> None:
        """Move packed bytes ``[chunk.lo, chunk.hi)`` of the send buffer
        into a send vbuf, then call ``chunk.staged(vbuf)`` (the vbuf is
        still held: the chunk RDMA-writes and releases it)."""
        raise NotImplementedError

    def drain_chunk(self, chunk) -> None:
        """Drain recv vbuf ``chunk.vbuf`` into the posted receive buffer,
        calling ``chunk.flow.release_staging(chunk.i)`` once its bytes are
        consumed and ``chunk.drained()`` at the end."""
        raise NotImplementedError


class HostStagedBackend(TransferBackend):
    """Strided PCIe 2-D copies straight between user buffer and vbuf."""

    name = "host"
    wants_plans = False

    def send_chunk(self, chunk) -> None:
        vbuf_then(chunk.flow.endpoint, chunk.flow.endpoint.send_vbufs,
                  chunk.on(self._send_vbuf))

    def _send_vbuf(self, chunk, got) -> None:
        flow = chunk.flow
        chunk.vbuf = got._value
        wait(
            flow.engine._strided_pcie_chunk(
                flow.endpoint, flow.res.d2h, CopyKind.D2H, flow.buf, flow.dtype,
                flow.count, chunk.lo, chunk.hi, chunk.vbuf, chunk.i,
            ),
            chunk.on(_staged),
        )

    def drain_chunk(self, chunk) -> None:
        flow = chunk.flow
        req = flow.req
        wait(
            flow.engine._strided_pcie_chunk(
                flow.endpoint, flow.res.h2d, CopyKind.H2D, req.buf, req.datatype,
                req.count, chunk.lo, chunk.hi, chunk.vbuf, chunk.i,
            ),
            chunk.on(_drained),
        )


class GpuPipelineBackend(TransferBackend):
    """The paper's 5-stage pipeline: GPU pack -> tbuf -> contiguous D2H.

    Carries the engine's original strided-chunk stages, including plan
    replay and the recovery-layer degradation to the host backend when
    the tbuf pool times out.
    """

    name = "gpu"
    wants_plans = True

    def send_chunk(self, chunk) -> None:
        flow = chunk.flow
        flow.engine.tbuf_then(flow.endpoint, flow.res, chunk.on(self._send_tbuf))

    def _send_tbuf(self, chunk, got) -> None:
        from .gpu_pack import gpu_pack_chunk

        flow = chunk.flow
        tbuf = chunk.tbuf = got._value
        if tbuf is None:
            # The recovery layer degraded this chunk to the host-style
            # path when the tbuf pool timed out: strided PCIe 2-D copy
            # straight into the vbuf ("D2H nc2c", one DMA per row).
            BACKENDS["host"].send_chunk(chunk)
        elif flow.tplan is not None:
            # Plan replay. The tbuf is still the device-side flow control
            # token (same acquire/release points, so the schedule is
            # unchanged), but the gather lands straight in the vbuf at
            # D2H completion instead of staging through device memory
            # twice.
            cp = flow.tplan.chunks[chunk.i]
            wait(
                flow.res.pack.enqueue(
                    flow.endpoint.cuda.gpu.exec_engine,
                    flow.costs["pack"][chunk.i], None, label=cp.pack_label,
                ),
                chunk.on(self._replay_packed),
            )
        else:
            # The paper's design: pack on the GPU, contiguous D2H.
            wait(
                gpu_pack_chunk(
                    flow.endpoint.cuda, flow.buf, flow.dtype, flow.count,
                    chunk.lo, chunk.hi, tbuf, flow.res.pack,
                ),
                chunk.on(self._packed),
            )

    def _replay_packed(self, chunk, _event) -> None:
        vbuf_then(chunk.flow.endpoint, chunk.flow.endpoint.send_vbufs,
                  chunk.on(self._replay_vbuf))

    def _replay_vbuf(self, chunk, got) -> None:
        flow = chunk.flow
        buf = flow.buf
        cp = flow.tplan.chunks[chunk.i]
        vbuf = chunk.vbuf = got._value
        wait(
            flow.res.d2h.enqueue(
                flow.endpoint.cuda.gpu.engine_for(CopyKind.D2H),
                flow.costs["d2h"][chunk.i],
                lambda: cp.gather_into(buf, vbuf.view()),
                label=cp.d2h_label,
            ),
            chunk.on(_tbuf_done_staged),
        )

    def _packed(self, chunk, _event) -> None:
        vbuf_then(chunk.flow.endpoint, chunk.flow.endpoint.send_vbufs,
                  chunk.on(self._pack_vbuf))

    def _pack_vbuf(self, chunk, got) -> None:
        n = chunk.hi - chunk.lo
        vbuf = chunk.vbuf = got._value
        wait(
            chunk.flow.endpoint.cuda.memcpy_async(
                vbuf.sub(0, n), chunk.tbuf.sub(0, n),
                stream=chunk.flow.res.d2h, label=f"d2h[{chunk.i}]",
            ),
            chunk.on(_tbuf_done_staged),
        )

    def drain_chunk(self, chunk) -> None:
        flow = chunk.flow
        flow.engine.tbuf_then(flow.endpoint, flow.res, chunk.on(self._drain_tbuf))

    def _drain_tbuf(self, chunk, got) -> None:
        flow = chunk.flow
        req = flow.req
        tbuf = chunk.tbuf = got._value
        if tbuf is None:
            # Recovery-layer degradation: scatter straight out of the
            # vbuf over PCIe.
            BACKENDS["host"].drain_chunk(chunk)
        elif flow.rplan is not None:
            # Plan replay: the scatter into the user buffer is fused into
            # the H2D completion -- it must run before release_staging
            # recycles the vbuf. The unpack op then charges pure device
            # time with no byte movement left to do.
            cp = flow.rplan.chunks[chunk.i]
            vbuf = chunk.vbuf
            wait(
                flow.res.h2d.enqueue(
                    flow.endpoint.cuda.gpu.engine_for(CopyKind.H2D),
                    flow.rcosts["h2d"][chunk.i],
                    lambda: cp.scatter_from(vbuf.view(), req.buf),
                    label=cp.h2d_label,
                ),
                chunk.on(self._replay_landed),
            )
        else:
            n = chunk.hi - chunk.lo
            wait(
                flow.endpoint.cuda.memcpy_async(
                    tbuf.sub(0, n), chunk.vbuf.sub(0, n),
                    stream=flow.res.h2d, label=f"h2d[{chunk.i}]",
                ),
                chunk.on(self._landed),
            )

    def _replay_landed(self, chunk, _event) -> None:
        flow = chunk.flow
        flow.release_staging(chunk.i)
        wait(
            flow.res.unpack.enqueue(
                flow.endpoint.cuda.gpu.exec_engine, flow.rcosts["pack"][chunk.i],
                None, label=flow.rplan.chunks[chunk.i].unpack_label,
            ),
            chunk.on(_tbuf_done_drained),
        )

    def _landed(self, chunk, _event) -> None:
        from .gpu_pack import gpu_unpack_chunk

        # The vbuf is drained as soon as the H2D completes; the unpack
        # then runs entirely inside the device.
        flow = chunk.flow
        req = flow.req
        flow.release_staging(chunk.i)
        wait(
            gpu_unpack_chunk(
                flow.endpoint.cuda, chunk.tbuf, req.datatype, req.count,
                chunk.lo, chunk.hi, req.buf, flow.res.unpack,
            ),
            chunk.on(_tbuf_done_drained),
        )


class NicOffloadBackend(TransferBackend):
    """HCA-side gather/scatter via per-segment DMA descriptors.

    No pack kernel, no tbuf: the D2H (send) / H2D (drain) engine charges
    :func:`nic_offload_cost` for the chunk's segment list and the bytes
    land directly in the vbuf / user buffer. Two pipeline stages per
    side simply do not exist on this path.
    """

    name = "nic"
    wants_plans = False

    def send_chunk(self, chunk) -> None:
        vbuf_then(chunk.flow.endpoint, chunk.flow.endpoint.send_vbufs,
                  chunk.on(self._send_vbuf))

    def _send_vbuf(self, chunk, got) -> None:
        flow = chunk.flow
        buf, dtype, count = flow.buf, flow.dtype, flow.count
        lo, hi = chunk.lo, chunk.hi
        vbuf = chunk.vbuf = got._value
        segs = dtype.segments_for_range(count, lo, hi)
        PERF.bump("nic_descriptors", segs.count)

        def apply():
            data = pack_range_bytes(buf, dtype, count, lo, hi)
            vbuf.view()[: data.nbytes] = data

        wait(
            flow.res.d2h.enqueue(
                flow.endpoint.cuda.gpu.engine_for(CopyKind.D2H),
                nic_offload_cost(flow.endpoint.cfg, segs),
                apply, label=f"nic-gather[{chunk.i}]",
            ),
            chunk.on(_staged),
        )

    def drain_chunk(self, chunk) -> None:
        flow = chunk.flow
        req = flow.req
        lo, hi, vbuf = chunk.lo, chunk.hi, chunk.vbuf
        segs = req.datatype.segments_for_range(req.count, lo, hi)
        PERF.bump("nic_descriptors", segs.count)

        def apply():
            unpack_range_from(vbuf, req.datatype, req.count, req.buf, lo, hi)

        wait(
            flow.res.h2d.enqueue(
                flow.endpoint.cuda.gpu.engine_for(CopyKind.H2D),
                nic_offload_cost(flow.endpoint.cfg, segs),
                apply, label=f"nic-scatter[{chunk.i}]",
            ),
            chunk.on(_drained),
        )


# Shared final stages: hand the chunk back to the engine.
def _staged(chunk, _event) -> None:
    chunk.staged(chunk.vbuf)


def _drained(chunk, _event) -> None:
    chunk.flow.release_staging(chunk.i)
    chunk.drained()


def _tbuf_done_staged(chunk, _event) -> None:
    chunk.flow.res.tbufs.release(chunk.tbuf)
    chunk.tbuf = None
    chunk.staged(chunk.vbuf)


def _tbuf_done_drained(chunk, _event) -> None:
    chunk.flow.res.tbufs.release(chunk.tbuf)
    chunk.tbuf = None
    chunk.drained()


#: Singleton registry, keyed by backend name. Backends are stateless:
#: all per-transfer state lives on the chunk record and its flow.
BACKENDS: Dict[str, TransferBackend] = {
    b.name: b for b in (GpuPipelineBackend(), HostStagedBackend(),
                        NicOffloadBackend())
}
BACKEND_NAMES = tuple(sorted(BACKENDS))


def modeled_chunk_cost(name: str, cfg, dtype: "Datatype", count: int,
                       lo: int, hi: int) -> float:
    """Modeled sender-side cost of one strided chunk under ``name``.

    The figure every chooser decision is audited against: it covers the
    chunk's path from device memory into the send vbuf (the stages that
    differ between backends), not the wire or the receiver. Pure
    function of the hardware config and the layout -- no simulation.
    """
    segs = dtype.segments_for_range(count, lo, hi)
    if name == "host":
        from .pipeline import strided_pcie_cost

        return strided_pcie_cost(cfg, segs)
    if name == "nic":
        return nic_offload_cost(cfg, segs)
    if name == "gpu":
        from types import SimpleNamespace

        from .gpu_pack import gpu_pack_cost

        pack = gpu_pack_cost(SimpleNamespace(cfg=cfg), dtype, count, lo, hi)
        return pack + cfg.memcpy_time(CopyKind.D2H, segs.total_bytes)
    raise ValueError(f"unknown backend {name!r} (expected {BACKEND_NAMES})")


def guideline_backend(
    cfg,
    dtype: "Datatype",
    count: int,
    chunk_bytes: int,
    measured: Dict[str, float],
    tolerance: float = GUIDELINE_TOLERANCE,
) -> str:
    """Pick the best measured backend that the guideline allows.

    ``measured`` maps backend name -> measured latency (simulated
    seconds). The Hunold/Träff guard: a non-default backend is eligible
    only if its *modeled* chunk cost does not exceed the default path's
    modeled cost by more than ``tolerance`` -- the chooser must never
    trade a mechanical guarantee for a lucky measurement. The default
    backend is always eligible; ties go to it. Each excluded candidate
    bumps ``tune_backend_guard``.
    """
    total = dtype.size * count
    hi = min(chunk_bytes, total) if total else chunk_bytes
    base = modeled_chunk_cost(DEFAULT_BACKEND, cfg, dtype, count, 0, max(hi, 1))
    best = DEFAULT_BACKEND
    best_lat = measured[DEFAULT_BACKEND]
    for name in sorted(measured):
        if name == DEFAULT_BACKEND:
            continue
        modeled = modeled_chunk_cost(name, cfg, dtype, count, 0, max(hi, 1))
        if modeled > base * (1.0 + tolerance):
            PERF.bump("tune_backend_guard")
            continue
        if measured[name] < best_lat:
            best, best_lat = name, measured[name]
    return best
