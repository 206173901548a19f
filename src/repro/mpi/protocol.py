"""MPI point-to-point protocols: eager and rendezvous.

This is the host-path transfer engine of the simulated MPI library (what
MVAPICH2 does for buffers in host memory) **plus** the flow machinery the
GPU pipeline of :mod:`repro.core` builds on.

Wire protocol (all over HCA control messages + RDMA writes):

``eager``
    Small messages: the packed payload rides inside the control message.
    The sender completes locally; the receiver unpacks on match.

``rts`` / ``cts`` / ``fin``
    Rendezvous: the sender announces (RTS) its message and preferred chunk
    size; once matched, the receiver grants a list of RDMA landing windows
    (CTS) -- either windows of the user buffer (zero-copy, contiguous host
    receives) or staging vbufs; the sender produces each chunk, RDMA-writes
    it and posts a per-chunk FIN; the receiver drains/unpacks chunks as
    FINs arrive and completes when all have landed.

This chunked-grant design is exactly the paper's Figure 3 protocol; the
device-buffer stages (GPU pack offload, D2H/H2D staging) are supplied by
:class:`repro.core.pipeline.GpuNcEngine`, which registers itself on each
endpoint. Host-host traffic uses the degenerate forms (single direct chunk,
or CPU-packed staged chunks).

Flows. Each side of a message is one flow object -- :class:`SendFlow` /
:class:`RecvFlow` for rendezvous, :class:`EagerSend` / ``_EagerDeliver``
for eager -- advanced by callbacks on exactly the events a generator
process would have yielded (:func:`wait` runs a stage inline on an
already-processed event, as ``Process._resume`` does), with no
``Process`` per message. A flow is also its message's transaction record:
``endpoint.send_states`` / ``recv_states`` map an SSN to it, and the CTS
and FIN handlers call its methods. Work that runs concurrently inside one
message (the GPU engine's chunks, FIN-triggered drains) is a slotted
:class:`Chunk` record. The same-instant ordering hops of the process
engine -- a process's start, a chunk process's completion event, an
``AllOf`` join -- are kept as explicit pooled zero-delay timeouts
(:func:`hop`), so every trace and every event count is unchanged.
Recovery-armed runs keep one generator copy of each retry loop
(:func:`verbs_retry`, :func:`acquire_vbuf`, :func:`await_cts`), run
inline by :class:`Drive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hw.memory import BufferPtr
from ..ib.faults import CancelToken, RdmaError
from ..perf.stats import PERF
from ..sim.events import PROCESSED, RECYCLABLE_CALLBACKS, Event
from .datatype import Datatype
from .endpoint import Endpoint
from .matching import ArrivedMessage, Envelope, PostedRecv
from .pack import (
    check_buffer_bounds,
    host_pack_range_time,
    host_pack_time,
    pack_bytes,
    pack_range_into,
    unpack_array_into,
    unpack_range_from,
)
from .request import Request
from .status import MpiError, Status

__all__ = [
    "install_protocol", "isend", "irecv", "iprobe", "probe", "RtsInfo",
    "SendFlow", "RecvFlow", "EagerSend", "Chunk", "Drive", "wait", "hop",
    "vbuf_then", "write_then",
]

#: Wire overhead added to eager messages (header bytes).
EAGER_HEADER = 64


@dataclass
class RtsInfo:
    """Decoded RTS payload."""

    ssn: tuple
    envelope: Envelope
    total: int
    #: Sender's preferred chunk size; 0 = "whole message in one piece".
    chunk_pref: int
    #: "host" or "gpu" -- informational (receiver decisions depend only on
    #: its own buffer, but traces/tests want to see the sender mode).
    mode: str


# ---------------------------------------------------------------------------
# Flow plumbing
# ---------------------------------------------------------------------------

def wait(event: Event, stage) -> None:
    """Run ``stage(event)`` once ``event`` is processed.

    The callback form of a process's ``yield event``, timed exactly like
    ``Process._resume``: an already-processed event runs the stage inline,
    any other gets the stage appended to its callbacks.
    """
    if event._state is PROCESSED:
        stage(event)
    else:
        event.callbacks.append(stage)


class _Hop:
    """Runs the stage a hop's timeout carries as its value, then drops it:
    one registered callback makes every hop's timeout recyclable."""

    __slots__ = ()

    def run(self, event: Event) -> None:
        stage, event._value = event._value, None
        stage(event)


_run_hop = _Hop().run


def hop(env, stage) -> None:
    """Run ``stage(event)`` one same-instant queue hop from now.

    A pooled zero-delay timeout standing where the process engine had an
    implicit one (a process start, a process's completion event, an
    ``AllOf`` join); keeping each hop keeps same-instant order -- and so
    every trace -- identical.
    """
    env.timeout(0.0, stage).callbacks.append(_run_hop)


def _raise_failed(event) -> None:
    """Re-raise a failed wait (an RDMA write completed in error), defused
    first, as ``Process._resume`` throws it into the waiting generator."""
    if not event._ok:
        event.defuse()
        raise event._value


class Drive:
    """Run a generator inline, as ``yield from`` inside a flow stage would.

    The armed-only recovery loops stay generators with one copy of their
    logic. A flow starts one synchronously (no ``Process``, no start hop);
    the driver resumes it on each yielded event exactly where
    ``Process._resume`` would, defusing a failed wait before throwing it
    in. On return it hands itself to ``then`` as a processed result, so the
    next stage reads the return value as ``result._value``, like an
    event's. Exceptions propagate out of the run, as from a failed flow.
    """

    __slots__ = ("_gen", "_then", "_value", "_ok")

    def __init__(self, gen, then):
        self._gen = gen
        self._then = then
        self._value = None
        self._ok = True
        self._advance(None, None)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._advance(event._value, None)
        else:
            event.defuse()
            self._advance(None, event._value)

    def _advance(self, value, error) -> None:
        gen = self._gen
        while True:
            try:
                event = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                then, self._gen, self._then = self._then, None, None
                self._value = stop.value
                then(self)
                return
            if event._state is not PROCESSED:
                event.callbacks.append(self._resume)
                return
            if event._ok:
                value, error = event._value, None
            else:
                event.defuse()
                value, error = None, event._value


def vbuf_then(endpoint: Endpoint, pool, then) -> None:
    """Acquire a vbuf from ``pool``, then ``then(result)``; the vbuf is
    ``result._value``. Armed runs wait through :func:`acquire_vbuf`."""
    if endpoint.recovery is None:
        wait(pool.acquire(), then)
    else:
        Drive(acquire_vbuf(endpoint, pool), then)


def write_then(endpoint: Endpoint, src: BufferPtr, rb, then) -> None:
    """RDMA-write ``src`` into grant ``rb``, then ``then(result)``, which
    must pass ``result`` to :func:`_raise_failed`. Armed runs retry
    through :func:`rdma_write_safe`."""
    if endpoint.recovery is None:
        wait(endpoint.hca.rdma_write(src, rb), then)
    else:
        Drive(rdma_write_safe(endpoint, src, rb), then)


class Chunk:
    """One chunk's stage sequence inside a flow.

    Chunks of one message run concurrently, so each is its own record. A
    chunk waits on one event at a time, so one continuation slot
    suffices: ``self.on(stage)`` is the callback that continues with
    ``stage(chunk, event)``, where a stage is a chunk method passed
    unbound or a method of a stateless transfer backend, and never keeps
    the event. A chunk starts one hop after it is created, where its
    former process started.
    """

    __slots__ = ("flow", "i", "lo", "hi", "vbuf", "_next")

    def __init__(self, flow, i: int):
        self.flow = flow
        self.i = i
        self.vbuf = None
        hop(flow.env, self.on(type(self)._start))

    def _start(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on(self, stage):
        """The callback that continues with ``stage(self, event)``."""
        self._next = stage
        return self._step

    def _step(self, event) -> None:
        stage, self._next = self._next, None
        stage(self, event)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def isend(
    endpoint: Endpoint,
    buf: BufferPtr,
    count: int,
    datatype: Datatype,
    dest: int,
    tag: int,
    comm_id: int,
    mode: str = "standard",
    coll_ctx: Optional[str] = None,
) -> Request:
    """Start a non-blocking send; returns the request.

    ``mode="synchronous"`` (``MPI_Ssend``) forces the rendezvous protocol so
    the send cannot complete before a matching receive is posted.
    ``coll_ctx`` tags peer-messages spawned inside a collective with the
    fan-out context string the tuning table resolves against (None for
    plain point-to-point traffic -- the resolution is then unchanged).
    """
    datatype.require_committed()
    check_buffer_bounds(buf, datatype, count)
    if count < 0:
        raise MpiError("negative send count")
    if mode not in ("standard", "synchronous"):
        raise MpiError(f"unknown send mode {mode!r}")
    total = datatype.size * count
    req = Request(endpoint.env, "send", buf=buf, datatype=datatype, count=count)
    req.coll_ctx = coll_ctx
    envelope = Envelope(
        src=endpoint.rank,
        dst=dest,
        tag=tag,
        comm_id=comm_id,
        size_bytes=total,
    )
    if buf.space == "device" and mode == "standard":
        endpoint.gpu_engine.isend_device(endpoint, envelope, buf, count, datatype, req)
        return req
    if buf.space == "device" and mode == "synchronous":
        # Device synchronous sends ride the rendezvous-only GPU path too
        # (the GPU engine never uses eager for nonzero payloads).
        if total == 0:
            HostSendFlow(endpoint, envelope, buf, count, datatype, req)
        else:
            endpoint.gpu_engine.isend_device(
                endpoint, envelope, buf, count, datatype, req
            )
        return req
    if total <= endpoint.cfg.eager_threshold and mode == "standard":
        EagerSend(endpoint, envelope, buf, count, datatype, req)
    else:
        HostSendFlow(endpoint, envelope, buf, count, datatype, req)
    return req


def iprobe(
    endpoint: Endpoint, source: int, tag: int, comm_id: int
) -> Optional[Status]:
    """``MPI_Iprobe``: peek at the unexpected queue without consuming."""
    matcher = PostedRecv(request=None, src=source, tag=tag, comm_id=comm_id)
    for msg in endpoint.matching.unexpected:
        if matcher.matches(msg.envelope):
            return Status(
                source=msg.envelope.src,
                tag=msg.envelope.tag,
                count_bytes=msg.envelope.size_bytes,
            )
    return None


def probe(endpoint: Endpoint, source: int, tag: int, comm_id: int):
    """``MPI_Probe`` (a generator): wait for a matching envelope."""
    while True:
        status = iprobe(endpoint, source, tag, comm_id)
        if status is not None:
            return status
        yield endpoint.arrival_event


def irecv(
    endpoint: Endpoint,
    buf: BufferPtr,
    count: int,
    datatype: Datatype,
    source: int,
    tag: int,
    comm_id: int,
    coll_ctx: Optional[str] = None,
) -> Request:
    """Post a non-blocking receive; returns the request."""
    datatype.require_committed()
    check_buffer_bounds(buf, datatype, count)
    if count < 0:
        raise MpiError("negative recv count")
    req = Request(endpoint.env, "recv", buf=buf, datatype=datatype, count=count)
    req.coll_ctx = coll_ctx
    posted = PostedRecv(request=req, src=source, tag=tag, comm_id=comm_id)
    match = endpoint.matching.post_recv(posted)
    if match is not None:
        _dispatch_match(endpoint, posted, match)
    return req


def install_protocol(endpoint: Endpoint) -> None:
    """Register the eager/rendezvous message handlers on an endpoint."""
    endpoint.register_handler("eager", _on_eager)
    endpoint.register_handler("rts", _on_rts)
    endpoint.register_handler("cts", _on_cts)
    endpoint.register_handler("fin", _on_fin)
    # Receiver-watchdog NACKs (recovery layer). Registering the handler is
    # schedule-neutral: NACKs are only ever *sent* when recovery is armed.
    endpoint.register_handler("nack", _on_nack)


# ---------------------------------------------------------------------------
# Eager protocol
# ---------------------------------------------------------------------------

class EagerSend:
    """Sender side of one eager message (also zero-byte device sends).

    Holds the endpoint's send-order slot from before the CPU pack until
    the payload's control message has left, so sends to one destination
    reach the wire in call order.
    """

    __slots__ = (
        "endpoint", "envelope", "buf", "count", "datatype", "req",
        "_order", "_data",
    )

    def __init__(self, endpoint: Endpoint, envelope: Envelope, buf: BufferPtr,
                 count: int, datatype: Datatype, req: Request):
        self.endpoint = endpoint
        self.envelope = envelope
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.req = req
        self._order = self._data = None
        hop(endpoint.env, self._start)

    def _start(self, _event) -> None:
        self._order = self.endpoint.send_order.request()
        wait(self._order, self._ordered)

    def _ordered(self, _event) -> None:
        endpoint = self.endpoint
        self._data = pack_bytes(self.buf, self.datatype, self.count)
        wait(
            endpoint.cpu_claim(
                host_pack_time(endpoint.cfg, self.datatype, self.count),
                "pack:eager",
            ),
            self._packed,
        )

    def _packed(self, event) -> None:
        endpoint = self.endpoint
        endpoint.cpu_done(event)
        data = self._data
        wait(
            endpoint.post_control(
                self.envelope.dst,
                {"type": "eager", "envelope": self.envelope, "data": data},
                size_bytes=data.nbytes + EAGER_HEADER,
            ),
            self._posted,
        )

    def _posted(self, _event) -> None:
        endpoint = self.endpoint
        endpoint.send_order.release(self._order)
        nbytes = self._data.nbytes
        self._order = self._data = None
        endpoint.stats.note_send("eager", nbytes)
        self.req._complete(Status(source=endpoint.rank, tag=self.envelope.tag,
                                  count_bytes=nbytes))


class _EagerDeliver:
    """Receiver side of a matched eager message into host memory: a CPU
    unpack (scatter for strided receive types), then completion."""

    __slots__ = ("endpoint", "req", "data", "status")

    def __init__(self, endpoint: Endpoint, req: Request, data: np.ndarray,
                 status: Status):
        self.endpoint = endpoint
        self.req = req
        self.data = data
        self.status = status
        hop(endpoint.env, self._start)

    def _start(self, _event) -> None:
        endpoint, req = self.endpoint, self.req
        wait(
            endpoint.cpu_claim(
                host_pack_range_time(
                    endpoint.cfg, req.datatype, req.count, 0, self.data.nbytes
                ),
                "unpack:eager",
            ),
            self._unpacked,
        )

    def _unpacked(self, event) -> None:
        endpoint, req, data = self.endpoint, self.req, self.data
        endpoint.cpu_done(event)
        unpack_array_into(data, req.datatype, req.count, req.buf)
        endpoint.stats.note_recv(data.nbytes)
        req._complete(self.status)


def _on_eager(endpoint: Endpoint, payload: dict) -> None:
    envelope: Envelope = payload["envelope"]
    msg = ArrivedMessage(envelope, "eager", payload["data"])
    posted = endpoint.matching.arrive(msg)
    endpoint.note_arrival()
    if posted is not None:
        _deliver_eager(endpoint, posted, msg)


def _deliver_eager(endpoint: Endpoint, posted: PostedRecv, msg: ArrivedMessage) -> None:
    req = posted.request
    envelope = msg.envelope
    data: np.ndarray = msg.payload
    capacity = req.datatype.size * req.count
    if data.nbytes > capacity:
        req._fail(
            MpiError(
                f"message truncation: {data.nbytes} bytes into a "
                f"{capacity}-byte receive"
            )
        )
        return
    status = Status(source=envelope.src, tag=envelope.tag, count_bytes=data.nbytes)
    if req.buf.space == "device":
        endpoint.gpu_engine.deliver_eager_device(endpoint, req, data, status)
        return
    _EagerDeliver(endpoint, req, data, status)


# ---------------------------------------------------------------------------
# Rendezvous: matching glue
# ---------------------------------------------------------------------------

def _dispatch_match(endpoint: Endpoint, posted: PostedRecv, msg: ArrivedMessage) -> None:
    if msg.kind == "eager":
        _deliver_eager(endpoint, posted, msg)
    elif msg.kind == "rts":
        _rdv_recv_start(endpoint, posted, msg.payload)
    else:  # pragma: no cover - defensive
        raise MpiError(f"unknown matched message kind {msg.kind!r}")


def _on_rts(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    if endpoint.recovery is not None:
        # Duplicate-SSN suppression must engage *before* matching: a
        # replayed RTS re-entering the match lists would consume a second
        # posted receive. Checked ahead of the recv_states lookup because
        # the receive flow registers itself one (zero-delay) hop after the
        # match.
        if ssn in endpoint.rts_seen:
            PERF.bump("dup_rts_suppressed")
            endpoint.stats.dups_suppressed += 1
            return
        endpoint.rts_seen.add(ssn)
    rts = RtsInfo(
        ssn=ssn,
        envelope=payload["envelope"],
        total=payload["total"],
        chunk_pref=payload["chunk_pref"],
        mode=payload["mode"],
    )
    msg = ArrivedMessage(rts.envelope, "rts", rts)
    posted = endpoint.matching.arrive(msg)
    endpoint.note_arrival()
    if posted is not None:
        _rdv_recv_start(endpoint, posted, rts)


def _on_cts(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    flow = endpoint.send_states.get(ssn)
    if flow is None:
        if endpoint.recovery is not None and ssn in endpoint.sent_history:
            # A replayed grant window arriving after the send completed.
            PERF.bump("dup_cts_suppressed")
            endpoint.stats.dups_suppressed += 1
            return
        raise MpiError(f"CTS for unknown SSN {ssn}")
    flow.add_grants(payload["start"], payload["chunks"], payload["chunk_bytes"])


def _on_fin(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    flow = endpoint.recv_states.get(ssn)
    if flow is None:
        if endpoint.recovery is not None and ssn in endpoint.retired_ssns:
            # A duplicate FIN straggling in after the transaction retired.
            PERF.bump("dup_fin_suppressed")
            endpoint.stats.dups_suppressed += 1
            return
        raise MpiError(f"FIN for unknown SSN {ssn}")
    chunk = payload["chunk"]
    if chunk in flow.fin_seen:
        # Duplicate FIN for a live transaction (duplicated message or a
        # watchdog-triggered replay that crossed the original). Processing
        # it twice would double-retire the chunk.
        PERF.bump("dup_fin_suppressed")
        endpoint.stats.dups_suppressed += 1
        return
    flow.fin_seen.add(chunk)
    flow.fin(chunk)


def _on_nack(endpoint: Endpoint, payload: dict) -> None:
    """Receiver watchdog asked for FIN replays (recovery layer only)."""
    ssn = payload["ssn"]
    flow = endpoint.send_states.get(ssn)
    if flow is None:
        flow = endpoint.sent_history.get(ssn)
    if flow is None:
        return
    for i in payload["chunks"]:
        if i in flow.fin_sent:
            PERF.bump("fin_resent")
            endpoint.stats.fins_resent += 1
            endpoint.post_control(
                flow.dst, {"type": "fin", "ssn": ssn, "chunk": i}
            )
        # Chunks not yet FINed are still in flight on the sender; the
        # watchdog's re-granted CTS windows (sent just before the NACK)
        # unblock them if their grants were lost.


# ---------------------------------------------------------------------------
# Recovery layer (armed via endpoint.recovery; see core.config.RecoveryConfig)
# ---------------------------------------------------------------------------

def _backoff(rec, attempt: int) -> float:
    """Capped exponential backoff for retry ``attempt`` (1-based)."""
    return min(rec.backoff_cap, rec.backoff_base * (1 << (attempt - 1)))


def verbs_retry(endpoint: Endpoint, rec, post, what: str = "rdma"):
    """Run an RDMA op under a completion timeout with retransmit (a generator).

    ``post(token)`` posts one attempt and returns its local completion
    event. On timeout or completion-in-error the attempt's token is
    cancelled (a stale in-flight write must never land in a landing buffer
    that has been re-granted) and the op is re-posted after capped
    exponential backoff, up to ``rec.max_attempts``.
    """
    env = endpoint.env
    attempt = 0
    while True:
        token = CancelToken()
        done = post(token)
        ok = True
        try:
            yield env.any_of([done, env.timeout(rec.rdma_timeout)])
            ok = done.processed
        except RdmaError:
            ok = False
        if ok:
            return
        token.cancel()
        attempt += 1
        PERF.bump("rdma_retry")
        endpoint.stats.rdma_retries += 1
        endpoint.tracer.record_fault(
            env.now, "recovery:rdma_retry", src=endpoint.node.node_id,
            attempt=attempt, what=what,
        )
        if attempt >= rec.max_attempts:
            raise MpiError(
                f"{what}: no successful completion after {attempt} attempts"
            )
        yield env.timeout(_backoff(rec, attempt))


def rdma_write_safe(endpoint: Endpoint, src, rb):
    """RDMA-write a chunk, with retry when recovery is armed (a generator)."""
    rec = endpoint.recovery
    if rec is None:
        yield endpoint.hca.rdma_write(src, rb)
    else:
        yield from verbs_retry(
            endpoint, rec,
            lambda token: endpoint.hca.rdma_write(src, rb, token=token),
            what="rdma_write",
        )


def rdma_read_safe(endpoint: Endpoint, dst, rb):
    """RDMA-read into ``dst``, with retry when recovery is armed (a
    generator). The one-sided Get path uses this."""
    rec = endpoint.recovery
    if rec is None:
        yield endpoint.hca.rdma_read(dst, rb)
    else:
        yield from verbs_retry(
            endpoint, rec,
            lambda token: endpoint.hca.rdma_read(dst, rb, token=token),
            what="rdma_read",
        )


def await_cts(endpoint: Endpoint, state: "SendFlow", rts_payload: dict, rec):
    """Wait for the first CTS, re-posting the RTS on timeout (a generator;
    armed runs only).

    Covers a lost RTS (the receiver holds no state at all; the re-post
    re-creates it) -- a lost *first* CTS is recovered by the receiver
    watchdog's grant replay. Returns the negotiated chunk size.
    """
    env = endpoint.env
    attempt = 0
    while state.chunk_bytes is None:
        ev = state.grant_event
        yield env.any_of([ev, env.timeout(rec.rts_timeout)])
        if state.chunk_bytes is not None:
            break
        if ev.processed:
            continue
        attempt += 1
        if attempt >= rec.max_attempts:
            raise MpiError(
                f"rendezvous {state.ssn}: no CTS after {attempt} RTS attempts"
            )
        PERF.bump("rts_retry")
        endpoint.stats.rts_retries += 1
        endpoint.tracer.record_fault(
            env.now, "recovery:rts_retry", src=endpoint.node.node_id,
            attempt=attempt,
        )
        # Duplicate RTSes are suppressed by SSN at the receiver, so the
        # replay needs no send_order slot.
        yield endpoint.post_control(state.dst, rts_payload)
    return state.chunk_bytes


def acquire_vbuf(endpoint: Endpoint, pool):
    """Acquire a vbuf with a bounded wait + retry (a generator; armed runs
    only -- a disarmed flow waits on ``pool.acquire()`` directly).

    Vbufs are needed by *both* the GPU-offload and the host paths, so
    unlike tbufs there is nothing to degrade to -- instead a starved pool
    turns from a silent hang into a bounded, diagnosable failure.
    """
    rec = endpoint.recovery
    env = endpoint.env
    attempt = 0
    while True:
        get = pool.acquire()
        yield env.any_of([get, env.timeout(rec.staging_timeout * (attempt + 1))])
        if get.processed:
            return get.value
        pool.cancel(get)
        attempt += 1
        PERF.bump("vbuf_wait_timeout")
        if attempt >= rec.max_attempts:
            raise MpiError(
                f"rank {endpoint.rank}: vbuf pool starved for "
                f"{attempt} waits (flow-control leak?)"
            )
        yield env.timeout(_backoff(rec, attempt))


def _pending_chunks(state: "RecvFlow") -> list:
    """Granted chunks whose FIN has not been processed (watchdog view)."""
    if state.staging is None:
        return [i for i in range(state.nchunks) if i not in state.fin_seen]
    return [i for i in sorted(state.staging) if i not in state.fin_seen]


def _rebuild_grant(endpoint: Endpoint, state: "RecvFlow", i: int):
    """Re-register chunk ``i``'s landing window for a CTS replay."""
    lo, hi = state.chunk_range(i)
    if state.staging is None:
        req = state.posted.request
        base = (
            int(req.datatype.segments_for_count(req.count).offsets[0])
            if state.rts.total else 0
        )
        return endpoint.hca.register(req.buf.sub(base + lo, hi - lo))
    vbuf = state.staging.get(i)
    if vbuf is None:
        return None
    return endpoint.hca.register(vbuf.sub(0, hi - lo))


def recv_watchdog(endpoint: Endpoint, state: "RecvFlow", rec):
    """Receiver-side progress watchdog (a generator; armed runs only).

    Every ``watchdog_interval`` with no transaction progress it (a)
    replays the CTS grant windows for granted-but-unfinished chunks --
    recovering lost CTSes, since the sender suppresses the duplicates it
    already holds -- and (b) NACKs those chunks so the sender replays any
    FINs that were lost after delivery. ``watchdog_max_idle`` silent
    periods fail the receive loudly instead of hanging.
    """
    env = endpoint.env
    src = state.rts.envelope.src
    idle = 0
    last = None
    while not state.done.processed:
        yield env.any_of([state.done, env.timeout(rec.watchdog_interval)])
        if state.done.processed:
            return
        progress = (state.remaining, len(state.fin_seen), state.next_grant)
        if progress != last:
            last = progress
            idle = 0
            continue
        idle += 1
        if idle > rec.watchdog_max_idle:
            err = MpiError(
                f"rendezvous {state.rts.ssn}: no receiver progress in "
                f"{idle} watchdog periods ({state.remaining} chunks missing)"
            )
            state.posted.request._fail(err)
            raise err
        pending = _pending_chunks(state)
        if not pending:
            continue
        endpoint.tracer.record_fault(
            env.now, "recovery:watchdog_probe", src=endpoint.node.node_id,
            pending=len(pending), idle=idle,
        )
        for i in pending:
            rb = _rebuild_grant(endpoint, state, i)
            if rb is not None:
                PERF.bump("cts_resent")
                endpoint.post_control(
                    src,
                    {
                        "type": "cts",
                        "ssn": state.rts.ssn,
                        "start": i,
                        "chunks": [rb],
                        "chunk_bytes": state.chunk_bytes,
                    },
                )
        PERF.bump("nack_sent")
        endpoint.stats.nacks_sent += 1
        endpoint.post_control(
            src, {"type": "nack", "ssn": state.rts.ssn, "chunks": pending}
        )




# ---------------------------------------------------------------------------
# Rendezvous: sender flows
# ---------------------------------------------------------------------------

class SendFlow:
    """Sender side of one rendezvous message: its flow and its record.

    Subclasses supply ``_start`` (run one hop after construction, where
    the former send process started) and ``_rts_sent``. Landing-zone grants
    arrive incrementally (windowed CTS messages, :meth:`add_grants`); a
    stage that needs grant ``i`` re-waits on ``grant_event`` until it
    exists.
    """

    __slots__ = (
        "endpoint", "env", "envelope", "req", "dst", "total", "ssn",
        "nchunks", "rts", "grants", "chunk_bytes", "grant_event", "fin_sent",
        "_order",
    )

    def __init__(self, endpoint: Endpoint, envelope: Envelope, req: Request):
        self.endpoint = endpoint
        self.env = endpoint.env
        self.envelope = envelope
        self.req = req
        self.dst = envelope.dst
        self.total = envelope.size_bytes
        self.nchunks = 0
        #: RDMA windows granted so far, in chunk order.
        self.grants: list = []
        #: chunk size the receiver chose; None until the first CTS.
        self.chunk_bytes = None
        #: chunk indices whose FIN has been posted (recovery: FIN replay)
        self.fin_sent: set = set()
        self.ssn = self.rts = self.grant_event = self._order = None
        hop(self.env, self._start)

    def _start(self, _event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rts_sent(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _open(self, rts_payload: dict) -> None:
        """Register as the SSN's transaction and post the RTS in order."""
        endpoint = self.endpoint
        self.ssn = ssn = endpoint.new_ssn()
        #: fired and re-armed when new grants arrive and something waits
        self.grant_event = Event(self.env, label="grants")
        endpoint.send_states[ssn] = self
        rts_payload["ssn"] = ssn
        self.rts = rts_payload
        self._order = endpoint.send_order.request()
        wait(self._order, self._rts_ordered)

    def _rts_ordered(self, _event) -> None:
        wait(self.endpoint.post_control(self.dst, self.rts), self._rts_posted)

    def _rts_posted(self, _event) -> None:
        self.endpoint.send_order.release(self._order)
        self._order = None
        self._rts_sent()

    def add_grants(self, start: int, chunks: list, chunk_bytes: int) -> None:
        """Accept a CTS grant window; duplicates are suppressed.

        Windows from one receiver arrive in order (reliable connection),
        but under faults a window -- or part of one, when the watchdog
        re-grants per chunk -- may be a replay of grants already held. A
        window starting past the held prefix is still a protocol error.
        """
        if self.chunk_bytes is None:
            self.chunk_bytes = chunk_bytes
        have = len(self.grants)
        if start > have:
            raise MpiError(
                f"out-of-order CTS window: start {start}, have {have} grants"
            )
        if start + len(chunks) <= have:
            PERF.bump("dup_cts_suppressed")
            self.endpoint.stats.dups_suppressed += 1
            return
        if start < have:
            PERF.bump("dup_cts_suppressed")
            self.endpoint.stats.dups_suppressed += 1
            chunks = chunks[have - start:]
        self.grants.extend(chunks)
        # Every waiter reads the current grant_event before it suspends,
        # and an event fired with no callbacks has no observable effect.
        fired = self.grant_event
        if not fired.callbacks:
            return
        self.grant_event = Event(self.env, label="grants")
        fired.succeed()

    def _finish(self, path: str) -> None:
        """Retire the transaction and complete the send (every path).

        Completed sends stay in ``sent_history`` when recovery is armed: a
        receiver NACK can arrive after the sender finished if the dropped
        message was a final FIN.
        """
        endpoint = self.endpoint
        del endpoint.send_states[self.ssn]
        if endpoint.recovery is not None:
            endpoint.sent_history[self.ssn] = self
        stats = endpoint.stats
        stats.note_send(path, self.total)
        stats.chunks_sent += self.nchunks
        self.req._complete(
            Status(source=endpoint.rank, tag=self.envelope.tag,
                   count_bytes=self.total)
        )


class HostSendFlow(SendFlow):
    """Rendezvous send from host memory: chunks go one after another.

    Contiguous data is written zero-copy out of the user buffer; strided
    data is CPU-packed into a send vbuf chunk by chunk.
    """

    __slots__ = ("buf", "count", "datatype", "contiguous", "base", "i",
                 "lo", "hi", "vbuf")

    def __init__(self, endpoint: Endpoint, envelope: Envelope, buf: BufferPtr,
                 count: int, datatype: Datatype, req: Request):
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.vbuf = None
        self.i = self.base = 0
        super().__init__(endpoint, envelope, req)

    def _start(self, _event) -> None:
        endpoint = self.endpoint
        datatype, count, total = self.datatype, self.count, self.total
        self.contiguous = contiguous = datatype.is_contiguous
        chunk_pref = 0 if contiguous else endpoint.send_vbufs.buf_bytes
        if endpoint.tuning is not None:
            if contiguous:
                # Contiguous sends advertise chunk_pref 0 ("no preference"):
                # zero-copy out of the user buffer needs no staging
                # geometry, so the table is deliberately not consulted.
                # Count the bypass so tuned runs can see how much traffic
                # the table never saw, instead of it looking like misses.
                PERF.bump("tune_contig_bypass")
            else:
                # Tuned chunk preference for this (layout, size) class. The
                # receiver hard-errors on an RTS chunk exceeding its pool,
                # so the clamp must cover *both* endpoints: our staging
                # vbufs and the peer pool size recorded by the world (None
                # when unknown, e.g. hand-built endpoints => legacy
                # sender-side-only cap).
                from ..tune.table import tuned_chunk_pref

                cap = endpoint.send_vbufs.buf_bytes
                if endpoint.peer_vbuf_bytes:
                    cap = min(cap, endpoint.peer_vbuf_bytes)
                tuned = tuned_chunk_pref(
                    endpoint.tuning, datatype, count, total, cap,
                    memo=endpoint.tune_memo, ctx=self.req.coll_ctx,
                )
                if tuned:
                    chunk_pref = tuned
        self._open({
            "type": "rts",
            "ssn": None,
            "envelope": self.envelope,
            "total": total,
            "chunk_pref": chunk_pref,
            "mode": "host",
        })

    def _rts_sent(self) -> None:
        rec = self.endpoint.recovery
        if rec is None:
            self._await_chunk_bytes(None)
        else:
            Drive(await_cts(self.endpoint, self, self.rts, rec),
                  self._negotiated)

    def _await_chunk_bytes(self, _event) -> None:
        if self.chunk_bytes is None:
            self.grant_event.callbacks.append(self._await_chunk_bytes)
            return
        self._negotiated(None)

    def _negotiated(self, _result) -> None:
        total = self.total
        self.nchunks = max(1, math.ceil(total / self.chunk_bytes))
        if self.contiguous and total:
            self.base = int(
                self.datatype.segments_for_count(self.count).offsets[0]
            )
        self._next_chunk(None)

    def _next_chunk(self, _event) -> None:
        """Start chunk ``self.i`` once its grant exists; finish after the last."""
        i = self.i
        if i == self.nchunks:
            self._finish("rndv")
            return
        if len(self.grants) <= i:
            self.grant_event.callbacks.append(self._next_chunk)
            return
        self.lo = lo = i * self.chunk_bytes
        self.hi = hi = min(lo + self.chunk_bytes, self.total)
        endpoint = self.endpoint
        if self.contiguous:
            # Zero-copy straight out of the user buffer.
            if hi > lo:
                self._write(self.buf.sub(self.base + lo, hi - lo))
            else:
                self._post_fin()
        else:
            vbuf_then(endpoint, endpoint.send_vbufs, self._pack)

    def _pack(self, got) -> None:
        endpoint = self.endpoint
        self.vbuf = got._value
        wait(
            endpoint.cpu_claim(
                host_pack_range_time(
                    endpoint.cfg, self.datatype, self.count, self.lo, self.hi
                ),
                "pack:rdv",
            ),
            self._packed,
        )

    def _packed(self, event) -> None:
        self.endpoint.cpu_done(event)
        lo, hi = self.lo, self.hi
        if self.env.functional:
            # Gather straight into the staging vbuf: pack + stage copy
            # fused into one movement (same bytes, half the traffic).
            pack_range_into(
                self.buf, self.datatype, self.count, lo, hi, self.vbuf.view()
            )
        self._write(self.vbuf.sub(0, hi - lo))

    def _write(self, src: BufferPtr) -> None:
        write_then(self.endpoint, src, self.grants[self.i], self._written)

    def _written(self, event) -> None:
        _raise_failed(event)
        self._post_fin()

    def _post_fin(self) -> None:
        endpoint = self.endpoint
        if endpoint.recovery is not None:
            self.fin_sent.add(self.i)
        wait(
            endpoint.post_control(
                self.dst, {"type": "fin", "ssn": self.ssn, "chunk": self.i}
            ),
            self._fin_posted,
        )

    def _fin_posted(self, _event) -> None:
        if self.vbuf is not None:
            self.endpoint.send_vbufs.release(self.vbuf)
            self.vbuf = None
        self.i += 1
        self._next_chunk(None)


# ---------------------------------------------------------------------------
# Rendezvous: receiver flows
# ---------------------------------------------------------------------------

def _rdv_recv_start(endpoint: Endpoint, posted: PostedRecv, rts: RtsInfo) -> None:
    req = posted.request
    capacity = req.datatype.size * req.count
    if rts.total > capacity:
        req._fail(
            MpiError(
                f"message truncation: {rts.total} bytes into a "
                f"{capacity}-byte receive"
            )
        )
        return
    if req.buf.space == "device":
        endpoint.gpu_engine.rdv_recv_device(endpoint, posted, rts)
        return
    HostRecvFlow(endpoint, posted, rts)


class RecvFlow:
    """Receiver side of one rendezvous message: its flow and its record.

    Subclasses supply ``_start`` (run one hop after the match, where the
    former receive process started) and :meth:`fin`, the per-FIN
    drain. Staged receives also run the *granter* here: it grants
    ``rendezvous_window`` staging vbufs up front, then one more per drained
    chunk, so a message of any size flows through a bounded vbuf pool.
    """

    __slots__ = (
        "endpoint", "env", "posted", "req", "rts", "chunk_bytes", "nchunks",
        "staging", "remaining", "status", "done", "next_grant", "fin_seen",
        "drained", "_granter_idle", "_batch", "_batch_start", "_batch_left",
    )

    def __init__(self, endpoint: Endpoint, posted: PostedRecv, rts: RtsInfo):
        self.endpoint = endpoint
        self.env = endpoint.env
        self.posted = posted
        self.req = posted.request
        self.rts = rts
        #: staging vbufs by chunk index (staged path) or None (direct path)
        self.staging = None
        #: next chunk index to grant a landing buffer for (staged path)
        self.next_grant = 0
        #: chunk indices whose FIN has been processed (duplicate-FIN guard)
        self.fin_seen: set = set()
        #: drained chunks the granter has not yet refilled
        self.drained = 0
        self._granter_idle = False
        self._batch = None
        hop(self.env, self._start)

    def _start(self, _event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def fin(self, index: int) -> None:  # pragma: no cover - abstract
        """FIN arrived for chunk ``index``: drain it."""
        raise NotImplementedError

    def _open(self, chunk_bytes: int, staged: bool) -> None:
        """Register as the SSN's transaction (and arm its watchdog)."""
        endpoint, rts = self.endpoint, self.rts
        total = rts.total
        self.chunk_bytes = chunk_bytes
        self.nchunks = self.remaining = (
            max(1, math.ceil(total / chunk_bytes)) if total else 1
        )
        if staged:
            self.staging = {}
        self.status = Status(
            source=rts.envelope.src, tag=rts.envelope.tag, count_bytes=total
        )
        #: fires when every chunk has landed (the watchdog waits on it too)
        self.done = Event(self.env, label="rdv-done")
        endpoint.recv_states[rts.ssn] = self
        rec = endpoint.recovery
        if rec is not None:
            self.env.spawn(recv_watchdog(endpoint, self, rec),
                           name="rdv-watchdog")

    def _completed(self, _event) -> None:
        endpoint = self.endpoint
        ssn = self.rts.ssn
        del endpoint.recv_states[ssn]
        if endpoint.recovery is not None:
            # Tombstone: late duplicate FINs are suppressed, not fatal.
            endpoint.retired_ssns.add(ssn)
        endpoint.stats.note_recv(self.rts.total)
        self.req._complete(self.status)

    def chunk_range(self, index: int) -> tuple:
        lo = index * self.chunk_bytes
        hi = min(lo + self.chunk_bytes, self.rts.total)
        return lo, hi

    def release_staging(self, index: int) -> None:
        """Release chunk ``index``'s staging vbuf and feed the granter.

        May be called before the chunk is fully drained (e.g. as soon as
        the H2D copy out of the vbuf completes) to keep the pool flowing.
        """
        if self.staging is None:
            return
        vbuf = self.staging.pop(index)
        self.endpoint.recv_vbufs.release(vbuf)
        if self.next_grant < self.nchunks:
            if self._granter_idle:
                # The waiting granter resumes one hop later.
                self._granter_idle = False
                hop(self.env, self._grant_refill)
            else:
                self.drained += 1

    def finish_chunk(self) -> None:
        """Mark one chunk fully landed; fires ``done`` on the last one."""
        self.remaining -= 1
        if self.remaining == 0:
            self.done.succeed()

    def retire_chunk(self, index: int) -> None:
        """Release staging and finish the chunk in one step."""
        self.release_staging(index)
        self.finish_chunk()

    # -- granter (staged receives) --------------------------------------------
    def _grant_start(self, _event) -> None:
        endpoint = self.endpoint
        self._grant_batch(min(self.nchunks, endpoint.cfg.rendezvous_window,
                              max(1, endpoint.recv_vbufs.count // 2)))

    def _grant_batch(self, count: int) -> None:
        self._batch_start = self.next_grant
        self._batch = []
        self._batch_left = count
        self._grant_next()

    def _grant_next(self) -> None:
        endpoint = self.endpoint
        if self._batch_left > 0 and self.next_grant < self.nchunks:
            vbuf_then(endpoint, endpoint.recv_vbufs, self._grant_vbuf)
            return
        grants, self._batch = self._batch, None
        if not grants:
            self._grant_wait(None)
            return
        wait(
            endpoint.post_control(
                self.rts.envelope.src,
                {
                    "type": "cts",
                    "ssn": self.rts.ssn,
                    "start": self._batch_start,
                    "chunks": grants,
                    "chunk_bytes": self.chunk_bytes,
                },
            ),
            self._grant_wait,
        )

    def _grant_vbuf(self, got) -> None:
        i = self.next_grant
        lo, hi = self.chunk_range(i)
        vbuf = got._value
        self.staging[i] = vbuf
        self._batch.append(self.endpoint.hca.register(vbuf.sub(0, hi - lo)))
        self.next_grant += 1
        self._batch_left -= 1
        self._grant_next()

    def _grant_wait(self, _event) -> None:
        """Wait for a drained chunk, then grant one more window."""
        if self.next_grant >= self.nchunks:
            return
        if self.drained:
            self.drained -= 1
            hop(self.env, self._grant_refill)
        else:
            self._granter_idle = True

    def _grant_refill(self, _event) -> None:
        self._grant_batch(1)


class HostRecvFlow(RecvFlow):
    """Rendezvous receive into host memory.

    Contiguous receives grant windows of the user buffer, all at once (no
    staging, so no pool pressure to window against); strided receives
    grant staging vbufs and CPU-unpack each chunk as its FIN arrives.
    """

    __slots__ = ()

    def _start(self, _event) -> None:
        endpoint, req, rts = self.endpoint, self.req, self.rts
        total = rts.total
        if req.datatype.is_contiguous:
            chunk_bytes = rts.chunk_pref if rts.chunk_pref else max(total, 1)
            self._open(chunk_bytes, staged=False)
            base = (
                int(req.datatype.segments_for_count(req.count).offsets[0])
                if total else 0
            )
            chunks = []
            for i in range(self.nchunks):
                lo, hi = self.chunk_range(i)
                chunks.append(
                    endpoint.hca.register(req.buf.sub(base + lo, hi - lo))
                )
            wait(
                endpoint.post_control(
                    rts.envelope.src,
                    {
                        "type": "cts",
                        "ssn": rts.ssn,
                        "start": 0,
                        "chunks": chunks,
                        "chunk_bytes": chunk_bytes,
                    },
                ),
                self._granted,
            )
        else:
            pool_bytes = endpoint.recv_vbufs.buf_bytes
            self._open(min(pool_bytes, rts.chunk_pref or pool_bytes),
                       staged=True)
            hop(self.env, self._grant_start)
            wait(self.done, self._completed)

    def _granted(self, _event) -> None:
        wait(self.done, self._completed)

    def fin(self, index: int) -> None:
        if self.staging is None:
            self.retire_chunk(index)
        else:
            _HostDrain(self, index)


class _HostDrain(Chunk):
    """CPU-unpack one staged chunk out of its vbuf, then retire it."""

    __slots__ = ()

    def _start(self, _event) -> None:
        flow = self.flow
        endpoint, req = flow.endpoint, flow.req
        self.lo, self.hi = flow.chunk_range(self.i)
        wait(
            endpoint.cpu_claim(
                host_pack_range_time(
                    endpoint.cfg, req.datatype, req.count, self.lo, self.hi
                ),
                "unpack:rdv",
            ),
            self.on(_HostDrain._unpacked),
        )

    def _unpacked(self, event) -> None:
        flow = self.flow
        flow.endpoint.cpu_done(event)
        if flow.env.functional:
            # Scatter directly out of the staging vbuf (it is recycled only
            # by retire_chunk below, after the bytes have landed).
            req = flow.req
            lo, hi = self.lo, self.hi
            unpack_range_from(
                flow.staging[self.i].sub(0, hi - lo), req.datatype, req.count,
                req.buf, lo, hi,
            )
        flow.retire_chunk(self.i)


# Callbacks that can be the sole waiter of a pooled timeout: hops, chunk
# stages, CPU slices and retry backoffs. None of them keeps its event, so
# the timeout is recyclable once they return, as it was under the process
# driver they replace.
RECYCLABLE_CALLBACKS.update((
    _Hop.run, Drive._resume, Chunk._step, EagerSend._packed,
    _EagerDeliver._unpacked, HostSendFlow._packed,
))
