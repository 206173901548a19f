"""Sharded parallel execution of an MPI world under conservative sync.

The sequential simulator processes one global event queue. This module
partitions a :class:`~repro.hw.cluster.Cluster`'s nodes across forked
worker processes, each running its *own* :class:`Environment` over the
events of its nodes, and synchronizes them with a conservative
Chandy--Misra--Bryant-style protocol whose lookahead is the minimum
cross-shard fabric latency (``Fabric.shard_lookahead``; the base
``net_latency`` on a uniform fabric, wider when a topology makes every
cross-shard pair inter-leaf).

Protocol
--------
A coordinator (the parent process) issues *window ladders*. Each
interaction it collects every shard's earliest pending event time, folds
in the arrival times of cross-shard messages still queued for delivery
(``eff``), delivers those messages, and grants **K windows at once**.
Workers compute the identical bound schedule by iterating the grant map::

    b0        = eff
    b(k+1)_i  = min(min(bk_j for j != i) + L,  bk_i + 2 * L)   [cap: horizon]

Window 1 is the classic conservative window (safety: any message peer *j*
emits at ``t >= eff[j]`` arrives ``t + L >= b1_i``; the ``+ 2L`` term
caps feedback through idle peers). Later windows need no fresh state: an
emission inside window *k* happens at ``t >= b(k-1)_j``, so it arrives
``t + L >= bk_i`` -- the recurrence *is* the safety proof, which is why a
whole ladder can run without touching the coordinator. The grant map is
monotone and (from the second application on) non-decreasing, so windows
partition the timeline exactly like back-to-back ``run_window`` calls.

Workers self-synchronize the ladder through a shared-memory **slot
array**: one atomic int64 per shard packing ``(generation, completed
window, stop bit, emission count)``. After each window a worker publishes
its slot and spin-waits until every peer reaches the same window. Sparse
cross-shard emissions ship **directly** worker-to-worker through per-pair
pipes mid-ladder: the emitter writes one pickled blob per peer *before*
publishing its incremented emission count, so a peer that observes the
count is guaranteed (by the kernel's pipe semantics -- no memory-ordering
assumptions) to find the blob. Oversized emissions instead set the stop
bit, ending the ladder at that window with the messages riding the
coordinator reply; the atomic slot write makes the stop window a
consensus value ``m*`` -- no worker can pass barrier ``m*`` without
seeing it, so every worker completes exactly ``m*`` windows.

The ladder depth K adapts deterministically from already-merged history
only (doubling while interactions stay quiet, shrinking on
coordinator-routed bursts or event-free crawl), so traces stay
bit-identical for any K policy: window partitioning never changes event
order.

Above 8 shards (``REPRO_SHARD_FANOUT``) the coordinator talks to **pod
relays** -- intermediate processes that fork and fan messages to up to 8
workers each -- so grant/reply traffic at 64+ shards doesn't serialize on
one process's pipe syscalls. Pods are pure transports: routing, bounds
and adaptation stay in the coordinator, and the global slot array keeps
worker self-synchronization flat.

Cross-shard traffic is cut at **send time**: the verbs layer
(:mod:`repro.ib.verbs`) computes each operation's remote arrival timestamp
in the sender's timeline and hands it to the :class:`ShardBridge` instead
of touching the peer node's replica objects. Messages reach the owning
shard either directly (mid-ladder) or with the next grant, and are
injected as plain events at the precomputed arrival time -- by the safety
argument above, never in the receiver's past.

Payload bytes (RDMA writes and read responses) travel through per-shard
``multiprocessing.shared_memory`` staging arenas (two halves, used in
ladder parity so a half is only recycled after every message staged in it
has been copied out by its receiver -- mid-ladder for direct deliveries,
at the next grant for coordinator-routed ones); oversized payloads fall
back to inline pickling.

Determinism
-----------
Every cross-shard record carries the *wire key* its sender's HCA computed
-- ``(source node, per-source emission sequence)``, the same key the
sequential run uses for the delivery (see ``WIRE_KEY_BASE`` in
:mod:`repro.sim.core`). Workers inject granted messages through
:meth:`Environment.schedule_wire` under that key, so the receiving shard
processes them at exactly the queue position the sequential run would
have: after every locally-created event of the arrival instant, ordered
among deliveries by ``(src node, seq)``. Because the key is a pure
function of sender-local state, the whole run is partition-invariant: the
merged trace (``Tracer.merge_from``), per-rank results and final clock
are bit-identical to the sequential run for *any* shard map, *any* ladder
depth and either message transport -- the property the trace-equality
tests in ``tests/sim/test_shard.py`` pin down.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..perf.stats import PERF
from .core import Environment
from .events import Event, SimulationError

__all__ = ["ShardView", "ShardBridge", "run_sharded_world"]

#: Size of each shard's shared-memory payload staging segment (two halves).
#: Overridable for tests via ``REPRO_SHARD_SEG_BYTES``.
_SEG_BYTES_DEFAULT = 8 << 20

_INF = float("inf")

#: Ladder depth floor; the ceiling comes from ``REPRO_SHARD_LADDER_MAX``.
_K_MIN = 2
_K_MAX_DEFAULT = 256
_K_HARD_CAP = 4096  # emission counts must fit the slot's 16-bit field

#: Depth the adaptive policy settles at in *crawl* regions -- continuous
#: fine-grained traffic where every window only advances ~one lookahead.
#: There a deeper ladder just trades coordinator rounds for extra crawl
#: windows (the stale ``eff`` can't jump gaps a refresh would); measured
#: round/window cost puts the knee near 32.
_K_CRUISE = 32

#: Largest pickled emission blob shipped through the direct per-pair
#: pipes. Two unread blobs per pair can be in flight (a sender runs at
#: most one window ahead), so this stays well under the 64 KiB pipe
#: capacity -- a sender can never block mid-ladder on a full pipe.
_DIRECT_BLOB_MAX = 8 << 10

#: Slot layout: | gen (29 bits) | window (17) | stop (1) | emits (16) |
_SLOT_EMITS_MASK = 0xFFFF
_SLOT_STOP_BIT = 1 << 16
_SLOT_WIN_SHIFT = 17
_SLOT_WIN_MASK = 0x1FFFF
_SLOT_GEN_SHIFT = 34

_PICKLE = pickle.HIGHEST_PROTOCOL


def _seg_bytes() -> int:
    return int(os.environ.get("REPRO_SHARD_SEG_BYTES", _SEG_BYTES_DEFAULT))


def _ladder_k_max() -> int:
    k = int(os.environ.get("REPRO_SHARD_LADDER_MAX", _K_MAX_DEFAULT))
    return max(1, min(k, _K_HARD_CAP))


def _fanout() -> int:
    return max(2, int(os.environ.get("REPRO_SHARD_FANOUT", 8)))


def _barrier_timeout() -> float:
    return float(os.environ.get("REPRO_SHARD_BARRIER_TIMEOUT", 900.0))


def _direct_enabled(shards: int) -> bool:
    """Whether the per-pair direct pipes fit this host's fd budget."""
    mode = os.environ.get("REPRO_SHARD_DIRECT", "auto")
    if mode == "0" or shards < 2:
        return False
    if mode == "1":
        return True
    try:
        import resource

        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft == resource.RLIM_INFINITY:
            soft = 1 << 20
    except Exception:  # pragma: no cover - exotic platform
        soft = 1024
    need = 2 * shards * (shards - 1) + 8 * shards + 64
    return need <= soft


def _slot_pack(gen: int, window: int, stop: bool, emits: int) -> int:
    return (
        (gen << _SLOT_GEN_SHIFT)
        | (window << _SLOT_WIN_SHIFT)
        | (_SLOT_STOP_BIT if stop else 0)
        | emits
    )


def _pow2ceil(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _ladder_bounds(eff: List[float], index: int, count: int, lookahead: float,
                   horizon: float, depth: int) -> List[float]:
    """Shard ``index``'s bound schedule: ``depth`` grant-map applications.

    Every worker computes the identical full-vector iteration (same float
    operations in the same order), truncated where the vector plateaus
    (all bounds pinned at the horizon) -- a divergent early exit would
    deadlock the slot barrier, so the truncation must be consensus too.
    """
    bounds: List[float] = []
    prev = list(eff)
    for _ in range(depth):
        nxt = []
        for i in range(count):
            peers = min(
                prev[j] for j in range(count) if j != i
            ) if count > 1 else _INF
            bound = min(peers + lookahead, prev[i] + 2 * lookahead)
            if bound > horizon:
                bound = horizon
            nxt.append(bound)
        if nxt == prev:
            break
        bounds.append(nxt[index])
        prev = nxt
    return bounds


class ShardView:
    """Which nodes this worker owns inside the global partition."""

    __slots__ = ("index", "count", "node_to_shard")

    def __init__(self, index: int, count: int, node_to_shard: Tuple[int, ...]):
        self.index = index
        self.count = count
        self.node_to_shard = node_to_shard

    def owns_node(self, node_id: int) -> bool:
        return self.node_to_shard[node_id] == self.index

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShardView {self.index}/{self.count}>"


def _open_shm(name: str):
    """Attach an existing shared-memory segment without tracker ownership."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - pre-3.13 fallback
        return shared_memory.SharedMemory(name=name)


class ShardBridge:
    """The worker-side endpoint of the cross-shard channel.

    The verbs layer calls :meth:`send_ctl` / :meth:`send_rdma` /
    :meth:`post_read` when an operation's destination node is not local;
    the worker main loop drains :meth:`take_outbox` after every window
    (shipping records directly to peers or back with the ladder reply)
    and feeds inbound messages through :meth:`deliver`.
    """

    def __init__(self, view: ShardView, shm_names: List[str]):
        from ..hw.memory import Arena

        self.view = view
        self.outbox: List[tuple] = []
        self.pending_reads: Dict[tuple, tuple] = {}
        self.fabric = None
        self.env: Optional[Environment] = None
        self._read_id = 0
        self._shms = [_open_shm(name) for name in shm_names]
        self._seg_views = [
            np.frombuffer(shm.buf, dtype=np.uint8) for shm in self._shms
        ]
        seg = len(self._seg_views[view.index])
        self._half = seg // 2
        own = self._seg_views[view.index]
        self._stage_arenas = [
            Arena(
                self._half, "host", name=f"shard{view.index}.stage{p}",
                backing=own[p * self._half : (p + 1) * self._half],
            )
            for p in (0, 1)
        ]
        self._parity = 0

    # -- lifecycle ----------------------------------------------------------
    def bind(self, fabric) -> None:
        """Called by ``Fabric.attach_shard``: adopt the fabric's environment."""
        self.fabric = fabric
        self.env = fabric.env

    def close(self) -> None:
        # Drop every view into the segments first: mmaps cannot close while
        # exported numpy buffers are alive.
        self._stage_arenas = []
        self._seg_views = []
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray exported view
                pass

    def begin_window(self, parity: int) -> None:
        """Recycle the staging half of ``parity`` for this ladder's sends.

        Safe because a half filled in ladder *n* is only reused in ladder
        *n + 2*, and every message staged in *n* was copied out by its
        receiver before then: direct deliveries materialize mid-ladder,
        coordinator-routed ones at the ladder *n + 1* grant.
        """
        self._parity = parity
        self._stage_arenas[parity].release_all()

    # -- payload staging -----------------------------------------------------
    def _stage(self, data: np.ndarray) -> tuple:
        from ..hw.memory import OutOfMemoryError

        n = data.nbytes
        if n:
            arena = self._stage_arenas[self._parity]
            try:
                ptr = arena.alloc(n)
            except OutOfMemoryError:
                ptr = None
            if ptr is not None:
                ptr.view()[:] = data
                PERF.bump("shard_payload_shm_bytes", n)
                return ("s", self.view.index, self._parity * self._half + ptr.offset, n)
        PERF.bump("shard_payload_inline_bytes", n)
        return ("i", data)

    def _fetch(self, ref: tuple) -> np.ndarray:
        if ref[0] == "i":
            return ref[1]
        _, shard, offset, n = ref
        return self._seg_views[shard][offset : offset + n].copy()

    # -- sender side (called from repro.ib.verbs) ---------------------------
    # Record layout, shared by every kind:
    #   (kind, arrival, wire_key, dst_shard, *body)
    # ``wire_key`` is the sender HCA's key for this delivery -- carrying it
    # across lets the receiving shard inject at the exact queue position
    # the sequential run would use (see module docstring).

    def send_ctl(self, src_node: int, dst_node: int, payload: Any,
                 arrival: float, key: int) -> None:
        """Queue a control-message delivery to ``dst_node``'s control sink."""
        PERF.bump("shard_xmsg_ctl")
        self.outbox.append((
            "ctl", arrival, key, self.view.node_to_shard[dst_node],
            src_node, dst_node, payload,
        ))

    def send_rdma(self, dst_node: int, offset: int, data: np.ndarray,
                  arrival: float, key: int) -> None:
        """Queue an RDMA-write payload landing in ``dst_node``'s memory."""
        PERF.bump("shard_xmsg_rdma")
        self.outbox.append((
            "rdma", arrival, key, self.view.node_to_shard[dst_node],
            dst_node, offset, self._stage(data),
        ))

    def post_read(self, dst, src, done: Event, act, token, arrival: float,
                  key: int, origin_node: int, fail_msg: str) -> None:
        """Queue an RDMA-read request for the shard owning ``src.node_id``.

        The local completion context (destination pointer, completion
        event, fault action/cancel token) stays here under a request id;
        the target shard's responder streams under its own TX contention
        and the response completes the read via the ``rresp`` callback.
        """
        PERF.bump("shard_xmsg_rreq")
        rid = (self.view.index, self._read_id)
        self._read_id += 1
        self.pending_reads[rid] = (dst, done, act, token, fail_msg)
        stall = act.stall if act is not None else 0.0
        self.outbox.append((
            "rreq", arrival, key, self.view.node_to_shard[src.node_id],
            src.node_id, src.offset, src.nbytes, stall, origin_node,
            self.view.index, rid,
        ))

    def take_outbox(self) -> List[tuple]:
        out, self.outbox = self.outbox, []
        return out

    # -- receiver side -------------------------------------------------------
    def deliver(self, msgs: List[tuple]) -> None:
        """Inject granted messages as wire events at their arrivals.

        Payload references are materialized *now* (delivery receipt),
        because the sender may recycle its staging half two ladders later
        while a far-future arrival is still queued here. Each record is
        injected through :meth:`Environment.schedule_wire` under the
        sender's original wire key, landing at exactly the sequential
        run's queue position.
        """
        env = self.env
        for m in msgs:
            kind, arrival, key = m[0], m[1], m[2]
            if kind == "ctl":
                cb = self._ctl_callback(m[4], m[5], m[6])
            elif kind == "rdma":
                data = self._fetch(m[6])
                cb = self._rdma_callback(m[4], m[5], data)
            elif kind == "rreq":
                cb = self._rreq_callback(m[4], m[5], m[6], m[7], m[8], m[9],
                                         m[10])
            elif kind == "rresp":
                ref = m[5]
                data = self._fetch(ref) if ref is not None else None
                cb = self._rresp_callback(m[4], data)
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown cross-shard message {kind!r}")
            env.schedule_wire(arrival, key, cb, label=f"xshard-{kind}")

    def _ctl_callback(self, src_node: int, dst_node: int, payload: Any):
        def apply(_event, self=self):
            self.fabric.hcas[dst_node].control_sink(src_node, payload)
        return apply

    def _rdma_callback(self, dst_node: int, offset: int, data: np.ndarray):
        def apply(_event, self=self):
            node = self.fabric.nodes[dst_node]
            node.memory.raw[offset : offset + data.nbytes] = data
        return apply

    def _rreq_callback(self, target_node: int, offset: int, nbytes: int,
                       stall: float, origin_node: int, origin_shard: int,
                       rid: tuple):
        # The injected request runs the *shared* responder
        # (HCA._read_respond_proc): same TX contention, same stall fault,
        # same trace record and same snapshot point as the sequential
        # path. Only the response transport differs -- it rides the bridge
        # back to the origin shard, carrying the responder's wire key.
        def apply(_event, self=self):
            responder = self.fabric.hcas[target_node]

            def deliver(arrival, key, data):
                ref = self._stage(data) if data is not None else None
                PERF.bump("shard_xmsg_rresp")
                self.outbox.append(
                    ("rresp", arrival, key, origin_shard, rid, ref)
                )

            responder._read_respond_proc(
                offset, nbytes, stall, origin_node, deliver
            )
        return apply

    def _rresp_callback(self, rid: tuple, data: Optional[np.ndarray]):
        def apply(_event, self=self):
            from ..ib.faults import RdmaError

            dst, done, act, token, fail_msg = self.pending_reads.pop(rid)
            if token is not None and token.cancelled:
                return
            if act is not None and act.fail:
                done.fail(RdmaError(fail_msg))
                return
            if data is not None:
                dst.view()[:] = data
            done.succeed()
        return apply


# ---------------------------------------------------------------------------
# Result shipping: rank programs may return BufferPtr handles (the fault
# matrix returns its receive buffer for verification). Pickling one naively
# would serialize the entire backing arena, so buffers are re-rooted onto
# fresh minimal arenas carrying just their bytes.
# ---------------------------------------------------------------------------

class _ShippedBuffer:
    __slots__ = ("space", "data")

    def __init__(self, space: str, data: np.ndarray):
        self.space = space
        self.data = data


def _ship(value: Any) -> Any:
    from ..hw.memory import BufferPtr

    if isinstance(value, BufferPtr):
        return _ShippedBuffer(value.space, value.view().copy())
    if isinstance(value, tuple):
        return tuple(_ship(v) for v in value)
    if isinstance(value, list):
        return [_ship(v) for v in value]
    if isinstance(value, dict):
        return {k: _ship(v) for k, v in value.items()}
    return value


def _unship(value: Any) -> Any:
    from ..hw.memory import Arena, BufferPtr

    if isinstance(value, _ShippedBuffer):
        nbytes = value.data.nbytes
        arena = Arena(max(nbytes, 1), value.space, name="shipped")
        arena.raw[:nbytes] = value.data
        return BufferPtr(arena, 0, nbytes)
    if isinstance(value, tuple):
        return tuple(_unship(v) for v in value)
    if isinstance(value, list):
        return [_unship(v) for v in value]
    if isinstance(value, dict):
        return {k: _unship(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _pickle_or_none(exc: BaseException) -> Optional[bytes]:
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:
        return None


def _close_direct_rows(d_reads, d_writes, keep: Optional[int]) -> None:
    """Close inherited direct-pipe connections except shard ``keep``'s rows."""
    if d_reads is None:
        return
    for owner, row in enumerate(d_reads):
        if owner == keep:
            continue
        for conn in row:
            if conn is not None:
                conn.close()
    for owner, row in enumerate(d_writes):
        if owner == keep:
            continue
        for conn in row:
            if conn is not None:
                conn.close()


class _LadderSync:
    """Worker-side ladder barrier + direct-delivery machinery.

    The barrier is token-counting over per-pair semaphores: completing a
    window, a worker posts one token to every peer and then acquires one
    token *per peer* per window. Semaphores are futex-backed -- an
    already-posted acquire never enters the kernel, and a genuinely
    waiting worker blocks until the exact peer posts (no spin-yield
    guessing games with the scheduler, which on hosts with fewer cores
    than shards used to cost more than the windows themselves).

    Every worker completes the same number of windows ``m*`` (the stop
    consensus below), so each pair's posts and acquires balance exactly
    and every semaphore is back to zero when the ladder ends -- no
    per-ladder reset, no generation tagging needed on the tokens.
    """

    __slots__ = ("slots", "index", "count", "gen", "sems_in", "reads",
                 "read_counts", "bridge", "deadline")

    def __init__(self, slots, index, count, gen, sems_in, reads, bridge):
        self.slots = slots
        self.index = index
        self.count = count
        self.gen = gen
        self.sems_in = sems_in
        self.reads = reads
        self.read_counts = [0] * count
        self.bridge = bridge
        self.deadline = time.monotonic() + _barrier_timeout()

    def barrier(self, window: int) -> bool:
        """Wait for every peer to complete ``window``, drain direct
        blobs, detect a ladder stop.

        A peer that stopped *at* ``window`` ends the ladder here; a stop
        at a later window is handled when this worker reaches that
        barrier (a stopped peer is frozen, so a slot showing a window
        beyond ``window`` cannot be hiding an earlier stop). Acquiring a
        peer's token gives happens-before on its slot write, and the
        emission count in the slot is published atomically with the
        completed-window field, so the drain below can never miss or
        double-read a blob -- it may read *ahead* into a faster peer's
        later windows, which is safe: those arrivals are beyond this
        worker's next bound by the grant-map recurrence.
        """
        slots, count, index = self.slots, self.count, self.index
        stop_here = False
        for j in range(count):
            if j == index:
                continue
            while not self.sems_in[j].acquire(True, 1.0):
                if time.monotonic() > self.deadline:
                    raise SimulationError(
                        f"shard {index} barrier timed out at ladder "
                        f"window {window} (gen {self.gen}) waiting for "
                        f"shard {j}; slots: {[int(s) for s in slots]}"
                    )
            v = int(slots[j])
            emitted = v & _SLOT_EMITS_MASK
            while self.read_counts[j] < emitted:
                # The count was published after the blob's pipe write
                # syscall returned, so the bytes are already in the kernel
                # buffer -- recv_bytes cannot block for long.
                blob = self.reads[j].recv_bytes()
                self.read_counts[j] += 1
                mine = [m for m in pickle.loads(blob) if m[3] == index]
                if mine:
                    self.bridge.deliver(mine)
            if (v & _SLOT_STOP_BIT) and (
                (v >> _SLOT_WIN_SHIFT) & _SLOT_WIN_MASK
            ) == window:
                stop_here = True
        return stop_here


def _worker_main(index, world, shard_map, shm_names,
                 slots_name, sems, d_reads, d_writes, program, args,
                 cmd, rsp):
    """Entry point of one shard worker.

    Workers are forked *after* the parent constructs the world, so the
    fully-built cluster arrives by copy-on-write inheritance -- no
    per-worker rebuild (which used to dominate wall-clock at small scales
    and would be prohibitive for 1024-rank worlds). The inherited state is
    bit-identical to what a rebuild from the same specs would produce: the
    parent has not run a single event when it forks.
    """
    bridge = None
    slots_shm = None
    slots = None
    sync = None
    try:
        PERF.reset()
        view = ShardView(index, max(shard_map) + 1, tuple(shard_map))
        count = view.count
        _close_direct_rows(d_reads, d_writes, keep=index)
        my_reads = d_reads[index] if d_reads is not None else None
        my_writes = d_writes[index] if d_writes is not None else None
        # sems[i][j]: posted by j when it completes a window, acquired by
        # i at its barrier. This worker acquires row `index`, posts down
        # column `index`.
        sems_in = sems[index]
        sems_out = [row[index] for row in sems]
        slots_shm = _open_shm(slots_name)
        slots = np.frombuffer(slots_shm.buf, dtype=np.int64)
        bridge = ShardBridge(view, shm_names)
        cluster = world.cluster
        cluster.fabric.attach_shard(view, bridge)
        env = cluster.env

        # Every worker holds the full world (endpoints for remote ranks
        # are inert replicas: no control message is ever delivered to
        # them here), but only local ranks run.
        local = [
            ctx for ctx in world.contexts if view.owns_node(ctx.node.node_id)
        ]
        procs = {
            ctx.rank: env.process(program(ctx, *args), name=f"rank{ctx.rank}")
            for ctx in local
        }
        done = env.all_of(list(procs.values()), label="shard-finished") \
            if procs else None
        state = {"done_time": None}
        if done is not None:
            done.callbacks.append(
                lambda _ev: state.__setitem__("done_time", env.now)
            )

        def done_failed() -> Optional[BaseException]:
            if done is not None and done.triggered and not done.ok:
                done.defuse()
                return done.value
            return None

        def done_flag() -> bool:
            return done is None or done.processed

        total_events = 0
        rsp.send(("ready", index, env.peek()))
        while True:
            msg = cmd.recv()
            op = msg[0]
            if op == "ladder":
                _, gen, parity, depth, eff, lookahead, horizon, incoming = msg
                bridge.begin_window(parity)
                if incoming:
                    bridge.deliver(incoming)
                bounds = _ladder_bounds(
                    eff, index, count, lookahead, horizon, depth
                )
                sync = _LadderSync(slots, index, count, gen, sems_in,
                                   my_reads, bridge)
                kept: List[tuple] = []
                emits = 0
                completed = 0
                for window, bound in enumerate(bounds, start=1):
                    total_events += env.run_window(bound)
                    exc = done_failed()
                    if exc is not None:
                        raise exc
                    out = bridge.take_outbox()
                    stop = False
                    if out:
                        blob = (
                            pickle.dumps(out, protocol=_PICKLE)
                            if my_writes is not None else None
                        )
                        if blob is not None and len(blob) <= _DIRECT_BLOB_MAX:
                            # Ship directly: one blob to every peer (even
                            # message-free ones -- each must consume exactly
                            # `emits` blobs to stay aligned), *then* publish
                            # the incremented count in the slot below.
                            for conn in my_writes:
                                if conn is not None:
                                    conn.send_bytes(blob)
                            emits += 1
                            PERF.bump("shard_direct_msgs", len(out))
                            PERF.bump("shard_direct_bytes", len(blob))
                        else:
                            # Oversized (or direct mode off): end the ladder
                            # here; the messages ride the reply instead.
                            kept = out
                            stop = True
                    slots[index] = _slot_pack(gen, window, stop, emits)
                    completed = window
                    if count > 1:
                        for sem in sems_out:
                            if sem is not None:
                                sem.release()
                        peer_stop = sync.barrier(window)
                    else:
                        peer_stop = False
                    if stop or peer_stop:
                        break
                rsp.send((
                    "ran", index, env.peek(), kept, total_events,
                    done_flag(), state["done_time"], completed, emits,
                ))
            elif op == "until":
                _, horizon, incoming = msg
                if incoming:
                    bridge.deliver(incoming)
                if horizon >= env.now:
                    env.run(until=horizon)
                exc = done_failed()
                if exc is not None:
                    raise exc
                # Anything emitted here happens at t >= horizon and would
                # arrive strictly after it: the sequential run would leave
                # the delivery unprocessed too. The coordinator only checks
                # whether the outbox is non-empty (to mirror the sequential
                # "events remain, clock pins to the horizon" semantics) and
                # never routes it.
                rsp.send((
                    "ran", index, env.peek(), bridge.take_outbox(),
                    total_events, done_flag(), state["done_time"],
                ))
            elif op == "finish":
                results = {
                    rank: _ship(proc.value)
                    for rank, proc in procs.items() if proc.processed
                }
                rsp.send(("result", index, {
                    "results": results,
                    "intervals": cluster.tracer.intervals,
                    "faults": cluster.tracer.faults,
                    "perf": PERF.snapshot(),
                    "events": total_events,
                    "done_ok": done_flag(),
                    "done_time": state["done_time"],
                    "now": env.now,
                    "last_event": env.last_event_time,
                }))
                return
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown shard command {op!r}")
    except BaseException as exc:  # pragma: no cover - exercised via pipes
        try:
            rsp.send(("fatal", index, _pickle_or_none(exc),
                      traceback.format_exc()))
        except Exception:
            pass
    finally:
        if bridge is not None:
            bridge.close()
        if slots_shm is not None:
            # Both references into the segment must drop before the mmap
            # can close (numpy arrays hold buffer exports on it).
            slots = None
            sync = None
            try:
                slots_shm.close()
            except BufferError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# Pod relay: one intermediate process fanning coordinator batches to up to
# `fanout` workers, so 64+ shards don't serialize on one process's pipes.
# ---------------------------------------------------------------------------

def _pod_main(ids, world, shard_map, shm_names,
              slots_name, sems, d_reads, d_writes, program, args, cmd, rsp):
    """Relay loop: fork this pod's workers, then fan batches up and down.

    Pods are pure transports -- routing, bound schedules and adaptation all
    stay in the coordinator; worker self-synchronization runs through the
    global slot array regardless of pod membership. A pod exits when the
    coordinator sends ``("exit",)`` or closes the command pipe; its
    workers are daemons of the pod and die with it.
    """
    ctx = mp.get_context("fork")
    cmds: Dict[int, Any] = {}
    rsps: Dict[int, Any] = {}
    procs: Dict[int, Any] = {}
    try:
        for i in ids:
            cmd_r, cmd_w = ctx.Pipe(duplex=False)
            rsp_r, rsp_w = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(i, world, shard_map, shm_names,
                      slots_name, sems, d_reads, d_writes, program, args,
                      cmd_r, rsp_w),
                name=f"repro-shard-{i}",
                daemon=True,
            )
            proc.start()
            cmd_r.close()
            rsp_w.close()
            cmds[i], rsps[i], procs[i] = cmd_w, rsp_r, proc
        _close_direct_rows(d_reads, d_writes, keep=None)
        rsp.send(("batch", {i: rsps[i].recv() for i in ids}))
        while True:
            try:
                msg = cmd.recv()
            except EOFError:
                return
            if msg[0] == "fan":
                group = msg[1]
                for i, m in group.items():
                    cmds[i].send(m)
                rsp.send(("batch", {i: rsps[i].recv() for i in group}))
            elif msg[0] == "exit":
                return
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown pod command {msg[0]!r}")
    except BaseException:  # pragma: no cover - exercised via pipes
        try:
            rsp.send(("podfatal", list(ids), traceback.format_exc()))
        except Exception:
            pass
    finally:
        for conn in cmds.values():
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs.values():
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class _TraceSource:
    __slots__ = ("intervals", "faults")

    def __init__(self, intervals, faults):
        self.intervals = intervals
        self.faults = faults


class _FlatLinks:
    """Coordinator transport: one pipe pair per worker."""

    def __init__(self, cmds, rsps):
        self.cmds = cmds
        self.rsps = rsps
        self.pipe_msgs = 0
        self.sent_bytes = 0

    def _recv(self, i: int):
        try:
            reply = self.rsps[i].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {i} died without reporting an error"
            ) from None
        self.pipe_msgs += 1
        return reply

    def collect_ready(self, shards: int) -> Dict[int, tuple]:
        return {i: self._recv(i) for i in range(shards)}

    def dispatch(self, msgs: Dict[int, tuple]) -> Dict[int, tuple]:
        """Send every grant, then collect every reply (no circular wait:
        workers only reply after the whole ladder completes, and the slot
        barrier never depends on a reply being drained)."""
        for i, m in msgs.items():
            blob = pickle.dumps(m, protocol=_PICKLE)
            self.cmds[i].send_bytes(blob)
            self.pipe_msgs += 1
            self.sent_bytes += len(blob)
        return {i: self._recv(i) for i in msgs}

    def shutdown(self) -> None:
        pass


class _PodLinks:
    """Coordinator transport through pod relays: one pipe pair per pod,
    one packed batch per (pod, interaction). ``pipe_msgs`` still counts
    logical worker-level messages so the counter is comparable across
    transports."""

    def __init__(self, pod_ids: List[List[int]], cmds, rsps):
        self.pod_ids = pod_ids
        self.pod_of = {
            i: p for p, ids in enumerate(pod_ids) for i in ids
        }
        self.cmds = cmds
        self.rsps = rsps
        self.pipe_msgs = 0
        self.sent_bytes = 0

    def _recv_batch(self, p: int) -> Dict[int, tuple]:
        try:
            reply = self.rsps[p].recv()
        except EOFError:
            raise RuntimeError(
                f"shard pod {p} died without reporting an error"
            ) from None
        if reply[0] == "podfatal":
            raise RuntimeError(
                f"shard pod {p} (shards {reply[1]}) failed:\n{reply[2]}"
            )
        batch = reply[1]
        self.pipe_msgs += len(batch)
        return batch

    def collect_ready(self, shards: int) -> Dict[int, tuple]:
        out: Dict[int, tuple] = {}
        for p in range(len(self.pod_ids)):
            out.update(self._recv_batch(p))
        return out

    def dispatch(self, msgs: Dict[int, tuple]) -> Dict[int, tuple]:
        groups: Dict[int, Dict[int, tuple]] = {}
        for i, m in msgs.items():
            groups.setdefault(self.pod_of[i], {})[i] = m
        for p in sorted(groups):
            blob = pickle.dumps(("fan", groups[p]), protocol=_PICKLE)
            self.cmds[p].send_bytes(blob)
            self.pipe_msgs += len(groups[p])
            self.sent_bytes += len(blob)
        out: Dict[int, tuple] = {}
        for p in sorted(groups):
            out.update(self._recv_batch(p))
        return out

    def shutdown(self) -> None:
        for conn in self.cmds:
            try:
                conn.send(("exit",))
            except (OSError, BrokenPipeError):  # pragma: no cover
                pass


class _Coordinator:
    """Ladder-granting loop over the shard workers."""

    def __init__(self, shards: int, lookahead: float, links):
        self.shards = shards
        self.lookahead = lookahead
        self.links = links
        self.next_time = [0.0] * shards
        self.pending: List[List[tuple]] = [[] for _ in range(shards)]
        self.done_flags = [False] * shards
        self.done_times: List[Optional[float]] = [None] * shards
        self.events = [0] * shards
        self.rounds = 0
        self.null_grants = 0
        self.msg_counts: Dict[str, int] = {}
        self.failure: Optional[tuple] = None
        # Adaptive ladder depth: starts minimal, doubles while ladders
        # cover real simulated time, settles at the cruise depth when
        # windows merely crawl, shrinks on coordinator-routed bursts.
        # Inputs (kept traffic, consensus depth, simulated-time coverage)
        # are all deterministic functions of the simulation, so the
        # schedule -- and every counter derived from it -- is reproducible.
        self.k_max = _ladder_k_max()
        self.k_min = min(_K_MIN, self.k_max)
        self.ladder_k = self.k_min
        self.gen = 0
        self.windows = 0
        self.ladder_min: Optional[int] = None
        self.ladder_max = 0
        self.batch_msgs = 0
        self.direct_emits = 0
        # Set by run_until(): True when wire messages scheduled past the
        # horizon were dropped (the sequential run would leave their
        # delivery events sitting in the queue, keeping now == horizon).
        self.leftover = False

    def _absorb(self, i: int, reply: tuple) -> tuple:
        if reply[0] == "fatal":
            _, _, blob, tb = reply
            exc = pickle.loads(blob) if blob is not None else None
            if exc is None:
                exc = RuntimeError(f"shard worker {i} failed:\n{tb}")
            self.failure = (exc, tb)
            raise exc
        return reply

    def handshake(self) -> None:
        replies = self.links.collect_ready(self.shards)
        for i in range(self.shards):
            reply = self._absorb(i, replies[i])
            assert reply[0] == "ready"
            self.next_time[i] = reply[2]

    def _route(self, outbox: List[tuple]) -> None:
        for m in outbox:
            kind, dst_shard = m[0], m[3]
            self.pending[dst_shard].append(m)
            self.msg_counts[kind] = self.msg_counts.get(kind, 0) + 1

    def effective_times(self) -> List[float]:
        return [
            min(
                self.next_time[i],
                min((m[1] for m in self.pending[i]), default=_INF),
            )
            for i in range(self.shards)
        ]

    def round(self, horizon: Optional[float]) -> None:
        """One interaction: deliver pending batches, grant one ladder."""
        eff = self.effective_times()
        gmin_pre = min(eff)
        self.gen += 1
        parity = self.rounds % 2
        depth = self.ladder_k
        cap = _INF if horizon is None else horizon
        msgs: Dict[int, tuple] = {}
        incoming = 0
        for i in range(self.shards):
            batch = sorted(self.pending[i], key=lambda m: (m[1], m[2]))
            self.pending[i] = []
            incoming += len(batch)
            msgs[i] = (
                "ladder", self.gen, parity, depth, eff, self.lookahead,
                cap, batch,
            )
        self.batch_msgs += incoming
        replies = self.links.dispatch(msgs)
        consensus = set()
        kept_any = False
        emits_total = 0
        for i in range(self.shards):
            reply = self._absorb(i, replies[i])
            _, _, peek, outbox, nevents, flag, done_time, completed, emits \
                = reply
            self.next_time[i] = peek
            self.events[i] = nevents
            self.done_flags[i] = flag
            self.done_times[i] = done_time
            consensus.add(completed)
            emits_total += emits
            if outbox:
                kept_any = True
                self._route(outbox)
        if len(consensus) != 1:
            raise SimulationError(
                f"ladder consensus broken: shards completed "
                f"{sorted(consensus)} windows"
            )
        depth_run = consensus.pop()
        if depth_run == 0:
            raise SimulationError(
                "ladder made no progress (empty bound schedule)"
            )
        self.rounds += 1
        self.windows += depth_run
        self.direct_emits += emits_total
        self.ladder_min = (
            depth_run if self.ladder_min is None
            else min(self.ladder_min, depth_run)
        )
        self.ladder_max = max(self.ladder_max, depth_run)
        if incoming == 0 and not kept_any and emits_total == 0:
            self.null_grants += 1
        if kept_any:
            # Coordinator-routed burst: next interaction likely routes
            # again soon, so match depth to what actually ran.
            self.ladder_k = max(self.k_min, min(depth, _pow2ceil(depth_run)))
        else:
            post = min(self.effective_times())
            coverage = post - gmin_pre
            if post != _INF and coverage <= depth_run * 3 * self.lookahead:
                # Crawl: stale-eff windows only advance ~one lookahead
                # each, so extra depth buys nothing a refresh would not
                # leap over -- hold at the cruise depth.
                self.ladder_k = max(self.k_min, min(depth, _K_CRUISE))
            else:
                self.ladder_k = min(depth * 2, self.k_max)

    def run_until(self, horizon: float) -> None:
        """Ladders up to ``horizon``, then one inclusive final phase.

        Mirrors the sequential ``run(until=horizon)``: events strictly
        below the horizon are processed in granted windows; the final
        phase injects the leftover messages arriving exactly *at* the
        horizon (later arrivals are dropped, exactly as the sequential run
        leaves their delivery events unprocessed) and runs each shard
        inclusively to the horizon.
        """
        while True:
            gmin = min(self.effective_times())
            if gmin >= horizon:
                break
            self.round(horizon)
        leftover = False
        msgs: Dict[int, tuple] = {}
        for i in range(self.shards):
            kept = [m for m in self.pending[i] if m[1] <= horizon]
            if len(kept) != len(self.pending[i]):
                leftover = True
            msgs[i] = (
                "until", horizon, sorted(kept, key=lambda m: (m[1], m[2]))
            )
            self.pending[i] = []
        replies = self.links.dispatch(msgs)
        for i in range(self.shards):
            reply = self._absorb(i, replies[i])
            self.next_time[i] = reply[2]
            if reply[3]:
                leftover = True
            self.events[i] = reply[4]
            self.done_flags[i] = reply[5]
            self.done_times[i] = reply[6]
        self.leftover = leftover

    def run_to_completion(self) -> float:
        """Ladders until every shard's rank programs finished.

        Returns the global finish time (max over shards' local finishes)
        and drains any in-flight messages arriving at or before it -- the
        sequential run processes those deliveries too, since it only stops
        once the last rank's completion event fires.
        """
        while not all(self.done_flags):
            if min(self.effective_times()) == _INF:
                raise SimulationError(
                    "sharded run exhausted every schedule before the rank "
                    "programs finished (deadlock?)"
                )
            self.round(None)
        finished = [t for t in self.done_times if t is not None]
        horizon = max(finished) if finished else 0.0
        if any(m[1] <= horizon for queued in self.pending for m in queued):
            self.run_until(horizon)
        return horizon

    def finish(self) -> List[dict]:
        msgs = {i: ("finish",) for i in range(self.shards)}
        replies = self.links.dispatch(msgs)
        payloads = []
        for i in range(self.shards):
            reply = self._absorb(i, replies[i])
            assert reply[0] == "result"
            payloads.append(reply[2])
        return payloads


def run_sharded_world(world, program, args, until: Optional[float] = None):
    """Run ``world`` sharded; merge results, traces, clock and counters.

    Called by :meth:`repro.mpi.world.MpiWorld.run` when the underlying
    cluster was built with ``shards > 1``. Returns the per-rank result
    list, bit-identical (results, merged trace, final clock, raised
    errors) to what the sequential path would produce.
    """
    from multiprocessing import shared_memory

    cluster = world.cluster
    shards = cluster.shards
    shard_map = cluster.shard_map
    lookahead = cluster.fabric.shard_lookahead(shard_map)
    ctx = mp.get_context("fork")

    shms = [
        shared_memory.SharedMemory(create=True, size=_seg_bytes())
        for _ in range(shards)
    ]
    shm_names = [s.name for s in shms]
    slots_shm = shared_memory.SharedMemory(create=True, size=8 * shards)
    slots_shm.buf[: 8 * shards] = bytes(8 * shards)

    # Per-pair barrier semaphores, created before any fork so every worker
    # inherits the whole matrix: sems[i][j] is posted by shard j on each
    # completed window and acquired by shard i at its barrier.
    sems = [
        [ctx.Semaphore(0) if i != j else None for j in range(shards)]
        for i in range(shards)
    ]

    # Per-pair direct pipes (d_reads[dst][src] / d_writes[src][dst]) must
    # exist before any fork; every process closes the rows it doesn't own.
    d_reads = d_writes = None
    if _direct_enabled(shards):
        d_reads = [[None] * shards for _ in range(shards)]
        d_writes = [[None] * shards for _ in range(shards)]
        for a in range(shards):
            for b in range(shards):
                if a != b:
                    r, w = ctx.Pipe(duplex=False)
                    d_reads[b][a] = r
                    d_writes[a][b] = w

    fanout = _fanout()
    conns: List[Any] = []
    procs: List[Any] = []
    links = None
    try:
        worker_tail = (world, shard_map,
                       shm_names, slots_shm.name, sems, d_reads, d_writes,
                       program, args)
        if shards > fanout:
            pod_ids = [
                list(range(lo, min(lo + fanout, shards)))
                for lo in range(0, shards, fanout)
            ]
            pod_cmds, pod_rsps = [], []
            for ids in pod_ids:
                cmd_r, cmd_w = ctx.Pipe(duplex=False)
                rsp_r, rsp_w = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_pod_main,
                    args=(ids,) + worker_tail + (cmd_r, rsp_w),
                    name=f"repro-pod-{ids[0]}-{ids[-1]}",
                    daemon=False,  # daemons cannot fork their workers
                )
                proc.start()
                cmd_r.close()
                rsp_w.close()
                pod_cmds.append(cmd_w)
                pod_rsps.append(rsp_r)
                procs.append(proc)
            conns = pod_cmds + pod_rsps
            links = _PodLinks(pod_ids, pod_cmds, pod_rsps)
        else:
            cmds, rsps = [], []
            for i in range(shards):
                cmd_r, cmd_w = ctx.Pipe(duplex=False)
                rsp_r, rsp_w = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(i,) + worker_tail + (cmd_r, rsp_w),
                    name=f"repro-shard-{i}",
                    daemon=True,
                )
                proc.start()
                cmd_r.close()
                rsp_w.close()
                cmds.append(cmd_w)
                rsps.append(rsp_r)
                procs.append(proc)
            conns = cmds + rsps
            links = _FlatLinks(cmds, rsps)
        # The parent never touches the direct pipes itself.
        _close_direct_rows(d_reads, d_writes, keep=None)
        d_reads = d_writes = None

        coord = _Coordinator(shards, lookahead, links)
        coord.handshake()
        if until is not None:
            coord.run_until(float(until))
            payloads = coord.finish()
            if coord.leftover or any(t != _INF for t in coord.next_time):
                final_now = float(until)
            else:
                # Every schedule drained before the horizon with nothing in
                # flight: the sequential run(until=...) leaves the clock at
                # the last processed event, not the horizon.
                final_now = max(p["last_event"] for p in payloads)
        else:
            final_now = coord.run_to_completion()
            payloads = coord.finish()
        results = _merge(world, cluster, coord, links, payloads, final_now)
        if until is not None and not all(p["done_ok"] for p in payloads):
            from ..mpi.status import MpiError

            raise MpiError(
                f"rank programs not finished after {until} simulated "
                "seconds (deadlock?)"
            )
        return results
    finally:
        if links is not None:
            links.shutdown()
        _close_direct_rows(d_reads, d_writes, keep=None)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker/pod
                proc.terminate()
                proc.join(timeout=5)
        for shm in shms + [slots_shm]:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def _merge(world, cluster, coord: _Coordinator, links, payloads: List[dict],
           final_now: float):
    # Merge traces in shard order, then canonical (time-keyed) sort.
    cluster.tracer.merge_from(
        _TraceSource(p["intervals"], p["faults"]) for p in payloads
    )
    # Fold worker counters deterministically by (shard index, counter
    # name), never by pipe-arrival or dict-iteration order: the merged
    # ``[faults:]``/``[tune:]`` footers must be byte-identical for every
    # shard partitioning of the same run (a regression test pins this).
    for shard in range(len(payloads)):
        snap = payloads[shard]["perf"]
        PERF.merge({name: snap[name] for name in sorted(snap)})
        PERF.bump(f"shard{shard}_events", payloads[shard]["events"])
    PERF.bump("shard_rounds", coord.rounds)
    PERF.bump("shard_null_grants", coord.null_grants)
    PERF.bump("shard_windows", coord.windows)
    PERF.bump("shard_pipe_msgs", links.pipe_msgs)
    PERF.bump("shard_batch_msgs", coord.batch_msgs)
    PERF.bump("shard_batch_bytes", links.sent_bytes)
    if coord.rounds:
        PERF.merge({
            "shard_ladder_min": coord.ladder_min or 0,
            "shard_ladder_max": coord.ladder_max,
        })
    for kind, n in coord.msg_counts.items():
        PERF.bump(f"shard_route_{kind}", n)

    direct_msgs = sum(p["perf"].get("shard_direct_msgs", 0) for p in payloads)
    world.shard_stats = {
        "shards": coord.shards,
        "rounds": coord.rounds,
        "windows": coord.windows,
        "null_grants": coord.null_grants,
        "ladder": (coord.ladder_min or 0,
                   coord.windows / coord.rounds if coord.rounds else 0.0,
                   coord.ladder_max),
        "pipe_msgs": links.pipe_msgs,
        "batch_msgs": coord.batch_msgs,
        "batch_bytes": links.sent_bytes,
        "direct_msgs": direct_msgs,
        "messages": dict(coord.msg_counts),
        "events": [p["events"] for p in payloads],
        "lookahead": coord.lookahead,
        "pods": (
            len(links.pod_ids) if isinstance(links, _PodLinks) else 0
        ),
    }

    # The parent environment never ran: clear the replica bootstrap events
    # it accumulated at construction and pin its clock to the merged final
    # simulated time, so callers reading ``env.now`` (and gantt renderers)
    # see exactly what the sequential run reports.
    env = cluster.env
    env._clear_schedule()
    if final_now > env.now:
        env._now = final_now

    results: Dict[int, Any] = {}
    for p in payloads:
        for rank, value in p["results"].items():
            results[rank] = _unship(value)
    return [results.get(rank) for rank in range(world.size)]
