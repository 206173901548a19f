"""One-sided communication (MPI-2 RMA): windows, Put/Get, fence and locks.

Windows expose registered host memory for direct remote access. The data
path is pure RDMA:

* contiguous ``Put`` is one RDMA write into the target window;
* contiguous ``Get`` is one RDMA read served by the target HCA's responder
  (no target CPU);
* ``Put`` with a derived *target* datatype travels packed and is scattered
  by the target's progress agent (how real MPIs implement non-contiguous
  one-sided targets);
* device-resident *origin* buffers are staged through the host with a
  charged CUDA copy before/after the wire operation, matching the
  pre-GPUDirect-RMA era the paper sits in.

Synchronization:

* **Fence** (active target): completes all locally-issued ops, then runs a
  counting handshake -- each rank announces how many update operations it
  issued toward every peer, and each peer waits until it has observed that
  many -- followed by a barrier. This is the classic MPICH algorithm,
  scaled to the simulator's small worlds.
* **Lock/Unlock** (passive target): a per-window remote mutex implemented
  with lock-request/grant/release control messages served by the target's
  progress agent; exclusive and shared modes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..hw.memory import BufferPtr
from ..ib.verbs import RemoteBuffer
from ..sim import Event, Store
from .datatype import Datatype
from .pack import (
    check_buffer_bounds,
    host_pack_range_time,
    pack_bytes,
    unpack_array_into,
)
from .status import MpiError

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm

__all__ = ["Win", "LOCK_EXCLUSIVE", "LOCK_SHARED"]

LOCK_EXCLUSIVE = 1
LOCK_SHARED = 2

_win_ids = itertools.count(1)


@dataclass
class _LockState:
    """Target-side lock bookkeeping for one window."""

    holders: int = 0
    exclusive: bool = False
    queue: List[dict] = field(default_factory=list)


class Win:
    """One rank's handle on a collectively-created RMA window."""

    def __init__(self, comm: "Comm", buf: Optional[BufferPtr], win_id):
        self.comm = comm
        self.endpoint = comm.endpoint
        self.buf = buf
        self.win_id = win_id
        #: comm rank -> RemoteBuffer of that rank's exposed window
        self.remotes: Dict[int, Optional[RemoteBuffer]] = {}
        #: update-ops issued toward each target since the last fence
        self._issued: Dict[int, int] = {}
        #: update-ops observed locally since the last fence
        self._received = 0
        self._pending: List[Event] = []
        self._lock_state = _LockState()
        self._register_handlers()

    # -- collective construction ------------------------------------------------------
    @classmethod
    def create(cls, comm: "Comm", buf: Optional[BufferPtr]):
        """``MPI_Win_create`` (a generator; collective over ``comm``).

        ``buf`` must be host memory (or None for a zero-size window).
        """
        if buf is not None and buf.space != "host":
            raise MpiError(
                "RMA windows expose host memory; stage device data "
                "explicitly (pre-GPUDirect-RDMA semantics)"
            )
        # A window id every member derives identically.
        win_id = ("win", comm.comm_id, comm._epoch)
        comm._epoch += 1
        win = cls(comm, buf, win_id)
        local = (
            comm.endpoint.hca.register(buf) if buf is not None else None
        )
        entry = (
            (local.node_id, local.offset, local.nbytes)
            if local is not None else (-1, -1, -1)
        )
        from . import collectives as _coll

        entries = yield from _coll.allgather_obj(comm, entry)
        for rank, (node_id, offset, nbytes) in enumerate(entries):
            win.remotes[rank] = (
                None if node_id < 0 else RemoteBuffer(node_id, offset, nbytes)
            )
        return win

    # -- message handlers ----------------------------------------------------------------
    def _register_handlers(self) -> None:
        ep = self.endpoint
        ep.register_handler(f"rma_put_packed:{self.win_id}", _on_put_packed)
        ep.register_handler(f"rma_count:{self.win_id}", _on_count)
        ep.register_handler(f"rma_lock:{self.win_id}", _on_lock)
        ep.register_handler(f"rma_lock_granted:{self.win_id}", _on_lock_granted)
        ep.register_handler(f"rma_unlock:{self.win_id}", _on_unlock)
        ep._rma_windows = getattr(ep, "_rma_windows", {})
        ep._rma_windows[self.win_id] = self

    # -- data movement ----------------------------------------------------------------------
    def _target_window(self, target_rank: int, disp: int, nbytes: int) -> RemoteBuffer:
        remote = self.remotes.get(target_rank)
        if remote is None:
            raise MpiError(f"rank {target_rank} exposed no window memory")
        if disp < 0 or disp + nbytes > remote.nbytes:
            raise MpiError(
                f"RMA access [{disp}, {disp + nbytes}) outside window of "
                f"{remote.nbytes} bytes"
            )
        return remote.sub(disp, nbytes)

    def _stage_origin(self, origin: BufferPtr, count: int, dtype: Datatype):
        """Produce a contiguous host source for an origin buffer."""
        nbytes = dtype.size * count
        if origin.space == "host" and dtype.is_contiguous:
            base = (
                int(dtype.segments_for_count(count).offsets[0]) if nbytes else 0
            )
            return origin.sub(base, nbytes), False
        staged = self.endpoint.node.malloc_host(max(nbytes, 1))
        if origin.space == "device":
            if dtype.is_contiguous:
                base = (
                    int(dtype.segments_for_count(count).offsets[0])
                    if nbytes else 0
                )
                yield from self.endpoint.cuda.memcpy(
                    staged.sub(0, nbytes), origin.sub(base, nbytes)
                )
            else:
                # GPU pack into a device scratch chunk, then contiguous D2H
                # -- the offload primitive, reused for one-sided origins.
                from ..core.gpu_pack import gpu_pack_cost

                scratch = self.endpoint.cuda.malloc(nbytes)
                try:
                    cost = gpu_pack_cost(
                        self.endpoint.cuda, dtype, count, 0, nbytes
                    )
                    done = self.endpoint.cuda.default_stream.enqueue(
                        self.endpoint.cuda.gpu.exec_engine, cost,
                        (lambda: scratch.view()[:nbytes].__setitem__(
                            slice(None), pack_bytes(origin, dtype, count)))
                        if self.endpoint.env.functional else None,
                        label="rma-pack",
                    )
                    yield done
                    yield from self.endpoint.cuda.memcpy(
                        staged.sub(0, nbytes), scratch
                    )
                finally:
                    self.endpoint.cuda.free(scratch)
        else:
            yield from self.endpoint.cpu_work(
                host_pack_range_time(self.endpoint.cfg, dtype, count, 0, nbytes),
                "rma-pack",
            )
            if self.endpoint.env.functional:
                staged.view()[:nbytes] = pack_bytes(origin, dtype, count)
        return staged, True

    def Put(
        self,
        origin: BufferPtr,
        count: int,
        dtype: Datatype,
        target_rank: int,
        target_disp: int = 0,
        target_dtype: Optional[Datatype] = None,
        target_count: Optional[int] = None,
    ):
        """``MPI_Put`` (a generator): update remote window memory.

        Completion here is *local* completion (the origin buffer is
        reusable); remote visibility is ordered by the next Fence/Unlock.
        ``target_dtype``/``target_count`` describe the remote layout and
        default to the origin's; their total size must match.
        """
        dtype.require_committed()
        check_buffer_bounds(origin, dtype, count)
        nbytes = dtype.size * count
        tgt_dtype = target_dtype if target_dtype is not None else dtype
        tgt_count = target_count if target_count is not None else count
        if tgt_dtype.size * tgt_count != nbytes:
            raise MpiError(
                f"Put size mismatch: origin {nbytes} bytes vs target "
                f"{tgt_dtype.size * tgt_count}"
            )
        # Validate the target access BEFORE counting the op toward the next
        # fence, so a rejected Put cannot wedge the epoch accounting.
        if nbytes and tgt_dtype.is_contiguous:
            self._target_window(target_rank, target_disp, nbytes)
        self._issued[target_rank] = self._issued.get(target_rank, 0) + 1
        if nbytes == 0:
            yield self.endpoint.post_control(
                target_rank, {"type": f"rma_count:{self.win_id}"}
            )
            return
        src, owned = yield from self._stage_origin(origin, count, dtype)
        try:
            if tgt_dtype.is_contiguous:
                window = self._target_window(target_rank, target_disp, nbytes)
                if self.endpoint.recovery is None:
                    ev = self.endpoint.hca.rdma_write(src.sub(0, nbytes), window)
                    self._pending.append(ev)
                    yield ev
                else:
                    # Retry path completes inline, so there is nothing left
                    # for Fence/Unlock to flush.
                    from .protocol import rdma_write_safe

                    yield from rdma_write_safe(
                        self.endpoint, src.sub(0, nbytes), window
                    )
                yield self.endpoint.post_control(
                    target_rank, {"type": f"rma_count:{self.win_id}"}
                )
            else:
                # Agent-based path: packed payload + target-side scatter.
                payload = (
                    src.view()[:nbytes].copy()
                    if self.endpoint.env.functional
                    else np.empty(0, np.uint8)
                )
                yield self.endpoint.post_control(
                    target_rank,
                    {
                        "type": f"rma_put_packed:{self.win_id}",
                        "data": payload,
                        "nbytes": nbytes,
                        "disp": target_disp,
                        "tcount": tgt_count,
                        "tdtype": tgt_dtype,
                    },
                    size_bytes=nbytes + 64,
                )
        finally:
            if owned:
                self.endpoint.node.free_host(src)

    def Get(
        self,
        origin: BufferPtr,
        count: int,
        dtype: Datatype,
        target_rank: int,
        target_disp: int = 0,
    ):
        """``MPI_Get`` (a generator): fetch remote window memory via RDMA
        read. Contiguous origin datatypes only (the common fast path)."""
        dtype.require_committed()
        check_buffer_bounds(origin, dtype, count)
        if not dtype.is_contiguous:
            raise MpiError("Get supports contiguous origin datatypes")
        nbytes = dtype.size * count
        if nbytes == 0:
            return
            yield  # pragma: no cover
        window = self._target_window(target_rank, target_disp, nbytes)
        from .protocol import rdma_read_safe

        if origin.space == "host":
            yield from rdma_read_safe(
                self.endpoint, origin.sub(0, nbytes), window
            )
        else:
            staged = self.endpoint.node.malloc_host(nbytes)
            try:
                yield from rdma_read_safe(self.endpoint, staged, window)
                yield from self.endpoint.cuda.memcpy(
                    origin.sub(0, nbytes), staged
                )
            finally:
                self.endpoint.node.free_host(staged)

    # -- synchronization -----------------------------------------------------------------------
    def Fence(self):
        """``MPI_Win_fence`` (a generator): close the access epoch."""
        from . import collectives as _coll

        # Local completion of issued RDMA writes.
        pending, self._pending = self._pending, []
        for ev in pending:
            if not ev.processed:
                yield ev
        # Exchange per-target issued counts (one int per peer).
        counts = tuple(
            self._issued.get(r, 0) for r in range(self.comm.size)
        )
        entries = yield from _coll.allgather_obj(self.comm, counts)
        expected = sum(row[self.comm.rank] for row in entries)
        while self._received < expected:
            yield self.endpoint.arrival_event
        self._received -= expected
        self._issued.clear()
        yield from self.comm.Barrier()

    def Lock(self, target_rank: int, lock_type: int = LOCK_EXCLUSIVE):
        """``MPI_Win_lock`` (a generator): acquire the target's window lock."""
        if lock_type not in (LOCK_EXCLUSIVE, LOCK_SHARED):
            raise MpiError(f"unknown lock type {lock_type}")
        grant = self.endpoint.env.event(label=f"lock-grant:{self.win_id}")
        key = ("lock_wait", self.win_id, target_rank)
        waits = getattr(self.endpoint, "_rma_lock_waits", None)
        if waits is None:
            waits = self.endpoint._rma_lock_waits = {}
        waits[key] = grant
        yield self.endpoint.post_control(
            target_rank,
            {
                "type": f"rma_lock:{self.win_id}",
                "origin": self.comm.rank,
                "lock_type": lock_type,
            },
        )
        yield grant
        del waits[key]

    def Unlock(self, target_rank: int):
        """``MPI_Win_unlock`` (a generator): release + flush ordering."""
        pending, self._pending = self._pending, []
        for ev in pending:
            if not ev.processed:
                yield ev
        yield self.endpoint.post_control(
            target_rank, {"type": f"rma_unlock:{self.win_id}"}
        )

    def Free(self) -> None:
        """``MPI_Win_free`` (local half; handlers stay registered)."""
        self.remotes.clear()


# ---------------------------------------------------------------------------
# Target-side handlers
# ---------------------------------------------------------------------------

def _find_win(endpoint, payload_type: str) -> Win:
    # payload type is "<kind>:<win_id repr>"; handlers are registered per
    # window so we recover the window via the registry.
    for win_id, win in getattr(endpoint, "_rma_windows", {}).items():
        if payload_type.endswith(f":{win_id}"):
            return win
    raise MpiError(f"no window for message {payload_type!r}")


def _on_put_packed(endpoint, payload: dict) -> None:
    win = _find_win(endpoint, payload["type"])

    def proc():
        nbytes = payload["nbytes"]
        tdtype: Datatype = payload["tdtype"]
        tcount = payload["tcount"]
        yield from endpoint.cpu_work(
            host_pack_range_time(endpoint.cfg, tdtype, tcount, 0, nbytes),
            "rma-scatter",
        )
        if endpoint.env.functional and win.buf is not None:
            unpack_array_into(
                payload["data"], tdtype, tcount,
                win.buf.sub(payload["disp"]),
            )
        win._received += 1
        endpoint.note_arrival()

    endpoint.env.spawn(proc(), name=f"rma-scatter:rank{endpoint.rank}")


def _on_count(endpoint, payload: dict) -> None:
    win = _find_win(endpoint, payload["type"])
    win._received += 1
    endpoint.note_arrival()


def _on_lock(endpoint, payload: dict) -> None:
    win = _find_win(endpoint, payload["type"])
    state = win._lock_state
    wants_excl = payload["lock_type"] == LOCK_EXCLUSIVE
    can_grant = state.holders == 0 or (not state.exclusive and not wants_excl)
    if can_grant:
        state.holders += 1
        state.exclusive = wants_excl
        endpoint.post_control(
            payload["origin"],
            {"type": f"rma_lock_granted:{win.win_id}", "target": endpoint.rank},
        )
    else:
        state.queue.append(payload)


def _on_lock_granted(endpoint, payload: dict) -> None:
    win = _find_win(endpoint, payload["type"])
    key = ("lock_wait", win.win_id, payload["target"])
    endpoint._rma_lock_waits[key].succeed()


def _on_unlock(endpoint, payload: dict) -> None:
    win = _find_win(endpoint, payload["type"])
    state = win._lock_state
    state.holders -= 1
    if state.holders == 0:
        state.exclusive = False
        while state.queue:
            nxt = state.queue[0]
            wants_excl = nxt["lock_type"] == LOCK_EXCLUSIVE
            if state.holders == 0 or (not state.exclusive and not wants_excl):
                state.queue.pop(0)
                state.holders += 1
                state.exclusive = wants_excl
                endpoint.post_control(
                    nxt["origin"],
                    {"type": f"rma_lock_granted:{win.win_id}",
                     "target": endpoint.rank},
                )
                if wants_excl:
                    break
            else:
                break
