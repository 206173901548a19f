"""InfiniBand verbs-level model: HCAs, control sends, RDMA writes.

The model keeps the properties the paper's protocol relies on:

* **RDMA write** moves bytes from registered local host memory directly
  into registered remote host memory with no remote CPU involvement; the
  sender gets a local completion event.
* **Send/recv control messages** (RTS, CTS, RDMA-finish) are small,
  CPU-handled messages. The receiving HCA hands each one to its node's
  *control sink* (:attr:`HCA.control_sink`, installed by the MPI layer)
  the moment it lands; no progress thread polls for them.
* Messages between a given pair of HCAs are delivered in order (reliable
  connection semantics): all traffic serializes through the sender's TX
  engine and experiences the same wire latency.

The TX engine is a FIFO free-time :class:`~repro.sim.Server`: posting an
operation claims its transmission slot at once and schedules one
completion at the slot's end, where the trace record, local completion
and wire emission happen.

Every remote-side effect -- a control delivery, an RDMA payload landing, a
read request reaching its responder, a read response returning -- is
scheduled as a *wire-delivery event* (:meth:`Environment.schedule_wire`)
keyed by ``(arrival time, source node, per-source sequence)``. The key is
computed entirely from sender-local state, so the delivery order of
same-instant arrivals is independent of how the simulation is partitioned:
the sharded engine (:mod:`repro.sim.shard`) reconstructs the identical key
on the receiving shard and the whole run stays bit-identical to the
sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..sim import Environment, Event, Server, SimulationError, Tracer, wire_key
from ..sim.events import RECYCLABLE_CALLBACKS
from ..hw.config import HardwareConfig
from ..hw.memory import BufferPtr
from .faults import CancelToken, RdmaError

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.node import Node
    from .fabric import Fabric

__all__ = ["HCA", "RemoteBuffer"]


@dataclass(frozen=True)
class RemoteBuffer:
    """An RDMA-addressable window in a remote node's host memory.

    In real verbs this is (virtual address, rkey); here it is (node id,
    arena offset, length). Produced by :meth:`HCA.register` and shipped to
    peers inside CTS messages.
    """

    node_id: int
    offset: int
    nbytes: int

    def sub(self, offset: int, nbytes: int) -> "RemoteBuffer":
        if offset < 0 or offset + nbytes > self.nbytes:
            raise ValueError("sub-window exceeds registered remote buffer")
        return RemoteBuffer(self.node_id, self.offset + offset, nbytes)


class HCA:
    """One InfiniBand host channel adapter."""

    def __init__(
        self,
        env: Environment,
        cfg: HardwareConfig,
        node: "Node",
        fabric: "Fabric",
        tracer: Tracer,
    ):
        self.env = env
        self.cfg = cfg
        self.node = node
        self.fabric = fabric
        self.tracer = tracer
        self.name = f"hca{node.node_id}"
        self.tx = Server(env, capacity=1, name=f"{self.name}.tx")
        #: ``sink(src_node, payload)``, called with every control message
        #: the moment it lands here; the MPI layer installs its router.
        self.control_sink: Callable[[int, Any], None] = self._no_sink
        #: dst node id -> completion event label; building an f-string per
        #: control message is measurable on the hot path.
        self._ctl_labels: Dict[int, str] = {}
        self._loopback_label = f"ctl-loopback:{self.name}"
        self._loopback_pname = f"ctl-loopback {self.name}"
        #: Monotonic count of wire emissions by this node; combined with
        #: the node id it keys every remote delivery (see module docstring).
        self._wire_seq = 0
        #: dst node id -> wire latency; the fabric topology is static, so
        #: each pair's latency is computed once (uniform fabrics always
        #: cache cfg.net_latency and behave exactly as before).
        self._lat_cache: Dict[int, float] = {}
        node.hca = self

    def _latency(self, dst_node: int) -> float:
        lat = self._lat_cache.get(dst_node)
        if lat is None:
            lat = self._lat_cache[dst_node] = self.fabric.latency(
                self.node.node_id, dst_node
            )
        return lat

    def _next_wire_key(self) -> int:
        """Queue key for this HCA's next wire emission.

        Consumed exactly once per emission on both the local and the
        cross-shard branch, so a node's emission counter advances
        identically no matter where its peers live.
        """
        self._wire_seq += 1
        return wire_key(self.node.node_id, self._wire_seq)

    # -- registration ---------------------------------------------------------------
    def register(self, ptr: BufferPtr) -> RemoteBuffer:
        """Expose a local host buffer for remote RDMA access."""
        if ptr.space != "host":
            raise ValueError("only host memory can be registered for RDMA")
        if ptr.arena is not self.node.memory:
            raise ValueError("buffer does not belong to this HCA's node")
        return RemoteBuffer(self.node.node_id, ptr.offset, ptr.nbytes)

    def resolve(self, rbuf: RemoteBuffer) -> BufferPtr:
        """Local pointer for a remote-buffer handle naming *this* node."""
        if rbuf.node_id != self.node.node_id:
            raise ValueError(
                f"remote buffer names node {rbuf.node_id}, this is node "
                f"{self.node.node_id}"
            )
        return BufferPtr(self.node.memory, rbuf.offset, rbuf.nbytes)

    # -- verbs ------------------------------------------------------------------------
    #
    # Each posting method claims its TX slot immediately and schedules one
    # completion timeout at the slot's end. The timeout carries the
    # operation's state as its value, so the completion handler is a plain
    # method and the timeout goes back to the event pool afterwards.

    def rdma_write(
        self,
        src: BufferPtr,
        dst: RemoteBuffer,
        token: Optional[CancelToken] = None,
    ) -> Event:
        """Post an RDMA write; returns the local completion event.

        Local completion fires when the HCA has finished reading the source
        buffer (TX done: the buffer is safe to reuse); the destination bytes
        become visible one wire latency later. A FIN control message posted
        after local completion serializes behind the data on the same
        reliable connection, so it can never announce bytes that have not
        landed -- matching the paper's protocol.

        ``token`` (retry layer only): cancelling it abandons the attempt --
        an in-flight write will not touch remote memory nor complete.
        """
        if src.space != "host":
            raise ValueError("RDMA source must be registered host memory")
        if src.nbytes != dst.nbytes:
            raise ValueError(
                f"RDMA size mismatch: local {src.nbytes} vs remote {dst.nbytes}"
            )
        done = self.env.event(label=f"rdma:{self.name}->{dst.node_id}")
        self._rdma_proc(src, dst, done, token)
        return done

    def _rdma_proc(
        self,
        src: BufferPtr,
        dst: RemoteBuffer,
        done: Event,
        token: Optional[CancelToken] = None,
    ) -> None:
        cfg = self.cfg
        inj = self.fabric.injector
        act = (
            inj.on_rdma("rdma_write", self.node.node_id, dst.node_id, src.nbytes)
            if inj is not None else None
        )
        # Fault: a stall wedges the TX engine before it streams the payload.
        start, end = self.tx.claim(
            cfg.net_post_overhead + src.nbytes / cfg.net_bandwidth,
            act.stall if act is not None else 0.0,
        )
        self.env.timeout_at(end, (start, src, dst, done, token, act)).callbacks.append(
            self._rdma_sent
        )

    def _rdma_sent(self, event: Event) -> None:
        start, src, dst, done, token, act = event.value
        if self.tracer.enabled:
            self.tracer.record(
                start, self.env.now, f"{self.name}.tx", "rdma_write",
                bytes=src.nbytes, dst=dst.node_id,
            )
        if token is not None and token.cancelled:
            # Abandoned by the retry layer while stalled in TX: never
            # completes and never touches remote memory.
            return
        if act is not None and act.fail:
            done.fail(RdmaError(
                f"rdma_write {self.name}->{dst.node_id} "
                f"({src.nbytes} bytes) completed in error"
            ))
            return
        # Local completion: the HCA has read the source buffer, the caller
        # may reuse it. The payload snapshot taken here is what lands
        # remotely one wire latency later.
        data = src.view().copy() if self.env.functional else None
        done.succeed()
        arrival = self.env.now + self._latency(dst.node_id)
        key = self._next_wire_key()
        if not self.fabric.is_local(dst.node_id):
            # Cross-shard: the snapshot ships through the bridge and the
            # owning shard injects the same keyed delivery at the arrival
            # instant. A post-completion token cancel is unreachable (the
            # retry layer only cancels attempts that never completed), so
            # the in-flight check below has no cross-shard counterpart.
            if data is not None:
                self.fabric.bridge.send_rdma(
                    dst.node_id, dst.offset, data, arrival, key,
                )
            return
        target_node = self.fabric.nodes[dst.node_id]

        def land(_event):
            if token is not None and token.cancelled:
                return
            if data is not None:
                BufferPtr(target_node.memory, dst.offset, dst.nbytes).view()[:] = data

        self.env.schedule_wire(arrival, key, land, label="wire-rdma")

    def rdma_read(
        self,
        dst: BufferPtr,
        src: RemoteBuffer,
        token: Optional[CancelToken] = None,
    ) -> Event:
        """Post an RDMA read: fetch remote host memory into a local buffer.

        The request rides to the target whose HCA *responder* streams the
        data back; the target CPU is not involved. Completion fires at the
        origin once the data has landed.

        ``token`` (retry layer only): cancelling it abandons the attempt --
        an in-flight read will not write the local buffer nor complete.
        """
        if dst.space != "host":
            raise ValueError("RDMA read destination must be host memory")
        if dst.nbytes != src.nbytes:
            raise ValueError(
                f"RDMA size mismatch: local {dst.nbytes} vs remote {src.nbytes}"
            )
        done = self.env.event(label=f"rdma-read:{self.name}<-{src.node_id}")
        self._rdma_read_proc(dst, src, done, token)
        return done

    def _rdma_read_proc(
        self,
        dst: BufferPtr,
        src: RemoteBuffer,
        done: Event,
        token: Optional[CancelToken] = None,
    ) -> None:
        inj = self.fabric.injector
        act = (
            inj.on_rdma("rdma_read", self.node.node_id, src.node_id, src.nbytes)
            if inj is not None else None
        )
        # Post the read request (small work request on our TX queue).
        _, end = self.tx.claim(self.cfg.net_post_overhead)
        self.env.timeout_at(end, (dst, src, done, token, act)).callbacks.append(
            self._read_posted
        )

    def _read_posted(self, event: Event) -> None:
        dst, src, done, token, act = event.value
        arrival = self.env.now + self._latency(src.node_id)
        key = self._next_wire_key()
        stall = act.stall if act is not None else 0.0
        fail_msg = (
            f"rdma_read {self.name}<-{src.node_id} "
            f"({src.nbytes} bytes) completed in error"
        )
        if not self.fabric.is_local(src.node_id):
            # Cross-shard: ship the request to the shard owning the target;
            # its responder TX streams under that shard's contention and the
            # bridge completes ``done`` here when the response lands.
            self.fabric.bridge.post_read(
                dst, src, done, act, token, arrival, key,
                origin_node=self.node.node_id, fail_msg=fail_msg,
            )
            return

        # Local: the request arrives at the responder one latency out; the
        # responder streams over its own TX and its response arrives back
        # here as another keyed wire delivery. Identical structure -- same
        # keys, same snapshot point (responder TX end) -- to the bridged
        # cross-shard path.
        responder = self.fabric.hcas[src.node_id]
        env = self.env

        def complete(data):
            def apply(_event):
                if token is not None and token.cancelled:
                    return
                if act is not None and act.fail:
                    done.fail(RdmaError(fail_msg))
                    return
                if data is not None:
                    dst.view()[:] = data
                done.succeed()
            return apply

        def deliver(resp_arrival, resp_key, data):
            env.schedule_wire(
                resp_arrival, resp_key, complete(data), label="wire-rresp"
            )

        def request_arrives(_event):
            responder._read_respond_proc(
                src.offset, src.nbytes, stall, self.node.node_id, deliver
            )

        env.schedule_wire(arrival, key, request_arrives, label="wire-rreq")

    def _read_respond_proc(self, offset: int, nbytes: int, stall: float,
                           origin_node: int, deliver) -> None:
        """Responder half of an RDMA read (this HCA owns the data).

        Streams ``nbytes`` over this HCA's TX engine (queueing behind its
        other traffic; a fault ``stall`` wedges it first), snapshots the
        window at TX end, and hands ``deliver(arrival, key, data)`` the
        response's precomputed wire arrival and key. Shared verbatim by the
        sequential path above and the shard bridge's request injection, so
        both stream under the same contention and snapshot at the same
        instant.
        """
        start, end = self.tx.claim(nbytes / self.cfg.net_bandwidth, stall)
        self.env.timeout_at(
            end, (start, offset, nbytes, origin_node, deliver)
        ).callbacks.append(self._read_streamed)

    def _read_streamed(self, event: Event) -> None:
        start, offset, nbytes, origin_node, deliver = event.value
        env = self.env
        if self.tracer.enabled:
            self.tracer.record(
                start, env.now, f"{self.name}.tx", "rdma_read_resp",
                bytes=nbytes, origin=origin_node,
            )
        data = None
        if env.functional:
            data = self.node.memory.raw[offset : offset + nbytes].copy()
        deliver(env.now + self._latency(origin_node), self._next_wire_key(), data)

    def send_control(self, dst_node: int, payload: Any, size_bytes: int = 64) -> Event:
        """Send a small control message; returns the local completion event.

        The message reaches the destination node's control sink one wire
        latency after the local send completes.
        """
        if dst_node == self.node.node_id:
            # Loopback: skip the wire, deliver through host memory latency.
            done = self.env.event(label=self._loopback_label)
            self.env.spawn(
                self._loopback_proc(payload, size_bytes, done),
                name=self._loopback_pname,
            )
            return done
        label = self._ctl_labels.get(dst_node)
        if label is None:
            label = self._ctl_labels[dst_node] = f"ctl:{self.name}->{dst_node}"
        done = self.env.event(label=label)
        self._control_proc(dst_node, payload, size_bytes, done)
        return done

    def _loopback_proc(self, payload: Any, size: int, done: Event):
        # Self-sends bypass the fabric (and fault injection) but still pay
        # the control-path CPU overhead plus a host-memory copy of the
        # message body.
        cfg = self.cfg
        yield self.env.timeout(
            cfg.net_control_overhead + size / cfg.host_memcpy_bandwidth
        )
        # Two same-instant hops: one completes the send, then one delivers.
        sent = self.env.timeout(0.0)
        self.env.timeout(0.0).callbacks.append(
            lambda _event: self.control_sink(self.node.node_id, payload)
        )
        yield sent
        done.succeed()

    def _no_sink(self, src_node: int, payload: Any) -> None:
        rank = payload.get("dst_rank") if isinstance(payload, dict) else None
        raise SimulationError(
            f"control message from node {src_node} for rank {rank} landed "
            f"on node {self.node.node_id}, which has no control sink"
        )

    def _control_proc(self, dst_node: int, payload: Any, size: int,
                      done: Event) -> None:
        cfg = self.cfg
        inj = self.fabric.injector
        act = (
            inj.on_control(self.node.node_id, dst_node, payload)
            if inj is not None else None
        )
        start, end = self.tx.claim(
            cfg.net_post_overhead
            + cfg.net_control_overhead
            + size / cfg.net_bandwidth
        )
        self.env.timeout_at(end, (start, dst_node, payload, done, act)).callbacks.append(
            self._control_sent
        )

    def _control_sent(self, event: Event) -> None:
        start, dst_node, payload, done, act = event.value
        cfg = self.cfg
        if self.tracer.enabled:
            self.tracer.record(
                start, self.env.now, f"{self.name}.tx", "control",
                dst=dst_node,
            )
        # Local completion does not imply delivery: a dropped message still
        # completes at the sender, exactly like a real unacked control path.
        done.succeed()
        if act is not None and act.drop:
            return
        delay = self._latency(dst_node) + (act.delay if act is not None else 0.0)
        arrival = self.env.now + delay
        key = self._next_wire_key()
        duplicate = act is not None and act.duplicate
        # An injected duplicate trails the original by one control overhead.
        dup_arrival = arrival + cfg.net_control_overhead
        dup_key = self._next_wire_key() if duplicate else None
        if not self.fabric.is_local(dst_node):
            # Cross-shard: enqueue the delivery (and any injected
            # duplicate) on the bridge at send time; the owning shard
            # injects it with the identical key at the same arrival
            # instant the local path below uses.
            self.fabric.bridge.send_ctl(
                self.node.node_id, dst_node, payload, arrival, key,
            )
            if duplicate:
                self.fabric.bridge.send_ctl(
                    self.node.node_id, dst_node, payload, dup_arrival, dup_key,
                )
            return
        dst_hca = self.fabric.hcas[dst_node]
        src_node = self.node.node_id

        def land(_event):
            dst_hca.control_sink(src_node, payload)

        self.env.schedule_wire(arrival, key, land, label="wire-ctl")
        if duplicate:
            self.env.schedule_wire(dup_arrival, dup_key, land, label="wire-ctl")


# Each TX completion timeout is referenced only by the schedule and its
# handler, which unpacks the value and drops the event, so it is
# recyclable the moment the handler returns.
RECYCLABLE_CALLBACKS.update((
    HCA._rdma_sent, HCA._read_posted, HCA._read_streamed, HCA._control_sent,
))
