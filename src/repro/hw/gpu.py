"""The simulated GPU device: memory arena plus three hardware engines.

A Fermi-class GPU executes three kinds of work concurrently:

* host-to-device DMA (copy engine 1),
* device-to-host DMA (copy engine 2),
* kernel execution and device-internal copies (the SMs).

The paper's offload design depends on exactly this concurrency: the 2-D
pack runs on the execution engine while earlier chunks drain to the host on
the D2H engine. Each engine is a FIFO free-time :class:`~repro.sim.Server`
with ``num_*_engines`` units (one by default); the ablation config
``HardwareConfig.single_engine_gpu()`` collapses them into one shared
engine to quantify how much of the speedup the concurrency provides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Environment, Server
from .config import CopyKind, HardwareConfig
from .memory import Arena, BufferPtr
from .pcie import PCIeLink

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["GPUDevice"]


class GPUDevice:
    """One GPU: device memory, PCIe link and execution engine."""

    def __init__(
        self,
        env: Environment,
        cfg: HardwareConfig,
        node: "Node",
        gpu_id: int,
    ):
        self.env = env
        self.cfg = cfg
        self.node = node
        self.gpu_id = gpu_id
        self.name = f"node{node.node_id}.gpu{gpu_id}"
        self.memory = Arena(cfg.device_memory_bytes, space="device", name=self.name)
        if cfg.shared_engines:
            # Ablation: one engine serves everything.
            shared = Server(env, capacity=1, name=f"{self.name}.engine")
            self.pcie = PCIeLink(env, cfg, name=f"{self.name}.pcie")
            self.pcie.h2d = shared
            self.pcie.d2h = shared
            self.exec_engine = shared
        else:
            self.pcie = PCIeLink(env, cfg, name=f"{self.name}.pcie")
            self.exec_engine = Server(
                env, capacity=cfg.num_exec_engines, name=f"{self.name}.exec"
            )

    def engine_for(self, kind: CopyKind) -> Server:
        """The hardware engine that serves a copy of the given kind."""
        if kind is CopyKind.H2D:
            return self.pcie.h2d
        if kind is CopyKind.D2H:
            return self.pcie.d2h
        if kind is CopyKind.D2D:
            return self.exec_engine
        raise ValueError(f"GPU does not serve {kind} copies")

    def owns(self, ptr: BufferPtr) -> bool:
        """Whether ``ptr`` points into this GPU's memory."""
        return ptr.arena is self.memory

    def malloc(self, nbytes: int) -> BufferPtr:
        """Allocate device memory (the functional half of ``cudaMalloc``)."""
        return self.memory.alloc(nbytes)

    def free(self, ptr: BufferPtr) -> None:
        self.memory.free(ptr)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GPUDevice {self.name}>"
