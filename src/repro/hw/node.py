"""A cluster node: host memory, CPU, GPUs and the HCA attach point."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..sim import Environment, Server
from .config import HardwareConfig
from .gpu import GPUDevice
from .memory import Arena, BufferPtr

if TYPE_CHECKING:  # pragma: no cover
    from ..ib.verbs import HCA

__all__ = ["Node"]


class Node:
    """One host in the cluster.

    The host CPU is modeled as a single serial free-time server: MPI
    progress, CPU datatype packing and staging memcpys contend for it, which
    is exactly the contention the paper's GPU offload sidesteps.
    """

    def __init__(
        self,
        env: Environment,
        cfg: HardwareConfig,
        node_id: int,
        gpus_per_node: int = 1,
    ):
        if gpus_per_node < 1:
            raise ValueError("a node needs at least one GPU for these experiments")
        self.env = env
        self.cfg = cfg
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.memory = Arena(cfg.host_memory_bytes, space="host", name=self.name)
        self.cpu = Server(env, capacity=1, name=f"{self.name}.cpu")
        self.gpus: List[GPUDevice] = [
            GPUDevice(env, cfg, self, i) for i in range(gpus_per_node)
        ]
        #: Set by the fabric when the node is wired into a cluster.
        self.hca: Optional["HCA"] = None

    @property
    def gpu(self) -> GPUDevice:
        """The first GPU (the experiments use one GPU per process)."""
        return self.gpus[0]

    def malloc_host(self, nbytes: int) -> BufferPtr:
        """Allocate (registered) host memory."""
        return self.memory.alloc(nbytes)

    def free_host(self, ptr: BufferPtr) -> None:
        self.memory.free(ptr)

    def find_gpu(self, ptr: BufferPtr) -> Optional[GPUDevice]:
        """The GPU owning ``ptr``, or None for host pointers."""
        for gpu in self.gpus:
            if gpu.owns(ptr):
                return gpu
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} gpus={len(self.gpus)}>"
