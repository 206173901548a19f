"""InfiniBand verbs and fabric models (RDMA write, control messages)."""

from .fabric import Fabric
from .faults import CancelToken, FaultInjector, FaultPlan, FaultSpec, RdmaError
from .verbs import HCA, RemoteBuffer

__all__ = [
    "Fabric",
    "HCA",
    "RemoteBuffer",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "RdmaError",
    "CancelToken",
]
