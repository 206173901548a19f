"""Minimal deterministic discrete-event simulation kernel.

A from-scratch SimPy-like engine: generator-based processes, an event heap
with FIFO tie-breaking (fully deterministic runs), free-time servers for
fixed-service hardware engines, queued resources for locks held across
waits, object stores and interval tracing. Everything else in
:mod:`repro` -- the GPU, the PCIe bus, the InfiniBand fabric, the MPI
library -- is built on these primitives.
"""

from .core import WIRE_KEY_BASE, EmptySchedule, Environment, wire_key
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from .process import Process, ProcessGenerator
from .resources import Request, Resource, Server, Store, StoreGet
from .trace import FaultRecord, Interval, Tracer, union_duration

__all__ = [
    "Environment",
    "EmptySchedule",
    "WIRE_KEY_BASE",
    "wire_key",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Process",
    "ProcessGenerator",
    "Server",
    "Resource",
    "Request",
    "Store",
    "StoreGet",
    "Tracer",
    "Interval",
    "FaultRecord",
    "union_duration",
]
