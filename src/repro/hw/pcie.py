"""PCIe link model: two independent DMA directions between host and device.

PCIe gen2 x16 is full duplex, which is what lets the pipeline overlap
device-to-host drains with host-to-device fills on the receiver. Each
direction is a FIFO free-time :class:`~repro.sim.Server` with one unit per
copy engine (one DMA transfer in flight per direction by default, matching
how the Fermi copy engines operate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Environment, Server

if TYPE_CHECKING:  # pragma: no cover
    from .config import HardwareConfig

__all__ = ["PCIeLink"]


class PCIeLink:
    """The PCIe connection of one GPU to its host."""

    def __init__(self, env: Environment, cfg: "HardwareConfig", name: str = "pcie"):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.h2d = Server(env, capacity=cfg.num_h2d_engines, name=f"{name}.h2d")
        self.d2h = Server(env, capacity=cfg.num_d2h_engines, name=f"{name}.d2h")

    def direction(self, to_device: bool) -> Server:
        return self.h2d if to_device else self.d2h
