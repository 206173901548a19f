"""Pinned scheduled-event budgets: how many events a run costs the kernel.

Each case counts ``env._eid`` (every event the environment schedules,
which is what the benchmark's ``sim.events`` metric counts) across
``MpiWorld.run``. The count is a property of the simulator's plumbing,
not of the host, so the exact value holds on any machine and needs no
timer. Simulated results are pinned elsewhere (the kernel oracle); this
pins what producing them costs. A change here is either a regression or a
deliberate plumbing change that must re-pin the value and say so.
"""

import pytest

from repro.apps.stencil2d import StencilConfig, run_stencil
from repro.mpi import MpiWorld
from repro.sim import Tracer
from tests.sim.test_kernel_oracle import _colocated_ranks, _vector_transfer


def _stencil_op():
    """One timing-only 4 x 4 Stencil2D op on 64 x 4096 fp32 tiles."""
    cfg = StencilConfig(4, 4, 64, 4096, iterations=2, functional=False)
    run_stencil(cfg, tracer=Tracer(enabled=False))


#: name -> (run, events scheduled inside MpiWorld.run).
BUDGETS = {
    "stencil16_timing": (_stencil_op, 3849),
    "vector_1mib": (_vector_transfer, 385),
    "colocated_ranks": (_colocated_ranks, 194),
}


@pytest.fixture
def run_events(monkeypatch):
    """Record the scheduled-event delta of every ``MpiWorld.run``."""
    deltas = []
    real = MpiWorld.run

    def counted(self, *args, **kwargs):
        before = self.env._eid
        try:
            return real(self, *args, **kwargs)
        finally:
            deltas.append(self.env._eid - before)

    monkeypatch.setattr(MpiWorld, "run", counted)
    return deltas


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_event_budget(name, run_events):
    run, expected = BUDGETS[name]
    run()
    assert len(run_events) == 1
    assert run_events[0] == expected, (
        f"{name}: {run_events[0]} events scheduled, pinned {expected}. "
        "Event counts change only deliberately: if this change is meant "
        "to alter the simulator's plumbing, re-pin the value here and "
        "record the old and new counts in CHANGES.md."
    )
