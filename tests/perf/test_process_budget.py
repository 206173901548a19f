"""Pinned process budgets: how many ``Process`` objects a run starts.

Message transfers run as callback flows (:mod:`repro.mpi.protocol`), so
the only processes a budgeted ``MpiWorld.run`` starts are its rank
programs plus the verbs layer's loopback control deliveries between
co-located ranks. A per-message generator process coming back shows up
here as a count proportional to the message count. Like the event
budgets beside it, the count is a property of the plumbing, not of the
host.
"""

import pytest

from repro.mpi import MpiWorld
from repro.sim.process import Process
from tests.perf.test_event_budget import BUDGETS

#: name -> Process objects created inside MpiWorld.run.
PROCESSES = {
    "stencil16_timing": 16,  # the 16 rank programs
    "vector_1mib": 2,  # the 2 rank programs
    "colocated_ranks": 12,  # 4 rank programs + 8 ctl-loopback deliveries
}


@pytest.fixture
def run_processes(monkeypatch):
    """Record the Process constructions of every ``MpiWorld.run``."""
    counts = []
    created = [0]
    real_init = Process.__init__
    real_run = MpiWorld.run

    def init(self, *args, **kwargs):
        created[0] += 1
        real_init(self, *args, **kwargs)

    def counted(self, *args, **kwargs):
        created[0] = 0
        try:
            return real_run(self, *args, **kwargs)
        finally:
            counts.append(created[0])

    monkeypatch.setattr(Process, "__init__", init)
    monkeypatch.setattr(MpiWorld, "run", counted)
    return counts


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_process_budget(name, run_processes):
    BUDGETS[name][0]()
    assert run_processes == [PROCESSES[name]], (
        f"{name}: {run_processes} processes started, pinned "
        f"{PROCESSES[name]}. Transfers run as callback flows; a new "
        "per-message process is a regression."
    )
