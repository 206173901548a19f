"""Perf guards for the event kernel, each comparing two same-host timings.

The throughput reference lives in ``BENCH_hotpath.json``
(``sim_throughput.events_per_probe``), written by
``benchmarks/bench_sim_throughput.py``: kernel events the reference
timeout mesh retires in the time one run of the frozen
``benchmarks/calibration_probe.py`` takes. Both sides of that ratio are
timed on the host running the guard, so a slow or loaded machine slows
them alike and the 30% bound means the same everywhere. The fig5 guard's
ceiling (``fig5_baseline.per_probe``, fig5:quick seconds per probe run)
is a same-host ratio for the same reason.
"""

import sys
from pathlib import Path

import pytest

from repro.perf.hotpath import load

pytestmark = pytest.mark.perf

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(_BENCH_DIR))
try:
    from bench_sim_throughput import (
        measure_events_per_probe,
        measure_fig5_per_probe,
    )
finally:
    sys.path.remove(str(_BENCH_DIR))

#: Idle loop turns per mesh event for the seeded slowdown: several times
#: the cost of an event, far beyond the 30% the gate must catch.
SEEDED_BURN = 200

#: fig5:quick runs per timed repeat for the seeded fig5 slowdown: twice
#: the 2x ceiling, so host noise cannot hide it.
SEEDED_FIG5_RUNS = 4


def throughput_gate(measured: float, recorded: float):
    """None when ``measured`` is within 30% of ``recorded``, else why not."""
    if measured >= 0.7 * recorded:
        return None
    return (
        f"sim throughput regressed >30%: {measured:.0f} events per probe vs "
        f"recorded {recorded:.0f}"
    )


@pytest.fixture(scope="module")
def recorded_ratio():
    ref = load().get("sim_throughput") or {}
    if "events_per_probe" not in ref:
        pytest.skip("no sim_throughput.events_per_probe in BENCH_hotpath.json")
    return ref["events_per_probe"]


@pytest.fixture(scope="module")
def fresh_ratio():
    return measure_events_per_probe()


def test_sim_throughput_within_30_percent_of_recorded(recorded_ratio, fresh_ratio):
    failure = throughput_gate(fresh_ratio, recorded_ratio)
    assert failure is None, failure


def test_gate_trips_on_seeded_mesh_slowdown(recorded_ratio, fresh_ratio):
    slowed = measure_events_per_probe(repeats=2, burn=SEEDED_BURN)
    assert slowed < 0.7 * fresh_ratio, (
        f"seeded burn slowed the mesh only to {slowed / fresh_ratio:.0%}"
    )
    assert throughput_gate(slowed, recorded_ratio) is not None


def fig5_ceiling_gate(per_probe: float, recorded: float):
    """None when fig5:quick stays within 2x of the recorded time (both in
    probe runs), else why not."""
    if per_probe <= 2.0 * recorded:
        return None
    return (
        f"fig5:quick took {per_probe:.2f} probe runs vs recorded "
        f"baseline {recorded:.2f} (allowed: 2x)"
    )


@pytest.fixture(scope="module")
def recorded_fig5_per_probe():
    ref = load().get("fig5_baseline") or {}
    if "per_probe" not in ref:
        pytest.skip("no fig5_baseline.per_probe in BENCH_hotpath.json")
    return ref["per_probe"]


def test_fig5_within_2x_of_recorded(recorded_fig5_per_probe):
    """A gross kernel or engine regression shows on a paper workload.

    fig5:quick and the frozen calibration probe are both timed on this
    host, so the 2x ceiling against the recorded time means the same on
    any machine.
    """
    failure = fig5_ceiling_gate(measure_fig5_per_probe(), recorded_fig5_per_probe)
    assert failure is None, failure


def test_fig5_ceiling_trips_on_seeded_slowdown(recorded_fig5_per_probe):
    slowed = measure_fig5_per_probe(repeats=2, slowdown=SEEDED_FIG5_RUNS)
    assert fig5_ceiling_gate(slowed, recorded_fig5_per_probe) is not None
