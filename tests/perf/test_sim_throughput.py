"""Perf guards for the event kernel, each comparing two same-host timings.

The throughput reference lives in ``BENCH_hotpath.json``
(``sim_throughput.events_per_probe``), written by
``benchmarks/bench_sim_throughput.py``: kernel events the reference
timeout mesh retires in the time one run of the frozen
``benchmarks/calibration_probe.py`` takes. Both sides of that ratio are
timed on the host running the guard, so a slow or loaded machine slows
them alike and the 30% bound means the same everywhere.
"""

import sys
from pathlib import Path

import pytest

from repro.perf.hotpath import load

pytestmark = pytest.mark.perf

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(_BENCH_DIR))
try:
    from bench_sim_throughput import measure_events_per_probe, measure_fig5_wallclock
finally:
    sys.path.remove(str(_BENCH_DIR))

#: Idle loop turns per mesh event for the seeded slowdown: several times
#: the cost of an event, far beyond the 30% the gate must catch.
SEEDED_BURN = 200


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


def test_event_wheel_not_slower_than_heap_on_fig5():
    """The calendar wheel must be neutral-to-better on a paper workload.

    Both sides are measured fresh on this host (best-of-5 each), so the
    comparison is immune to cross-machine drift; the pinned pair in
    ``BENCH_hotpath.json`` (written by the benchmark) gates whether the
    guard runs at all, and a generous 2x ceiling against the pinned heap
    number additionally catches gross same-class-host regressions.
    """
    ref = load().get("wheel_baseline")
    if not ref or "heap_seconds" not in ref:
        pytest.skip("no wheel_baseline recorded in BENCH_hotpath.json")
    wheel = measure_fig5_wallclock(True)
    heap = measure_fig5_wallclock(False)
    assert wheel <= 1.25 * heap, (
        f"event wheel pessimizes fig5:quick: {wheel:.3f}s with wheel vs "
        f"{heap:.3f}s pure heap (allowed: 1.25x for timer jitter)"
    )
    assert wheel <= 2.0 * ref["heap_seconds"], (
        f"fig5:quick with wheel took {wheel:.3f}s vs pinned heap baseline "
        f"{ref['heap_seconds']}s ({ref.get('workload', '?')})"
    )
