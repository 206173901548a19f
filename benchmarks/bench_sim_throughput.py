"""Simulator event throughput: how many events/second the kernel retires.

Not a paper figure -- this measures the *simulator's own* hot loop (the
event heap, the immediate lane, the pooled Timeout allocator), which is
what the compiled-plan/pooled-event work optimizes. The workload is a mesh
of timeout-driven processes: half advance by positive delays (heap path),
half by zero delays (immediate lane), which together mirror the mix the
5-stage pipeline generates.

Recording: ``BENCH_hotpath.json`` ``sim_throughput`` keeps the measured
events/second (informative: it depends on the host) and the host-free
``events_per_probe`` ratio -- kernel events retired in the time one run
of the frozen :mod:`calibration_probe` takes, both timed back to back.
``tests/perf/test_sim_throughput.py`` gates on the ratio (>30% below the
recorded ratio fails the perf tier), so the gate means the same on any
host.

``fig5_baseline`` keeps the fig5:quick wall-clock (informative) and
``per_probe``, the fig5:quick time in units of one probe run; the fig5
guard's ceiling is relative to it for the same reason.
"""

import time

from calibration_probe import probe_seconds
from repro.perf.hotpath import record_fig5_baseline, record_sim_throughput
from repro.sim import Environment

CHAINS = 64
DEPTH = 2_000
WORKLOAD = (
    f"{CHAINS} timeout chains x {DEPTH} deep, half zero-delay "
    "(immediate lane), half positive-delay (heap)"
)
FIG5_WORKLOAD = "fig5:quick, verify off, 1 iteration (sequential)"


def run_workload(burn: int = 0) -> Environment:
    """Drive the reference workload to completion; returns the environment.

    ``burn`` adds that many idle loop turns after every event: a seeded
    slowdown of the mesh, for checking that the perf gate trips.
    """
    env = Environment()

    def chain(i):
        delay = 0.0 if i % 2 == 0 else 1e-6 * (1 + i)
        for _ in range(DEPTH):
            yield env.timeout(delay)
            for _ in range(burn):
                pass

    for i in range(CHAINS):
        env.process(chain(i), name=f"chain{i}")
    env.run()
    return env


def measure_events_per_second(repeats: int = 3) -> float:
    """Best-of-N events/second (scheduled events over wall-clock)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        env = run_workload()
        elapsed = time.perf_counter() - start
        best = max(best, env._eid / elapsed)
    return best


def measure_events_per_probe(repeats: int = 5, burn: int = 0) -> float:
    """Best-of-N kernel events retired per probe duration (host-free).

    Each repeat times the mesh between two probes and scales its
    events/second by the faster probe, so a host that slows down during
    the run slows both sides of the ratio.
    """
    best = 0.0
    for _ in range(repeats):
        before = probe_seconds()
        start = time.perf_counter()
        env = run_workload(burn=burn)
        elapsed = time.perf_counter() - start
        probe = min(before, probe_seconds())
        best = max(best, env._eid / elapsed * probe)
    return best


def measure_fig5_wallclock(repeats: int = 5, slowdown: int = 1) -> float:
    """Best-of-N wall-clock for sequential fig5:quick.

    A full-fidelity workload (the real 5-stage pipeline, not a synthetic
    timeout mesh). ``slowdown`` runs the experiment that many times per
    timed repeat: a seeded slowdown, for checking that the guard trips.
    """
    from repro.bench.experiments import fig5_vector_latency

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(slowdown):
            fig5_vector_latency("quick", verify=False, iterations=1)
        best = min(best, time.perf_counter() - start)
    return best


def measure_fig5_per_probe(repeats: int = 5, slowdown: int = 1) -> float:
    """fig5:quick wall-clock in units of one calibration-probe run.

    The probe is timed right before and after the experiment and the
    faster run is used, as in :func:`measure_events_per_probe`.
    """
    before = probe_seconds()
    seconds = measure_fig5_wallclock(repeats, slowdown)
    return seconds / min(before, probe_seconds())


def test_sim_event_throughput(benchmark):
    eps = benchmark.pedantic(measure_events_per_second, rounds=1, iterations=1)
    per_probe = measure_events_per_probe()
    benchmark.extra_info["events_per_second"] = round(eps)
    benchmark.extra_info["events_per_probe"] = round(per_probe)
    record_sim_throughput(eps, WORKLOAD, events_per_probe=per_probe)
    print(
        f"\nsim throughput: {eps / 1e6:.2f}M events/s, "
        f"{per_probe:.0f} events per probe"
    )
    assert eps > 0 and per_probe > 0


def test_fig5_baseline(benchmark):
    seconds = benchmark.pedantic(
        measure_fig5_wallclock, rounds=1, iterations=1
    )
    per_probe = measure_fig5_per_probe()
    benchmark.extra_info["seconds"] = round(seconds, 4)
    benchmark.extra_info["per_probe"] = round(per_probe, 2)
    record_fig5_baseline(seconds, FIG5_WORKLOAD, per_probe)
    print(f"\nfig5:quick wall-clock: {seconds:.3f}s, {per_probe:.2f} probes")
    assert seconds > 0 and per_probe > 0
