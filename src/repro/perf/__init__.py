"""Performance instrumentation for the simulator's wall-clock hot paths.

This package never influences *simulated* time -- it exists to measure and
amortize the cost of running the simulator itself:

* :mod:`repro.perf.stats` -- process-wide counters for the datatype
  segment-compilation cache (hits/misses) and the
  vectorized pack/unpack paths.
* :mod:`repro.perf.hotpath` -- the ``BENCH_hotpath.json`` emitter that
  records before/after wall-clock per experiment so the perf trajectory
  of the repo stays machine-readable across PRs.
"""

from .stats import PERF, PerfStats

__all__ = ["PERF", "PerfStats"]
