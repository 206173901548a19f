"""A frozen pure-Python probe of host speed.

The simulator's host time swings with whatever else shares the machine
(a busy SMT sibling can halve it for seconds at a time). The runner
times this probe before and after every timed op and scales the op's
host time by ``REFERENCE_S / probe``: host seconds at the reference
speed. The probe is a miniature discrete-event loop -- a heap of timed
entries and generator resumes, the simulator kernel's own instruction
mix -- so it slows down with the host the way the simulator does.

Never change this file's code or constants: every recorded number is
relative to them.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Host seconds one probe takes at the reference speed (a 2-core Xeon
#: guest, unloaded). Only fixes the scale; comparisons never depend on it.
REFERENCE_S = 0.002

_PROCS = 16
_EVENTS = 3000


def _proc(k: int):
    total = 0.0
    while True:
        total += yield (k * 0.37) % 1.0 + 0.01


def probe() -> float:
    """Host seconds of one fixed run of the miniature event loop."""
    start = perf_counter()
    queue = []
    seq = 0
    procs = [_proc(k) for k in range(_PROCS)]
    for k, gen in enumerate(procs):
        next(gen)
        seq += 1
        heapq.heappush(queue, (0.1 * k, seq, k))
    seen = {}
    for _ in range(_EVENTS):
        now, _, k = heapq.heappop(queue)
        delay = procs[k].send(now)
        seen[k] = seen.get(k, 0) + 1
        seq += 1
        heapq.heappush(queue, (now + delay, seq, k))
    return perf_counter() - start
