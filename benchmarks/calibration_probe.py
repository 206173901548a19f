"""A frozen pure-Python probe of host speed, for same-host perf gates.

A wall-clock figure recorded on one machine says little about another:
the same code runs 2x slower on a loaded or older host. A gate that
compares *ratios* -- simulator work per probe duration, both timed on the
host running the gate -- cancels the host out. The probe is a miniature
event loop with the simulator kernel's instruction mix (a heap of timed
entries, a FIFO lane of zero-delay entries, generator resumes), so it
slows down with the host the way the kernel does.

Never change this file's code or constants: every recorded ratio is
relative to them.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter

_CHAINS = 16
_STEPS = 2000


def _chain(k: int):
    delay = 0.0 if k % 2 == 0 else 1e-6 * (1 + k)
    while True:
        yield delay


def probe_once() -> float:
    """Host seconds of one fixed run of the miniature event loop."""
    start = perf_counter()
    heap: list = []
    lane: deque = deque()
    chains = [_chain(k) for k in range(_CHAINS)]
    seq = 0
    for k in range(_CHAINS):
        seq += 1
        lane.append((0.0, seq, k))
    for _ in range(_CHAINS * _STEPS):
        if lane and (not heap or lane[0] < heap[0]):
            now, _, k = lane.popleft()
        else:
            now, _, k = heapq.heappop(heap)
        delay = next(chains[k])
        seq += 1
        if delay == 0.0:
            lane.append((now, seq, k))
        else:
            heapq.heappush(heap, (now + delay, seq, k))
    return perf_counter() - start


def probe_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` probe time: the host's speed right now."""
    return min(probe_once() for _ in range(repeats))
