"""A fixed piece of pure-Python work that measures how fast the host is now.

The benchmark's host shares its cores with other work, and its speed moves
by up to 1.5x in phases that last seconds to minutes, which shifts every op
time of a run alike.  ``measure`` times a fixed job that is built like a
compiler's inner loop (small objects, dict lookups, a heap, string
formatting) and shares no code with hetqc, so it slows down with the host
but not with hetqc.  Op times divided by the reference time measured around
them keep a change in hetqc and drop most of the host's phases.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: gates per job; about 70 ms on a 2.1 GHz Xeon with Python 3.11
GATES = 12_000


class _Event:
    __slots__ = ("start", "duration", "lane", "qubits")

    def __init__(self, start, duration, lane, qubits):
        self.start = start
        self.duration = duration
        self.lane = lane
        self.qubits = qubits


def job(gates: int = GATES) -> int:
    """List-schedule random two-qubit gates on eight lanes and serialize
    the events in start order; returns the text length."""
    rng = random.Random(2024)
    lane_free = [0.0] * 8
    qubit_free: dict[int, float] = {}
    heap = []
    for i in range(gates):
        a, b = rng.sample(range(64), 2)
        lane = a % 8
        start = max(lane_free[lane], qubit_free.get(a, 0.0),
                    qubit_free.get(b, 0.0))
        duration = 1e-6 * (1 + i % 7)
        end = start + duration
        lane_free[lane] = qubit_free[a] = qubit_free[b] = end
        heapq.heappush(heap, (start, i, _Event(start, duration,
                                               f"core{lane}", (a, b))))
    lines = []
    while heap:
        ev = heapq.heappop(heap)[2]
        lines.append(f"{ev.start!r} {ev.duration!r} gate {ev.lane} "
                     f"{ev.qubits[0]},{ev.qubits[1]}")
    return len("\n".join(lines))


def measure(jobs: int = 1) -> float:
    """Mean wall seconds of ``jobs`` back-to-back runs of ``job``.

    The collector is off while they run: ``job`` makes no cycles, and a
    collection would walk whatever heap hetqc left behind, so that a leak in
    hetqc would slow the reference along with the ops and cancel out.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(jobs):
            job()
        return (time.perf_counter() - t0) / jobs
    finally:
        gc.enable()
