"""A fixed reference workload that measures how fast the machine runs now.

On a shared virtual machine the speed of one core drifts by a third or
more over minutes, and every interpreter-bound rate the benchmark
reports drifts with it.  This module times a small pure-Python
discrete-event loop -- a heap of tuples, generators resumed with
``send``, dict updates, the same mix of work the simulator and the
checkers do -- that uses no code of the program under test, so no change
to the program can move it.  Rates divided by :func:`speed` read as if
the machine ran at the reference speed.
"""

from __future__ import annotations

import heapq
import time

# Reference-loop runs per second at which speed() reads 1.0: the median
# measured on a 2-vCPU Intel Xeon virtual machine under CPython 3.11.
REFERENCE_HZ = 42.0
_EVENTS = 20000


def _task(slot: int):
    value = slot
    while True:
        value = (yield value * 3 + 1) ^ slot


def _loop() -> int:
    tasks = [_task(i) for i in range(16)]
    for task in tasks:
        next(task)
    heap = [(0.0, i, i) for i in range(16)]
    memory = {}
    total = 0
    for seq in range(_EVENTS):
        now, _, pid = heapq.heappop(heap)
        out = tasks[pid].send(seq)
        memory[(pid, out & 63)] = (now, out)
        total += len(memory)
        heapq.heappush(heap, (now + (out % 7) * 0.125 + 0.5, seq, pid))
    return total


def speed(repeats: int = 5) -> float:
    """Current machine speed relative to the reference (1.0 = reference)."""
    started = time.perf_counter()
    for _ in range(repeats):
        _loop()
    return repeats / ((time.perf_counter() - started) * REFERENCE_HZ)
