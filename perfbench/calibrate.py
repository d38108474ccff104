"""Host-speed calibration: a fixed piece of interpreter work, timed between runs.

On a shared host the CPU a benchmark process gets switches between a fast
and a slow speed (about 1.7x apart) many times a second, and the share of
slow time drifts from minute to minute, so the mean host time of a run
follows that share as much as the program's cost. The benchmark times
``chunk()`` after every set-up and every scenario run, for SHARE of the
time those took, so the chunks sample the same share; ``scale()`` turns
the run's host seconds into seconds at the reference speed, at which one
chunk takes CHUNK_REF_S.

``chunk()`` uses no dsnetsim code, so a change to the simulator cannot
move it. It does the two kinds of work the simulator does: an event loop
(a heap of timed events, small objects with slots, dict counters, float
state) and snapshot-like cloning of small objects. The two slow down by
different amounts in some periods; with the event loop alone, opt-k4,
which clones most, came out over-scaled. The garbage collector is off
inside a chunk, so that its time does not depend on how many objects the
benchmarked program holds. Changing chunk() or CHUNK_REF_S changes every
time the benchmark reports; test_perfbench.py pins chunk()'s checksum.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

# Reference speed: about the fastest chunk() on a 2-vCPU "Intel(R) Xeon(R)
# Processor" sandbox under CPython 3.11 (7.4 ms out of 400).
CHUNK_REF_S = 0.0075
# Sample for at least this share of the time spent in the timed runs.
SHARE = 0.15

_NODES = 32
_STEPS = 3000


class _Node:
    __slots__ = ("tokens", "last", "queue", "sent")

    def __init__(self) -> None:
        self.tokens = 0.0
        self.last = 0
        self.queue: list[int] = []
        self.sent = 0

    def refill(self, now: int, rate: float, depth: float) -> None:
        self.tokens = min(self.tokens + (now - self.last) * rate, depth)
        self.last = now


class _Cell:
    __slots__ = ("a", "b", "items")

    def __init__(self, a: int, b: float, items: list) -> None:
        self.a = a
        self.b = b
        self.items = items

    def clone(self) -> "_Cell":
        return _Cell(self.a, self.b, list(self.items))


def _event_loop() -> int:
    nodes = [_Node() for _ in range(_NODES)]
    heap = [(k, k, k) for k in range(_NODES)]
    counts: dict[int, int] = {}
    x, seq = 12345, _NODES
    for _ in range(_STEPS):
        now, _, k = heapq.heappop(heap)
        node = nodes[k]
        node.refill(now, 0.25, 64.0)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 255] = counts.get(x & 255, 0) + 1
        if node.tokens >= 1.0:
            node.tokens -= 1.0
            node.sent += 1
            node.queue.append(now)
            if len(node.queue) > 8:
                node.queue.pop(0)
        seq += 1
        heapq.heappush(heap, (now + 1 + (x & 15), seq, (k * 7 + (x & 3)) % _NODES))
    return x + sum(n.sent for n in nodes) + len(counts)


def _snapshots() -> int:
    state = [[_Cell(i, i * 0.5, [i, i + 1, i + 2]) for i in range(8)] for _ in range(24)]
    history = []
    total = 0
    for step in range(40):
        history.append([[c.clone() for c in row] for row in state])
        if len(history) > 16:
            history.pop(0)
        row = state[step % 24]
        row[step % 8].a += 1
        total += sum(c.a for c in row)
    return total + len(history)


def chunk() -> int:
    """A fixed event loop, then fixed snapshot work; returns a checksum."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _event_loop() + _snapshots()
    finally:
        if enabled:
            gc.enable()


def sample(samples: list[float], spent_s: float) -> None:
    """Time chunks for SHARE of ``spent_s`` seconds, and at least one."""
    used = 0.0
    while used == 0.0 or used < SHARE * spent_s:
        t0 = time.perf_counter()
        chunk()
        samples.append(time.perf_counter() - t0)
        used += samples[-1]


def scale(samples: list[float]) -> float:
    """Factor from host seconds to seconds at the reference speed."""
    return CHUNK_REF_S / statistics.fmean(samples)
