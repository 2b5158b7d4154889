"""Host speed factor: how fast this host runs right now.

On a shared host the same work takes 15-30% longer for minutes at a
time when neighbouring load changes, and a whole run shifts with it.
The benchmark therefore times a fixed reference kernel, which never
calls the program, in short bursts between the requests of every timed
phase and between the steps of every set-up.  The ``factor`` of a
stretch of work is the median kernel time of the bursts just before and
after it over ``REFERENCE_S``: above 1 while the host runs slow.
Dividing the stretch's measured time by its factor gives it in
reference-host seconds.  A change to the program cannot move the
factor, so it moves the normalized times as it moves the measured ones.

The kernel mixes the kinds of work the program does: interpreted loops
and dict updates (flow and peeling), sorting and JSON encoding
(finalize and serialize), and small numpy array passes (bound kernels).
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: median kernel time on the reference host (2-core Xeon VM, numpy only)
REFERENCE_S = 0.020

#: kernel runs per sample burst
BURST = 3

_DOC = {
    "rows": [
        {"id": i, "score": i * 0.37, "nodes": list(range(i % 17)),
         "label": f"n{i}"}
        for i in range(150)
    ]
}
_ARRAY = np.arange(20000, dtype=np.int64) * 7919 % 10007


def kernel() -> int:
    """A fixed amount of mixed interpreter and numpy work."""
    total = 0
    for i in range(110000):
        total += i * i % 7
    counts = {}
    for i in range(45000):
        key = i % 613
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    text = json.dumps(_DOC)
    for _ in range(30):
        total += int(np.cumsum(np.sort(_ARRAY))[-1] % 1000)
    return total + len(text) + ranked[0][0]


class HostSpeed:
    """Reference-kernel samples, taken in bursts between timed work."""

    def __init__(self) -> None:
        self.samples: list = []
        kernel()  # the first run pays for cold caches

    def burst(self) -> list:
        """Time ``BURST`` kernel runs; returns their times."""
        times = []
        for _ in range(BURST):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.samples.extend(times)
        return times


class Stopwatch:
    """Timed wall of one stretch of work, cut into segments by sample
    bursts.

    :meth:`pause` ends the open segment, takes a burst and opens the
    next segment; burst time is not timed wall.  A segment is normalized
    by the factor of the bursts just before and just after it, because
    the host's speed changes within seconds.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        #: ``(measured seconds, factor)`` of every closed segment
        self.segments: list = []
        self.opened = None
        self.last: list = []

    def start(self) -> None:
        self.opened = perf_counter()

    def pause(self) -> float:
        """Close the open segment, take a burst, open the next segment;
        returns the factor of the closed segment."""
        if self.opened is not None:
            seconds = perf_counter() - self.opened
        burst = self.speed.burst()
        factor = statistics.median(self.last + burst) / REFERENCE_S
        self.last = burst
        if self.opened is not None:
            self.segments.append((seconds, factor))
            self.start()
        return factor

    def stop(self) -> None:
        """Drop the open segment (the work after the last burst)."""
        self.opened = None

    def elapsed(self) -> float:
        """Measured seconds of the closed segments."""
        return sum(seconds for seconds, _ in self.segments)

    def normalized(self) -> float:
        """Reference-host seconds of the closed segments."""
        return sum(seconds / factor for seconds, factor in self.segments)
