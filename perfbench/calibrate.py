"""A speed gauge: a fixed slice of interpreter work, timed while the
program runs.

Each vCPU of the 2-vCPU machine the benchmark was written on slows by up
to 1.8x for stretches of seconds to minutes, independently of the other
vCPU and of the program running, so raw wall times of whole 25 s runs
spread by 0.15-0.22 (interquartile range over median, ten seeds).  The
gauge measures that speed where the program runs: during an operation a
SIGALRM timer interrupts it every PERIOD_S and runs `kernel()` (about
1.5 ms), and after set-up `calibrate()` runs the kernel back to back.
run.py scales each operation's time, with the ticks taken out, by the
mean of KERNEL_REF_S / tick over the ticks that fell inside it: the time
the operation would have taken at the kernel's reference speed.  The
kernel never touches sliceforge, so no change to the program moves it.
Its mix follows the program's: Python arithmetic, heap and dict traffic
(the simulator's event loop) and small numpy calls (the loss kernels).
"""

from __future__ import annotations

import heapq
import math
import signal
import time

import numpy as np

# Kernel time taken as the reference speed; scaled times are in seconds
# at this speed.  The kernel took 1.1-2.4 ms on the machine the benchmark
# was written on as its speed drifted.  Changing this rescales every
# scaled time, so it is fixed for good.
KERNEL_REF_S = 0.0015
PERIOD_S = 0.1

_GRID = np.linspace(0.5, 20.0, 16)


def kernel() -> float:
    """Seconds taken by one fixed slice of work."""
    start = time.perf_counter()
    acc = 0.0
    heap: list[tuple[float, int]] = []
    slots: dict[int, float] = {}
    for k in range(1200):
        x = (k * 0.618) % 7.0
        heapq.heappush(heap, (x, k))
        slots[k & 255] = x
        acc += math.exp(-x)
    while heap:
        acc += heapq.heappop(heap)[0]
    for k in range(50):
        acc += float(np.sum(np.exp(-_GRID * (k + 1) * 1e-3)))
    if not math.isfinite(acc):
        raise ArithmeticError("gauge kernel overflowed")
    return time.perf_counter() - start


def calibrate() -> float:
    """Speed factor right now: mean of KERNEL_REF_S / tick over 40 back-to-back runs."""
    return sum(KERNEL_REF_S / kernel() for _ in range(40)) / 40


class Gauge:
    """Ticks of the kernel every PERIOD_S of wall time while armed."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append((start, kernel()))

    def __enter__(self) -> "Gauge":
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> tuple[float, float | None]:
        """(seconds of ticks inside [start, end], mean speed factor of those ticks)."""
        inside = [d for t, d in self.ticks if start <= t <= end]
        if not inside:
            return 0.0, None
        return sum(inside), sum(KERNEL_REF_S / d for d in inside) / len(inside)
