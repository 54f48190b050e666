"""Reference loop that measures how fast the current core is running.

On a shared machine the speed of a core swings by up to a factor of two
within seconds as other work comes and goes. So the benchmark runs this
fixed loop right before and after every timed call and, from a timer
signal, every ``INTERVAL_S`` seconds during it, and scales the call's
wall time (the loop's own time taken out) by ``REFERENCE_S / mean loop
time``: the result is the time the call would take on a core that runs
the loop in ``REFERENCE_S`` seconds. The loop
mixes the kinds of work the program does (float maths, small objects,
string formatting, big-integer fractions), so a slow-down of the core
stretches it by about as much as the call around it. Each measurement
first runs ``WARMUP`` untimed iterations, so that what the program did
to the caches just before does not reach the timed ones: right after
the program streams 64 MB, a cold loop ran 6 to 13% slower than a warm
one, and after the warm-up 0.3% (Intel Xeon vCPU, CPython 3.11.7). Without it, a change that makes the
program use more memory would slow the loop too and hide part of its
own cost.

The loop uses nothing from the program, so a change to the program
cannot change it.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

# Loop iterations per measurement, about 1 ms.
LOOPS = 300
# Wall time of one measurement on the reference core; an Intel Xeon vCPU
# running CPython 3.11.7 takes 0.8 to 1.2 ms. Reported times are in
# seconds on that core.
REFERENCE_S = 0.001
# Untimed iterations run before each measurement.
WARMUP = 75
# Period of the measurements taken during a call.
INTERVAL_S = 0.02


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _loop(n: int) -> float:
    acc = 0.0
    frac = Fraction(1, 3)
    text = []
    for i in range(1, n + 1):
        p = _Point(1.0 + i * 1e-3, 2.0 - i * 1e-4)
        q = p.x * p.x + p.y * p.y
        acc += math.log(q / (4.0 * p.x * p.y)) + math.sqrt(q)
        record = {"op": "kl", "value": acc, "ok": i & 1 == 0}
        text.append("%.17g" % record["value"])
        if i % 8 == 0:
            frac = frac * Fraction(i + 1, i + 3) + Fraction(1, i)
            text.clear()
    return acc + float(frac)


def measure(loops: int = LOOPS) -> float:
    """Wall seconds for one run of the reference loop, after the warm-up."""
    _loop(WARMUP)
    start = time.perf_counter()
    _loop(loops)
    return time.perf_counter() - start


def scale(seconds: float, loop_seconds: float) -> float:
    """Convert `seconds` measured next to a loop of `loop_seconds` to reference seconds."""
    return seconds * REFERENCE_S / loop_seconds


class Sampler:
    """Runs the reference loop before, during (from SIGALRM) and after timed calls.

    `clock` reads ``time.perf_counter_ns`` minus the time spent in the
    loop so far, so intervals read from it leave the loop out.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._loop_ns = 0

    def clock(self) -> int:
        return time.perf_counter_ns() - self._loop_ns

    def sample(self, *_) -> None:
        start = time.perf_counter_ns()
        _loop(WARMUP)
        timed = time.perf_counter_ns()
        _loop(LOOPS)
        end = time.perf_counter_ns()
        self._loop_ns += end - start
        self.loops.append((end - timed) * 1e-9)

    def __enter__(self) -> "Sampler":
        self._first = len(self.loops)
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def call_loop_s(self) -> float:
        """Mean loop time over the last call, the runs before and after it included."""
        loops = self.loops[self._first:]
        return sum(loops) / len(loops)
