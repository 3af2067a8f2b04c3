"""The machine's current speed, measured on a fixed piece of Python work.

The benchmark shares a few cores of a host whose speed drifts.  On a 2-CPU
VM, a fixed pure-Python loop timed in 1-s blocks over four minutes ran at
0.67 to 1.47 of its median rate, and its 20-s averages fell from 1.29 to
0.80 of it; process CPU time follows wall time, so the host runs the process
slower, it does not make it wait.  A raw time from one run then says as much
about the host as about liecap.

`probe()` runs `unit()`, a fixed workload shaped like liecap's hot loops
(dot products and eliminations of short rows of small `Fraction`s, and
integer residues mod a prime), and returns how many units it finished and
how long they took.  `Sampler` runs a short probe every 0.1 s from a timer
signal while the operations run, and keeps a clock that leaves the probes
out, so each operation's time can be rescaled by the speed the host had
while it ran:

    ref_seconds = seconds * (units per second now) / REF_UNITS_PER_S

A ref-second is the time the same work takes on a host that runs
REF_UNITS_PER_S units a second.  The constant is fixed, so figures from
different commits and runs compare directly.  Nothing here calls liecap.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# units per second of this 2-CPU x86-64 VM in a fast stretch; a constant of
# the benchmark, not a measurement to update
REF_UNITS_PER_S = 8000.0

_ROW_A = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(12)]
_ROW_B = [Fraction(i % 4 + 1, i % 3 + 2) for i in range(12)]
_RES = [(i * 37 + 11) % 101 for i in range(24)]


def unit() -> int:
    """One unit of fixed work (about 0.13 ms); returns a checksum."""
    dot = sum((a * b for a, b in zip(_ROW_A, _ROW_B)), Fraction(0))
    q = _ROW_A[3] / _ROW_B[5]
    row = [a - q * b for a, b in zip(_ROW_A, _ROW_B)]
    inv = pow(_RES[7], -1, 101)
    res = [(x * inv - y) % 101 for x, y in zip(_RES, reversed(_RES))]
    return dot.numerator + row[-1].denominator + sum(res)


def probe(seconds: float) -> tuple:
    """Run whole units for at least `seconds`; returns (units, elapsed).

    The collector is off meanwhile, so the probe does not scan liecap's
    heap and read a large heap as a slow host."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        n = 0
        t0 = clock()
        while True:
            unit()
            n += 1
            elapsed = clock() - t0
            if elapsed >= seconds:
                return n, elapsed
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe the host's speed every `interval` seconds, from SIGALRM.

    Each tick interrupts the running operation between two bytecodes and
    probes for `share` of the interval.  `clock()` is `time.perf_counter()`
    minus the time spent in ticks, so a span read from it leaves the probes
    out.  `samples` holds one (clock() at the tick's end, units, elapsed)
    per tick, and at least one.  A tick due during a long call into C runs
    when it returns.
    """

    def __init__(self, interval: float = 0.1, share: float = 0.1):
        self.interval = interval
        self.chunk = interval * share
        self.busy = 0.0
        self.samples: list = []
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def _tick(self, signum, frame) -> None:
        t_in = time.perf_counter()
        units, elapsed = probe(self.chunk)
        self.busy += time.perf_counter() - t_in
        self.samples.append((self.clock(), units, elapsed))

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # shorter than one interval: probe once now
            self._tick(signal.SIGALRM, None)

    def rates(self, spans: list, window: float) -> list:
        """Per (start, end) span in `clock()` time, the probe rate (units
        per second) of the ticks within `window` seconds of it, or of every
        tick when none is that close."""
        ticks = self.samples
        total = (sum(n for _, n, _ in ticks), sum(e for _, _, e in ticks))
        out, lo, hi = [], 0, 0
        units = elapsed = 0.0
        for start, end in spans:
            while hi < len(ticks) and ticks[hi][0] <= end + window:
                units += ticks[hi][1]
                elapsed += ticks[hi][2]
                hi += 1
            while lo < hi and ticks[lo][0] < start - window:
                units -= ticks[lo][1]
                elapsed -= ticks[lo][2]
                lo += 1
            n, e = (units, elapsed) if lo < hi else total
            out.append(n / e)
        return out
