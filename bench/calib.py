"""CPU-speed calibration for timings taken on a shared, noisy host.

On a shared VM, other tenants slow this process in episodes that last from
seconds to minutes and can cover a whole run.  Identical passes of
`random_fields` had fastest times from 2.7 s to 5.3 s in runs a few minutes
apart, with no steal time recorded.  A fixed kernel timed next to a
measurement slows by a similar factor, so

    normalized seconds = measured seconds / calibrate()

varies much less than measured seconds: over ten runs of each workload, the
interquartile range of wall_s was 12-23% of its median measured and 4-5%
normalized (README.md).  `calibrate` gives the kernel's slowdown against
its time on a quiet 2-core Xeon VM, so normalized seconds come close to
measured seconds there.  The kernel has two parts, for the two kinds of work sfom does:
interpreted calls on small tuples and 255-bit integers, and one product of
integers of about 18k bits (like the huge discriminants of `full_disc`).
The host slows the two kinds by different factors, and the slowdown is the
geometric mean of the two parts' slowdowns.

A single input can run for seconds, longer than some of the host's changes
of speed, so `Sampler` also calibrates while an input runs.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SMALL_S = 0.0010  # the interpreted part's time on the quiet host
BIG_S = 0.0007  # the big-integer part's time there
SAMPLE_EVERY_S = 0.05
_MODULUS = (1 << 255) - 19
_A, _B = 7 ** 6000, 11 ** 5600
_C = _B + 12345


def _step(x: int, i: int) -> tuple:
    return (x * x + i) % _MODULUS, i & 7


def kernel() -> float:
    """One run of the kernel: the geometric mean of its two parts'
    slowdowns against the quiet host."""
    t0 = time.perf_counter()
    x = 3
    for i in range(1600):
        x, _ = _step(x, i)
    t1 = time.perf_counter()
    (_A * _B) % _C
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) / SMALL_S * (t2 - t1) / BIG_S)


def calibrate(repeats: int = 5) -> float:
    """Median slowdown over `repeats` runs of the kernel."""
    return statistics.median(kernel() for _ in range(repeats))


class Sampler:
    """Kernel slowdowns taken every `every` seconds while a call runs.

    A SIGALRM handler runs the kernel once, between two bytecodes of the
    call, in the calling thread: no thread or process is started.  `spent`
    is the time the handler took, to be taken off the call's time.  With
    `every` = 0 no sample is taken.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        if self.every:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
