"""Reference kernels: fixed work, independent of qdating, timed beside a workload.

The benchmark's host is a shared VM whose CPU speed drifts by tens of
percent over seconds to minutes, and process CPU time drifts with wall
time, so no statistic of raw pass times removes it.  A run therefore
samples one of these kernels all through its passes and rescales every
stretch of measured time by the kernel times at its two ends:

    scaled = seconds * NOMINAL_S[kernel] / mean(kernel before, kernel after)

That is the time the stretch would take at the speed at which the kernel
takes its nominal time.  Samples come before and after every pass and,
from a timer signal, every SAMPLE_EVERY_S seconds inside it, so a pass of
many seconds is scaled piece by piece.  Time spent in samples is not
counted as the program's.

Each workload names the kernel that does the kind of work its time goes
to, so the drift the kernel sees is the drift the workload sees:

* ``interpreter``: a pure-Python loop of integer arithmetic and small
  dict and list work (``paper-figs``, and ``setup_s``).
* ``rng``: numpy integer and float draws, compares and row reductions on
  512-column matrices (``game2-10q``).
* ``sweep``: Grover-style passes over 2^20 complex amplitudes, 16 MiB
  each (``grover-20q``).

The kernels never change with the program, so a faster or slower qdating
moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

REPEATS = 3
SAMPLE_EVERY_S = 0.5


def _interpreter() -> None:
    table: dict[int, int] = {}
    acc, items = 0, []
    for i in range(80_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
        if i & 7 == 0:
            items.append(abs(acc - i))
    sorted(items)


def _rng() -> None:
    import numpy as np

    gen = np.random.default_rng(12345)
    for _ in range(12):
        draws = gen.integers(0, 1024, size=(250, 512))
        accept = gen.random((250, 512)) < 0.5
        ((draws == 7) & accept).any(axis=1).sum()


def _sweep() -> None:
    import numpy as np

    amps = np.full(1 << 20, 2.0**-10, dtype=np.complex128)
    for _ in range(4):
        amps[12345] *= -1
        amps = 2.0 * amps.mean() - amps


KERNELS = {"interpreter": _interpreter, "rng": _rng, "sweep": _sweep}

# Seconds of one kernel measurement (the median of REPEATS calls): round
# figures inside the range each took on the reference machine, 2 vCPUs of
# an Intel Xeon with Python 3.11 and numpy 2.4.  They only fix the unit.
NOMINAL_S = {"interpreter": 0.020, "rng": 0.015, "sweep": 0.027}


def measure(kernel: str) -> float:
    """Median wall time of REPEATS calls of the kernel, in seconds."""
    run = KERNELS[kernel]
    samples = []
    for _ in range(REPEATS):
        start = time.monotonic()
        run()
        samples.append(time.monotonic() - start)
    return statistics.median(samples)


class Sampler:
    """A time series of one kernel's measurements, on the ``time.monotonic`` clock."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples: list[tuple[float, float, float]] = []  # (enter, leave, seconds)
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        enter = time.monotonic()
        seconds = measure(self.kernel)
        self.samples.append((enter, time.monotonic(), seconds))
        self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _gaps(self, start: float, end: float):
        """(seconds, kernel time) of each stretch of [start, end] between samples."""
        if not self.samples or self.samples[0][1] > start or self.samples[-1][0] < end:
            raise ValueError(f"no kernel sample before {start} and after {end}")
        for (_, leave, before), (enter, _, after) in zip(self.samples, self.samples[1:]):
            seconds = min(enter, end) - max(leave, start)
            if seconds > 0.0:
                yield seconds, 0.5 * (before + after)

    def raw(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the samples."""
        return sum(seconds for seconds, _ in self._gaps(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the samples, at the nominal kernel speed."""
        nominal = NOMINAL_S[self.kernel]
        return sum(seconds * nominal / ref for seconds, ref in self._gaps(start, end))
