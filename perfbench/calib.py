"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed swings by up to 2x for
tens of seconds at a time as other tenants load the same cores.  Raw wall
times then say more about the neighbours than about hgdet.  So while a
timed section runs, a SIGALRM timer interrupts it every INTERVAL_S seconds
to run one fixed chunk of work that does not touch hgdet, and records how
long that chunk took.  A timing is then reported at reference speed:

    normalized = (wall time - time spent in the chunks) * reference / c

where c is the mean chunk time over the timed interval, widened to at
least WINDOW_S seconds, and reference is the chunk's duration at reference
speed.  Interpreted code and numpy array kernels slow down by different
factors, so each workload names the chunk kind that matches where its time
goes.  A change to hgdet moves the work and never the chunks, so gains and
regressions show in full.  Raw times are reported beside the normalized
ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Callable

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.1

_PRIME = 2147483647
_ARRAY = np.random.default_rng(0).integers(0, _PRIME, size=(96, 96), dtype=np.int64)


def python_chunk() -> float:
    """Interpreted dict and integer work; returns its duration."""
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(1500):
        k = i * 7919 % 331
        acc[k] = acc.get(k, 0) + i // 3
    return perf_counter() - t0


def numpy_chunk() -> float:
    """Row updates modulo a prime on an int64 array, the shape of work of
    the dense modular kernel; returns its duration."""
    t0 = perf_counter()
    a = _ARRAY.copy()
    for k in range(6):
        factors = a[k + 1:, k] * 7 % _PRIME
        block = a[k + 1:, k:]
        block -= factors[:, None] * a[k, k:][None, :]
        block %= _PRIME
    return perf_counter() - t0


#: Chunk kind -> (chunk, its duration at reference speed).  The reference
#: speed is about this machine's (2-core Xeon, 2.0 GHz) when uncontended.
CHUNKS: dict[str, tuple[Callable[[], float], float]] = {
    "python": (python_chunk, 270e-6),
    "numpy": (numpy_chunk, 370e-6),
}


def speed_now(chunks: int = 40) -> float:
    """Speed for interpreted code now: the reference duration over the mean
    of ``chunks`` python chunks run back to back."""
    chunk, reference = CHUNKS["python"]
    return reference * chunks / sum(chunk() for _ in range(chunks))


class SpeedSampler:
    """Runs one chunk of the given kind every INTERVAL_S seconds while
    active (main thread only)."""

    def __init__(self, kind: str = "python") -> None:
        self._chunk, self.reference = CHUNKS[kind]
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        d = self._chunk()
        self.starts.append(t0)
        self.seconds.append(d)
        self._ends.append(t0 + d)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.seconds:  # a section shorter than one interval
            self._sample(signal.SIGALRM, None)

    def overhead(self, t0: float, t1: float) -> float:
        """Time spent in chunks that ran inside [t0, t1]."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self._ends, t1)
        return sum(self.seconds[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Reference chunk duration over the mean one around [t0, t1]."""
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        lo = bisect_left(self.starts, t0 - pad)
        hi = bisect_right(self.starts, t1 + pad)
        window = self.seconds[lo:hi] or self.seconds
        return self.reference * len(window) / sum(window)

    def normalize(self, t0: float, t1: float) -> float:
        """Net wall time of [t0, t1] at reference speed."""
        return (t1 - t0 - self.overhead(t0, t1)) * self.speed(t0, t1)
