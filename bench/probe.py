"""Scaling wall times to a reference CPU speed.

On the 2-vCPU virtual machine this benchmark was written on, the same work
ran up to twice as slow from one quarter second to the next, and the
slowdown hit LAPACK calls, einsum and plain Python alike (their times
correlated at 0.93 to 0.98 over 250 ms windows).  Raw wall times therefore
spread by 20 to 60% between runs.

:class:`SpeedProbe` runs a fixed burst of numpy and Python work, which does
not touch enwit, from a SIGALRM timer every ``INTERVAL_S`` while the
benchmark measures.  Each burst gives the machine's speed at that moment
(``REFERENCE_S / burst time``).  :meth:`SpeedProbe.work_seconds` integrates
that speed over an interval, interpolating between bursts and leaving the
bursts themselves out.  The result is the time the interval's work would
take on a machine where a burst takes exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0006


class SpeedProbe:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._a = g @ g.conj().T + np.eye(4)
        self._h = (rng.standard_normal((64, 64)) + 0j).reshape((2,) * 12)
        self._v = rng.standard_normal((2, 2)) + 0j
        self._m = rng.standard_normal((64, 64)) + 0j
        # bound now, before any tracing wrapper is installed, so bursts are never traced
        self._eigh, self._cholesky, self._solve = np.linalg.eigh, np.linalg.cholesky, np.linalg.solve
        self._einsum = np.einsum
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._speeds: list[float] = []

    def _burst(self, *_signal) -> None:
        # the workloads' own mix: 4x4 LAPACK calls (the R_g oracle), a seesaw-sized
        # einsum at n=6 and a dense matmul (the chain), float formatting (CSV output)
        a, v = self._a, self._v
        start = time.perf_counter()
        for _ in range(6):
            self._eigh(a)
            self._cholesky(a)
            self._solve(a, a)
        self._einsum("abcdefABCDEF,zb,zB,zc,zC,zd,zD,ze,zE,zf,zF->zaA", self._h, *[v] * 10)
        self._m @ self._m
        ",".join(format(k * 0.37, ".10g") for k in range(40))
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._speeds.append(REFERENCE_S / (end - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    @property
    def burst_seconds(self) -> list[float]:
        return [e - s for s, e in zip(self._starts, self._ends)]

    def work_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between two perf_counter readings.

        Between two bursts the speed is the mean of their speeds; before the
        first and after the last it is that burst's.  Time spent in bursts
        counts for nothing.
        """
        starts, ends, speeds = self._starts, self._ends, self._speeds
        total = 0.0
        # gap j runs from the end of burst j-1 to the start of burst j
        j = bisect.bisect_right(ends, start)
        while True:
            lo = ends[j - 1] if j > 0 else float("-inf")
            hi = starts[j] if j < len(starts) else float("inf")
            if j == 0:
                speed = speeds[0]
            elif j == len(starts):
                speed = speeds[-1]
            else:
                speed = (speeds[j - 1] + speeds[j]) / 2.0
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap * speed
            if hi >= end:
                return total
            j += 1
