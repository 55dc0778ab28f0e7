"""Reference loop that scales measured times to a fixed machine speed.

On a shared 2-CPU host the speed of the same code swings by up to 1.6x from
one second to the next, and all kinds of work swing together. The run
therefore times a short fixed loop of the same kind of work (Python-level
arithmetic around small NumPy calls and an 8x8 LAPACK QR) between
operations, and scales each operation's wall time by REFERENCE_S over the
mean loop time just before and just after it. The loop is the benchmark's own
code, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.012  # the loop's median time on the 2-CPU machine the figures come from

_GRID = np.arange(-7.0, 8.0)
_MATRIX = np.linalg.qr(np.random.default_rng(7).normal(size=(8, 8)))[0] + np.eye(8)


def reference_loop() -> float:
    acc = 0.0
    vec = np.ones(8)
    for i in range(800):
        w = np.exp(-((_GRID - 0.37 * (i % 11)) ** 2) / 1.3)
        cum = np.cumsum(w)
        acc += float(np.searchsorted(cum, 0.61 * cum[-1])) + float(_MATRIX[i % 8] @ vec)
        if i % 8 == 0:
            acc += float(np.linalg.qr(_MATRIX)[1][0, 0])
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedScale:
    """Factors that turn wall times into times at the reference speed."""

    def __init__(self) -> None:
        time_reference()  # warm caches before the first measurement
        self._last = time_reference()
        self.factors: list[float] = []

    def step(self) -> float:
        """Factor for the operation that ran since the previous call.

        Multiply a measured time by it to get the time at the reference speed.
        """
        now = time_reference()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(factor)
        return factor
