"""Host speed reference, sampled between the program's timed calls.

A small guest on a shared host (the baseline's is a 2-vCPU KVM guest) drifts
in speed by 10-30% over seconds to minutes, and not by the same amount for
every kind of work.
So the reference times three fixed kernels, one for each kind of work the
workloads do: an interpreter loop, a small complex matrix product, and
writing an 8 MiB array.  Each part's time is divided by its
time at nominal host speed (REF_NOMINAL), and a sample is the mean of the
three.  A sample is taken every REF_EVERY seconds of timed work.  An op's
speed factor is the mean of the samples around it; dividing the op's time by
it gives its time at nominal host speed.  The reference's arrays are
allocated once, at import, and the parts only write into them: no part calls
the allocator, so the program's own allocations (which move glibc's mmap
threshold) cannot change what the reference costs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_EVERY = 0.05  # seconds of timed work between samples
REF_NOMINAL = (0.4e-3, 1.1e-3, 1.6e-3)  # seconds per part at nominal host speed

_MAT = (np.arange(160 * 160).reshape(160, 160) % 7 + 1j).astype(complex) / 7.0
_PRODUCT = np.empty_like(_MAT)
_BUF = np.ones(2 ** 20)


def _interpreter() -> None:
    acc = 0.0
    for i in range(1, 1201):
        acc += math.exp(-0.5 * math.log(i))


def _matmul() -> None:
    np.matmul(_MAT, _MAT, out=_PRODUCT)


def _memory() -> None:
    _BUF.fill(1.0)
    np.multiply(_BUF, 0.5, out=_BUF)


PARTS = (_interpreter, _matmul, _memory)


class HostSpeed:
    """Reference samples taken between timed calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._work = 0.0

    def sample(self) -> None:
        ratios = []
        for part, nominal in zip(PARTS, REF_NOMINAL):
            t0 = time.perf_counter()
            part()
            ratios.append((time.perf_counter() - t0) / nominal)
        self.samples.append(statistics.fmean(ratios))
        self._work = 0.0

    def before_timed(self) -> None:
        if self._work >= REF_EVERY:
            self.sample()

    def after_timed(self, dt: float) -> None:
        self._work += dt

    def factor(self, first: int) -> float:
        """Host speed over samples[first:]: for an op, the last sample taken
        before it and those taken during it."""
        return statistics.fmean(self.samples[first:])
