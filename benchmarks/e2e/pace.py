"""Pace normalisation: timings at the machine's reference pace."""

from __future__ import annotations

import bisect
import time
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Pace", "raw"]


class Pace:
    """The machine's pace, sampled by a fixed kernel between operations.

    This VM speeds up and slows down by a third for minutes at a time
    (other tenants), which moved raw medians of back-to-back runs of the
    same code by 20-30%.  A short fixed kernel — NumPy sort/scan/gather
    plus an interpreter loop, nothing of the program under test — is
    therefore timed right before and after every operation (every few,
    for short ones), and each operation's wall time is divided by
    ``kernel seconds / REF_S`` around it.  On a calm machine the factor is
    about 1 and the figures read as plain seconds; everywhere else they
    are what makes two runs comparable (spread 0.25 -> 0.06 measured on
    ``cold_ic_bfs``).  Raw medians are kept beside them in the result.
    """

    #: Kernel seconds on this class of machine when nothing else runs.
    REF_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._data = rng.random(300_000)
        self._index = rng.integers(0, self._data.size, self._data.size)
        self._small = rng.integers(0, 1000, 64)
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        data, index, small = self._data, self._index, self._small
        start = time.perf_counter()
        for _ in range(3):
            np.sort(data)
            np.cumsum(data)
            data[index].sum()
        total, seen, kept = 0, {}, []
        for step in range(150_000):
            total += step & 7
            if step & 255 == 0:
                seen[step] = total
                kept.append(step)
        for step in range(3000):
            total += int(np.unique(small + step)[0])
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Pace over ``[start, end]``: the samples bracketing it, averaged."""
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        return (self.seconds[before] + self.seconds[after]) / 2 / self.REF_S

    def scaled(self, spans: Sequence[Tuple[float, float]], unit: float = 1.0) -> List[float]:
        """Durations of ``(start, end)`` spans at reference pace, in
        seconds times ``unit``."""
        return [(end - start) / self.factor(start, end) * unit for start, end in spans]


def raw(spans: Sequence[Tuple[float, float]], unit: float = 1.0) -> List[float]:
    """Durations of ``(start, end)`` spans as the clock read them."""
    return [(end - start) * unit for start, end in spans]
