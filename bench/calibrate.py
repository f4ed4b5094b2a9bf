"""Host-speed calibration of measured times.

On a shared host the speed of a CPU drifts: on the machine this benchmark was
built on, one fixed computation took anywhere from 1x to 2x its best time
within a few minutes.  So every timed region is bracketed by slices of a fixed
reference kernel (a small exact elimination over Fraction-backed number
objects: the kind of work supercohom does, but none of its code), and a time
is reported rescaled to the kernel's reference speed:

    normalized = elapsed * REFERENCE_S / (mean kernel time of the slices
                                          close to the region)

A change to supercohom moves the elapsed time and not the kernel, so it shows
in the normalized time; a change in host speed moves both and cancels.  The
collector is off during a slice, so the size of the program's heap does not
leak into the kernel time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Typical kernel time on the build machine, so normalized times read as
# seconds of that machine.
REFERENCE_S = 0.005
# Slices are taken between operations at most every EVERY_S, and BURST of
# them after an operation of LONG_S or more.  A timed region is rescaled by
# the slices within WINDOW_S, or half its own length if that is more, of its
# start or end.
EVERY_S = 0.15
BURST = 3
LONG_S = 1.0
WINDOW_S = 0.5


class _Num:
    """A minimal exact scalar: a tuple of Fractions behind checked methods,
    shaped like the numbers supercohom computes with."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)

    def _check(self, other):
        if not isinstance(other, _Num) or other.field != self.field:
            raise TypeError("mixed fields")

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __sub__(self, other):
        self._check(other)
        return _Num(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        self._check(other)
        return _Num(self.field, (self.coeffs[0] * other.coeffs[0],))

    def inverse(self):
        return _Num(self.field, (1 / self.coeffs[0],))


def kernel(n=10):
    """Fraction-free (Bareiss) elimination of a fixed sparse n x n matrix."""
    m = [
        [_Num("Q", (Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 4 + 1) if (i + j) % 3 else 0,)) for j in range(n)]
        for i in range(n)
    ]
    prev, r = None, 0
    for c in range(n):
        p = next((i for i in range(r, n) if not m[i][c].is_zero()), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, n):
            row_i, row_r, mic = m[i], m[r], m[i][c]
            for j in range(c, n):
                v = row_i[j] * piv - mic * row_r[j]
                row_i[j] = v if prev is None else v * prev
        prev, r = piv.inverse(), r + 1
    return r


def take_slice() -> tuple[float, float]:
    """Run the kernel once with the collector off; return (start, duration)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Slices:
    """Slices taken by one process, in time order."""

    def __init__(self):
        self.items: list[tuple[float, float]] = []

    def take(self, after=0.0):
        """Take slices unless the last one ended less than EVERY_S ago.

        after is the length of the operation that just ended.
        """
        if not self.items or time.perf_counter() - sum(self.items[-1]) >= EVERY_S:
            for _ in range(BURST if after >= LONG_S else 1):
                self.items.append(take_slice())


def normalize(start: float, elapsed: float, slices: list) -> float:
    """elapsed rescaled by the slices taken close to the timed region.

    slices holds (start, duration) pairs from any process of this machine
    (perf_counter is the same monotonic clock in all of them).  When no slice
    is that close, the closest one in time is used.
    """
    end = start + elapsed
    window = max(WINDOW_S, elapsed / 2)
    near = [d for s, d in slices if start - window <= s <= end + window]
    if not near:
        near = [min(slices, key=lambda sl: min(abs(sl[0] - start), abs(sl[0] - end)))[1]]
    return elapsed * REFERENCE_S * len(near) / sum(near)
