"""Exactly rounded summation.

Partial sums of the slowly convergent series studied here (tails like
1/(n log^2 n)) lose their meaning in double precision if accumulated
naively over 10^5..10^7 terms, so every series total in this package goes
through one :class:`WindowSums` accumulator: whole arrays through
:func:`exact_sum` and :func:`exact_sums`, the summability series block by
block as they are evaluated.  It sums each chunk p of n <= ``_CHUNK``
finite terms by error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci.
Comput. 31(1), 2008).  With max|p| < 2^e, M = (n + 1).bit_length(), so
that 2^M >= n + 2, and sigma = 2^(e+M), q = (sigma + p) - sigma is exact
and rounds each p_i to a multiple of 2^(e+M-53) (or of 2^-1074) with
|q_i| <= 2^e.  Every partial sum of q is then such a multiple below
n 2^e < sigma, so ``q.sum()`` is exact in any order.  So is the remainder
p - q, at most 2^(e+M-53): passes repeat until it is zero (one or two for
the summability series).  Entries at or above 2^(1023-M), where sigma
would overflow, are folded first times 2^-64, which is exact for them.
Each pass's sum goes exactly into the open window's total, a Python int
in units of 2^-1074, rounded once by int true division, which CPython
rounds correctly.  Exact integers merge exactly, so no sum depends on how
the stream is split into chunks.  Only finite terms are summed: an inf or
nan term, and a sum whose rounded value lies beyond the float range, raise
:class:`ValidationError`.  A sum that is exactly zero is +0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_CHUNK = 1 << 16  # terms per numpy pass; keeps each temporary at 512 KiB
_SCALE = 1 << 1074  # the window totals count units of 2^-1074


def blocks(start: int, stop: int):
    """The consecutive ranges (s, e) of at most ``_CHUNK`` integers that tile [start, stop)."""
    return ((s, min(s + _CHUNK, stop)) for s in range(start, stop, _CHUNK))


class WindowSums:
    """Exactly rounded sums of a stream of finite chunks, cut into windows.

    ``cuts`` are non-decreasing offsets into the stream.  :meth:`add` sums
    the next chunk and keeps none of it, and refuses a chunk with an inf
    or nan entry; :meth:`result`, called once at the end, gives the sums of
    ``[cuts[i], cuts[i + 1])`` and of it all, as :func:`exact_sums` gives
    them for the whole stream in one array.
    """

    def __init__(self, cuts=()):
        self._cuts = [int(c) for c in cuts]
        if any(a > b for a, b in zip([0, *self._cuts], self._cuts)):
            raise ValidationError("cuts must be non-negative and non-decreasing")
        self._seen, self._closed, self._total = 0, [], 0  # entries; window sums * _SCALE

    def _close(self):
        self._closed.append(self._total)
        self._total = 0

    def _fold(self, p: np.ndarray, shift: int = 0):
        """Add sum(p) * 2^shift to the open window's total (see the module docstring)."""
        m = (len(p) + 1).bit_length()  # 2^m >= len(p) + 2
        r, q = np.empty((2, len(p)))  # the remainder and the extracted part
        while top := max(p.max(), -p.min()):  # nan if any entry is
            if not math.isfinite(top):
                raise ValidationError("series terms must be finite")
            if top >= 2.0 ** (1023 - m):  # sigma would overflow
                big = np.abs(p) >= 2.0 ** (1023 - m)
                self._fold(p[big] * 2.0**-64, shift + 64)
                p = np.where(big, 0.0, p)
                continue
            sigma = math.ldexp(1.0, math.frexp(top)[1] + m)  # top < 2^e
            np.add(p, sigma, out=q)
            q -= sigma
            p = np.subtract(p, q, out=r)
            n, d = q.sum().as_integer_ratio()
            self._total += n * (_SCALE // d) << shift

    def add(self, chunk) -> None:
        """Sum the next ``len(chunk)`` entries of the stream."""
        arr = np.asarray(chunk, dtype=float).ravel()
        while len(arr):
            k = len(self._closed)
            end = self._cuts[k] if k < len(self._cuts) else math.inf
            if self._seen == end:
                self._close()
                continue
            step = min(len(arr), end - self._seen, _CHUNK)
            piece, arr = arr[:step], arr[step:]
            self._fold(piece)
            self._seen += len(piece)

    def result(self) -> tuple[tuple[float, ...], float]:
        """(window sums, total) of everything added."""
        for cut in self._cuts[len(self._closed) :]:
            if cut > self._seen:
                raise ValidationError(f"cut {cut} lies beyond the {self._seen} entries summed")
            self._close()
        self._close()
        try:  # int true division rounds correctly, or overflows
            return tuple(t / _SCALE for t in self._closed[1:-1]), sum(self._closed) / _SCALE
        except OverflowError:
            raise ValidationError("series sum lies beyond the float range") from None


def exact_sum(values) -> float:
    """Exactly rounded sum of every entry of ``values`` (raveled to 1-D).

    The entries must be finite, and so must the rounded sum: an inf or nan
    entry, or an exact sum beyond the float range, raises
    :class:`ValidationError`.  A sum that is exactly zero is +0.0.
    """
    return exact_sums(values, ())[1]


def exact_sums(values, cuts) -> tuple[tuple[float, ...], float]:
    """Exactly rounded sums of ``values[cuts[i]:cuts[i + 1]]`` and of all of it.

    ``cuts`` are non-decreasing indices into the raveled ``values``.  Each
    window sum equals :func:`exact_sum` of its slice and the total equals
    :func:`exact_sum` of the whole array; entries before the first cut
    and after the last count only towards the total.
    """
    acc = WindowSums(cuts)
    acc.add(values)
    return acc.result()
