"""Exactly rounded summation.

Partial sums of the slowly convergent series studied here (tails like
1/(n log^2 n)) lose their meaning in double precision if accumulated
naively over 10^5..10^7 terms, so every series total in this package goes
through one :class:`WindowSums` accumulator: whole arrays through
:func:`exact_sum` and :func:`exact_sums`, the summability series block by
block as they are evaluated.  It is an integer superaccumulator (Neal,
arXiv:1505.05571).  ``np.frexp`` writes each term as m 2^e with
1/2 <= |m| < 1; ``np.trunc`` splits m 2^27 into a whole part below 2^27
and a multiple of 2^-26, and ``np.bincount`` sums each part per exponent.
Over at most 2^25 terms every bucket is a multiple of 2^-26 below 2^52,
so float64 holds it exactly.  At each cut, and every 2^25 terms, the open
window's buckets are merged as Python ints into one exact multiple of
2^-1126, rounded once by int true division, which CPython rounds
correctly.  Exact integers merge exactly, so no sum depends on how the
stream is split into chunks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_CHUNK = 1 << 16  # terms per numpy pass; keeps each temporary at 512 KiB
_FLUSH = 1 << 25  # terms per float64 bucket, so every bucket stays exact
_EXP0 = 1073  # frexp exponents run from -1073 (subnormals) to 1024
_BUCKETS = _EXP0 + 1025
_SCALE = 1 << 1126  # a term m 2^e is (m 2^53) << (e + _EXP0), over _SCALE
_NEG_ZERO = np.float64(-0.0).view(np.int64)


def _rounded(total: int, odd: list[float], terms) -> float:
    if total and all(map(math.isfinite, odd)):
        return total / _SCALE
    return math.fsum(odd if terms is None else memoryview(terms))


def blocks(start: int, stop: int):
    """The consecutive ranges (s, e) of at most ``_CHUNK`` integers that tile [start, stop)."""
    return ((s, min(s + _CHUNK, stop)) for s in range(start, stop, _CHUNK))


class WindowSums:
    """Exactly rounded sums of a stream of chunks, cut into windows.

    ``cuts`` are non-decreasing offsets into the stream.  :meth:`add` sums
    the next chunk and keeps none of it; :meth:`result`, called once at the
    end, gives the sums of ``[cuts[i], cuts[i + 1])`` and of it all, as
    :func:`exact_sum` would when the terms are handed to it.  Without them,
    a sum that is exactly zero or meets inf or nan is ``math.fsum`` of
    stand-ins kept per window (its distinct inf and nan entries; a zero,
    -0.0 only if every entry is -0.0): fsum's inf, nan, ``ValueError`` on
    inf - inf and sign of zero, but not its ``OverflowError`` there when
    finite terms overflow on the way, which depends on their order.
    """

    def __init__(self, cuts=()):
        self._cuts = [int(c) for c in cuts]
        if any(a > b for a, b in zip([0, *self._cuts], self._cuts)):
            raise ValidationError("cuts must be non-negative and non-decreasing")
        self._seen, self._closed = 0, []  # entries added; (sum * _SCALE, stand-ins) per window
        self._whole, self._frac = np.zeros(_BUCKETS), np.zeros(_BUCKETS)
        self._total, self._odd, self._zero = 0, [], []  # the open window's sum and stand-ins

    def _flush(self):
        if not self._odd:  # an inf or nan entry leaves the buckets non-finite
            for i in np.flatnonzero((self._whole != 0.0) | (self._frac != 0.0)).tolist():
                self._total += ((int(self._whole[i]) << 26) + int(self._frac[i] * 2.0**26)) << i
        self._whole[:] = self._frac[:] = 0.0

    def _close(self):
        self._flush()
        self._closed.append((self._total, self._odd + self._zero))
        self._total, self._odd, self._zero = 0, [], []

    def _fold(self, piece: np.ndarray):
        with np.errstate(invalid="ignore"):  # inf - inf only marks a stand-in
            m, e = np.frexp(piece)
            m *= 2.0**27
            whole = np.trunc(m)
            m -= whole
            e += _EXP0
            self._whole += np.bincount(e, whole, _BUCKETS)
            if not math.isfinite(self._whole[_EXP0]):  # inf and nan have e = 0
                self._odd += np.unique(piece[~np.isfinite(piece)]).tolist()
            self._frac += np.bincount(e, m, _BUCKETS)
        if not self._zero or math.copysign(1.0, self._zero[0]) < 0:  # all -0.0 so far
            self._zero = [-0.0 if (piece.view(np.int64) == _NEG_ZERO).all() else 0.0]
        self._seen += len(piece)
        if self._seen % _FLUSH == 0:
            self._flush()

    def add(self, chunk) -> None:
        """Sum the next ``len(chunk)`` entries of the stream."""
        arr = np.asarray(chunk, dtype=float).ravel()
        while len(arr):
            k = len(self._closed)
            end = self._cuts[k] if k < len(self._cuts) else math.inf
            if self._seen == end:
                self._close()
                continue
            step = min(len(arr), end - self._seen, _CHUNK, _FLUSH - self._seen % _FLUSH)
            self._fold(arr[:step])
            arr = arr[step:]

    def result(self, terms=None) -> tuple[tuple[float, ...], float]:
        """(window sums, total) of everything added; ``terms`` may repeat it as one array."""
        for cut in self._cuts[len(self._closed) :]:
            if cut > self._seen:
                raise ValidationError(f"cut {cut} lies beyond the {self._seen} entries summed")
            self._close()
        self._close()
        bounds = [0, *self._cuts, self._seen]
        windows = tuple(_rounded(t, odd, None if terms is None else terms[a:b])
                        for (t, odd), a, b in zip(self._closed[1:-1], bounds[1:], bounds[2:]))
        odd = [x for _, part in self._closed for x in part]
        return windows, _rounded(sum(t for t, _ in self._closed), odd, terms)


def exact_sum(values) -> float:
    """Exactly rounded sum of every entry of ``values`` (raveled to 1-D).

    Bit-identical to ``math.fsum`` wherever ``fsum`` returns.  Input with
    an inf or nan entry, and input whose exact sum is zero, go to ``fsum``
    itself.  Where ``fsum`` raises ``OverflowError`` on an intermediate
    overflow of finite terms otherwise, this returns the correctly rounded
    total, and raises only when that total overflows.
    """
    return exact_sums(values, ())[1]


def exact_sums(values, cuts) -> tuple[tuple[float, ...], float]:
    """Exactly rounded sums of ``values[cuts[i]:cuts[i + 1]]`` and of all of it.

    ``cuts`` are non-decreasing indices into the raveled ``values``.  Each
    window sum equals :func:`exact_sum` of its slice and the total equals
    :func:`exact_sum` of the whole array; entries before the first cut
    and after the last count only towards the total.
    """
    arr = np.asarray(values, dtype=float).ravel()
    acc = WindowSums(cuts)
    acc.add(arr)
    return acc.result(arr)
