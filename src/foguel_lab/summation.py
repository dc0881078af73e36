"""Exactly rounded summation.

Partial sums of the slowly convergent series studied here (tails like
1/(n log^2 n)) lose their meaning in double precision if accumulated
naively over 10^5..10^7 terms, so every series total in this package goes
through :func:`exact_sum` or :func:`exact_sums`.

Both sum with an integer superaccumulator (Neal, "Fast exact summation
using small and large superaccumulators", arXiv:1505.05571).  ``np.frexp``
writes each term as m 2^e with 1/2 <= |m| < 1; m 2^27 splits by
``np.trunc`` into a whole part below 2^27 and a fraction that is a
multiple of 2^-26.  ``np.bincount`` sums each part per exponent.  Over at
most 2^25 terms every bucket is a multiple of 2^-26 below 2^52 in size,
so float64 holds it exactly.  The buckets are then merged as Python ints
into one exact multiple of 2^-1126 and rounded once by int true division,
which CPython rounds correctly.  Exact integers merge exactly, so the sums
of contiguous windows and of the whole array come from one pass.
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


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


def _scaled_total(arr: np.ndarray) -> int | None:
    """sum(arr) * _SCALE as an exact int; None if an entry is inf or nan."""
    total = 0
    for start in range(0, len(arr), _FLUSH):
        whole_b = np.zeros(_BUCKETS)
        frac_b = np.zeros(_BUCKETS)
        with np.errstate(invalid="ignore"):  # inf - inf only marks a fallback
            for s in range(start, min(start + _FLUSH, len(arr)), _CHUNK):
                m, e = np.frexp(arr[s : s + _CHUNK])
                m *= 2.0**27
                whole = np.trunc(m)
                frac = m - whole
                e += _EXP0
                whole_b += np.bincount(e, whole, _BUCKETS)
                frac_b += np.bincount(e, frac, _BUCKETS)
        if not (np.isfinite(whole_b).all() and np.isfinite(frac_b).all()):
            return None
        for i in np.flatnonzero((whole_b != 0.0) | (frac_b != 0.0)).tolist():
            total += ((int(whole_b[i]) << 26) + int(frac_b[i] * 2.0**26)) << i
    return total


def _rounded(total: int | None, arr: np.ndarray) -> float:
    # A non-finite entry (None) and an exact zero, whose sign depends on
    # the signs of the zero terms, take fsum's own route.
    if not total:
        return math.fsum(memoryview(arr))
    return total / _SCALE


def exact_sum(values) -> float:
    """Exactly rounded sum of every entry of ``values`` (raveled to 1-D).

    The result is bit-identical to ``math.fsum`` wherever ``fsum``
    returns.  Input with an inf or nan entry, and input whose exact sum
    is zero, go to ``math.fsum`` itself, so inf, nan, the ``ValueError``
    on inf - inf and the sign of a zero total are fsum's.  Where
    ``fsum`` raises ``OverflowError`` on an intermediate overflow of
    finite terms, this returns the correctly rounded total, and raises
    ``OverflowError`` only when that total overflows or is exactly zero
    (which goes to ``fsum``).
    """
    arr = _as_array(values)
    return _rounded(_scaled_total(arr), arr)


def exact_sums(values, cuts) -> tuple[tuple[float, ...], float]:
    """Exactly rounded sums of ``values[cuts[i]:cuts[i + 1]]`` and of all of it.

    ``cuts`` are non-decreasing indices into the raveled ``values``.  Each
    window sum equals :func:`exact_sum` of its slice and the total equals
    :func:`exact_sum` of the whole array; entries before the first cut
    and after the last count only towards the total.  Every entry is read
    once.
    """
    arr = _as_array(values)
    bounds = [0, *(int(c) for c in cuts), len(arr)]
    if any(a > b for a, b in zip(bounds, bounds[1:])):
        raise ValidationError(f"cuts must be non-decreasing within [0, {len(arr)}]")
    parts = [_scaled_total(arr[a:b]) for a, b in zip(bounds, bounds[1:])]
    windows = tuple(
        _rounded(t, arr[a:b]) for t, a, b in zip(parts[1:-1], bounds[1:], bounds[2:])
    )
    total = None if None in parts else sum(parts)
    return windows, _rounded(total, arr)
