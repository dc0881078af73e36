"""Exactly rounded summation.

Partial sums of the slowly convergent series studied here (tails like
1/(n log^2 n)) lose their meaning in double precision if accumulated
naively over 10^5..10^7 terms, so every series total in this package is
an integer count of units of 2^-1074 from :func:`exact_units`, rounded
once by :func:`from_units`: whole arrays through :func:`exact_sum` and
:func:`exact_sums`, the summability series block by block as they are
evaluated.  :func:`exact_units` sums each chunk p of n <= ``_CHUNK``
finite terms by error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci.
Comput. 31(1), 2008).  With max|p| < 2^e, M = (n + 1).bit_length(), so
that 2^M >= n + 2, and sigma = 2^(e+M), q = (sigma + p) - sigma is exact
and rounds each p_i to a multiple of 2^(e+M-53) (or of 2^-1074) with
|q_i| <= 2^e.  Every partial sum of q is then such a multiple below
n 2^e < sigma, so ``q.sum()`` is exact in any order.  So is the remainder
p - q, at most 2^(e+M-53): passes repeat until it is zero (one or two for
the summability series).  Entries at or above 2^(1023-M), where sigma
would overflow, are folded first times 2^-64, which is exact for them.
Each pass's sum goes exactly into a Python int, which int true division,
correctly rounded in CPython, turns into the float.  Exact integers add
exactly, so no sum depends on how its terms are split into chunks or
blocks, and the units of consecutive slices add up to those of the whole.
Only finite terms are summed: an inf or nan term, and a sum whose rounded
value lies beyond the float range, raise :class:`ValidationError`.  A sum
that is exactly zero is +0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_CHUNK = 1 << 14  # terms per numpy pass; keeps each temporary at 128 KiB
_SCALE = 1 << 1074  # exact sums count units of 2^-1074


def blocks(start: int, stop: int):
    """The consecutive ranges (s, e) of at most ``_CHUNK`` integers that tile [start, stop)."""
    return ((s, min(s + _CHUNK, stop)) for s in range(start, stop, _CHUNK))


def exact_units(p: np.ndarray, shift: int = 0) -> int:
    """sum(p) * 2^shift exactly, in units of 2^-1074, of a 1-D float array
    p, in ``_CHUNK``-entry slices; an inf or nan entry raises ValidationError."""
    total = 0
    for i in range(0, len(p), _CHUNK):
        c = p[i : i + _CHUNK]
        m = (len(c) + 1).bit_length()  # 2^m >= len(c) + 2
        r, q = np.empty((2, len(c)))  # the remainder and the extracted part
        while top := max(c.max(), -c.min()):  # nan if any entry is
            if not math.isfinite(top):
                raise ValidationError("series terms must be finite")
            if top >= 2.0 ** (1023 - m):  # sigma would overflow
                big = np.abs(c) >= 2.0 ** (1023 - m)
                total += exact_units(c[big] * 2.0**-64, shift + 64)
                c = np.where(big, 0.0, c)
                continue
            sigma = math.ldexp(1.0, math.frexp(top)[1] + m)  # top < 2^e
            np.add(c, sigma, out=q)
            q -= sigma
            c = np.subtract(c, q, out=r)
            n, d = q.sum().as_integer_ratio()
            total += n * (_SCALE // d) << shift
    return total


def from_units(u: int) -> float:
    """``u`` units of 2^-1074 rounded once to a float; +0.0 when ``u`` is 0."""
    try:  # int true division rounds correctly, or overflows
        return u / _SCALE
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
    arr = np.asarray(values, dtype=float).ravel()
    bounds = [0, *map(int, cuts), len(arr)]
    if any(a > b for a, b in zip(bounds, bounds[1:])):
        raise ValidationError(f"cuts must be non-decreasing indices in [0, {len(arr)}]")
    units = [exact_units(arr[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tuple(map(from_units, units[1:-1])), from_units(sum(units))
