"""Exactly rounded summation.

Partial sums of the slowly convergent series studied here (tails like
1/(n log^2 n)) lose their meaning in double precision if accumulated
naively over 10^5..10^6 terms, so every series total in this package goes
through :func:`exact_sum`.
"""

from __future__ import annotations

import math

import numpy as np


def exact_sum(values) -> float:
    """Exactly rounded sum of a 1-D collection (``math.fsum``)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    return math.fsum(arr.tolist())
