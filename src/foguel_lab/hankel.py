"""Hankel sections, derivation-weighted variants, and Sylvester residuals.

A Hankel section is the N x N matrix [a_{i+j}] built from a coefficient
sequence (a :class:`~foguel_lab.sequences.WeightSequence`); the
derivation-weighted variant carries entries (i+j+1) a_{i+j}.  Each copies
a window over one table, :func:`hankel_windows`, the only place i + j is
formed.  The differentiation matrix D (the weighted shift D e_j = j e_{j-1},
see :func:`derivation_matrix`) gives three products, each a factor times
the window over 0, a_0, .., a_{2N-3}:

    commutator   (Gamma D - D* Gamma)[i,j] = (j - i) a_{i+j-1}
    gamma_d      (Gamma D)[i,j]            = j a_{i+j-1}
    dstar_gamma  (D* Gamma)[i,j]           = i a_{i+j-1}

All five are (c_i i + c_j j + c_0) a_{i+j-lag} with a_t = 0 for t < 0,
one row of :data:`SECTIONS` each, and :func:`make_weighted_hankel` builds
them all.  Whatever the coefficients, the gamma_d product with a minus
sign solves the displacement equation S* Y - Y S = Gamma away from the
truncation boundary; :func:`sylvester_residual` quantifies this on an
interior window.  Sections with generator-valued entries live in
:mod:`foguel_lab.car`; their generator C_{i+j-lag} trails by the lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .foguel import _block_grid
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
            raise ValidationError("size must be >= 1")

    def coeff_table(self, count: int) -> np.ndarray:
        """a_0 .. a_{count-1} as one aligned table (0 below the start index)."""
        return self.coefficients.values_at(np.arange(count))


#: Section kind -> (c_i, c_j, c_0, lag): entry (i, j) is
#: (c_i i + c_j j + c_0) a_{i+j-lag}, with a_t = 0 for t < 0.
SECTIONS = {
    "hankel": (0, 0, 1, 0),
    "hankel-deriv": (1, 1, 1, 0),
    "commutator": (-1, 1, 0, 1),
    "gamma_d": (0, 1, 0, 1),
    "dstar_gamma": (1, 0, 0, 1),
}

derivative_weight = "hankel-deriv"  #: the kind [(i+j+1) a_{i+j}]


def _section_row(kind: str) -> tuple:
    if kind not in SECTIONS:
        raise ValidationError(f"kind must be one of {tuple(SECTIONS)}")
    return SECTIONS[kind]


def make_hankel(spec: HankelSpec) -> np.ndarray:
    return make_weighted_hankel(spec, "hankel")


def hankel_windows(table, n: int) -> np.ndarray:
    """The read-only n x n view [table[i+j]] of table[0 .. 2n-2]."""
    return np.lib.stride_tricks.sliding_window_view(table[: 2 * n - 1], n)


def make_weighted_hankel(spec: HankelSpec, kind: str = "hankel") -> np.ndarray:
    """The :data:`SECTIONS` section of ``kind``, (c_i i + c_j j + c_0) a_{i+j-lag}.

    Its window runs over lag zeros and then a_0, a_1, ...  A product
    that overflows is left as inf or nan for ``as_matrix`` to refuse,
    without numpy's warning.
    """
    lag = _section_row(kind)[3]
    n = spec.size
    check_dense_cap((n, n))
    table = np.concatenate([np.zeros(lag), spec.coeff_table(2 * n - 1 - lag)])
    return _factor_section(kind, table, n)


def hankel_defect(a, block_dim: int = 1) -> float:
    """max block-norm discrepancy along antidiagonals (0 for true Hankel)."""
    grid, n = _block_grid(a, block_dim)
    blocks = grid.transpose(0, 2, 1, 3)  # blocks[i, j] is block (i, j)
    i, j = np.indices((n, n))
    first = np.maximum(0, i + j - n + 1)  # the smallest row on antidiagonal i + j
    return float(np.abs(blocks[i, j] - blocks[first, i + j - first]).max())


def derivation_matrix(n: int) -> np.ndarray:
    """Truncation of the differentiation-style weighted shift: (i, i+1) -> i+1."""
    if n < 1:
        raise ValidationError("size must be >= 1")
    return np.diag(np.arange(1.0, n), 1)


def _factor_section(kind: str, table, n: int) -> np.ndarray:
    """(c_i i + c_j j + c_0) table[i+j] for the :data:`SECTIONS` row of ``kind``.

    A factor of i + j alone (c_i == c_j) weights the table before its
    window is copied; any other exact float64 factor takes the window in
    place, so the build holds one n x n array and no integer factor.  An
    overflowing product (or 0 * inf) is left for ``as_matrix`` to refuse.
    """
    c_i, c_j, c_0, _ = SECTIONS[kind]
    with np.errstate(over="ignore", invalid="ignore"):
        if c_i == c_j:
            t = np.arange(2 * n - 1, dtype=np.float64)
            return hankel_windows(table[: 2 * n - 1] * (c_i * t + c_0), n).copy()
        k = np.arange(n, dtype=np.float64)
        section = np.add.outer(c_i * k, c_j * k + c_0)
        section *= hankel_windows(table, n)
    return section


def derivation_product(spec: HankelSpec, kind: str) -> np.ndarray:
    """Entry-formula build of Gamma D - D* Gamma / Gamma D / D* Gamma.

    Uses the closed forms (j - i) a_{i+j-1}, j a_{i+j-1}, i a_{i+j-1}
    (a_{-1} = 0), the factor of ``kind`` times a window, rather than
    multiplying matrices; at finite size these agree exactly with the
    truncated products because the weighted shift D stays in the section.
    """
    kinds = tuple(k for k, row in SECTIONS.items() if row[3] == 1)
    if kind not in kinds:
        raise ValidationError(f"kind must be one of {kinds}")
    return make_weighted_hankel(spec, kind)


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
        raise ValidationError("Y and Gamma must be square of equal size")
    n = y.shape[0]
    w = n - 1 if window is None else window
    if not (1 <= w <= n - 1):
        raise ValidationError(f"window must lie in [1, {n - 1}]")
    s = make_shift(n)
    r = s.conj().T @ y - y @ s - gamma
    return op_norm_dense(r[:w, :w]).value

