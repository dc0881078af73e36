"""Structured Schur multiplier sections and their diagnostics.

The matrices studied here are sections of infinite arrays m(i, j) defined
for i, j >= offset.  A :class:`MultiplierSpec` is a coefficient sequence
a (a :class:`~foguel_lab.sequences.WeightSequence`) and an offset, and its
array is the quotient array

    m(i, j) = (j - i) g(i + j),    g(n) = a(n) / (n + 1).

:data:`MULTIPLIER_KINDS` names the command line's kinds by their
coefficient family in :data:`foguel_lab.sequences.FAMILIES`:

* ``difference-quotient`` — ``constant``, so m(i, j) = (j-i)/(i+j+1), the
  bounded-entry array whose distinct iterated limits (-1 along rows, +1
  along columns) obstruct it from being a bounded Schur multiplier;
* ``log-damped``          — ``log:EPS``, so
  m(i, j) = (j-i) / ((i+j+1) log^(1+eps)(i+j+1));
* ``loglog-damped``       — ``loglog:EPS``, so
  m(i, j) = (j-i) / ((i+j+1) log(i+j+1) loglog^(1+eps)(i+j+1)).

Each formula is therefore written once, in :mod:`foguel_lab.sequences`,
which ties the matrix diagnostics to the scalar series diagnostics there;
a section is the commutator factor j - i times a Hankel window over g.
The witness ladder :func:`multiplier_lower_bound` takes any matrix: a
section that :func:`make_multiplier` builds, or a reference array such as
a circulant, a positive semidefinite or a rank-one u v^T matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import ValidationError
from .hankel import _factor_section
from .linalg import as_matrix, check_dense_cap, op_norm_dense
from .sequences import WeightSequence, check_terms_cap, decade_sums, diff2, family, finite_block

#: The named multiplier kinds, each the quotient array of a coefficient family.
MULTIPLIER_KINDS = {
    "difference-quotient": "constant",
    "log-damped": "log",
    "loglog-damped": "loglog",
}


@dataclass(frozen=True)
class MultiplierSpec:
    """The quotient array of ``sequence`` for i, j >= offset.

    A section reads a(n) from n = 2 * offset on, so an offset that reaches
    below the sequence's start index is refused.
    """

    sequence: WeightSequence
    offset: int = 1

    def __post_init__(self):
        if not isinstance(self.sequence, WeightSequence):
            raise ValidationError("multiplier sequence must be a WeightSequence")
        if self.offset < 0:
            raise ValidationError("offset must be >= 0")
        if 2 * self.offset < self.sequence.start_index:
            raise ValidationError(
                f"offset {self.offset} reads the sequence at {2 * self.offset}, "
                f"below its start index {self.sequence.start_index}"
            )

    # ---- constructors -------------------------------------------------

    @classmethod
    def difference_quotient(cls, offset: int = 1) -> "MultiplierSpec":
        return cls(family(MULTIPLIER_KINDS["difference-quotient"]), offset=offset)

    # ---- evaluation ---------------------------------------------------

    def g_values(self, ns) -> np.ndarray:
        """The radial factor g(n) = a(n)/(n+1) with m(i,j) = (j-i) g(i+j)."""
        ns = np.asarray(ns, dtype=np.int64)
        return self.sequence.values_at(ns) / (ns + 1.0)

    def entry(self, i: int, j: int) -> float:
        if i < self.offset or j < self.offset:
            raise ValidationError(
                f"entry ({i},{j}) below the section offset {self.offset}"
            )
        return float((j - i) * self.g_values(i + j))


def make_multiplier(spec: MultiplierSpec, size: int) -> np.ndarray:
    """The size x size section with indices i, j in [offset, offset + size)."""
    if size < 1:
        raise ValidationError("section size must be >= 1")
    check_dense_cap((size, size))
    g = finite_block(spec.g_values(np.arange(2 * spec.offset, 2 * (spec.offset + size) - 1)))
    return _factor_section("commutator", g, size)


# ---- second-difference summability ------------------------------------


def antidiag_abs_coeff(ns, offset: int = 1) -> np.ndarray:
    """sum over i+j = n, i,j >= offset of |j - i| (closed form).

    With span K = n - 2*offset the antidiagonal carries the values
    K, K-2, ..., so the total is floor((K+1)^2 / 2) (for even K that is
    K(K/2 + 1)); zero when the antidiagonal misses the section.
    """
    K = np.asarray(ns, dtype=np.int64) - 2 * offset
    return np.where(K < 0, 0.0, (K + 1) ** 2 // 2)


def antidiagonal_sums(spec: MultiplierSpec, start: int, stop: int) -> np.ndarray:
    """Absolute second-difference mass of the antidiagonals start <= n < stop.

    Entry t totals |m(i,j) - m(i,j+1) - m(i+1,j) + m(i+1,j+1)| over the
    antidiagonal i + j = start + t.  For a quotient array the inner sum
    collapses exactly: the second difference at (i, j) with i + j = n
    equals (j - i) * (g(n) - 2 g(n+1) + g(n+2)), so each antidiagonal
    contributes |g(n) - 2g(n+1) + g(n+2)| times the closed-form coefficient
    :func:`antidiag_abs_coeff` — the same grouping as direct summation but
    O(stop - start) instead of O(stop^2).  A range that is empty or starts
    below the section's first antidiagonal, 2 * offset, is refused.
    """
    if start < 2 * spec.offset:
        raise ValidationError(f"start {start} is below 2 * offset = {2 * spec.offset}")
    if stop <= start:
        raise ValidationError(f"stop {stop} must be > start {start}")
    check_terms_cap(stop - 1)
    g = finite_block(spec.g_values(np.arange(start, stop + 2)))
    ns = np.arange(start, stop, dtype=np.int64)
    # an overflow leaves inf or nan masses, which the summation refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return antidiag_abs_coeff(ns, spec.offset) * np.abs(diff2(g))


@dataclass(frozen=True)
class MatrixDiffReport:
    """Absolute second-difference mass of a multiplier section.

    ``total`` sums :func:`antidiagonal_sums` over 2 * offset <= i + j <= terms;
    summability of those sums (plus vanishing row/column limits) is the
    classical sufficient condition for the array to multiply boundedly.
    """

    total: float
    decades: tuple[tuple[int, int], ...]
    decade_increments: tuple[float, ...]
    verdict: bool
    row_tail: float
    col_tail: float


def bennett_criterion(spec: MultiplierSpec, terms: int) -> MatrixDiffReport:
    """Second-difference partial sums over the triangle i + j <= terms.

    The masses of :func:`antidiagonal_sums` are summed exactly by decade,
    block by block (:func:`decade_sums`), and dropped.  Row/column vanishing
    is sampled at index max(10 * terms, 10^6) in the first few columns/rows.
    """
    n_lo = 2 * spec.offset
    if terms < n_lo + 2:
        raise ValidationError(f"terms must be >= {n_lo + 2}")
    windows, (increments,), (total,), (verdict,) = decade_sums(
        n_lo, terms, 1, lambda s, e: (antidiagonal_sums(spec, s, e),))
    probe = max(10 * terms, 10 ** 6)
    near = range(spec.offset, spec.offset + 4)
    row_tail = max(abs(spec.entry(probe, j)) for j in near)
    col_tail = max(abs(spec.entry(i, probe)) for i in near)
    return MatrixDiffReport(
        total=total,
        decades=windows,
        decade_increments=increments,
        verdict=verdict,
        row_tail=row_tail,
        col_tail=col_tail,
    )


def iterated_limits(spec: MultiplierSpec, row_index: int, col_index: int) -> tuple[float, float]:
    """Point-sample estimates of the two iterated limits of m(i, j).

    The first value estimates lim_j lim_i m(i, j): the inner variable is
    pushed to ``row_index`` and the outer one sampled at round(row_index^(1/4)),
    far enough out to emulate the outer limit yet small against the inner
    index.  The second value is the symmetric estimate of lim_i lim_j.
    Plain evaluation, no extrapolation — a genuinely discontinuous array
    (distinct iterated limits) shows up as two well-separated samples.
    """
    if row_index < 10 or col_index < 10:
        raise ValidationError("limit sample indices must be >= 10")
    j_out = max(spec.offset, min(col_index, round(row_index ** 0.25)))
    i_out = max(spec.offset, min(row_index, round(col_index ** 0.25)))
    lim_rows_first = spec.entry(row_index, j_out)
    lim_cols_first = spec.entry(i_out, col_index)
    return lim_rows_first, lim_cols_first


# ---- witness lower bounds ---------------------------------------------


@dataclass(frozen=True)
class MultiplierProbe:
    lower_bound: float
    best_witness: str
    ratios: tuple[tuple[str, float], ...]


def _witness_iter(shape: tuple[int, int], rng: np.random.Generator):
    yield "identity", np.eye(*shape)
    yield "ones", np.ones(shape)
    col = np.zeros(shape)
    col[:, 0] = 1.0
    yield "ones-column", col
    for k in count():
        yield f"sign-{k}", rng.choice([-1.0, 1.0], size=shape)


def multiplier_lower_bound(m, witnesses: int = 4, seed: int = 0) -> MultiplierProbe:
    """max over a witness ladder of ||M * A|| / ||A|| (entrywise product).

    ``m`` is the section as a matrix, such as :func:`make_multiplier`
    builds.  Witnesses of its shape come in a fixed order — identity,
    all-ones, the rank-one ones-column, then seeded random sign matrices —
    so the bound is monotone in ``witnesses`` and deterministic for a fixed
    seed.  Always a valid lower bound for the multiplier norm of ``m``.
    """
    if witnesses < 1:
        raise ValidationError("need at least one witness")
    m = as_matrix(m)
    ladder = islice(_witness_iter(m.shape, np.random.default_rng(seed)), witnesses)
    ratios = [(name, float(op_norm_dense(m * a).value / op_norm_dense(a).value))
              for name, a in ladder]
    best = max(ratios, key=lambda t: t[1])
    return MultiplierProbe(lower_bound=best[1], best_witness=best[0], ratios=tuple(ratios))
