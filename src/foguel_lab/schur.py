"""Structured Schur multiplier sections and their diagnostics.

The matrices studied here are sections of infinite arrays m(i, j) defined
for i, j >= offset.  Every structured kind is the quotient array of a
coefficient sequence a (a :class:`~foguel_lab.sequences.WeightSequence`),

    m(i, j) = (j - i) g(i + j),    g(n) = a(n) / (n + 1),

and the three named kinds are the quotient arrays of named sequences:

* ``difference_quotient``  — ``constant()``, so m(i, j) = (j-i)/(i+j+1), the
  bounded-entry array whose distinct iterated limits (-1 along rows, +1
  along columns) obstruct it from being a bounded Schur multiplier;
* ``log_damped(eps)``      — ``log_family(eps).shifted(1)``, so
  m(i, j) = (j-i) / ((i+j+1) log^(1+eps)(i+j+1));
* ``loglog_damped(eps)``   — ``loglog_family(eps).shifted(1)``, so
  m(i, j) = (j-i) / ((i+j+1) log(i+j+1) loglog^(1+eps)(i+j+1));
* ``from_sequence(a)``     — any other coefficient sequence a.

Each formula is therefore written once, in :mod:`foguel_lab.sequences`,
which ties the matrix diagnostics to the scalar series diagnostics there.
A ``custom`` kind takes an arbitrary entry callable (used for reference
cases such as constant arrays and literal closed forms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidOffsetError,
    ValidationError,
)
from .linalg import op_norm_dense
from .sequences import WeightSequence, decade_sums, diff2

#: The named kinds, each the quotient array of the sequence built from epsilon.
_NAMED = {
    "difference_quotient": lambda eps: WeightSequence.constant(),
    "log_damped": lambda eps: WeightSequence.log_family(eps).shifted(1),
    "loglog_damped": lambda eps: WeightSequence.loglog_family(eps).shifted(1),
}
_STRUCTURED = tuple(_NAMED) + ("from_sequence",)


@dataclass(frozen=True)
class MultiplierSpec:
    """One multiplier kind; a named kind builds ``sequence`` from ``epsilon``."""

    kind: str
    epsilon: float | None = None
    sequence: WeightSequence | None = None
    entry_fn: Callable | None = field(default=None, compare=False)
    offset: int = 1

    def __post_init__(self):
        if self.kind not in _STRUCTURED + ("custom",):
            raise ValidationError(f"unknown multiplier kind {self.kind!r}")
        if self.offset < 0:
            raise InvalidOffsetError("offset must be >= 0")
        if self.kind in ("log_damped", "loglog_damped"):
            if not (self.epsilon is not None and self.epsilon > 0):
                raise ValidationError("damped kinds need epsilon > 0")
            if self.offset < 1:
                raise InvalidOffsetError(
                    "damped kinds need offset >= 1 so the (iterated) logarithm "
                    "of i+j+1 is positive"
                )
        if self.kind in _NAMED:
            object.__setattr__(self, "sequence", _NAMED[self.kind](self.epsilon))
        if self.kind == "from_sequence" and self.sequence is None:
            raise ValidationError("from_sequence needs a sequence")
        if self.kind == "custom" and self.entry_fn is None:
            raise ValidationError("custom kind needs an entry callable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def difference_quotient(cls, offset: int = 1) -> "MultiplierSpec":
        return cls("difference_quotient", offset=offset)

    @classmethod
    def log_damped(cls, eps: float, offset: int = 1) -> "MultiplierSpec":
        return cls("log_damped", epsilon=float(eps), offset=offset)

    @classmethod
    def loglog_damped(cls, eps: float, offset: int = 1) -> "MultiplierSpec":
        return cls("loglog_damped", epsilon=float(eps), offset=offset)

    @classmethod
    def from_sequence(cls, seq: WeightSequence, offset: int = 1) -> "MultiplierSpec":
        return cls("from_sequence", sequence=seq, offset=offset)

    @classmethod
    def custom(cls, fn: Callable, offset: int = 1) -> "MultiplierSpec":
        return cls("custom", entry_fn=fn, offset=offset)

    # ---- evaluation ---------------------------------------------------

    @property
    def structured(self) -> bool:
        return self.kind in _STRUCTURED

    def g_values(self, ns) -> np.ndarray:
        """The radial factor g(n) = a(n)/(n+1) with m(i,j) = (j-i) g(i+j)."""
        if not self.structured:
            raise ValidationError("custom kind has no radial factor")
        ns = np.asarray(ns, dtype=np.int64)
        return self.sequence.values_at(ns) / (ns + 1.0)

    def entry(self, i: int, j: int) -> float:
        if i < self.offset or j < self.offset:
            raise ValidationError(
                f"entry ({i},{j}) below the section offset {self.offset}"
            )
        if self.kind == "custom":
            return float(self.entry_fn(i, j))
        return float((j - i) * self.g_values(i + j))

    def describe(self) -> str:
        if self.kind == "from_sequence":
            return f"quotient[{self.sequence.describe()}]"
        return self.kind.replace("_", "-")


def make_multiplier(spec: MultiplierSpec, size: int) -> np.ndarray:
    """The size x size section with indices i, j in [offset, offset + size)."""
    if size < 1:
        raise InvalidDimensionError("section size must be >= 1")
    idx = np.arange(spec.offset, spec.offset + size, dtype=np.int64)
    if spec.kind == "custom":
        out = np.empty((size, size), dtype=np.complex128)
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                out[a, b] = spec.entry_fn(int(i), int(j))
        return out
    jj, ii = np.meshgrid(idx, idx)
    g = spec.g_values(ii + jj)
    return ((jj - ii) * g).astype(np.complex128)


# ---- second-difference summability ------------------------------------


def antidiag_abs_coeff(ns, offset: int = 1) -> np.ndarray:
    """sum over i+j = n, i,j >= offset of |j - i| (closed form).

    With span K = n - 2*offset the antidiagonal carries the values
    K, K-2, ..., so the total is floor((K+1)^2 / 2) (for even K that is
    K(K/2 + 1)); zero when the antidiagonal misses the section.
    """
    K = np.asarray(ns, dtype=np.int64) - 2 * offset
    return np.where(K < 0, 0.0, (K + 1) ** 2 // 2)


@dataclass(frozen=True)
class MatrixDiffReport:
    """Absolute second-difference mass of a multiplier section.

    ``antidiagonal_sums[t]`` is the total of |m(i,j) - m(i,j+1) - m(i+1,j)
    + m(i+1,j+1)| over the antidiagonal i+j = 2*offset + t; summability of
    these (plus vanishing row/column limits) is the classical sufficient
    condition for the array to multiply boundedly.
    """

    terms: int
    offset: int
    antidiagonal_sums: np.ndarray
    total: float
    decades: tuple[tuple[int, int], ...]
    decade_increments: tuple[float, ...]
    verdict: bool
    row_tail: float
    col_tail: float


def bennett_criterion(spec: MultiplierSpec, terms: int) -> MatrixDiffReport:
    """Second-difference partial sums over the triangle i + j <= terms.

    For the structured kinds the inner antidiagonal sum collapses exactly:
    the second difference at (i, j) with i + j = n equals
    (j - i) * (g(n) - 2 g(n+1) + g(n+2)), so each antidiagonal contributes
    |g(n) - 2g(n+1) + g(n+2)| times the closed-form coefficient
    :func:`antidiag_abs_coeff` — the same grouping as direct summation but
    O(terms) instead of O(terms^2).  Custom kinds are summed directly.

    Row/column vanishing is sampled at index max(10 * terms, 10^6) in the
    first few columns/rows.
    """
    n_lo = 2 * spec.offset
    if terms < n_lo + 2:
        raise ValidationError(f"terms must be >= {n_lo + 2}")
    ns = np.arange(n_lo, terms + 1, dtype=np.int64)
    if spec.structured:
        d2 = diff2(spec.g_values(np.arange(n_lo, terms + 3)))
        sums = antidiag_abs_coeff(ns, spec.offset) * np.abs(d2)
    else:
        parts = np.zeros(len(ns), dtype=float)
        for t, n in enumerate(ns):
            i = np.arange(spec.offset, n - spec.offset + 1, dtype=np.int64)
            j = n - i
            acc = 0.0
            for ii, jj in zip(i, j):
                acc += abs(
                    spec.entry_fn(int(ii), int(jj))
                    - spec.entry_fn(int(ii), int(jj) + 1)
                    - spec.entry_fn(int(ii) + 1, int(jj))
                    + spec.entry_fn(int(ii) + 1, int(jj) + 1)
                )
            parts[t] = acc
        sums = parts
    windows, increments, total, verdict = decade_sums(sums, n_lo, terms)
    probe = max(10 * terms, 10 ** 6)
    near = range(spec.offset, spec.offset + 4)
    row_tail = max(abs(spec.entry(probe, j)) for j in near)
    col_tail = max(abs(spec.entry(i, probe)) for i in near)
    return MatrixDiffReport(
        terms=terms,
        offset=spec.offset,
        antidiagonal_sums=sums,
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
    kind: str
    size: int
    witness_count: int
    lower_bound: float
    best_witness: str
    seed: int
    ratios: tuple[tuple[str, float], ...]


def _witness_iter(size: int, rng: np.random.Generator):
    yield "identity", np.eye(size, dtype=np.complex128)
    yield "ones", np.ones((size, size), dtype=np.complex128)
    col = np.zeros((size, size), dtype=np.complex128)
    col[:, 0] = 1.0
    yield "ones-column", col
    k = 0
    while True:
        yield f"sign-{k}", rng.choice([-1.0, 1.0], size=(size, size)).astype(
            np.complex128
        )
        k += 1


def multiplier_lower_bound(
    spec: MultiplierSpec, size: int, witnesses: int = 4, seed: int = 0
) -> MultiplierProbe:
    """max over a witness ladder of ||M * A|| / ||A|| (entrywise product).

    Witnesses come in a fixed order — identity, all-ones, the rank-one
    ones-column, then seeded random sign matrices — so the bound is
    monotone in ``witnesses`` and deterministic for a fixed seed.  Always
    a valid lower bound for the multiplier norm of the section.
    """
    if witnesses < 1:
        raise ValidationError("need at least one witness")
    m = make_multiplier(spec, size)
    rng = np.random.default_rng(seed)
    ratios = []
    it = _witness_iter(size, rng)
    for _ in range(witnesses):
        name, a = next(it)
        ratio = op_norm_dense(m * a).value / op_norm_dense(a).value
        ratios.append((name, float(ratio)))
    best = max(ratios, key=lambda t: t[1])
    return MultiplierProbe(
        kind=spec.describe(),
        size=size,
        witness_count=witnesses,
        lower_bound=best[1],
        best_witness=best[0],
        seed=seed,
        ratios=tuple(ratios),
    )
