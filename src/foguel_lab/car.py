"""Fermionic generator tuples and operator matrices with generator entries.

A family C_0, ..., C_{m-1} satisfying the canonical anticommutation
relations

    C_j C_k + C_k C_j = 0,        C_j C_k* + C_k* C_j = delta_{jk} I,

is realized on (C^2)^(tensor m) by the usual spin-chain construction:
C_k is a parity string of Z factors, then a single lowering matrix
[[0, 1], [0, 0]], then identities.  All entries are 0 or +-1, so sparse
products are computed exactly in floating point and the relation
residuals vanish exactly, not merely to rounding.

The matrices of interest here have block entries which are scalar
multiples of these generators, with the generator index constant along
antidiagonals i + j = t.  Because distinct antidiagonals then carry
*distinct* generators, the operator norm of such a matrix is pinched by
the row/column l^2 profile of the scalar coefficients alone:
max(row_sup, col_sup) <= norm <= row_sup + col_sup.  For the Hankel
pattern [w(i+j) a_{i+j} C_{i+j}] the lower end is attained when every
live antidiagonal lies whole inside the section, i.e. when w(t) a_t
vanishes for t >= size: reversing the columns then gives an
upper-triangular block Toeplitz matrix, a compression of the analytic
Toeplitz operator with symbol sum_t w(t) a_t z^(size-1-t) C_t, whose norm
at every point of the circle is the l^2 norm of the coefficients; row 0
attains it.  Any size x size section is the top-left corner of the
section of size 2*size-1 built from the profile cut to t < 2*size-1,
whose antidiagonals all lie whole, so its norm is at most the l^2 norm
of w(t) a_t over t < 2*size-1.  A section that cuts live
antidiagonals can sit strictly above the lower end: the flat lacunary
profile at size 3 has norm equal to the golden ratio, against sqrt(2).

A (beta, phi) pattern, block beta(i, j) C_{phi(i+j)} at (i, j), is
assembled once, by :func:`car_pattern_operator`, as the sparse operator
sum_t B_t (x) C_{phi(t)} with B_t the scalar coefficients on antidiagonal
t.  ``linalg.op_norm`` norms that operator as it stands: densified
within the dense cap, matrix-free above it.  :func:`car_hankel_operator`
is the Hankel pattern on 2*size-1 modes, and :func:`car_pattern_matrix`
and :func:`car_hankel` are the dense forms, refused above the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidDimensionError,
    InvalidModesError,
    InvalidPatternError,
)
from .linalg import check_dense_cap, op_norm
from .sequences import WeightSequence
from .summation import exact_sums

_MAX_MODES = 14

_Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
_LOWER = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
_I2 = sp.identity(2, format="csr")


@dataclass(frozen=True)
class CarAlgebra:
    modes: int
    dim: int
    generators: tuple

    def dense(self, k: int) -> np.ndarray:
        return np.asarray(self.generators[k].toarray(), dtype=np.complex128)


def build_car(modes: int) -> CarAlgebra:
    """Generators C_0..C_{modes-1} as CSR matrices of size 2^modes."""
    if not (1 <= modes <= _MAX_MODES):
        raise InvalidModesError(f"modes must lie in [1, {_MAX_MODES}]")
    gens = []
    for k in range(modes):
        factors = [_Z] * k + [_LOWER] + [_I2] * (modes - k - 1)
        mat = reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
        mat.eliminate_zeros()
        gens.append(mat)
    return CarAlgebra(modes=modes, dim=2 ** modes, generators=tuple(gens))


def _residual_norm(r) -> float:
    r = sp.csr_matrix(r)
    r.eliminate_zeros()
    return op_norm(r).value if r.nnz else 0.0


def car_check(alg: CarAlgebra) -> tuple[float, float]:
    """Worst-case relation residuals over all ordered generator pairs.

    Returns (dev_anti, dev_mixed): the largest operator norm of
    C_j C_k + C_k C_j and of C_j C_k* + C_k* C_j - delta_{jk} I.
    """
    dev_anti = 0.0
    dev_mixed = 0.0
    gens = alg.generators
    adjs = [g.conj().T.tocsr() for g in gens]
    ident = sp.identity(alg.dim, format="csr")
    for j in range(alg.modes):
        for k in range(alg.modes):
            anti = gens[j] @ gens[k] + gens[k] @ gens[j]
            dev_anti = max(dev_anti, _residual_norm(anti))
            mixed = gens[j] @ adjs[k] + adjs[k] @ gens[j]
            if j == k:
                mixed = mixed - ident
            dev_mixed = max(dev_mixed, _residual_norm(mixed))
    return dev_anti, dev_mixed


# ---- coefficient plumbing ---------------------------------------------


def _coeff_fn(alpha: WeightSequence) -> Callable[[int], complex]:
    return lambda k: complex(alpha.value(k)) if k >= 0 else 0.0


def hankel_pattern(alpha: WeightSequence, weight: Callable[[int], float] | None = None):
    """(beta, phi) for entries weight(i+j) a_{i+j} C_{i+j}."""
    a = _coeff_fn(alpha)
    w = (lambda k: 1.0) if weight is None else weight
    return (lambda i, j: w(i + j) * a(i + j)), (lambda t: t)


def commutator_pattern(alpha: WeightSequence):
    """(beta, phi) for entries (j - i) a_{i+j-1} C_{i+j-1}.

    This is the coefficient pattern of Gamma D - D Gamma when Gamma has
    generator-valued antidiagonals; the generator index lags the
    antidiagonal by one.
    """
    a = _coeff_fn(alpha)
    return (lambda i, j: (j - i) * a(i + j - 1)), (lambda t: t - 1)


# ---- generator-valued sections ----------------------------------------


def _coefficients(beta: Callable[[int, int], complex], size: int) -> np.ndarray:
    return np.array([[complex(beta(i, j)) for j in range(size)] for i in range(size)])


def car_pattern_operator(
    beta: Callable[[int, int], complex],
    phi: Callable[[int], int],
    size: int,
    alg: CarAlgebra | None = None,
) -> sp.csr_matrix:
    """Sparse block matrix with (i, j) block beta(i, j) C_{phi(i+j)}.

    ``phi`` maps the antidiagonal index
    to a generator index and is only consulted on antidiagonals where
    some beta(i, j) is nonzero; it must be injective there (distinct
    antidiagonals, distinct generators) — that independence is what makes
    the row/column bounds of :func:`rc_bounds` meaningful.  Without
    ``alg`` the algebra has just the modes the live antidiagonals need.
    """
    if size < 1:
        raise InvalidDimensionError("size must be >= 1")
    coeffs = _coefficients(beta, size)
    anti = np.add.outer(np.arange(size), np.arange(size))
    gen_of = {}
    for t in np.unique(anti[coeffs != 0.0]).tolist():
        g = int(phi(t))
        if g < 0:
            raise InvalidPatternError(f"phi({t}) = {g} is negative")
        gen_of[t] = g
    if len(set(gen_of.values())) != len(gen_of):
        raise InvalidPatternError("phi repeats a generator across antidiagonals")
    modes = max(gen_of.values()) + 1 if gen_of else 1
    if alg is None:
        alg = build_car(modes)
    elif alg.modes < modes:
        raise InvalidModesError(
            f"need {modes} generator modes, algebra has {alg.modes}"
        )
    dim = size * alg.dim
    out = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for t, g in gen_of.items():
        b_t = np.where(anti == t, coeffs, 0.0)
        out = out + sp.kron(b_t, alg.generators[g], format="csr")
    return out


def car_pattern_matrix(
    beta: Callable[[int, int], complex],
    phi: Callable[[int], int],
    size: int,
    alg: CarAlgebra | None = None,
) -> np.ndarray:
    """Dense form of :func:`car_pattern_operator`, refused above the dense cap."""
    return _dense(car_pattern_operator(beta, phi, size, alg=alg))


def car_hankel_operator(
    alpha, weight: Callable[[int], float] | None, size: int
) -> sp.csr_matrix:
    """Sparse generator-valued Hankel section [w(i+j) a_{i+j} C_{i+j}].

    The algebra has 2*size-1 modes, one per antidiagonal, whether or not
    the antidiagonal is live, so the dimension is size * 2^(2*size-1).
    """
    alg = build_car(2 * size - 1) if size >= 1 else None
    beta, phi = hankel_pattern(alpha, weight)
    return car_pattern_operator(beta, phi, size, alg=alg)


def car_hankel(alpha, weight: Callable[[int], float] | None, size: int) -> np.ndarray:
    """Dense form of :func:`car_hankel_operator`, refused above the dense cap."""
    return _dense(car_hankel_operator(alpha, weight, size))


def _dense(op: sp.csr_matrix) -> np.ndarray:
    check_dense_cap(op.shape)
    return op.toarray()


# ---- scalar-profile norm bounds ---------------------------------------


@dataclass(frozen=True)
class RowColBounds:
    row_sup: float
    col_sup: float
    lower: float
    upper: float


def rc_bounds(beta: Callable[[int, int], complex], size: int) -> RowColBounds:
    """Row/column l^2 bounds for a distinct-generator pattern matrix.

    lower = max(row_sup, col_sup) and upper = row_sup + col_sup, where
    row_sup is the largest l^2 norm of a coefficient row (col_sup likewise
    for columns).  Both bounds are always valid.  For a Hankel pattern the
    lower one is attained whenever every live antidiagonal lies whole
    inside the section (beta vanishes on antidiagonals size..2*size-2);
    row 0 then carries the whole profile.  A section that cuts live
    antidiagonals at different lengths can have its norm strictly between
    the two (sandwich), approaching the row/column sup only as the section
    grows.
    """
    if size < 1:
        raise InvalidDimensionError("size must be >= 1")
    sq = np.abs(_coefficients(beta, size)) ** 2
    rows = range(0, size * size + 1, size)
    row_sup = max(np.sqrt(exact_sums(sq.ravel(), rows)[0]))
    col_sup = max(np.sqrt(exact_sums(sq.T.ravel(), rows)[0]))
    return RowColBounds(
        row_sup=float(row_sup),
        col_sup=float(col_sup),
        lower=float(max(row_sup, col_sup)),
        upper=float(row_sup + col_sup),
    )
