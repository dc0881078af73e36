"""Fermionic generator tuples and operator matrices with generator entries.

A family C_0, ..., C_{m-1} satisfying the canonical anticommutation
relations

    C_j C_k + C_k C_j = 0,        C_j C_k* + C_k* C_j = delta_{jk} I,

is realized on (C^2)^(tensor m) by the usual spin-chain construction:
C_k is a parity string of Z factors, then a single lowering matrix
[[0, 1], [0, 0]], then identities.  All entries are 0 or +-1, so sparse
products are computed exactly in floating point and the relation
residuals vanish exactly, not merely to rounding.  :func:`build_car`
writes them by bit arithmetic: mode k is bit 2^(m-1-k) of a basis state
b, and C_k has entry (b, b + 2^(m-1-k)) for each b with that bit clear,
-1 when an odd number of the k leading bits of b are set, else +1.

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

A pattern is a pair (section, lag): ``section(size)`` is the scalar
size x size coefficient matrix and antidiagonal t carries the generator
C_{t-lag}, so block (i, j) is section(size)[i, j] C_{i+j-lag}.
:func:`hankel_pattern` pairs a section kind of
:data:`foguel_lab.hankel.SECTIONS` with that row's lag: 0 for the
weighted Hankel sections, 1 for the derivation commutator, whose
generator index trails the antidiagonal by one as in Gamma D - D Gamma.
The norm does not depend on which distinct generators the
antidiagonals carry: any L operators that satisfy the CAR relations
generate a copy of M_{2^L}, so sending one such family to another
extends to a *-isomorphism, which stays isometric when tensored with the
size x size matrices.  So :func:`car_pattern_operator` realizes the
r-th live antidiagonal t_r on mode r, one mode per live antidiagonal, as
the sparse operator sum_r B_{t_r} (x) C_r, B_t the section on
antidiagonal t of the Hankel window over 0 .. 2*size-2.  ``linalg.op_norm`` norms it as it stands:
block by block within the dense cap, matrix-free above it.

The operator is graded, which is what keeps those blocks small.  Write a
basis state of block row or column i as (i, S), with S the set of
occupied modes (C_r empties mode r and needs it occupied), and let its
weight w(S) be the sum of the live positions t_r over r in S.  Entry
(i, j) sends (j, S) to (i, S - {r}) with t_r = i + j, so it lowers the
fermion number |S| by exactly one and keeps the weight: w(S) - j for a
column state equals w(S') + i for the row state it reaches.
Rows of one (number, weight) pair meet only columns of one pair, so the
operator is a permuted direct sum of small blocks, and the dense route
finds them (or finer ones) as the connected components of its pattern.
:func:`car_pattern_matrix` and :func:`car_hankel` are the dense forms,
refused above the cap.

A particle-hole mirror pairs those blocks.  Let U flip every mode (X on
each factor) and P be the parity of the odd modes (Z on the factors of
odd r): U C_r U* = (-1)^r C_r* and P C_r P* = (-1)^r C_r, so V = I (x) PU
sends B (x) C_r to B (x) C_r*.  Mode r is the rank of t_r, not t_r - lag,
so D = diag((-1)^i), which turns B_t into (-1)^t B_t, cannot remove the
sign.  The sections of the ``norm`` targets are real and symmetric
(Hankel) or antisymmetric (commutator), so V Gamma V* = +-Gamma*.  Gamma
lowers the fermion number by one, U sends number s to L - s (L modes),
P keeps it, and V is a signed permutation; so the blocks on column
states of number s have the norms of those on number L + 1 - s.  The
norm routes do not use this yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .hankel import HankelSpec, _section_row, make_weighted_hankel
from .linalg import as_matrix, check_dense_cap, op_norm, safe_scale
from .sequences import WeightSequence
from .summation import exact_sums

_MAX_MODES = 14


def build_car(modes: int) -> tuple[sp.csr_matrix, ...]:
    """The generators C_0..C_{modes-1}: a tuple of CSR matrices of size 2^modes."""
    if not (1 <= modes <= _MAX_MODES):
        raise ValidationError(f"modes must lie in [1, {_MAX_MODES}]")
    states = np.arange(1 << modes)
    odd = np.zeros(len(states), dtype=bool)  # parity of the modes before k
    gens = []
    for k in range(modes):
        bit = 1 << (modes - 1 - k)
        occupied = (states & bit) != 0
        rows = np.flatnonzero(~occupied)
        indptr = np.concatenate(([0], np.cumsum(~occupied)))
        data = np.where(odd[rows], -1.0, 1.0)
        gens.append(sp.csr_matrix((data, rows | bit, indptr), shape=(len(states),) * 2))
        odd ^= occupied
    return tuple(gens)


def _residual_norm(r) -> float:
    return op_norm(r).value if r.count_nonzero() else 0.0


def car_check(gens: tuple) -> tuple[float, float]:
    """Worst-case relation residuals over all ordered pairs of ``gens``.

    ``gens`` is a non-empty tuple of square sparse matrices of one size,
    such as :func:`build_car` returns; any other tuple is refused.
    Returns (dev_anti, dev_mixed): the largest operator norm of
    C_j C_k + C_k C_j and of C_j C_k* + C_k* C_j - delta_{jk} I.
    Only pairs j <= k are formed: for any matrices the first sum is the
    same for (k, j), and the second is the adjoint of that for (j, k).
    """
    if not gens:
        raise ValidationError("car_check needs at least one generator")
    if not all(sp.issparse(g) for g in gens):
        raise ValidationError("generators must be scipy.sparse matrices")
    ident = sp.identity(gens[0].shape[0], format="csr")
    if any(g.shape != ident.shape for g in gens):
        raise ValidationError("generators must be square matrices of one size")
    dev_anti = 0.0
    dev_mixed = 0.0
    adjs = [g.conj().T.tocsr() for g in gens]
    for j in range(len(gens)):
        for k in range(j, len(gens)):
            anti = gens[j] @ gens[k] + gens[k] @ gens[j]
            dev_anti = max(dev_anti, _residual_norm(anti))
            mixed = gens[j] @ adjs[k] + adjs[k] @ gens[j]
            if j == k:
                mixed = mixed - ident
            dev_mixed = max(dev_mixed, _residual_norm(mixed))
    return dev_anti, dev_mixed


# ---- generator-valued sections ----------------------------------------


def hankel_pattern(alpha: WeightSequence, kind: str | None = None):
    """(section, lag) of the :data:`~foguel_lab.hankel.SECTIONS` row ``kind``
    (``"hankel"`` if None): block (i, j) is the section's entry times
    C_{i+j-lag}, e.g. (j - i) a_{i+j-1} C_{i+j-1} for ``"commutator"``."""
    kind = "hankel" if kind is None else kind
    lag = _section_row(kind)[3]
    return (lambda n: make_weighted_hankel(HankelSpec(alpha, n), kind)), lag


def _scalar_section(section: Callable[[int], np.ndarray], size: int) -> np.ndarray:
    if size < 1:
        raise ValidationError("size must be >= 1")
    coeffs = as_matrix(section(size))
    if coeffs.shape != (size, size):
        raise ValidationError(
            f"section({size}) has shape {coeffs.shape}, expected {(size, size)}"
        )
    return coeffs


def car_pattern_operator(
    section: Callable[[int], np.ndarray], lag: int, size: int
) -> sp.csr_matrix:
    """Sparse block matrix sum_r B_{t_r} (x) C_r, t_r the r-th live antidiagonal.

    Distinct antidiagonals carry distinct generators, the independence
    that makes the row/column bounds of :func:`rc_bounds` meaningful, so
    the norm is that of the blocks section(size)[i, j] C_{i+j-lag}.  A live
    antidiagonal below ``lag`` has no generator and is refused, and so is a
    section with more live antidiagonals than :func:`build_car` has modes.
    """
    coeffs = _scalar_section(section, size)
    i, j = np.nonzero(coeffs)
    live, mode = np.unique(i + j, return_inverse=True)  # mode r: the r-th live antidiagonal
    if len(live) and live[0] < lag:
        raise ValidationError(f"antidiagonal {live[0]} is live below the lag {lag}")
    if len(live) > _MAX_MODES:
        raise ValidationError(
            f"section of size {size} has {len(live)} live antidiagonals; "
            f"at most {_MAX_MODES} take a generator mode"
        )
    gens = build_car(max(len(live), 1))
    d = gens[0].shape[0]
    # entry (p, q, s) of C_r gives entry (i d + p, j d + q) = c s for each
    # coefficient c at (i, j) on antidiagonal t_r; every generator has d/2
    # entries, and distinct antidiagonals share no position
    p = np.stack([np.flatnonzero(np.diff(g.indptr)) for g in gens])
    q = np.stack([g.indices for g in gens])
    s = np.stack([g.data for g in gens])
    rows = (i * d)[:, None] + p[mode]
    cols = (j * d)[:, None] + q[mode]
    return sp.csr_matrix(((coeffs[i, j, None] * s[mode]).ravel(), (rows.ravel(), cols.ravel())),
                         shape=(size * d,) * 2)


def car_pattern_matrix(
    section: Callable[[int], np.ndarray], lag: int, size: int
) -> np.ndarray:
    """Dense form of :func:`car_pattern_operator`, refused above the dense cap."""
    op = car_pattern_operator(section, lag, size)
    check_dense_cap(op.shape)
    return op.toarray()


def car_hankel(alpha, kind: str | None, size: int) -> np.ndarray:
    """Dense generator-valued section of :func:`hankel_pattern` (alpha, kind)."""
    return car_pattern_matrix(*hankel_pattern(alpha, kind), size)


# ---- scalar-profile norm bounds ---------------------------------------


@dataclass(frozen=True)
class RowColBounds:
    row_sup: float
    col_sup: float
    lower: float
    upper: float


def rc_bounds(section: Callable[[int], np.ndarray], size: int) -> RowColBounds:
    """Row/column l^2 bounds for a pattern's generator-valued section.

    The bounds read only the scalar section: the lag moves the generators
    along, not the coefficients, and distinct antidiagonals carry distinct
    generators whatever it is.  lower = max(row_sup, col_sup) and
    upper = row_sup + col_sup, where row_sup is the largest l^2 norm of a
    coefficient row of section(size) (col_sup likewise for columns).  Both
    bounds are always valid.  For a Hankel pattern the lower one is
    attained whenever every live antidiagonal lies whole inside the
    section (it vanishes on antidiagonals size..2*size-2); row 0 then
    carries the whole profile.  A section that cuts live antidiagonals at
    different lengths can have its norm strictly between the two
    (sandwich), approaching the row/column sup only as the section grows.
    Bounds beyond the float range are refused, as such a sum is.
    """
    # scaled by a power of two, as the dense norm route does, so that no
    # square overflows; an infinite modulus is refused as a series term
    with np.errstate(over="ignore", invalid="ignore"):
        mod = np.abs(_scalar_section(section, size))
    scale = safe_scale(float(mod.max()))
    sq = (mod / scale) ** 2
    rows = range(0, size * size + 1, size)
    row_sup = float(max(np.sqrt(exact_sums(sq.ravel(), rows)[0]))) * scale
    col_sup = float(max(np.sqrt(exact_sums(sq.T.ravel(), rows)[0]))) * scale
    if not np.isfinite(row_sup + col_sup):
        raise ValidationError("row/column bounds lie beyond the float range")
    return RowColBounds(row_sup, col_sup, lower=max(row_sup, col_sup), upper=row_sup + col_sup)
