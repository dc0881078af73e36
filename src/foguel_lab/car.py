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

A pattern is a :class:`foguel_lab.hankel.Section`, and its kind's
:data:`foguel_lab.hankel.SECTIONS` row gives the lag: antidiagonal t
carries the generator C_{t-lag}, so block (i, j) is section[i, j]
C_{i+j-lag}, with lag 0 for the weighted Hankel sections and 1 for the
derivation products, whose generator trails the antidiagonal by one as
in Gamma D - D Gamma.  The norm does not depend on which distinct
generators the antidiagonals carry: any L operators that satisfy the CAR
relations generate a copy of M_{2^L}, so sending one such family to
another extends to a *-isomorphism, which stays isometric when tensored
with the size x size matrices.  So :func:`car_pattern_operator` realizes
the r-th live antidiagonal t_r on mode r, one mode per live antidiagonal,
as the sparse operator sum_r B_{t_r} (x) C_r, B_t the section on
antidiagonal t read from the Section's table; the lag never enters.
``linalg.op_norm`` norms it block by block within the dense cap,
matrix-free above it.

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

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .hankel import HankelSpec, Section, _section_row
from .linalg import check_dense_cap, op_norm, safe_scale
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
    """(n -> Section, lag) of the :data:`~foguel_lab.hankel.SECTIONS` row
    ``kind`` (``"hankel"`` if None): block (i, j) is the section's entry
    times C_{i+j-lag}, e.g. (j - i) a_{i+j-1} C_{i+j-1} for ``"commutator"``."""
    kind = "hankel" if kind is None else kind
    return (lambda n: Section.of(HankelSpec(alpha, n), kind)), _section_row(kind)[3]


def car_pattern_operator(section: Section) -> sp.csr_matrix:
    """Sparse block matrix sum_r B_{t_r} (x) C_r, t_r the r-th live antidiagonal.

    Distinct antidiagonals carry distinct generators, the independence
    that makes the row/column bounds of :func:`rc_bounds` meaningful, so
    the norm is that of the blocks section[i, j] C_{i+j-lag}.  Only the
    ends of the antidiagonals t with table[t] != 0 are read, and then the
    live ones, row by row; their zero entries are dropped.  A section with
    more live antidiagonals than :func:`build_car` has modes is refused.
    """
    n = section.shape[0]
    t = np.flatnonzero(section.table)
    lo = np.maximum(t - n + 1, 0)
    # entry (i, t - i) is table[t] times a factor linear in i, so antidiagonal t
    # is live, or has an inf or nan entry, exactly when one of its two ends does
    ends = np.stack([section[lo, t - lo], section[t - lo, lo]])
    if not np.isfinite(ends).all():
        raise ValidationError("matrix entries must be finite")
    live = t[ends.any(axis=0)]
    if len(live) > _MAX_MODES:
        raise ValidationError(f"section of size {n} has {len(live)} live antidiagonals; "
                              f"at most {_MAX_MODES} take a generator mode")
    k = np.arange(n)[:, None]
    i, mode = np.nonzero((k <= live) & (live < k + n))  # mode r: the r-th live antidiagonal
    coeffs = section[i, live[mode] - i]  # column j = t_r - i ascends along each row
    nz = coeffs != 0
    i, mode, coeffs = i[nz], mode[nz], coeffs[nz]
    gens = build_car(max(len(live), 1))
    d = gens[0].shape[0]
    # entry (p, q, s) of C_r gives entry (i d + p, j d + q) = c s for each
    # coefficient c at (i, j) on antidiagonal t_r; every generator has d/2
    # entries, and distinct antidiagonals share no position
    p = np.stack([np.flatnonzero(np.diff(g.indptr)) for g in gens])
    q = np.stack([g.indices for g in gens])
    s = np.stack([g.data for g in gens])
    rows = (i * d)[:, None] + p[mode]
    cols = ((live[mode] - i) * d)[:, None] + q[mode]
    return sp.csr_matrix(((coeffs[:, None] * s[mode]).ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n * d,) * 2)


def car_pattern_matrix(sections, lag: int, size: int) -> np.ndarray:
    """Dense :func:`car_pattern_operator` of ``sections(size)``, refused above
    the dense cap; ``lag`` must be that of the section's kind."""
    section = sections(size)
    if lag != (own := _section_row(section.kind)[3]):
        raise ValidationError(f"a {section.kind} section has lag {own}, not {lag}")
    op = car_pattern_operator(section)
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


def rc_bounds(sections, size: int) -> RowColBounds:
    """Row/column l^2 bounds for the generator-valued section of ``sections(size)``.

    The bounds read only the scalar Section, 256 rows or columns at a
    time: distinct antidiagonals carry distinct generators whatever the
    lag.  lower = max(row_sup, col_sup) and upper = row_sup + col_sup,
    row_sup the largest exact l^2 norm of a coefficient row (col_sup
    likewise for columns).  Both bounds are always valid.  For a Hankel
    pattern the lower one is attained whenever every live antidiagonal
    lies whole inside the section (it vanishes on antidiagonals
    size..2*size-2); row 0 then carries the whole profile.  A section
    that cuts live antidiagonals can have its norm strictly between the
    two.  Bounds beyond the float range are refused, as such a sum is.
    """
    n = (section := sections(size)).shape[0]
    if not np.isfinite(peak := float(section.row_peaks().max())):
        raise ValidationError("matrix entries must be finite")
    scale = safe_scale(peak)  # a power of two, as in the dense norm route: no square overflows

    def sup(block) -> float:  # the largest l^2 norm of a row of block, over scale
        sq = np.abs(block)
        sq /= scale
        sq *= sq
        return np.sqrt(exact_sums(sq, range(0, sq.size + 1, n))[0]).max()

    row_sup = float(max(sup(section[i:i + 256]) for i in range(0, n, 256))) * scale
    col_sup = float(max(sup(section[:, i:i + 256].T) for i in range(0, n, 256))) * scale
    if not np.isfinite(row_sup + col_sup):
        raise ValidationError("row/column bounds lie beyond the float range")
    return RowColBounds(row_sup, col_sup, lower=max(row_sup, col_sup), upper=row_sup + col_sup)
