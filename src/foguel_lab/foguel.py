"""Two-by-two upper-triangular block operators and similarity diagnostics.

The central object is R = [[T2*, X], [0, T1]] acting on a doubled space.
Its powers keep the triangular shape, with top-right corner

    sum_{j=0}^{n-1} (T2*)^(n-1-j) X T1^j,

so questions about power boundedness of R reduce to growth of those
corner sums.  When the coupling X is itself reachable by a convergent
Sylvester series Z = sum_j T2^(j+1) X T1^j satisfying T2* Z - Z T1 = X,
the block operator is conjugate to diag(T2*, T1) by the unipotent
L = [[I, Z], [0, I]], and the conjugation residual equals the Sylvester
residual exactly.  Finite truncations pollute the last rows, so residuals
are also reported on an interior window.

A separate probe checks the polynomial von Neumann inequality
||p(C)|| <= sup_{|z|=1} |p(z)| for a candidate contraction C on a seeded
polynomial batch: certified contractions should produce zero violations,
while similarity-but-not-contraction examples show up through the
smallest constant K with ||p(C)|| <= K sup |p|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapExceededError, ValidationError
from .linalg import as_matrix, check_dense_cap, make_shift, op_norm_dense

#: How far power_offdiag's two corner routes may disagree (at unit scale),
#: and ||p(C)|| exceed the circle sup before von_neumann_probe counts it.
POWER_CHECK_TOL = 1e-10
VON_NEUMANN_TOL = 1e-9

#: The longest Sylvester series intertwiner_partial sums: its two norm
#: arrays then hold at most 16 MB.
INTERTWINER_TERMS_CAP = 10 ** 6


@dataclass(frozen=True, eq=False)
class FoguelBlock:
    t2: np.ndarray
    t1: np.ndarray
    x: np.ndarray
    matrix: np.ndarray


def _foguel_operands(t2, t1, x):
    t2, t1, x = (as_matrix(m) for m in (t2, t1, x))
    n = t1.shape[0]
    for name, a in (("t2", t2), ("t1", t1), ("x", x)):
        if a.shape != (n, n):
            raise ValidationError(f"{name} has shape {a.shape}, expected {(n, n)}")
    return t2, t1, x


def assemble_foguel(t2, t1, x) -> FoguelBlock:
    """Build R = [[T2*, X], [0, T1]] from the three ingredients; a 2N x 2N
    block above the dense cap is refused before it is allocated."""
    t2, t1, x = _foguel_operands(t2, t1, x)
    check_dense_cap((2 * t1.shape[0],) * 2)
    r = np.block([[t2.conj().T, x], [np.zeros(t1.shape), t1]])
    return FoguelBlock(t2=t2, t1=t1, x=x, matrix=r)


def power_offdiag(block: FoguelBlock, n: int) -> np.ndarray:
    """Top-right corner of R^n, by the corner-sum formula.

    The corner S_n = sum_j (T2*)^(n-1-j) X T1^j is computed by the
    recurrence S_1 = X, S_{k+1} = T2* S_k + X T1^k and cross-checked
    against the corner of the literal matrix power; the two routes are
    independent, and a disagreement beyond :data:`POWER_CHECK_TOL` raises
    instead of returning.
    """
    if n < 1:
        raise ValidationError("power must be >= 1")
    a = block.t2.conj().T
    b = block.t1
    x = block.x
    dim = block.t1.shape[0]
    acc = x.copy()
    b_pow = b
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan: refused below
        for _ in range(n - 1):
            acc = a @ acc + x @ b_pow
            b_pow = b_pow @ b
        direct = np.linalg.matrix_power(block.matrix, n)[:dim, dim:]
        gap = op_norm_dense(acc - direct).value
    # Tolerance is absolute at unit scale; for larger inputs the float
    # error in matrix_power itself grows with the data, so compare
    # relative to the magnitude actually reached.
    scale = max(1.0, float(np.abs(direct).max(initial=0.0)))
    if gap > POWER_CHECK_TOL * scale:
        raise RuntimeError(
            f"corner-sum formula and literal power disagree by {gap:.3e}"
        )
    return acc


# ---- antidiagonal coupling sums ---------------------------------------


def _block_grid(x, block_dim: int):
    x = as_matrix(x)
    d = block_dim
    if d < 1:
        raise ValidationError("block_dim must be >= 1")
    if x.shape[0] != x.shape[1] or x.shape[0] % d:
        raise ValidationError(f"shape {x.shape} is not square with block size {d}")
    n = x.shape[0] // d
    return x.reshape(n, d, n, d), n


def antidiag_partial_sum(x, n: int, block_dim: int = 1) -> np.ndarray:
    """Block matrix with (i, j) block sum_{t=0}^{n-1} X_{i-t, j+t}.

    Out-of-range blocks count as zero, so each entry slides X up its
    antidiagonal and adds the first n hits.
    """
    if n < 1:
        raise ValidationError("need at least one term")
    xb, nb = _block_grid(x, block_dim)
    acc = np.zeros_like(xb)
    for t in range(min(n, nb)):
        acc[t:, :, : nb - t, :] += xb[: nb - t, :, t:, :]
    return acc.reshape(nb * block_dim, nb * block_dim)


def antidiag_shift_form(x, n: int, block_dim: int = 1) -> np.ndarray:
    """sum_{k=0}^{n-1} S^(k+1) X S^k with S the block forward shift.

    Row i of this sum equals row i - 1 of :func:`antidiag_partial_sum`
    (and row 0 vanishes): the extra leading S shifts the whole formula
    down one block row.  Kept as an honest matrix-product route so the
    closed-form route has something independent to agree with.
    """
    if n < 1:
        raise ValidationError("need at least one term")
    x = as_matrix(x)
    _, nb = _block_grid(x, block_dim)
    s = np.kron(make_shift(nb), np.eye(block_dim))
    term = s @ x
    acc = term.copy()
    for _ in range(1, n):
        term = s @ term @ s
        acc = acc + term
    return acc


# ---- Sylvester series and similarity ----------------------------------


@dataclass(frozen=True, eq=False)
class IntertwinerResult:
    z: np.ndarray
    n_terms: int
    term_norms: np.ndarray
    partial_norms: np.ndarray
    stabilized_at: int | None


def intertwiner_partial(
    t2,
    t1,
    x,
    n_terms: int,
    stab_tol: float | None = None,
    stab_run: int = 10,
) -> IntertwinerResult:
    """Partial sums Z_n = sum_{j<n} T2^(j+1) X T1^j of the Sylvester series.

    ``term_norms[j]`` records the norm of the j-th increment and
    ``partial_norms[j]`` that of Z_{j+1}; when ``stab_tol`` (finite and
    > 0) is given, ``stabilized_at`` is the first index at which the
    latest ``stab_run`` increments all fell below the tolerance (None if
    that never happens within ``n_terms``).  ``n_terms`` above
    ``INTERTWINER_TERMS_CAP`` is refused before anything is allocated.

    T2 and T1 are finite, so once an increment is exactly zero every later
    one is too: from there on no product is formed, each later term norm
    is recorded as 0 and each partial norm as the last one.  With X on a
    k x k corner and T1 = rho S every increment from k on is zero, so at
    most k + 1 are formed.
    """
    t2, t1, x = _foguel_operands(t2, t1, x)
    # one dtype for all three: a mixed product would cast its real factor every step
    dtype = np.result_type(t2, t1, x)
    t2, t1, x = (m.astype(dtype, copy=False) for m in (t2, t1, x))
    if n_terms < 1:
        raise ValidationError("need at least one term")
    if n_terms > INTERTWINER_TERMS_CAP:
        raise SizeCapExceededError(
            f"n_terms={n_terms} exceeds the series cap {INTERTWINER_TERMS_CAP}"
        )
    if stab_run < 1:
        raise ValidationError("stab_run must be >= 1")
    if stab_tol is not None and not 0.0 < stab_tol < np.inf:
        raise ValidationError(f"stab_tol must be finite and > 0, got {stab_tol!r}")
    z = np.zeros_like(x)
    term_norms = np.empty(n_terms, dtype=float)
    partial_norms = np.empty(n_terms, dtype=float)
    stabilized_at = None
    run = 0
    live = True
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan: op_norm_dense refuses
        for j in range(n_terms):
            if live:
                term = t2 @ term @ t1 if j else t2 @ x
                live = term.any()
            if live:
                z += term
                term_norms[j] = op_norm_dense(term).value
                partial_norms[j] = op_norm_dense(z).value
            else:
                # a zero increment leaves Z, hence its norm, unchanged: Z starts at
                # +0.0 and no sum turns it to -0.0, so adding it would change no bit
                term_norms[j] = 0.0
                partial_norms[j] = partial_norms[j - 1] if j else 0.0
            if stab_tol is not None:
                run = run + 1 if term_norms[j] < stab_tol else 0
                if run >= stab_run and stabilized_at is None:
                    stabilized_at = j
    return IntertwinerResult(z, n_terms, term_norms, partial_norms, stabilized_at)


@dataclass(frozen=True, eq=False)
class SimilarityReport:
    residual_full: float
    residual_interior: float
    window: int
    conjugation_residual: float
    cond_l: float


def similarity_check(block: FoguelBlock, z, window: int) -> SimilarityReport:
    """How close Z comes to conjugating R down to diag(T2*, T1).

    Measures the Sylvester residual T2* Z - Z T1 - X (full and on the
    leading ``window`` block), then performs the literal conjugation
    L^-1 diag(T2*, T1) L with L = [[I, Z], [0, I]] and compares to R.
    The two residuals describe the same defect through different
    computations and should agree to rounding; cond_l = ||L|| ||L^-1||
    gauges how much the similarity can distort norms.

    The conjugation is the two literal products (L^-1 diag) L, in that
    order.  Beside R, at most two 2N x 2N arrays are held during a norm:
    L^-1 is normed first, it and the diagonal block are dropped after the
    first product, R is subtracted in place, and L is normed last.
    """
    z = as_matrix(z)
    n = block.t1.shape[0]
    if z.shape != (n, n):
        raise ValidationError(f"Z has shape {z.shape}, expected {(n, n)}")
    if not (1 <= window <= n):
        raise ValidationError(f"window must lie in [1, {n}]")
    a = block.t2.conj().T
    r1 = a @ z - z @ block.t1 - block.x
    residual_full = op_norm_dense(r1).value
    residual_interior = op_norm_dense(r1[:window, :window]).value
    ident, zero = np.eye(n), np.zeros((n, n))
    l_inv = np.block([[ident, -z], [zero, ident]])
    inv_norm = op_norm_dense(l_inv).value
    conj = l_inv @ np.block([[a, zero], [zero, block.t1]])
    del l_inv
    l_mat = np.block([[ident, z], [zero, ident]])
    conj = conj @ l_mat
    conj = conj.astype(np.result_type(conj, block.matrix), copy=False)  # real Z, complex R
    conj -= block.matrix
    conj_norm = op_norm_dense(conj).value
    del conj
    cond = op_norm_dense(l_mat).value * inv_norm
    return SimilarityReport(
        residual_full=residual_full,
        residual_interior=residual_interior,
        window=window,
        conjugation_residual=conj_norm,
        cond_l=cond,
    )


# ---- polynomial calculus probes ---------------------------------------


def _poly_coeffs(coeffs) -> np.ndarray:
    """``coeffs`` as a flat complex array, refused if empty or not finite."""
    coeffs = np.asarray(coeffs, dtype=np.complex128).ravel()
    if coeffs.size == 0:
        raise ValidationError("empty coefficient list")
    if not np.isfinite(coeffs).all():
        raise ValidationError("polynomial coefficients must be finite")
    return coeffs


def poly_eval_matrix(coeffs, c) -> np.ndarray:
    """p(C) by Horner's rule; ``coeffs`` ascending (c_0 + c_1 z + ...)."""
    c = as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise ValidationError("expected a square matrix")
    coeffs = _poly_coeffs(coeffs)
    n = c.shape[0]
    acc = coeffs[-1] * np.eye(n)
    for k in range(coeffs.size - 2, -1, -1):
        acc = acc @ c + coeffs[k] * np.eye(n)
    return acc


def circle_sup(coeffs, grid_points: int) -> float:
    """max |p(z)| over a uniform grid of ``grid_points`` >= 1 on the unit circle;
    a sup beyond the float range is refused."""
    coeffs = _poly_coeffs(coeffs)
    if grid_points < 1:
        raise ValidationError("grid_points must be >= 1")
    theta = 2.0 * np.pi * np.arange(grid_points) / grid_points
    with np.errstate(over="ignore", invalid="ignore"):
        sup = float(np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), coeffs)).max())
    if not np.isfinite(sup):
        raise ValidationError("circle sup lies beyond the float range")
    return sup


@dataclass(frozen=True, eq=False)
class VonNeumannReport:
    operator_norm: float
    is_contraction: bool
    grid_points: int
    results: tuple
    violations: int
    max_excess: float
    k_estimate: float


def von_neumann_probe(c, polys, grid_points: int) -> VonNeumannReport:
    """Compare ||p(C)|| against the circle sup of |p| for each polynomial.

    ``results`` holds (degree, matrix_norm, circle_sup, excess) per
    polynomial; an excess beyond :data:`VON_NEUMANN_TOL` counts as a
    violation.  The grid must be at least 8 points per degree so the
    discrete sup is a faithful stand-in for the true one.  Non-contractions
    are reported, not rejected: ``k_estimate`` is the largest observed norm
    ratio.
    """
    c = as_matrix(c)
    poly_list = [_poly_coeffs(p) for p in polys]
    if not poly_list:
        raise ValidationError("need at least one polynomial")
    max_deg = max(p.size - 1 for p in poly_list)
    if grid_points < max(8, 8 * max_deg):
        raise ValidationError(
            f"grid_points must be >= {max(8, 8 * max_deg)} for degree {max_deg}"
        )
    op_norm = op_norm_dense(c).value
    results = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan: op_norm_dense refuses
        for p in poly_list:
            mat_norm = op_norm_dense(poly_eval_matrix(p, c)).value
            sup = circle_sup(p, grid_points)
            results.append((p.size - 1, mat_norm, sup, mat_norm - sup))
    excess = [r[3] for r in results]
    return VonNeumannReport(
        operator_norm=op_norm,
        is_contraction=bool(op_norm <= 1.0 + 1e-12),
        grid_points=grid_points,
        results=tuple(results),
        violations=sum(e > VON_NEUMANN_TOL for e in excess),
        max_excess=max(excess),
        k_estimate=max((r[1] / r[2] for r in results if r[2] > 0.0), default=float("nan")),
    )
