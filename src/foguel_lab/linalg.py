"""Dense matrix arithmetic and operator-norm estimation.

Operators live as plain ``numpy.ndarray`` values, complex128 if their data
is complex and float64 otherwise (:func:`as_matrix`); the helpers here add
shape/finiteness validation, the truncated shift and the one norm layer
everything else relies on.  :func:`op_norm` takes a dense array or a
``scipy.sparse`` matrix and is the only place that picks a route:

* ``op_norm_dense`` — largest singular value from ``eigvalsh`` alone: of
  the operand itself when it is Hermitian, else of the smaller Gram
  matrix; two inverse-iteration solves certify the value with a residual.
  Whether A* = A or A* = -A is tested in one pass over 64 x 64 tiles,
  which stops at the first tile that rules out both.  A Hermitian or
  skew-Hermitian operand is eigensolved (itself, or the Gram of the kept
  block) only on the indices whose row holds an entry above
  eps * peak / n, which moves no singular value by more than
  eps * ||A||; its residual is still measured on the whole operand.
  An operand whose entries are all real is normed in real arithmetic.  A
  sparse operand within the cap is first split into the connected
  components of its nonzero pattern, and each component is densified and
  normed on its own: a permuted direct sum has the largest norm of its
  blocks;
* ``op_norm_power`` — seeded power iteration on A*A through the products
  of the matrix and its adjoint, usable on a sparse operator too large to
  hold densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SizeCapExceededError, ValidationError

#: Largest Gram dimension accepted by the dense norm route; the dense section
#: builders refuse larger sizes before they allocate.
DENSE_SIZE_CAP = 4096

#: Relative offset of the inverse-iteration shift past the extreme eigenvalue.
_SHIFT = 1e-12

#: The dense route norms an operand whose largest entry lies in
#: [1/_SAFE_PEAK, _SAFE_PEAK] as given; any other is first scaled by a
#: power of two, which is exact, to a largest entry in [1, 2).  In that
#: range the Gram entries, the extreme eigenvalue mu, the inverse-iteration
#: solutions (which grow like 1e12/|mu|) and the squares summed by the
#: residual norm all stay far inside the normal floating-point range.
#: ``car.rc_bounds`` scales the moduli whose squares it sums likewise.
_SAFE_PEAK = 2.0**200

#: Side of the square tiles in which the dense route tests A* = +-A.
_TILE = 64

#: Consecutive iterations the power route needs below ``tol``.
_POWER_WINDOW = 5


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` and return it as a C-contiguous 2-D array.

    The one dtype rule: complex128 if the data is complex, else float64
    (integer and boolean data included).  An array that already conforms
    is returned uncopied.  Rejects empty shapes, higher/lower ranks, and
    non-finite entries.
    """
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    m = np.asarray(a, dtype=dtype, order="C")
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValidationError(f"empty matrix shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def make_shift(n: int) -> np.ndarray:
    """Truncated shift on C^n: entry 1 at (i+1, i), i.e. S e_i = e_{i+1}.

    The adjoint acts as the backward shift; on the truncation the product
    S*S is the identity minus the projection onto the last coordinate.
    """
    if n < 1:
        raise ValidationError("shift size must be >= 1")
    check_dense_cap((n, n))
    return np.eye(n, k=-1)


@dataclass(frozen=True)
class NormEstimate:
    """Result of an operator-norm computation.

    ``converged`` means ``relative_residual <=`` the tolerance that was
    requested.  For the dense route the residual is the relative eigenpair
    defect ||Bv - mu v|| / |mu| of the Hermitian matrix B it eigensolved
    (the operand or its Gram matrix), which bounds the distance from mu to
    the spectrum of B; when only part of a Hermitian or skew-Hermitian
    operand was eigensolved, B is still the whole operand or its whole
    Gram matrix, and v the solved vector padded with zeros.  ``iterations``
    is 0.  For the power route it is the worst relative change of the
    Rayleigh estimate over the trailing convergence window: a stall test,
    not a bound.
    """

    value: float
    method: str  # "dense" | "power"
    iterations: int
    relative_residual: float
    converged: bool


def check_dense_cap(shape) -> None:
    """Refuse a dense form whose Gram dimension min(shape) exceeds the cap."""
    if min(shape, default=0) > DENSE_SIZE_CAP:
        raise SizeCapExceededError(
            f"min(shape)={min(shape)} exceeds dense cap {DENSE_SIZE_CAP}"
        )


def _check_tol(tol) -> None:
    """Refuse a norm tolerance that is not finite and > 0, on either route."""
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")


def op_norm(a, method: str = "auto", tol: float = 1e-10, max_iter: int = 1000,
            seed: int = 0) -> NormEstimate:
    """Operator norm of a dense array or ``scipy.sparse`` matrix ``a``.

    ``method`` is ``dense`` (:func:`op_norm_dense`), ``power``
    (:func:`op_norm_power`, the only route that uses ``max_iter`` and
    ``seed``) or ``auto``: dense, except that a sparse operator whose Gram
    dimension min(shape) exceeds ``DENSE_SIZE_CAP`` takes power and is
    never densified.  Both routes take ``tol``, which must be finite and > 0.
    """
    if method == "auto":
        big = sp.issparse(a) and min(a.shape) > DENSE_SIZE_CAP
        method = "power" if big else "dense"
    if method == "dense":
        return op_norm_dense(a, tol=tol)
    if method == "power":
        return op_norm_power(a, tol=tol, max_iter=max_iter, seed=seed)
    raise ValidationError(f"norm method must be auto, dense or power, not {method!r}")


def op_norm_dense(a, tol: float = 1e-10) -> NormEstimate:
    """Largest singular value from eigenvalues alone, with a residual.

    A zero operand has norm 0.  An operand with extreme entries is first
    scaled by a power of two, so that nothing below overflows or
    underflows.  A Hermitian operand (every real symmetric one included)
    is normed as max |lambda| of ``eigvalsh`` of itself; any other operand
    as the square root of the top ``eigvalsh`` eigenvalue of A*A or AA*,
    whichever is smaller.  A real operand of either dtype is normed in
    real arithmetic, so each eigensolve is real symmetric.  The cap is
    checked on the shape, before ``a`` is copied or densified.  Whether
    A* = A or A* = -A is tested exactly, tile by tile: each 64 x 64 tile
    on or above the diagonal against the adjoint of its mirror tile, up
    to the first tile that rules out both.

    A Hermitian or skew-Hermitian n x n operand with largest entry
    ``peak`` is eigensolved only on the indices whose row (and so column)
    holds an entry above eps * peak / n.  Setting the other rows and
    columns to zero changes at most n^2 entries, each by at most
    eps * peak / n, so the operand moves by at most eps * peak
    <= eps * ||A|| in Frobenius norm; by Weyl's inequality no singular
    value moves further.  A Hermitian operand is then eigensolved on the
    kept block itself; a skew-Hermitian one (i A is Hermitian, with the
    same rows, moduli and norm) on the real or complex Gram of the kept
    block, as any other operand is.  On a decaying Hankel section such as
    [2^-(i+j)] at n = 2048 this leaves a 63 x 63 block, and on its
    derivation commutator [(j - i) 2^-(i+j-1)] at n = 512 a 69 x 69 one.

    A ``scipy.sparse`` operand is split first.  Rows and columns are the
    two sides of a bipartite graph with an edge for each nonzero entry;
    each connected component with an edge is one block, the rows and
    columns of the component in their original order.  Permuting rows and
    columns makes the operand the direct sum of these blocks (and of zero
    rows and columns), whose norm is the largest block norm, so each block
    is densified and normed alone and the largest value is returned with
    the residual of the block that attains it.  A dense operand is one
    block.

    The certificate: two inverse-iteration solves, from a fixed seeded
    start and shifted just outside the extreme eigenvalue mu of the matrix
    B that was eigensolved, give a unit v; ``relative_residual`` is
    ||Bv - mu v|| / |mu|.  Some eigenvalue of the Hermitian B lies within
    ||Bv - mu v|| of mu (Kahan-Parlett), so ``converged`` means that bound
    is within ``tol`` relative.  For a trimmed operand v is padded with
    zeros and the defect is taken with the whole operand as B, or its
    whole Gram A*A = -A^2 applied as two products with A when A* = -A, so
    the dropped coupling counts in the certificate.
    """
    _check_tol(tol)
    check_dense_cap(np.shape(a))
    if not sp.issparse(a):
        return _dense_block_norm(as_matrix(a), tol)
    return max((_dense_block_norm(block, tol) for block in _pattern_blocks(a)),
               key=lambda est: est.value, default=NormEstimate(0.0, "dense", 0, 0.0, True))


def _pattern_blocks(a):
    """Dense blocks of the sparse ``a``, one per component of its pattern.

    ``a`` is not modified; duplicate entries are summed, its empty rows and
    columns belong to no block, and a non-finite entry, being nonzero,
    belongs to one.  Rows and columns are stable-sorted by component label
    once, so each block is a contiguous range of rows and of columns, and
    its entries a contiguous run of the permuted CSR arrays.
    """
    # imported on first use: csgraph loads scipy.linalg and
    # scipy.sparse.linalg, which a bare ``import foguel_lab`` never needs
    from scipy.sparse.csgraph import connected_components

    if min(a.shape) < 1:
        raise ValidationError(f"empty matrix shape {a.shape}")
    p = sp.csr_matrix(a, copy=True)
    p.sum_duplicates()
    p.eliminate_zeros()
    edges = p.astype(bool)
    _, labels = connected_components(sp.bmat([[None, edges], [edges.T, None]]),
                                     directed=False)
    row_labels, col_labels = labels[:p.shape[0]], labels[p.shape[0]:]
    row_order = np.argsort(row_labels, kind="stable")
    col_order = np.argsort(col_labels, kind="stable")
    p = p[row_order][:, col_order]
    row_labels, col_labels = row_labels[row_order], col_labels[col_order]
    entry_rows = np.repeat(np.arange(p.shape[0]), np.diff(p.indptr))
    ks = np.unique(row_labels[np.diff(p.indptr) > 0])  # the labels with an edge, ascending
    spans = [ks, ks + 1]  # label k spans [k, k + 1) of the sorted labels
    rows, cols = np.searchsorted(row_labels, spans), np.searchsorted(col_labels, spans)
    for r0, r1, c0, c1 in zip(*rows, *cols):
        run = slice(p.indptr[r0], p.indptr[r1])
        block = np.zeros((r1 - r0, c1 - c0), dtype=p.dtype)
        block[entry_rows[run] - r0, p.indices[run] - c0] = p.data[run]
        yield as_matrix(block)


def safe_scale(peak: float) -> float:
    """1.0 for ``peak`` in [1/_SAFE_PEAK, _SAFE_PEAK], else the 2^k with peak / 2^k in [1, 2)."""
    inside = 1.0 / _SAFE_PEAK <= peak <= _SAFE_PEAK
    return 1.0 if inside else float(np.ldexp(1.0, np.frexp(peak)[1] - 1))


def _divide(a, scale: float):
    """``a`` / ``scale`` part by part: numpy's complex division overflows on a
    subnormal divisor, and scipy's sparse one multiplies by 1 / scale."""
    if sp.issparse(a):
        return sp.csr_matrix((_divide(a.data, scale), a.indices, a.indptr), shape=a.shape)
    return a.real / scale + 1j * (a.imag / scale) if np.iscomplexobj(a) else a / scale


def _dense_block_norm(a: np.ndarray, tol: float) -> NormEstimate:
    """:func:`op_norm_dense` of one validated dense array of either dtype."""
    if np.iscomplexobj(a) and not a.imag.any():
        a = np.ascontiguousarray(a.real)
    # the largest modulus in each row, 256 rows at a time: no n x n temporary
    rows = np.concatenate([np.abs(a[i:i + 256]).max(axis=1) for i in range(0, len(a), 256)])
    peak = float(rows.max())
    if peak == 0.0:
        return NormEstimate(0.0, "dense", 0, 0.0, True)
    scale = safe_scale(peak)
    if scale != 1.0:
        a = _divide(a, scale)
    sign = _symmetry(a)  # +1: A* = A, -1: A* = -A, 0: neither
    hermitian = sign == 1
    keep = None  # the indices of a trimmed Hermitian or skew-Hermitian operand
    if sign:
        # the trim of op_norm_dense, tested on the unscaled rows and peak:
        # its eps * ||A|| bound does not depend on the scale
        live = np.flatnonzero(rows > np.finfo(float).eps * peak / len(rows))
        keep = live if len(live) < len(rows) else None
    kept = a if keep is None else a[np.ix_(keep, keep)]
    if hermitian:
        b = kept
    elif kept.shape[0] < kept.shape[1]:
        b = kept @ kept.conj().T
    else:
        b = kept.conj().T @ kept
    w = np.linalg.eigvalsh(b)
    # the eigenvalue of largest modulus; a Gram matrix has no negative one
    mu = float(w[0] if hermitian and -w[0] > w[-1] else w[-1])
    value = scale * (abs(mu) if hermitian else float(np.sqrt(mu)))
    shifted = b.copy()
    np.fill_diagonal(shifted, b.diagonal() - (mu + _SHIFT * mu))
    v = np.random.default_rng(0).standard_normal(b.shape[0])
    for _ in range(2):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
    if keep is None:
        bv = b @ v
    else:
        # the residual is taken on the whole operand, dropped coupling
        # included: Av, or A*Av = -A(Av) when A* = -A
        v_kept, v = v, np.zeros(len(a), dtype=v.dtype)
        v[keep] = v_kept
        bv = a @ v if hermitian else -(a @ (a @ v))
    defect = float(np.linalg.norm(bv - mu * v)) / abs(mu)
    return NormEstimate(
        value=value,
        method="dense",
        iterations=0,
        relative_residual=defect,
        converged=defect <= tol,
    )


def _symmetry(a: np.ndarray) -> int:
    """+1 if A* = A, -1 if A* = -A, else 0 (a zero square ``a`` gives +1).

    Each tile a[i:i+T, j:j+T] with j >= i is compared with the adjoint of
    its mirror a[j:j+T, i:i+T]: two blocks that stay in cache, where the
    transpose of the whole array strides across all of it.  The pass stops
    at the first tile that rules out both signs.
    """
    if a.shape[0] != a.shape[1]:
        return 0
    hermitian = skew = True
    for i in range(0, len(a), _TILE):
        for j in range(i, len(a), _TILE):
            mirror = a[j:j + _TILE, i:i + _TILE].T.conj()
            tile = a[i:i + _TILE, j:j + _TILE]
            hermitian = hermitian and np.array_equal(tile, mirror)
            skew = skew and np.array_equal(tile, -mirror)
            if not (hermitian or skew):
                return 0
    return 1 if hermitian else -1


def op_norm_power(
    a, tol: float = 1e-10, max_iter: int = 1000, seed: int = 0
) -> NormEstimate:
    """Power iteration on A*A from a seeded pseudo-random start.

    ``a`` is a dense array or a ``scipy.sparse`` matrix; a sparse one stays
    sparse, with both products in CSR form.  The Rayleigh estimate is
    ||A v_k|| for the running unit vector v_k.  Convergence is declared
    once the relative change of the estimate stays below ``tol`` for five
    consecutive iterations; failing that, the best estimate is still
    returned with ``converged=False`` (no exception).  Deterministic for a
    fixed seed.  A zero operand has norm 0 after no iteration, and one
    with an inf or nan entry is refused, dense or sparse.  As on the
    dense route, an operand with extreme entries is first scaled by a power
    of two, ``safe_scale`` of its largest modulus, so that no norm in the
    loop overflows or underflows; the estimate is scaled back.
    """
    a = a.tocsr() if sp.issparse(a) else as_matrix(a)
    if min(a.shape) < 1:
        raise ValidationError(f"empty matrix shape {a.shape}")
    if sp.issparse(a) and not np.isfinite(a.data).all():
        raise ValidationError("matrix entries must be finite")
    _check_tol(tol)
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    peak = float(abs(a).max())
    if peak == 0.0:
        return NormEstimate(0.0, "power", 0, 0.0, True)
    scale = safe_scale(peak)
    if scale != 1.0:
        a = _divide(a, scale)
    # the iterate is complex: convert a real operand once, not in every product
    a = a.astype(np.complex128, copy=False)
    ah = a.conj().T.tocsr() if sp.issparse(a) else a.conj().T
    dim = a.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    est_prev = None
    recent: list[float] = []
    for it in range(1, max_iter + 1):
        w = a @ v
        est = float(np.linalg.norm(w))
        u = ah @ w
        v = u / float(np.linalg.norm(u))
        if est_prev is not None:
            rel = abs(est - est_prev) / est
            recent.append(rel)
            if len(recent) > _POWER_WINDOW:
                recent.pop(0)
            if len(recent) == _POWER_WINDOW and max(recent) < tol:
                return NormEstimate(scale * est, "power", it, max(recent), True)
        est_prev = est
    residual = max(recent) if recent else float("inf")
    return NormEstimate(scale * est, "power", max_iter, residual, False)
