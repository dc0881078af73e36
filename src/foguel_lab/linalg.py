"""Dense complex matrix arithmetic and operator-norm estimation.

Operators live as plain ``numpy.ndarray`` values of dtype complex128; the
helpers here add shape/finiteness validation, the truncated shift and the
one norm layer everything else relies on.  :func:`op_norm` takes a dense
array or a ``scipy.sparse`` matrix and is the only place that picks a
route:

* ``op_norm_dense`` — largest singular value through an eigendecomposition
  of the Gram matrix A*A (the smaller of the two Gram matrices is used);
  an operand whose entries are all real is normed in real arithmetic, and
  a sparse operand is densified only once its size is within the cap;
* ``op_norm_power`` — seeded power iteration on A*A through the products
  of the matrix and its adjoint, usable on a sparse operator too large to
  hold densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidDimensionError,
    SizeCapExceededError,
    ValidationError,
)

#: Largest Gram dimension accepted by the dense norm route; the dense section
#: builders refuse larger sizes before they allocate.
DENSE_SIZE_CAP = 4096

#: Consecutive iterations the power route needs below ``tol``.
_POWER_WINDOW = 5


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` and return it as a 2-D complex128 array.

    Rejects empty shapes, higher/lower ranks, and non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidDimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise InvalidDimensionError(f"empty matrix shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def zeros(rows: int, cols: int | None = None) -> np.ndarray:
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise InvalidDimensionError("matrix dimensions must be >= 1")
    return np.zeros((rows, cols), dtype=np.complex128)


def eye(n: int) -> np.ndarray:
    if n < 1:
        raise InvalidDimensionError("matrix dimensions must be >= 1")
    return np.eye(n, dtype=np.complex128)


def make_shift(n: int) -> np.ndarray:
    """Truncated shift on C^n: entry 1 at (i+1, i), i.e. S e_i = e_{i+1}.

    The adjoint acts as the backward shift; on the truncation the product
    S*S is the identity minus the projection onto the last coordinate.
    """
    if n < 1:
        raise InvalidDimensionError("shift size must be >= 1")
    check_dense_cap((n, n))
    s = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    s[idx + 1, idx] = 1.0
    return s


def block2x2(a, b, c, d) -> np.ndarray:
    """Assemble [[A, B], [C, D]], validating that the four shapes conform."""
    a, b, c, d = (as_matrix(x) for x in (a, b, c, d))
    if a.shape[0] != b.shape[0] or c.shape[0] != d.shape[0]:
        raise InvalidDimensionError("block rows do not align")
    if a.shape[1] != c.shape[1] or b.shape[1] != d.shape[1]:
        raise InvalidDimensionError("block columns do not align")
    return np.block([[a, b], [c, d]])


@dataclass(frozen=True)
class NormEstimate:
    """Result of an operator-norm computation.

    ``converged`` implies ``relative_residual <= `` the tolerance that was
    requested; for the dense route the residual is the relative Gram
    eigenpair defect, for the power route the worst relative change of the
    Rayleigh estimate over the trailing convergence window.
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


def op_norm(a, method: str = "auto", tol: float = 1e-10, max_iter: int = 1000,
            seed: int = 0) -> NormEstimate:
    """Operator norm of a dense array or ``scipy.sparse`` matrix ``a``.

    ``method`` is ``dense`` (:func:`op_norm_dense`), ``power``
    (:func:`op_norm_power`, which alone uses ``tol``, ``max_iter`` and
    ``seed``) or ``auto``: dense, except that a sparse operator whose Gram
    dimension min(shape) exceeds ``DENSE_SIZE_CAP`` takes power and is
    never densified.
    """
    if method == "auto":
        big = sp.issparse(a) and min(a.shape) > DENSE_SIZE_CAP
        method = "power" if big else "dense"
    if method == "dense":
        return op_norm_dense(a)
    if method == "power":
        return op_norm_power(a, tol=tol, max_iter=max_iter, seed=seed)
    raise ValidationError(f"norm method must be auto, dense or power, not {method!r}")


def op_norm_dense(a) -> NormEstimate:
    """Largest singular value via eigendecomposition of the Gram matrix.

    Uses A*A or AA* — whichever is smaller — and reports the square root of
    the top eigenvalue, clipped at zero.  When every imaginary part is
    exactly zero the Gram matrix is formed from the real part, so the
    eigensolve is real symmetric rather than complex Hermitian.  The cap
    is checked on the shape, before ``a`` is copied or densified.
    """
    check_dense_cap(np.shape(a))
    a = as_matrix(a.toarray() if sp.issparse(a) else a)
    if not a.imag.any():
        a = np.ascontiguousarray(a.real)
    if a.shape[0] < a.shape[1]:
        gram = a @ a.conj().T
    else:
        gram = a.conj().T @ a
    w, v = np.linalg.eigh(gram)
    lam = float(max(w[-1], 0.0))
    value = float(np.sqrt(lam))
    if lam > 0.0:
        top = v[:, -1]
        defect = float(np.linalg.norm(gram @ top - w[-1] * top)) / lam
    else:
        defect = 0.0
    return NormEstimate(
        value=value,
        method="dense",
        iterations=0,
        relative_residual=defect,
        converged=True,
    )


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
    fixed seed.
    """
    if sp.issparse(a):
        a = a.tocsr()
        ah = a.conj().T.tocsr()
    else:
        a = as_matrix(a)
        ah = a.conj().T
    if min(a.shape) < 1:
        raise InvalidDimensionError(f"empty matrix shape {a.shape}")
    if tol <= 0 or max_iter < 1:
        raise ValidationError("tol must be > 0 and max_iter >= 1")
    dim = a.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    est_prev = None
    recent: list[float] = []
    est = 0.0
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        w = a @ v
        est = float(np.linalg.norm(w))
        if est == 0.0:
            # v lies in the kernel of A; for the purposes of a largest
            # singular value estimate started at random this means A ~ 0.
            return NormEstimate(0.0, "power", it, 0.0, True)
        u = ah @ w
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return NormEstimate(est, "power", it, 0.0, True)
        v = u / nu
        if est_prev is not None:
            rel = abs(est - est_prev) / est
            recent.append(rel)
            if len(recent) > _POWER_WINDOW:
                recent.pop(0)
            if len(recent) == _POWER_WINDOW and max(recent) < tol:
                return NormEstimate(est, "power", it, max(recent), True)
        est_prev = est
    residual = max(recent) if recent else float("inf")
    return NormEstimate(est, "power", iterations, residual, False)
