"""Dense complex matrix arithmetic and operator-norm estimation.

Operators live as plain ``numpy.ndarray`` values of dtype complex128; the
helpers here add shape/finiteness validation, the truncated shift and the
two norm routes everything else relies on:

* ``op_norm_dense`` — largest singular value through an eigendecomposition
  of the Gram matrix A*A (the smaller of the two Gram matrices is used);
  an operand whose entries are all real is normed in real arithmetic;
* ``op_norm_power`` — seeded power iteration on A*A driven purely by
  matvec callables, usable when the operator is too large to hold densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidDimensionError,
    SizeCapExceededError,
    ValidationError,
)

#: Largest Gram dimension accepted by the dense norm route.
DENSE_SIZE_CAP = 4096


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


def op_norm_dense(a, size_cap: int = DENSE_SIZE_CAP) -> NormEstimate:
    """Largest singular value via eigendecomposition of the Gram matrix.

    Uses A*A or AA* — whichever is smaller — and reports the square root of
    the top eigenvalue, clipped at zero.  When every imaginary part is
    exactly zero the Gram matrix is formed from the real part, so the
    eigensolve is real symmetric rather than complex Hermitian.
    """
    a = as_matrix(a)
    if min(a.shape) > size_cap:
        raise SizeCapExceededError(
            f"min(shape)={min(a.shape)} exceeds dense cap {size_cap}"
        )
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


def matvec_oracles(a) -> tuple[Callable, Callable, int]:
    """(apply, apply_adjoint, dim) callables for a dense or sparse matrix.

    Lets a matrix be fed to :func:`op_norm_power`; a ``scipy.sparse``
    matrix stays sparse (both products in CSR form), and ``dim`` is the
    domain dimension.
    """
    if sp.issparse(a):
        a = a.tocsr()
        ah = a.conj().T.tocsr()
    else:
        a = as_matrix(a)
        ah = a.conj().T

    def apply(x):
        return a @ x

    def apply_adjoint(y):
        return ah @ y

    return apply, apply_adjoint, a.shape[1]


def op_norm_power(
    apply: Callable,
    apply_adjoint: Callable,
    dim: int,
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
    window: int = 5,
) -> NormEstimate:
    """Power iteration on A*A from a seeded pseudo-random start.

    The Rayleigh estimate is ||A v_k|| for the running unit vector v_k.
    Convergence is declared once the relative change of the estimate stays
    below ``tol`` for ``window`` consecutive iterations; failing that, the
    best estimate is still returned with ``converged=False`` (no exception).
    Deterministic for a fixed seed.
    """
    if dim < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    if tol <= 0 or max_iter < 1 or window < 1:
        raise ValidationError("tol must be > 0 and max_iter, window >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    est_prev = None
    recent: list[float] = []
    est = 0.0
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        w = np.asarray(apply(v))
        est = float(np.linalg.norm(w))
        if est == 0.0:
            # v lies in the kernel of A; for the purposes of a largest
            # singular value estimate started at random this means A ~ 0.
            return NormEstimate(0.0, "power", it, 0.0, True)
        u = np.asarray(apply_adjoint(w))
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return NormEstimate(est, "power", it, 0.0, True)
        v = u / nu
        if est_prev is not None:
            rel = abs(est - est_prev) / est
            recent.append(rel)
            if len(recent) > window:
                recent.pop(0)
            if len(recent) == window and max(recent) < tol:
                return NormEstimate(est, "power", it, max(recent), True)
        est_prev = est
    residual = max(recent) if recent else float("inf")
    return NormEstimate(est, "power", iterations, residual, False)
