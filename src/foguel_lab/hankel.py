"""Hankel sections, derivation-weighted variants, and Sylvester residuals.

A Hankel section is the N x N matrix [a_{i+j}] built from a coefficient
sequence (a :class:`~foguel_lab.sequences.WeightSequence`); the
derivation-weighted variant carries entries (i+j+1) a_{i+j}.  Each reads
a window over one table in ``Section.__getitem__``, the only place i + j
is formed.  The differentiation matrix D (the weighted shift D e_j = j e_{j-1},
see :func:`derivation_matrix`) gives three products, each a factor times
the window over 0, a_0, .., a_{2N-3}:

    commutator   (Gamma D - D* Gamma)[i,j] = (j - i) a_{i+j-1}
    gamma_d      (Gamma D)[i,j]            = j a_{i+j-1}
    dstar_gamma  (D* Gamma)[i,j]           = i a_{i+j-1}

All five are (c_i i + c_j j + c_0) a_{i+j-lag} with a_t = 0 for t < 0,
one row of :data:`SECTIONS` each, and a :class:`Section` holds one as its
table: :func:`make_weighted_hankel` is its ``dense()`` array, and
``linalg.op_norm`` takes the Section itself, with its row peaks from a
sliding-window maximum of the table, its sign A* = +-A from the factor
and only its kept block and kept columns built.  Whatever the
coefficients, the gamma_d product with a minus sign solves the
displacement equation S* Y - Y S = Gamma away from the truncation
boundary; :func:`sylvester_residual` quantifies this on an interior
window, by index shifts.  Sections with generator-valued entries live in
:mod:`foguel_lab.car`; their generator C_{i+j-lag} trails by the lag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .foguel import _block_grid
from .linalg import _row_peaks, _symmetry, as_matrix, check_dense_cap, op_norm_dense
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


def make_weighted_hankel(spec: HankelSpec, kind: str = "hankel") -> np.ndarray:
    """``Section.of(spec, kind).dense()``: an overflowing product is left as
    inf or nan for ``as_matrix`` to refuse, without numpy's warning."""
    return Section.of(spec, kind).dense()


@dataclass(frozen=True, eq=False)
class Section:
    """The :data:`SECTIONS` section of ``kind`` held as its table.

    Entry (i, j) is (c_i i + c_j j + c_0) table[i+j] / scale, over ``table``
    [0 .. 2n-2].  It is read as its n x n array is, by ``section[key]``,
    ``section @ x``, ``section / s`` and :meth:`dense`, with the same bits;
    only :meth:`dense` (or ``np.asarray``) is n x n.
    """

    table: np.ndarray
    kind: str = "hankel"
    scale: float = 1.0
    dtype = np.dtype(np.float64)  # np.iscomplexobj reads it without building the array

    def __post_init__(self):
        _section_row(self.kind)
        if (got := np.asarray(self.table).dtype).kind not in "biuf":
            raise ValidationError(f"a section table must be real, got dtype {got}")
        if np.ndim(self.table) != 1 or len(self.table) % 2 == 0:
            raise ValidationError("a section table holds 2n - 1 entries, n >= 1")
        check_dense_cap(self.shape)

    @classmethod
    def of(cls, spec: HankelSpec, kind: str = "hankel") -> "Section":
        """The section of ``kind`` of ``spec``: its table is lag zeros, then a_0, a_1, .."""
        lag = _section_row(kind)[3]
        check_dense_cap((spec.size, spec.size))  # before the table is built
        return cls(np.concatenate([np.zeros(lag), spec.coeff_table(2 * spec.size - 1 - lag)]), kind)

    @property
    def shape(self) -> tuple:
        return ((len(self.table) + 1) // 2,) * 2

    def dense(self) -> np.ndarray:
        return self[:]

    def __array__(self, dtype=None, copy=None):
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)

    def __truediv__(self, scale: float) -> "Section":
        return replace(self, scale=self.scale * scale)

    def __getitem__(self, key) -> np.ndarray:
        """The entries under the numpy index ``key``, as a new array.

        A factor of i + j alone (c_i == c_j) weights the table before its
        window is indexed; any other is indexed from its two broadcast terms,
        so a read holds no integer factor and nothing larger than itself.
        An overflowing product (or 0 * inf) is left for the norm to refuse.
        """
        c_i, c_j, c_0, _ = SECTIONS[self.kind]
        n = self.shape[0]
        table = self._weighted() if c_i == c_j else self.table
        window = np.lib.stride_tricks.sliding_window_view(table, n)[key]  # [table[i+j]]
        if c_i == c_j:
            return window if window.flags.writeable else window.copy()
        k = np.arange(n, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            out = (np.broadcast_to((c_i * k)[:, None], (n, n))[key]
                   + np.broadcast_to(c_j * k + c_0, (n, n))[key])
            out *= window
            out /= self.scale
        return out

    def __matmul__(self, x) -> np.ndarray:
        """A x from the columns where x is nonzero, 256 rows at a time."""
        cols = np.flatnonzero(x)
        return np.concatenate([self[i:i + 256, cols] @ x[cols]
                               for i in range(0, self.shape[0], 256)])

    def row_peaks(self) -> np.ndarray:
        """The largest modulus in each row.  When c_i == c_j row i is the
        table on [i, i + n), which holds n - 1, so its peak is the larger of
        the suffix maximum from i and the prefix maximum from n - 1."""
        c_i, c_j, _, _ = SECTIONS[self.kind]
        if c_i != c_j:
            return _row_peaks(self)
        n, w = self.shape[0], np.abs(self._weighted())
        return np.maximum(np.maximum.accumulate(w[n - 1::-1])[::-1],
                          np.maximum.accumulate(w[n - 1:]))

    def sign(self) -> int:
        """+1 if A* = A, -1 if A* = -A, else 0, for a nonzero section: from
        a factor symmetric or antisymmetric in i and j, else by the tiles."""
        c_i, c_j, c_0, _ = SECTIONS[self.kind]
        if c_i == c_j:
            return 1
        return -1 if c_i == -c_j and c_0 == 0 else _symmetry(self)

    def _weighted(self) -> np.ndarray:
        """(c_i t + c_0) table[t] / scale: the entries when c_i == c_j."""
        c_i, _, c_0, _ = SECTIONS[self.kind]
        t = np.arange(len(self.table), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.table * (c_i * t + c_0) / self.scale


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
    # S* Y and Y S on the window are Y shifted up one row and left one column
    return op_norm_dense(y[1:w + 1, :w] - y[:w, 1:w + 1] - gamma[:w, :w]).value

