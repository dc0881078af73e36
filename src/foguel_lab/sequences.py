"""Coefficient sequences and scalar series diagnostics.

A :class:`WeightSequence` is a lazily evaluated real sequence: ``values_at(k)``
for ``k >= start_index`` and 0 below.  :data:`FAMILIES` holds every
coefficient family used by the operator constructions, one row each:

* ``pisier-flat``      — 1 at the lacunary indices 2^j - 1, else 0;
* ``pisier-geometric`` — 2^-j at index 2^j - 1 (equivalently 1/(k+1) on
  the lacunary set), else 0;
* ``harmonic``         — 1/k for k >= 1;
* ``constant``         — 1 (the divergence test sequence);
* ``power:S``          — (k+1)^-s;
* ``geometric:R``      — r^k for 0 < r < 1;
* ``log:EPS``          — 1/(log(k+1))^(1+eps) for k >= 1;
* ``loglog:EPS``       — 1/(log(k+1) (log log(k+1))^(1+eps)) for k >= 2, so
  that the iterated logarithm is positive.

``log`` and ``loglog`` read log(k+1) so that the quotient matrix
[(j-i) a_{i+j} / (i+j+1)] has the log-damped entries
(j-i) / ((i+j+1) log^(1+eps)(i+j+1)).  ``custom(values)`` is an explicit
finite list, 0 beyond its end, and belongs to no family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import summation
from .errors import SizeCapExceededError, ValidationError

#: The largest series length the summability diagnostics accept.  They
#: stream the series in fixed-size blocks, so it bounds run time, not memory.
BENNETT_TERMS_CAP = 10 ** 8


def _loglog(k, eps):
    lg = np.log(k + 1)
    return 1.0 / (lg * np.log(lg) ** (1.0 + eps))


#: The named coefficient families: name -> (first index, label of its one
#: parameter or None, formula(k, param) for index arrays k >= first index).
FAMILIES = {
    "pisier-flat": (0, None, lambda k, _: np.where(((k + 1) & k) == 0, 1.0, 0.0)),
    "pisier-geometric": (0, None, lambda k, _: np.where(((k + 1) & k) == 0, 1.0 / (k + 1), 0.0)),
    "harmonic": (1, None, lambda k, _: (k + 0.0) ** -1.0),
    "constant": (0, None, lambda k, _: np.ones(k.shape)),
    "power": (0, "S", lambda k, s: (k + 1.0) ** (-s)),
    "geometric": (0, "R", lambda k, r: r ** k.astype(float)),
    "log": (1, "EPS", lambda k, eps: 1.0 / np.log(k + 1) ** (1.0 + eps)),
    "loglog": (2, "EPS", _loglog),
}

FAMILY_HELP = " | ".join(f"{name}:{label}" if label else name
                        for name, (_, label, _) in FAMILIES.items())


@dataclass(frozen=True)
class WeightSequence:
    """The family ``kind`` (a :data:`FAMILIES` name) at ``param``, or the
    ``custom`` list ``data``."""

    kind: str
    param: float | None = None
    data: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind != "custom" and self.kind not in FAMILIES:
            raise ValidationError(
                f"unknown coefficient family {self.kind!r}; expected {FAMILY_HELP}"
            )
        label = None if self.kind == "custom" else FAMILIES[self.kind][1]
        if (self.param is not None) != (label is not None):
            needs = "no parameter" if label is None else f"one parameter {label}"
            raise ValidationError(f"family {self.kind!r} takes {needs}")
        if self.data is not None and self.kind != "custom":
            raise ValidationError(f"sequence kind {self.kind!r} takes no value list")
        if self.param is not None and not np.isfinite(self.param):
            raise ValidationError(f"sequence parameter {self.param!r} is not finite")
        if self.data is not None and not np.isfinite(self.data).all():
            raise ValidationError("custom sequence values must be finite")
        if self.kind == "geometric" and not (0.0 < float(self.param) < 1.0):
            raise ValidationError("geometric ratio must lie in (0, 1)")
        if self.kind in ("log", "loglog") and not float(self.param) > 0.0:
            raise ValidationError("damping exponent must be > 0")
        if self.kind == "custom" and (self.data is None or len(self.data) == 0):
            raise ValidationError("custom sequence needs a non-empty value list")

    # ---- constructors -------------------------------------------------

    @classmethod
    def geometric(cls, r: float) -> "WeightSequence":
        return cls("geometric", param=float(r))

    @classmethod
    def custom(cls, values) -> "WeightSequence":
        return cls("custom", data=tuple(float(v) for v in values))

    # ---- evaluation ---------------------------------------------------

    @property
    def start_index(self) -> int:
        return 0 if self.kind == "custom" else FAMILIES[self.kind][0]

    def values_at(self, indices) -> np.ndarray:
        """Vectorized evaluation; indices below start_index give 0.

        An index outside [-2^63, 2^63 - 2] is refused, not wrapped: the
        formulas read k + 1 in int64.  So is an index that is not an
        integer (a float or a bool included), not truncated.
        """
        ks = np.asarray(indices)
        # Python ints beyond 64 bits make an object array
        whole = ks.dtype.kind in "iu" or ks.dtype.kind == "O" and all(
            isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in ks.flat)
        if ks.size and not whole:
            raise ValidationError(f"sequence indices must be integers, got dtype {ks.dtype}")
        for k in (ks.min(), ks.max()) if ks.size else ():
            if not -(2**63) <= k <= 2**63 - 2:
                raise ValidationError(f"sequence index {k} lies outside [{-(2**63)}, {2**63 - 2}]")
        ks = ks.astype(np.int64, copy=False)
        scalar = ks.ndim == 0
        ks = np.atleast_1d(ks)
        with np.errstate(over="ignore", divide="ignore"):  # inf, which finite checks refuse
            out = self._formula(np.maximum(ks, self.start_index))
        out[ks < self.start_index] = 0.0
        return out[0] if scalar else out

    def _formula(self, ks: np.ndarray) -> np.ndarray:
        if self.kind != "custom":
            return FAMILIES[self.kind][2](ks, self.param)
        arr = np.asarray(self.data, dtype=float)
        out = np.zeros(ks.shape, dtype=float)
        ok = ks < len(arr)
        out[ok] = arr[ks[ok]]
        return out

    def describe(self) -> str:
        """``kind[:param]``, or ``custom[length]``.

        The label of a family sequence reads back through :func:`family`
        as the same sequence.
        """
        label = f"custom[{len(self.data)}]" if self.kind == "custom" else self.kind
        if self.param is not None:
            label += f":{_param_text(self.param)}"
        return label


def _param_text(x: float) -> str:
    """``x`` in ``%g`` form when that reads back as ``x``, else its repr."""
    text = format(x, "g")
    return text if float(text) == x else repr(x)


def family(name: str, param: float | None = None) -> WeightSequence:
    """The sequence of the family ``name``, given its parameter if it takes one."""
    if name == "custom":
        raise ValidationError(f"unknown coefficient family {name!r}; expected {FAMILY_HELP}")
    return WeightSequence(name, param=None if param is None else float(param))


def diff1(a) -> np.ndarray:
    """First forward difference b_n = a_n - a_{n+1} (length len(a) - 1)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValidationError("diff1 needs a 1-D sequence of length >= 2")
    return arr[:-1] - arr[1:]


def diff2(a) -> np.ndarray:
    """Second difference c_n = a_n - 2 a_{n+1} + a_{n+2} (length len(a) - 2)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or len(arr) < 3:
        raise ValidationError("diff2 needs a 1-D sequence of length >= 3")
    return arr[:-2] - 2.0 * arr[1:-1] + arr[2:]


# ---- summability diagnostics ------------------------------------------


@dataclass(frozen=True)
class BennettReport:
    """Partial sums and per-decade increments of the three series

        sum |a_n| / n,   sum |a_n - a_{n+1}|,   sum n |a_n - 2a_{n+1} + a_{n+2}|

    for n from ``n_start`` to ``terms``.  ``decades`` lists the windows
    (10^(d-1), 10^d] that were (at least partly) covered; a series verdict
    is True iff its increments over the last three fully covered decades
    are strictly decreasing — the empirical signature of convergence.

    ``chain_bound`` totals, over the same n, the proof-chain terms

        n |c_n| + |b_n| + |b_{n+1}| + 2 |a_{n+2}| / (n+2)

    with b = Δa and c = Δ²a.  Their cumulative sums dominate, antidiagonal
    by antidiagonal, the absolute second-difference mass of the quotient
    matrix [(j-i) a_{i+j} / (i+j+1)], which is how summability of the
    three series certifies the matrix as a bounded Schur multiplier.
    """

    terms: int
    n_start: int
    sum_a_over_n: float
    sum_abs_diff1: float
    sum_weighted_diff2: float
    chain_bound: float
    decades: tuple[tuple[int, int], ...]
    decade_increments: tuple[tuple[float, ...], ...]  # one tuple per series
    verdicts: tuple[bool, bool, bool]


def decade_sums(n_start: int, terms: int, count: int, block_series):
    """(windows, increments, totals, verdicts) of ``count`` series over n in [n_start, terms].

    ``block_series(s, e)`` gives each series' terms at n = s..e-1 for each
    block of :func:`summation.blocks` inside one window, (10^(d-1), 10^d]
    clipped to [n_start, terms], or before the first; their exact units go
    to that window's integer.  A verdict is True iff the increments over
    the last three windows that lie entirely inside the range (so are
    comparable across runs) strictly decrease.
    """
    check_terms_cap(terms)
    windows, full, lo = [], [], 1
    while lo < terms:
        a, b = max(n_start, lo + 1), min(terms, 10 * lo)
        if a <= b:
            windows.append((a, b))
            full.append(lo + 1 >= n_start and 10 * lo <= terms)
        lo *= 10
    segments = [(n_start, windows[0][0])] + [(a, b + 1) for a, b in windows]
    units = [[0] * len(segments) for _ in range(count)]  # [series][segment]
    for k, (a, b) in enumerate(segments):
        for s, e in summation.blocks(a, b):
            for u, series in zip(units, block_series(s, e), strict=True):
                u[k] += summation.exact_units(series)
    increments = tuple(tuple(map(summation.from_units, u[1:])) for u in units)
    totals = tuple(summation.from_units(sum(u)) for u in units)
    tails = [[v for v, f in zip(inc, full) if f][-3:] for inc in increments]
    verdicts = tuple(len(t) == 3 and t[0] > t[1] > t[2] for t in tails)
    return tuple(windows), increments, totals, verdicts


def finite_block(values: np.ndarray) -> np.ndarray:
    """``values``, a block of sequence values, refused unless every entry is finite."""
    if not np.isfinite(values).all():
        raise ValidationError("sequence values must be finite")
    return values


def check_terms_cap(terms: int) -> None:
    """Refuse a series length above :data:`BENNETT_TERMS_CAP`."""
    if terms > BENNETT_TERMS_CAP:
        raise SizeCapExceededError(
            f"terms={terms} exceeds the series cap {BENNETT_TERMS_CAP}"
        )


def bennett_sums(seq: WeightSequence, terms: int) -> BennettReport:
    """Summability diagnostics for the series view (a_n) of ``seq``.

    The series starts at n_start = max(1, start_index).  Each block of n
    evaluates a_n there and at the three n after it, which the differences
    look ahead to, and gives the three series and the proof chain to
    :func:`decade_sums`.
    """
    if terms < 10:
        raise ValidationError("terms must be >= 10")
    n0 = max(1, seq.start_index)
    if terms <= n0:
        raise ValidationError(f"terms must exceed the series start {n0}")

    def series(s, e):
        ns = np.arange(s, e, dtype=np.int64)
        L = e - s
        a = finite_block(seq.values_at(np.arange(s, e + 3)))
        # an overflow leaves inf or nan terms, which the summation refuses
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.abs(diff1(a))
            # The weighted second differences n|c_n| are the third series
            # and the first proof-chain term.
            weighted = ns * np.abs(diff2(a)[:L])
            chain = weighted + b[:L] + b[1 : L + 1] + 2.0 * np.abs(a[2 : L + 2]) / (ns + 2.0)
            return np.abs(a[:L]) / ns, b[:L], weighted, chain

    windows, increments, totals, verdicts = decade_sums(n0, terms, 4, series)
    return BennettReport(
        terms=terms,
        n_start=n0,
        sum_a_over_n=totals[0],
        sum_abs_diff1=totals[1],
        sum_weighted_diff2=totals[2],
        chain_bound=totals[3],
        decades=windows,
        decade_increments=increments[:3],
        verdicts=verdicts[:3],  # type: ignore[arg-type]
    )
