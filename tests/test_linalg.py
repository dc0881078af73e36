"""Dense kernel sanity: shapes, norms, and the norm layer's routes."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, strategies as st
from scipy.sparse.csgraph import connected_components

from foguel_lab import (
    DENSE_SIZE_CAP,
    HankelSpec,
    MultiplierSpec,
    NormEstimate,
    SizeCapExceededError,
    ValidationError,
    WeightSequence,
    as_matrix,
    build_car,
    car_pattern_matrix,
    car_pattern_operator,
    derivation_matrix,
    derivation_product,
    derivative_weight,
    hankel_pattern,
    make_hankel,
    make_multiplier,
    make_shift,
    make_weighted_hankel,
    op_norm,
    op_norm_dense,
    op_norm_power,
)
from foguel_lab.cli import NORM_TARGETS, parse_alpha
from foguel_lab.linalg import _pattern_blocks
from conftest import random_complex


def test_make_shift_structure():
    s = make_shift(4)
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i + 1, i] = 1.0
    assert np.array_equal(s, expected)


@pytest.mark.parametrize("data, dtype", [
    ([[1, 2], [3, 4]], np.float64),
    (np.eye(3, dtype=bool), np.float64),
    (np.eye(3, dtype=np.float32), np.float64),
    (np.ones((3, 4))[:, ::2], np.float64),
    ([[1.0, 2j]], np.complex128),
    (np.eye(3, dtype=np.complex64), np.complex128),
    ((np.eye(3) + 0j).real, np.float64),
])
def test_as_matrix_dtype_follows_the_data(data, dtype):
    # integer and boolean data promote to float64, complex data to
    # complex128, and the array comes back C-contiguous
    m = as_matrix(data)
    assert m.dtype == dtype and m.flags.c_contiguous
    assert np.array_equal(m, np.asarray(data))


def test_as_matrix_keeps_a_conforming_array():
    a = np.ones((3, 3))
    assert as_matrix(a) is a


GEOMETRIC = HankelSpec(WeightSequence.geometric(0.5), 6)
GEOMETRIC_PATTERN = hankel_pattern(GEOMETRIC.coefficients)

#: every real builder, by name: each must come back float64
REAL_BUILDERS = {
    "make_shift": lambda: make_shift(5),
    "make_hankel": lambda: make_hankel(GEOMETRIC),
    "make_weighted_hankel": lambda: make_weighted_hankel(GEOMETRIC, derivative_weight),
    "derivation_matrix": lambda: derivation_matrix(5),
    "commutator": lambda: derivation_product(GEOMETRIC, "commutator"),
    "gamma_d": lambda: derivation_product(GEOMETRIC, "gamma_d"),
    "dstar_gamma": lambda: derivation_product(GEOMETRIC, "dstar_gamma"),
    "multiplier": lambda: make_multiplier(MultiplierSpec.difference_quotient(), 5),
    "car_dense": lambda: build_car(3)[1].toarray(),
    "car_pattern_operator": lambda: car_pattern_operator(*GEOMETRIC_PATTERN, 3),
    "car_pattern_matrix": lambda: car_pattern_matrix(*GEOMETRIC_PATTERN, 3),
}


@pytest.mark.parametrize("name", sorted(REAL_BUILDERS))
def test_real_builders_build_float64(name):
    assert REAL_BUILDERS[name]().dtype == np.float64


def test_a_complex_car_section_stays_complex():
    def section(n):
        return 1j * make_hankel(HankelSpec(GEOMETRIC.coefficients, n))

    real = op_norm_dense(car_pattern_operator(*GEOMETRIC_PATTERN, 4))
    op = car_pattern_operator(section, 0, 4)
    assert op.dtype == np.complex128
    blocks = op_norm_dense(op)
    assert blocks.value == pytest.approx(op_norm_dense(op.toarray()).value, rel=1e-12)
    assert blocks.value == pytest.approx(real.value, rel=1e-12)


def test_dense_norm_of_a_real_section_holds_no_complex_copy():
    # the float64 N = 2048 geometric section is 32 MiB; building it, and
    # building and norming it, may each trace 1.25 times that: the section
    # and no n x n temporary (no index array, no |a|, no whole-array
    # comparison for the symmetry test), not the 128 MiB of a complex section
    # with a real copy of it.  The same holds for its skew-symmetric
    # derivation commutator
    n = 2048
    spec = HankelSpec(WeightSequence.geometric(0.5), n)
    for build in (make_hankel, lambda s: derivation_product(s, "commutator")):
        tracemalloc.start()
        try:
            section = build(spec)
            _, build_peak = tracemalloc.get_traced_memory()
            est = op_norm_dense(section)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.converged
        assert build_peak <= 1.25 * n * n * 8
        assert peak <= 1.25 * n * n * 8


J_MINUS_I_BUILDERS = {
    "commutator": lambda n: derivation_product(
        HankelSpec(WeightSequence.geometric(0.5), n), "commutator"),
    "multiplier": lambda n: make_multiplier(MultiplierSpec.difference_quotient(), n),
}


@pytest.mark.parametrize("name", sorted(J_MINUS_I_BUILDERS))
def test_a_j_minus_i_section_builds_without_an_integer_factor(name):
    # the same 1.25-section build pin as make_hankel above: the n x n
    # factor j - i is the float64 section itself, not an int64 array
    # beside it
    n = 2048
    tracemalloc.start()
    try:
        J_MINUS_I_BUILDERS[name](n)
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.25 * n * n * 8


def test_shift_is_a_contraction_of_norm_one():
    # the truncated shift is isometric on all but the last basis vector
    for n in (2, 5, 17):
        assert op_norm_dense(make_shift(n)).value == pytest.approx(1.0, abs=1e-12)


def test_make_shift_rejects_tiny():
    with pytest.raises(ValidationError, match="shift size must be >= 1"):
        make_shift(0)


def test_op_norm_dense_against_numpy(rng):
    for _ in range(10):
        a = random_complex(rng, 7, 5)
        est = op_norm_dense(a)
        assert est.method == "dense"
        assert est.converged
        assert est.value == pytest.approx(np.linalg.norm(a, 2), abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(6, 6), (9, 4), (3, 8), "symmetric"]))
def test_op_norm_dense_real_operands(seed, shape):
    # real-valued complex128 operands take the real route; square, tall,
    # wide, and symmetric, which is eigensolved without a Gram matrix
    a = np.random.default_rng(seed).standard_normal((7, 7) if shape == "symmetric" else shape)
    if shape == "symmetric":
        a = a + a.T
    a = a.astype(np.complex128)
    est = op_norm_dense(a)
    assert est.value == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert est.relative_residual <= 1e-12
    assert op_norm_dense(a.real) == est


class _Spy:
    """Wraps ``np.linalg.eigvalsh`` and ``np.linalg.solve``, keeping what
    they were given and what they returned."""

    def __init__(self, monkeypatch):
        self.eigvalsh_args, self.eigvalsh_out, self.solve_out = [], [], []
        eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve

        def spy_eigvalsh(b, *args, **kwargs):
            self.eigvalsh_args.append(b)
            self.eigvalsh_out.append(eigvalsh(b, *args, **kwargs))
            return self.eigvalsh_out[-1]

        def spy_solve(*args, **kwargs):
            self.solve_out.append(solve(*args, **kwargs))
            return self.solve_out[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)


@pytest.fixture
def spy(monkeypatch):
    return _Spy(monkeypatch)


def test_op_norm_dense_hermitian_with_a_dominant_negative_eigenvalue(rng, spy):
    d = np.diag([-3.0, 1.0, 2.5, 0.5])
    q, _ = np.linalg.qr(random_complex(rng, 4))
    h = q @ d @ q.conj().T
    h = (h + h.conj().T) / 2  # exactly Hermitian
    # h again, spread over 10 indices with zero rows and columns between its own
    padded = np.zeros((10, 10), dtype=np.complex128)
    padded[np.ix_([1, 4, 5, 8], [1, 4, 5, 8])] = h
    for a in (d, h, padded):
        est = op_norm_dense(a)
        assert est.value == pytest.approx(3.0, rel=1e-14)
        assert est.relative_residual <= 1e-13
        assert est.converged
    # the padded operand is eigensolved on its four live indices alone
    assert [b.shape for b in spy.eigvalsh_args] == [(4, 4)] * 3


def test_op_norm_dense_zero_operand():
    explicit = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [0, 2, 1])), shape=(3, 4))
    assert explicit.nnz == 3  # only explicit zeros
    for a in (np.zeros((5, 3)), np.zeros((4, 4), dtype=complex), sp.csr_matrix((6, 6)), explicit):
        assert op_norm_dense(a) == NormEstimate(0.0, "dense", 0, 0.0, True)


@pytest.mark.parametrize("peak", [2.0**e for e in (-1060, -1000, -565, -465, -201, -199,
                                                   199, 201, 530, 1000, 1020)])
def test_op_norm_dense_extreme_magnitudes(peak):
    # the Gram matrix or the shifted solves would under- or overflow; the
    # entries are small integers times a power of two, so exactly scaled
    for m in (np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]]),
              np.array([[2.0, 1.0], [1.0, -2.0]]),
              np.diag([1.0, 0.0]),
              np.array([[1 + 2j, 0.0], [1j, 3.0]])):
        est = op_norm_dense(peak * m)
        assert est.value == pytest.approx(peak * np.linalg.norm(m, 2), rel=1e-14)
        assert est.converged


def test_op_norm_dense_rank_one_geometric_hankel():
    # [r^(i+j)] = u u^T with u_i = r^i, so its norm is sum_i r^(2i); most
    # rows fall below the trim threshold, which must not cost accuracy
    for r in (0.5, 0.9):
        for n in (512, 1024, 2048):
            est = op_norm_dense(make_hankel(HankelSpec(WeightSequence.geometric(r), n)))
            with mpmath.workdps(40):
                exact = float((1 - mpmath.mpf(r) ** (2 * n)) / (1 - mpmath.mpf(r) ** 2))
            assert abs(est.value - exact) <= 2 * np.spacing(exact), (r, n)
            assert est.converged


def test_geometric_section_is_eigensolved_on_its_leading_rows(spy):
    # row i of [2^-(i+j)] peaks at 2^-i, and eps * peak / n = 2^-52 / 2^11:
    # exactly rows 0..62 stay above it
    a = make_hankel(HankelSpec(WeightSequence.geometric(0.5), 2048))
    est = op_norm_dense(a)
    assert [b.shape for b in spy.eigvalsh_args] == [(63, 63)]
    assert np.array_equal(spy.eigvalsh_args[0], a.real[:63, :63])
    assert est.converged


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([1, -1]))
def test_trimmed_hermitian_operand_matches_the_full_eigensolve(seed, real, sign):
    # a random Hermitian (sign 1) or skew-Hermitian (sign -1) block on
    # interleaved live indices; every other entry has modulus below the
    # threshold eps * peak / n, and A* = sign * A holds exactly.  A real
    # skew block needs two live indices to be nonzero, and so a skew draw
    # three indices at least; a Hermitian one may trim one index of two
    eps = np.finfo(float).eps
    r = np.random.default_rng(seed)
    n = int(r.integers(2 if sign == 1 else 3, 13))
    live = np.sort(r.choice(n, int(r.integers(1 if sign == 1 else 2, n)), replace=False))
    h = random_complex(r, len(live))
    h = (h + sign * h.conj().T).real if real else h + sign * h.conj().T
    peak = float(np.abs(h).max())
    dead = r.uniform(-1, 1, (n, n)) + (0 if real else 1j * r.uniform(-1, 1, (n, n)))
    dead *= eps * peak / (2 * n)
    a = (dead + sign * dead.conj().T) / 2
    a[np.ix_(live, live)] = h
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        est = op_norm_dense(a)
    # the eigensolve sees exactly the live block, or the Gram of it,
    # wherever its indices sit
    kept = a[np.ix_(live, live)]
    assert [b.shape for b in spy.eigvalsh_args] == [h.shape]
    assert np.array_equal(spy.eigvalsh_args[0], h if sign == 1 else kept.conj().T @ kept)
    # Weyl: the trim moves the value by at most eps * peak; each of the two
    # eigensolves adds a rounding error of a few eps * ||A|| of its own.  i A
    # is Hermitian with the norm of a skew-Hermitian A
    ref = float(np.abs(np.linalg.eigvalsh(a if sign == 1 else 1j * a)).max())
    assert abs(est.value - ref) <= eps * peak + 4 * n * eps * ref
    # the residual is the defect of the zero-padded vector on the full
    # operand, or on its full Gram A*A = -A^2
    w = spy.eigvalsh_out[0]
    mu = w[0] if -w[0] > w[-1] else w[-1]
    v = np.zeros(n, dtype=spy.solve_out[-1].dtype)
    v[live] = spy.solve_out[-1]
    bv = a @ v if sign == 1 else -(a @ (a @ v))
    assert est.relative_residual == np.linalg.norm(bv - mu * v) / abs(mu)
    assert est.converged


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.booleans(),
       st.sampled_from([1, -1, 0]), st.sampled_from([None, "anywhere", "last tile"]))
@example(seed=0, n=63, real=True, sign=1, nudge="last tile")
@example(seed=1, n=64, real=False, sign=-1, nudge="last tile")
@example(seed=2, n=65, real=True, sign=-1, nudge="last tile")
@example(seed=3, n=129, real=False, sign=1, nudge="last tile")
@example(seed=4, n=129, real=True, sign=-1, nudge=None)
@example(seed=5, n=65, real=False, sign=1, nudge=None)
def test_the_tiled_symmetry_test_routes_as_the_full_comparison(seed, n, real, sign, nudge):
    # a random operand with A* = sign * A (sign 0: no structure) and zero
    # rows and columns, so that the trim shows the route; then, unless
    # nudge is None, one entry moves by one ulp: anywhere, or in the last
    # row or column band of tiles, which is partial unless 64 divides n
    eps = np.finfo(float).eps
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, n)) if real else random_complex(r, n)
    a = x + sign * x.conj().T if sign else x
    dead = r.random(n) < 0.3
    dead[r.choice(n, min(n, 2), replace=False)] = False
    a[dead] = 0.0
    a[:, dead] = 0.0
    assume(a.any())  # a real skew operand of size 1 is zero
    if nudge is not None:
        lo = (n - 1) // 64 * 64 if nudge == "last tile" else 0
        i, j = r.integers(0, n), r.integers(lo, n)
        if r.random() < 0.5:
            i, j = j, i
        part = a.real if real or r.random() < 0.5 else a.imag
        part[i, j] = np.nextafter(part[i, j], np.inf)
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        op_norm_dense(a)
    # the route of the full comparison: a Hermitian operand is eigensolved
    # on its kept block, a skew-Hermitian one on the Gram of its kept
    # block, any other on the Gram of the whole operand.  The Gram is the
    # product the route forms, on an operand of the same values and layout
    hermitian = np.array_equal(a, a.conj().T)
    skew = np.array_equal(a, -a.conj().T)
    rows = np.abs(a).max(axis=1)
    keep = np.flatnonzero(rows > eps * rows.max() / n)
    kept = a[np.ix_(keep, keep)] if (hermitian or skew) and len(keep) < n else a
    [b] = spy.eigvalsh_args
    assert np.array_equal(b, kept if hermitian else kept.conj().T @ kept)


@pytest.mark.parametrize("n, kept", [(64, 64), (512, 69), (2048, 71)])
def test_plateau_commutator_is_normed_on_the_gram_of_its_kept_rows(spy, n, kept):
    # the C10 plateau commutator [(j - i) 2^-(i+j-1)] is real skew-symmetric;
    # it is trimmed as i A would be, and its Gram eigensolved on the leading
    # kept rows (all 64 at n = 64), with the value of the untrimmed Gram
    a = derivation_product(HankelSpec(WeightSequence.geometric(0.5), n), "commutator")
    est = op_norm_dense(a)
    assert est.value == 1.7777777777777777
    assert est.converged
    [b] = spy.eigvalsh_args
    block = np.ascontiguousarray(a[:kept, :kept])
    assert np.array_equal(b, block.T @ block)


@pytest.mark.parametrize("target, alpha, n", [
    ("car-hankel", "geometric:0.5", 4),
    ("hankel-deriv", "power:2", 512),
])
def test_op_norm_dense_certificate_on_sections(target, alpha, n):
    est = op_norm_dense(NORM_TARGETS[target](parse_alpha(alpha), n))
    assert est.relative_residual <= 1e-13
    assert est.converged


def test_op_norm_dense_against_mpmath():
    # 40-digit eigenvalues of the float64 entries of the ill-conditioned
    # Hilbert section [1/(i+j+1)], so float64 is not checked against itself
    h = NORM_TARGETS["hankel-deriv"](parse_alpha("power:2"), 32)
    with mpmath.workdps(40):
        ev = mpmath.eigsy(mpmath.matrix(h.real.tolist()), eigvals_only=True)
        exact = float(max(abs(x) for x in ev))
    assert op_norm_dense(h).value == pytest.approx(exact, rel=1e-14)


def test_dense_converged_follows_tol(rng):
    a = random_complex(rng, 6)
    est = op_norm_dense(a)
    assert 0.0 < est.relative_residual <= 1e-13 and est.converged
    strict = op_norm_dense(a, tol=est.relative_residual / 2)
    assert strict.value == est.value and not strict.converged
    assert op_norm(a, "dense", tol=est.relative_residual / 2) == strict


def test_op_norm_dense_keeps_a_small_imaginary_part():
    # real part alone has norm 1; the 1e-3j entry must still count
    est = op_norm_dense(np.array([[1.0, 1e-3j]]))
    assert est.value == pytest.approx(np.sqrt(1 + 1e-6), rel=1e-14)


def test_op_norm_dense_respects_cap(monkeypatch):
    # refused on the shape alone: an empty 5000 x 5000 CSR is never densified
    def densify(self, *args, **kwargs):
        raise AssertionError("densified before the cap check")

    monkeypatch.setattr(sp.csr_matrix, "toarray", densify)
    big = sp.csr_matrix((5000, 5000))
    with pytest.raises(SizeCapExceededError):
        op_norm_dense(big)
    with pytest.raises(SizeCapExceededError):
        op_norm(big, "dense")


def _route_inputs(rng):
    a = random_complex(rng, 7, 5)
    a[np.abs(a) < 1.0] = 0.0
    return {"dense": a, "sparse": sp.csr_matrix(a)}


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("method", ["dense", "power", "auto"])
def test_op_norm_matches_the_direct_route(rng, form, method):
    a = _route_inputs(rng)[form]
    direct = op_norm_power(a, seed=3) if method == "power" else op_norm_dense(a)
    assert op_norm(a, method, seed=3) == direct


def test_dense_route_densifies_sparse_input_exactly(rng):
    inputs = _route_inputs(rng)
    assert op_norm_dense(inputs["sparse"]) == op_norm_dense(inputs["dense"])


def _permuted_direct_sum(rng, blocks, empty_rows, empty_cols):
    """The direct sum of ``blocks`` and some zero rows and columns, with
    rows and columns shuffled; also the positions each block landed on."""
    rows = sum(b.shape[0] for b in blocks) + empty_rows
    cols = sum(b.shape[1] for b in blocks) + empty_cols
    a = np.zeros((rows, cols), dtype=np.complex128)
    spans, r, c = [], 0, 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        spans.append(((r, r + b.shape[0]), (c, c + b.shape[1])))
        r, c = r + b.shape[0], c + b.shape[1]
    pr, pc = rng.permutation(rows), rng.permutation(cols)
    where = [(np.flatnonzero((pr >= r0) & (pr < r1)), np.flatnonzero((pc >= c0) & (pc < c1)))
             for (r0, r1), (c0, c1) in spans]
    return a[pr][:, pc], where


def test_sparse_operand_is_normed_block_by_block(rng):
    blocks = [random_complex(rng, 3, 5), 3.0 * random_complex(rng, 4, 2),
              random_complex(rng, 1, 1), random_complex(rng, 2, 2)]
    a, where = _permuted_direct_sum(rng, blocks, empty_rows=2, empty_cols=3)
    est = op_norm_dense(sp.csr_matrix(a))
    assert est.value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-14)
    # the attaining block, rows and columns in their order within a
    top = max(range(len(blocks)), key=lambda k: np.linalg.norm(blocks[k], 2))
    assert top == 1
    assert est == op_norm_dense(a[np.ix_(*where[top])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_sparse_non_finite_entry_is_refused(bad):
    a = sp.csr_matrix(np.array([[1.0, 0.0], [bad, 2.0]], dtype=np.complex128))
    with pytest.raises(ValidationError):
        op_norm_dense(a)


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_power_route_refuses_a_non_finite_entry(bad, form):
    a = np.array([[1.0, 0.0], [bad, 2.0]], dtype=np.complex128)
    if np.isreal(bad):
        a = a.real
    a = sp.csr_matrix(a) if form == "sparse" else a
    with np.errstate(all="raise"):
        with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
            op_norm_power(a)


def sliced_blocks(a):
    """The pattern blocks of the sparse ``a`` as per-label slices of it."""
    p = sp.csr_matrix(a, copy=True)
    p.eliminate_zeros()
    edges = p.astype(bool)
    _, labels = connected_components(sp.bmat([[None, edges], [edges.T, None]]),
                                     directed=False)
    row_labels, col_labels = labels[:p.shape[0]], labels[p.shape[0]:]
    return [as_matrix(p[row_labels == k][:, col_labels == k].toarray())
            for k in np.unique(row_labels[np.diff(p.indptr) > 0])]


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_sort_once_split_equals_per_label_slicing(seed, real):
    r = np.random.default_rng(seed)
    blocks = [random_complex(r, *shape) * (r.random(shape) < 0.7)
              for shape in r.integers(1, 6, size=(r.integers(1, 8), 2))]
    a, _ = _permuted_direct_sum(r, blocks, *r.integers(0, 4, size=2))
    a = a.real if real else a
    # explicit zeros anywhere, between blocks too, where they must not join
    # them, and entries split into two halves stored as duplicates
    zr, zc = r.integers(0, a.shape[0], 6), r.integers(0, a.shape[1], 6)
    free = a[zr, zc] == 0
    coo = sp.coo_matrix(a)
    half = r.random(coo.nnz) < 0.3
    data = np.concatenate([np.where(half, coo.data / 2, coo.data), coo.data[half] / 2,
                           np.zeros(free.sum(), dtype=a.dtype)])
    row = np.concatenate([coo.row, coo.row[half], zr[free]])
    col = np.concatenate([coo.col, coo.col[half], zc[free]])
    order = np.argsort(row, kind="stable")
    indptr = np.searchsorted(row[order], np.arange(a.shape[0] + 1))
    op = sp.csr_matrix((data[order], col[order], indptr), shape=a.shape)
    data, indices = op.data.copy(), op.indices.copy()
    got, want = list(_pattern_blocks(op)), sliced_blocks(op)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert np.array_equal(op.data, data) and np.array_equal(op.indices, indices)


def test_sparse_operand_is_left_as_given():
    a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]], dtype=np.complex128))
    a.data[1] = 0.0  # an explicit zero the route must not drop from the caller
    data = a.data.copy()
    op_norm_dense(a)
    assert a.nnz == 3 and np.array_equal(a.data, data)


@given(st.integers(0, 2**32 - 1))
def test_sparse_blocks_match_the_densified_route(seed):
    # the blocks are themselves sparse, so some split further
    r = np.random.default_rng(seed)
    blocks = [random_complex(r, *shape) * (r.random(shape) < 0.7)
              for shape in r.integers(1, 6, size=(r.integers(1, 6), 2))]
    a, _ = _permuted_direct_sum(r, blocks, *r.integers(0, 3, size=2))
    est = op_norm_dense(sp.csr_matrix(a))
    assert est.value == pytest.approx(op_norm_dense(a).value, rel=1e-13)
    assert est.converged


def test_auto_takes_power_only_for_sparse_above_the_cap():
    n = DENSE_SIZE_CAP + 1
    # the cap bounds the Gram dimension min(shape), so a tall one stays dense
    tall = op_norm(sp.csr_matrix(np.ones((n, 2))))
    assert tall.method == "dense"
    assert tall.value == pytest.approx(np.sqrt(2.0 * n), rel=1e-12)
    est = op_norm(2.0 * sp.identity(n, format="csr"))
    assert est.method == "power"
    assert est.value == pytest.approx(2.0, rel=1e-12)
    # a dense operand above the cap stays on the dense route, which refuses
    # it on the shape of this zero-stride view before copying anything
    with pytest.raises(SizeCapExceededError):
        op_norm(np.broadcast_to(np.zeros(1), (n, n)))


def test_op_norm_rejects_unknown_method(rng):
    with pytest.raises(ValidationError):
        op_norm(random_complex(rng, 3), "lanczos")


@given(st.integers(0, 2**32 - 1))
def test_power_iteration_agrees_with_dense(seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((6, 6)) + 1j * r.standard_normal((6, 6))
    est = op_norm_power(a, seed=seed)
    dense = op_norm_dense(a).value
    assert est.method == "power"
    # the Rayleigh estimate is ||A v|| for a unit v, hence never above the norm
    assert est.value <= dense + 1e-8
    if est.converged:
        assert est.value == pytest.approx(dense, rel=1e-6, abs=1e-8)


def test_power_iteration_rank_one(rng):
    u = random_complex(rng, 8, 1)
    v = random_complex(rng, 8, 1)
    a = u @ v.conj().T
    est = op_norm_power(a)
    exact = np.linalg.norm(u) * np.linalg.norm(v)
    assert est.value == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("power", [600, -600])
@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_power_iteration_scales_exactly_with_a_power_of_two(rng, form, power):
    # unscaled, the loop's norms of 2^600 A overflowed and those of 2^-600 A
    # underflowed, and the estimate read 0 as converged; scaled first by a
    # power of two, the iteration is that of A
    a = _route_inputs(rng)[form]
    est = op_norm_power(a)
    scaled = op_norm_power(a * 2.0**power)
    assert scaled.value == est.value * 2.0**power
    assert (scaled.iterations, scaled.relative_residual, scaled.converged) == (
        est.iterations, est.relative_residual, est.converged)


def test_op_norm_power_zero_operand():
    for a in (np.zeros((3, 2)), sp.csr_matrix((4, 4))):
        assert op_norm_power(a) == NormEstimate(0.0, "power", 0, 0.0, True)


@pytest.mark.parametrize("call, message", [
    (lambda: as_matrix(np.zeros((0, 3))), "empty matrix shape (0, 3)"),
    (lambda: op_norm_dense(sp.csr_matrix((3, 0))), "empty matrix shape (3, 0)"),
    (lambda: op_norm_power(sp.csr_matrix((0, 2))), "empty matrix shape (0, 2)"),
    (lambda: op_norm_power(np.eye(2), tol=0.0), "tol must be finite and > 0, got 0.0"),
    (lambda: op_norm_power(np.eye(2), max_iter=0), "max_iter must be >= 1"),
], ids=["as-matrix-empty", "dense-sparse-empty", "power-sparse-empty", "power-tol",
        "power-max-iter"])
def test_empty_operands_and_bad_power_settings_are_refused(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", [
    lambda a, tol: op_norm_dense(a, tol=tol),
    lambda a, tol: op_norm_dense(sp.csr_matrix(a), tol=tol),
    lambda a, tol: op_norm_power(a, tol=tol),
    lambda a, tol: op_norm(a, "auto", tol=tol),
    lambda a, tol: op_norm(a, "power", tol=tol),
], ids=["dense", "dense-sparse", "power", "op-norm-auto", "op-norm-power"])
def test_a_tol_that_is_not_finite_and_positive_is_refused(route, tol):
    # at nan the power route ran every iteration and read a residual of 0;
    # at 0 or -1 the dense route never converged, at inf it always did
    with pytest.raises(ValidationError, match=re.escape(f"tol must be finite and > 0, got {tol!r}")):
        route(np.array([[1.0, 2.0], [3.0, 4.0]]), tol)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValidationError, match="expected a 2-D array, got ndim=1"):
        as_matrix(np.zeros(3))
