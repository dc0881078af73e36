"""Anticommuting generator matrices and sections with generator entries.

The generators are exact 0/+-1 sparse matrices, so the algebra relations
hold to literally zero floating-point error; every detector threshold
below reflects that.
"""

import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from foguel_lab import (
    SizeCapExceededError,
    ValidationError,
    WeightSequence,
    build_car,
    car_check,
    car_hankel,
    car_pattern_matrix,
    car_pattern_operator,
    commutator_pattern,
    derivative_weight,
    family,
    hankel_defect,
    hankel_pattern,
    op_norm_dense,
    op_norm_power,
    rc_bounds,
    unit_weight,
)
from foguel_lab.cli import NORM_TARGETS, parse_alpha
from conftest import generator_section

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

Z = sp.csr_matrix(np.diag([1.0, -1.0]))
LOWER = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
I2 = sp.identity(2, format="csr")

PATTERNS = {
    "car-hankel": hankel_pattern,
    "car-hankel-deriv": lambda alpha: hankel_pattern(alpha, derivative_weight),
    "car-commutator": commutator_pattern,
}


def kron_chain(factors):
    mat = reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
    mat.eliminate_zeros()
    return mat


def assert_same_csr(got, want):
    """The same shape and the same CSR arrays, dtypes included."""
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def sign_tampered():
    # negating a single entry of one generator
    gens = build_car(3)
    bad = gens[1].toarray()
    idx = np.argwhere(bad != 0)[0]
    bad[idx[0], idx[1]] *= -1.0
    return (gens[0], sp.csr_matrix(bad), gens[2])


def parity_tampered():
    # C_2 built with an identity where a sign flip belongs
    good = build_car(3)
    return (good[0], good[1], kron_chain([I2, Z, LOWER]))


def scale_tampered():
    # C_1 doubled: only its own mixed relation fails, 4 I - I = 3 I
    gens = build_car(3)
    return (gens[0], 2.0 * gens[1], gens[2])


def ordered_pair_residuals(gens):
    """car_check's two maxima, taken over every ordered pair (j, k)."""
    dev_anti = dev_mixed = 0.0
    ident = sp.identity(gens[0].shape[0], format="csr")
    for j, cj in enumerate(gens):
        for k, ck in enumerate(gens):
            anti = cj @ ck + ck @ cj
            mixed = cj @ ck.conj().T + ck.conj().T @ cj - float(j == k) * ident
            dev_anti = max(dev_anti, op_norm_dense(sp.csr_matrix(anti)).value)
            dev_mixed = max(dev_mixed, op_norm_dense(sp.csr_matrix(mixed)).value)
    return dev_anti, dev_mixed


# ---- generator relations ----------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_relations_hold_exactly(m):
    dev_anti, dev_mixed = car_check(build_car(m))
    assert dev_anti == 0.0
    assert dev_mixed == 0.0


def test_generators_are_nilpotent():
    for g in build_car(3):
        assert (g @ g).nnz == 0


def test_mixed_relation_by_hand():
    c0 = build_car(2)[0].toarray()
    assert np.array_equal(c0 @ c0.conj().T + c0.conj().T @ c0, np.eye(4))


def test_dimensions_scale_as_powers_of_two():
    for m in (1, 3, 5):
        gens = build_car(m)
        assert len(gens) == m
        assert gens[0].shape == (2**m, 2**m)


def test_modes_bounds_enforced():
    with pytest.raises(ValidationError, match=re.escape("modes must lie in [1, 14]")):
        build_car(0)
    with pytest.raises(ValidationError, match=re.escape("modes must lie in [1, 14]")):
        build_car(15)


def test_sign_corruption_is_loud():
    # negating a single entry of one generator breaks the relations by a
    # full unit, not by round-off
    dev_anti, dev_mixed = car_check(sign_tampered())
    assert max(dev_anti, dev_mixed) >= 1.0


def test_parity_factor_corruption_is_loud():
    # same with a wrong parity factor: build C_2 with an identity where a
    # sign flip belongs and the cross relations with C_0 fail by >= 1
    dev_anti, dev_mixed = car_check(parity_tampered())
    assert max(dev_anti, dev_mixed) >= 1.0


@pytest.mark.parametrize("m", range(1, 9))
def test_generators_equal_the_kron_chain(m):
    """C_k = Z^(x k) (x) L (x) I^(x (m-k-1)), multiplied out by sp.kron."""
    gens = build_car(m)
    assert len(gens) == m
    for k, gen in enumerate(gens):
        assert_same_csr(gen, kron_chain([Z] * k + [LOWER] + [I2] * (m - k - 1)))


@pytest.mark.parametrize("gens", [sign_tampered(), parity_tampered(), scale_tampered()],
                         ids=["sign", "parity", "scale"])
def test_car_check_over_pairs_equals_the_ordered_pair_maximum(gens):
    assert car_check(gens) == ordered_pair_residuals(gens)


@pytest.mark.parametrize("gens, message", [
    ((), "car_check needs at least one generator"),
    ((build_car(2)[0], build_car(3)[0]), "generators must be square matrices of one size"),
    ((sp.csr_matrix(np.ones((2, 4))),), "generators must be square matrices of one size"),
], ids=["empty", "sizes-4-and-8", "not-square"])
def test_car_check_refuses_a_bad_tuple(gens, message):
    with pytest.raises(ValidationError, match=message):
        car_check(gens)


# ---- pattern sections --------------------------------------------------


def test_tiny_section_assembled_by_hand():
    """Independent assembly of the 2x2 generator Hankel via plain kron."""
    alpha = WeightSequence.geometric(0.5)
    gens = build_car(3)
    got = car_hankel(alpha, None, 2)
    d = gens[0].shape[0]
    expected = np.zeros((2 * d, 2 * d), dtype=complex)
    expected[:d, :d] = 1.0 * gens[0].toarray()
    expected[:d, d:] = 0.5 * gens[1].toarray()
    expected[d:, :d] = 0.5 * gens[1].toarray()
    expected[d:, d:] = 0.25 * gens[2].toarray()
    assert np.array_equal(got, expected)


def test_section_blocks_are_hankel():
    alpha = family("pisier-geometric")
    m = car_hankel(alpha, unit_weight, 3)
    # live antidiagonals 0, 1, 3: one mode each
    assert hankel_defect(m, block_dim=2**3) == 0.0


def test_commutator_pattern_coefficients():
    section, lag = commutator_pattern(WeightSequence.geometric(0.5))
    c = section(4)
    assert c[2, 2] == 0.0  # diagonal vanishes
    assert c[1, 3] == (3 - 1) * 0.5**3
    assert c[3, 1] == -c[1, 3]
    assert lag == 1  # generator index lags the antidiagonal


def test_pattern_lag_and_section_shape_are_checked():
    # a section supported on the t = 1 antidiagonal only: lag 1 puts it
    # on C_0, lag 2 would need the generator C_{-1}
    def section(n):
        i = np.arange(n)
        return np.where(np.add.outer(i, i) == 1, 1.0, 0.0)

    m = car_pattern_matrix(section, 1, 2)
    assert m.shape == (4, 4)
    assert np.array_equal(m[:2, 2:], build_car(1)[0].toarray())
    with pytest.raises(ValidationError, match="antidiagonal 1 is live below the lag 2"):
        car_pattern_matrix(section, 2, 2)
    wrong_shape = re.escape("section(2) has shape (2, 3), expected (2, 2)")
    with pytest.raises(ValidationError, match=wrong_shape):
        car_pattern_matrix(lambda n: np.ones((n, n + 1)), 0, 2)


def test_a_section_size_below_one_is_refused():
    section, lag = hankel_pattern(WeightSequence.geometric(0.5))
    for build in (lambda: car_pattern_operator(section, lag, 0), lambda: rc_bounds(section, 0)):
        with pytest.raises(ValidationError, match="size must be >= 1"):
            build()


def test_dense_cap_enforced():
    # dimension 6 * 2^11 = 12288 lies above the cap of 4096
    with pytest.raises(SizeCapExceededError):
        car_hankel(family("constant"), None, 6)


def test_extra_modes_leave_the_section_unchanged():
    """Any distinct generators of a larger algebra give the same norm: they
    generate a copy of the algebra with one mode per live antidiagonal."""
    alpha = family("pisier-flat")
    section, _ = hankel_pattern(alpha, None)
    # live antidiagonals 0, 1, 3 and 7 on modes 7, 4, 1 and 0 of eight
    spread = {0: 7, 1: 4, 3: 1, 7: 0}.__getitem__
    for size in (3, 4, 5):
        small = op_norm_dense(car_hankel(alpha, None, size)).value
        big = op_norm_dense(generator_section(section, size, spread)).value
        assert big == pytest.approx(small, rel=1e-14)


def test_matrix_free_oracles_agree_with_dense():
    alpha = family("pisier-flat")
    # live antidiagonals 0, 1 at size 2 and 0, 1, 3 at size 3, one mode each
    for size, modes in ((2, 2), (3, 3)):
        dense = op_norm_dense(car_hankel(alpha, None, size)).value
        op = car_pattern_operator(*hankel_pattern(alpha, None), size)
        assert op.shape == (size * 2**modes,) * 2
        est = op_norm_power(op, tol=1e-12, max_iter=3000)
        assert est.value == pytest.approx(dense, abs=1e-8)


@pytest.mark.parametrize("target", sorted(PATTERNS))
@pytest.mark.parametrize("alpha", ["geometric:0.5", "power:1.5", "pisier-flat", "pisier-geometric"])
def test_pattern_operator_equals_the_kron_sum(target, alpha):
    """The operator has the CSR arrays of sum_r B_{t_r} (x) C_r summed by
    sp.kron, with the r-th live antidiagonal on mode r."""
    section, lag = PATTERNS[target](parse_alpha(alpha))
    for size in range(1, 7):
        idx = np.arange(size)
        live = np.unique(np.add.outer(idx, idx)[section(size) != 0.0]).tolist()
        op = car_pattern_operator(section, lag, size)
        if not live:  # the commutator of size 1 is zero, on one mode
            assert op.shape == (2, 2) and op.nnz == 0
            continue
        assert_same_csr(op, generator_section(section, size, live.index))


@pytest.mark.parametrize("target", ["car-hankel", "car-hankel-deriv", "car-commutator"])
@pytest.mark.parametrize("alpha", ["geometric:0.5", "power:2", "pisier-flat"])
def test_block_norm_equals_the_densified_norm(target, alpha):
    sizes = [2, 3, 4]
    if (target, alpha) == ("car-hankel", "geometric:0.5"):
        sizes.append(5)  # dimension 2560
    for size in sizes:
        op = NORM_TARGETS[target](parse_alpha(alpha), size)
        est = op_norm_dense(op)
        assert est.value == pytest.approx(op_norm_dense(op.toarray()).value, rel=1e-12)
        assert est.relative_residual <= 1e-13


@pytest.mark.parametrize("pattern", [
    hankel_pattern(WeightSequence.geometric(0.5)),
    commutator_pattern(family("power", 2.0)),
    hankel_pattern(family("pisier-flat")),
], ids=["lag0", "lag1", "lacunary"])
def test_pattern_conserves_number_and_weight(pattern):
    """C_r empties mode r of an occupied state, and mode r carries the r-th
    live antidiagonal t_r, so each entry joins a column state (j, S) to a
    row state (i, S - {r}) with t_r = i + j: the fermion number drops by
    one, and the weight w(S), the sum of t_r over r in S, keeps
    w(S) - j = w(S') + i.  The lacunary section is live on 0, 1 and 3
    only, so there a live position differs from its mode."""
    size = 4
    section, lag = pattern
    op = car_pattern_operator(section, lag, size).tocoo()
    idx = np.arange(size)
    live = np.unique(np.add.outer(idx, idx)[section(size) != 0.0])
    modes = len(live)
    assert op.shape[0] == size * 2**modes
    assert op.nnz > 0

    def state(index):
        block, bits = divmod(int(index), 2**modes)
        # the first tensor factor is the most significant bit
        occupied = [r for r in range(modes) if bits >> (modes - 1 - r) & 1]
        return block, len(occupied), sum(live[occupied])

    for row, col in zip(op.row, op.col):
        i, row_number, row_weight = state(row)
        j, col_number, col_weight = state(col)
        assert row_number == col_number - 1
        assert row_weight + i == col_weight - j


@pytest.mark.parametrize("target", ["car-hankel", "car-hankel-deriv", "car-commutator"])
@pytest.mark.parametrize("alpha", ["geometric:0.5", "power:1.5", "pisier-flat", "pisier-geometric"])
def test_particle_hole_mirror_pairs_the_number_sectors(target, alpha):
    """The pattern blocks of fermion number s have the norms of those of
    number L + 1 - s, L the number of modes (the mirror of the module
    docstring).  A block's number is that of its column states; the
    blocks are split here by the pattern's components directly."""
    for size in (3, 4, 5):
        op = sp.csr_matrix(NORM_TARGETS[target](parse_alpha(alpha), size))
        op.eliminate_zeros()
        modes = (op.shape[0] // size).bit_length() - 1
        edges = op.astype(bool)
        _, labels = connected_components(sp.bmat([[None, edges], [edges.T, None]]),
                                         directed=False)
        row_labels, col_labels = labels[:op.shape[0]], labels[op.shape[0]:]
        number = np.array([(c % 2**modes).bit_count() for c in range(op.shape[1])])
        norms = {s: [] for s in range(1, modes + 1)}
        for k in np.unique(col_labels[np.diff(op.tocsc().indptr) > 0]):
            cols = np.flatnonzero(col_labels == k)
            (s,) = np.unique(number[cols])
            block = op[row_labels == k][:, cols].toarray()
            norms[int(s)].append(np.linalg.norm(block, 2))
        for s in range(1, modes + 1):
            np.testing.assert_allclose(sorted(norms[s]), sorted(norms[modes + 1 - s]),
                                       rtol=1e-14, atol=0)


def test_block_norm_eigensolves_only_small_blocks(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(b, *args, **kwargs):
        sizes.append(b.shape[0])
        return eigvalsh(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    op = NORM_TARGETS["car-hankel"](parse_alpha("geometric:0.5"), 5)
    assert op.shape == (2560, 2560)
    assert op_norm_dense(op).converged
    assert sizes and max(sizes) <= 64


def test_import_leaves_csgraph_unloaded():
    root = Path(__file__).resolve().parents[1]
    code = "import sys, foguel_lab; print('scipy.sparse.csgraph' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---- norm bounds -------------------------------------------------------


def test_rc_bounds_by_hand():
    section, _ = hankel_pattern(family("pisier-flat"), None)
    b = rc_bounds(section, 2)
    # profile rows (1,1) and (1,0): row sups sqrt(2) and 1
    assert b.row_sup == pytest.approx(np.sqrt(2.0))
    assert b.col_sup == pytest.approx(np.sqrt(2.0))
    assert b.lower == pytest.approx(np.sqrt(2.0))
    assert b.upper == pytest.approx(2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize(
    "alpha",
    [
        family("pisier-flat"),
        family("pisier-geometric"),
        WeightSequence.geometric(0.5),
    ],
    ids=["flat", "pisier-geo", "dyadic"],
)
def test_sandwich_bounds_hold(alpha, size):
    section, lag = hankel_pattern(alpha, None)
    b = rc_bounds(section, size)
    dense = op_norm_dense(car_pattern_matrix(section, lag, size)).value
    assert b.lower - 1e-10 <= dense <= b.upper + 1e-10


def test_two_mode_section_norm_is_the_row_sup():
    # at size 2 the flat-profile norm is ||C_0 + C_1 shifted|| = sqrt(2),
    # exactly the row bound
    alpha = family("pisier-flat")
    dense = op_norm_dense(car_hankel(alpha, None, 2)).value
    assert dense == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_three_mode_section_norm_exceeds_the_row_sup():
    """The size-3 flat-profile section has norm equal to the golden ratio,
    strictly above the row/column bound sqrt(2): finite truncation cuts
    the three live antidiagonals at lengths 1, 2, 1, and the middle one
    couples to both neighbours.  Pinned here as a regression anchor for
    the bound-vs-norm gap."""
    alpha = family("pisier-flat")
    section, _ = hankel_pattern(alpha, None)
    dense = op_norm_dense(car_hankel(alpha, None, 3)).value
    b = rc_bounds(section, 3)
    assert dense == pytest.approx(GOLDEN, abs=1e-10)
    assert b.lower == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert dense > b.lower + 0.2


def test_weighted_profile_feeds_the_bounds():
    alpha = WeightSequence.geometric(0.5)
    section, _ = hankel_pattern(alpha, lambda k: float(k + 1))
    b = rc_bounds(section, 2)
    # row 0 profile: (1*1, 2*0.5) -> l2 = sqrt(2)
    assert b.row_sup == pytest.approx(np.sqrt(2.0))


def bounds_of(profile, size):
    b = rc_bounds(hankel_pattern(WeightSequence.custom(profile))[0], size)
    return (b.row_sup, b.col_sup, b.lower, b.upper)


@pytest.mark.parametrize("size", [2, 3, 5])
@pytest.mark.parametrize("power", [600, -600])
def test_rc_bounds_scale_exactly_with_a_power_of_two(size, power):
    # an entry above 2^512 has a square beyond the float range, and one
    # below 2^-537 a subnormal or zero square: the moduli are scaled by a
    # power of two first, so 2^power times a profile bounds exactly
    # 2^power times its own bounds
    profile = [1.5, -1.0, 0.25, 3.0, 0.5 + 1e-9]
    big = bounds_of([x * 2.0**power for x in profile], size)
    assert big == tuple(x * 2.0**power for x in bounds_of(profile, size))


def test_rc_bounds_of_an_entry_above_the_square_root_of_the_float_range():
    assert bounds_of([1e200, 1.0, 1.0], 2) == (1e200, 1e200, 1e200, 2e200)


@pytest.mark.parametrize("profile", [[1e308, 0.0, 0.0], [1.5e308] * 3],
                         ids=["upper-only", "every-bound"])
def test_rc_bounds_beyond_the_float_range_are_refused(profile):
    # 1e308 gives row_sup = col_sup = 1e308 but upper = inf; sqrt(2) * 1.5e308
    # is already beyond the range for every bound
    with pytest.raises(ValidationError, match="row/column bounds lie beyond the float range"):
        bounds_of(profile, 2)
