"""Hankel sections, derivation products, and the displacement identity."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foguel_lab import (
    SECTIONS,
    HankelSpec,
    ValidationError,
    WeightSequence,
    derivation_matrix,
    derivation_product,
    derivative_weight,
    family,
    hankel_defect,
    make_hankel,
    make_shift,
    make_weighted_hankel,
    op_norm_dense,
    sylvester_residual,
)


# the builders must reproduce these literal entry loops byte for byte,
# signed zeros included; the custom family carries -0.0 entries
LOOP_FAMILIES = (
    WeightSequence.geometric(0.5),
    family("power", 2.0),
    family("harmonic"),
    family("pisier-flat"),
    WeightSequence("log", param=1.0),
    WeightSequence.custom([-0.0, 1.0, -2.5, 0.0, 3.0, -0.0, 7.0]),
)
LOOP_SIZES = (1, 2, 5, 16)


def assert_entry_loop(section, n, entry):
    loop = np.array([[entry(i, j) for j in range(n)] for i in range(n)], dtype=float)
    assert section.shape == loop.shape
    assert section.tobytes() == loop.tobytes()


def test_hankel_entries_follow_the_sequence():
    spec = HankelSpec(WeightSequence.geometric(0.5), 4)
    h = make_hankel(spec)
    for i in range(4):
        for j in range(4):
            assert h[i, j] == 0.5 ** (i + j)
    for seq in LOOP_FAMILIES:
        for n in LOOP_SIZES:
            h = make_hankel(HankelSpec(seq, n))
            assert_entry_loop(h, n, lambda i, j: seq.values_at(i + j))


def test_weighted_hankel_carries_the_derivative_weight():
    spec = HankelSpec(WeightSequence.geometric(0.5), 4)
    h = make_weighted_hankel(spec, derivative_weight)
    for i in range(4):
        for j in range(4):
            assert h[i, j] == (i + j + 1) * 0.5 ** (i + j)
    for seq in LOOP_FAMILIES:
        for n in LOOP_SIZES:
            h = make_weighted_hankel(HankelSpec(seq, n), derivative_weight)
            assert_entry_loop(h, n, lambda i, j: (i + j + 1) * seq.values_at(i + j))


#: the literal entry of each SECTIONS kind, given a(t) = 0 for t < 0; a row
#: added to SECTIONS without an entry here fails its test
SECTION_ENTRIES = {
    "hankel": lambda i, j, a: a(i + j),
    "hankel-deriv": lambda i, j, a: (i + j + 1) * a(i + j),
    "commutator": lambda i, j, a: (j - i) * a(i + j - 1),
    "gamma_d": lambda i, j, a: j * a(i + j - 1),
    "dstar_gamma": lambda i, j, a: i * a(i + j - 1),
}


@pytest.mark.parametrize("kind", SECTIONS)
def test_each_section_kind_matches_its_entry_loop(kind):
    for seq in LOOP_FAMILIES:
        def a(t):
            return seq.values_at(t) if t >= 0 else 0.0

        for n in LOOP_SIZES:
            got = make_weighted_hankel(HankelSpec(seq, n), kind)
            assert_entry_loop(got, n, lambda i, j: SECTION_ENTRIES[kind](i, j, a))


def test_an_unknown_section_kind_is_refused():
    spec = HankelSpec(family("constant"), 3)
    message = re.escape(f"kind must be one of {tuple(SECTIONS)}")
    with pytest.raises(ValidationError, match=message):
        make_weighted_hankel(spec, "sideways")
    with pytest.raises(ValidationError, match=message):
        make_weighted_hankel(spec, lambda k: 1.0)


def test_non_sequence_coefficients_are_refused():
    with pytest.raises(ValidationError):
        HankelSpec(lambda k: complex(k), 3)


def test_hilbert_type_section_climbs_toward_pi():
    """1/(k+1)^2 coefficients with the derivative weight give the classical
    [1/(i+j+1)] section, whose norms increase to pi with the size."""
    norms = []
    for n in (8, 32, 128, 256):
        spec = HankelSpec(family("power", 2.0), n)
        norms.append(op_norm_dense(make_weighted_hankel(spec, derivative_weight)).value)
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert all(v < np.pi for v in norms)
    assert norms[-1] > 2.3  # well on its way at N = 256


def test_defect_detects_a_corrupted_entry():
    spec = HankelSpec(WeightSequence.geometric(0.5), 5)
    h = make_hankel(spec)
    h[2, 3] += 0.125
    assert hankel_defect(h) == pytest.approx(0.125)


def test_defect_zero_on_every_generated_section():
    for seq in (family("pisier-flat"), family("harmonic")):
        h = make_hankel(HankelSpec(seq, 6))
        assert hankel_defect(h) == 0.0


@pytest.mark.parametrize("block_dim", [0, -1, -2, 3])
def test_defect_refuses_a_bad_block_grid(block_dim):
    # 0 would divide by zero, and a negative size would read the identity,
    # whose defect is 1, as a true Hankel matrix; 3 does not tile 4
    message = "block_dim must be >= 1" if block_dim < 1 else "is not square with block size 3"
    assert hankel_defect(np.eye(4)) == 1.0
    with pytest.raises(ValidationError, match=message):
        hankel_defect(np.eye(4), block_dim)


# ---- derivation products ----------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: HankelSpec(family("harmonic"), 0),
    lambda: derivation_matrix(0),
], ids=["hankel-spec", "derivation-matrix"])
def test_a_size_below_one_is_refused(build):
    with pytest.raises(ValidationError, match="size must be >= 1"):
        build()


def test_derivation_matrix_differentiates_monomials():
    d = derivation_matrix(5)
    # column j holds j at row j-1: the image of z^j is j z^(j-1)
    v = np.zeros(5, dtype=complex)
    v[3] = 1.0
    out = d @ v
    assert out[2] == 3.0 and np.abs(out).sum() == 3.0


@pytest.mark.parametrize("kind", ["commutator", "gamma_d", "dstar_gamma"])
def test_derivation_products_match_literal_matmul(kind):
    """Entry formulas vs. actual matrix products — two independent routes."""
    spec = HankelSpec(family("power", 1.5), 9)
    gamma = make_hankel(spec)
    d = derivation_matrix(9)
    literal = {
        "gamma_d": gamma @ d,
        "dstar_gamma": d.conj().T @ gamma,
        "commutator": gamma @ d - d.conj().T @ gamma,
    }[kind]
    assert np.abs(derivation_product(spec, kind) - literal).max() < 1e-13


@pytest.mark.parametrize("kind, factor", [
    ("commutator", lambda i, j: j - i),
    ("gamma_d", lambda i, j: j),
    ("dstar_gamma", lambda i, j: i),
])
def test_derivation_products_match_the_entry_loop(kind, factor):
    for seq in LOOP_FAMILIES:
        for n in LOOP_SIZES:
            got = derivation_product(HankelSpec(seq, n), kind)
            assert_entry_loop(
                got, n, lambda i, j: factor(i, j) * (seq.values_at(i + j - 1) if i + j else 0.0)
            )


def test_commutator_is_difference_of_the_one_sided_products():
    spec = HankelSpec(WeightSequence.geometric(0.5), 8)
    lhs = derivation_product(spec, "commutator")
    rhs = derivation_product(spec, "gamma_d") - derivation_product(spec, "dstar_gamma")
    assert np.array_equal(lhs, rhs)


def test_derivation_product_rejects_bad_kinds():
    message = re.escape("kind must be one of ('commutator', 'gamma_d', 'dstar_gamma')")
    for kind in ("sideways", "hankel", "hankel-deriv"):
        with pytest.raises(ValidationError, match=message):
            derivation_product(HankelSpec(family("constant"), 3), kind)


# ---- displacement identity --------------------------------------------


@given(
    st.lists(
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=12,
    )
)
def test_negated_gamma_d_solves_the_displacement_equation(values):
    """S* Y - Y S = Gamma holds entrywise away from the boundary for the
    candidate Y = -(Gamma D), whatever the coefficient sequence — the
    identity telescopes index by index."""
    values = values + [0.0, 0.0]  # pad so every antidiagonal is defined
    seq = WeightSequence.custom(values)
    n = 6
    spec = HankelSpec(seq, n)
    y = -derivation_product(spec, "gamma_d")
    gamma = make_hankel(spec)
    assert sylvester_residual(y, gamma, n - 1) < 1e-12


def test_dyadic_displacement_is_exact_to_machine():
    for n in (16, 64):
        spec = HankelSpec(WeightSequence.geometric(0.5), n)
        y = -derivation_product(spec, "gamma_d")
        gamma = make_hankel(spec)
        assert sylvester_residual(y, gamma, n - 1) < 1e-14


def test_full_window_residual_sees_the_boundary():
    # flat coefficients keep the truncation boundary O(n) instead of
    # letting it decay away with the sequence
    n = 16
    spec = HankelSpec(family("constant"), n)
    y = -derivation_product(spec, "gamma_d")
    gamma = make_hankel(spec)
    s = make_shift(n)
    full = s.conj().T @ y - y @ s - gamma
    # everything off the last row/column cancels; the boundary does not
    assert np.abs(full[: n - 1, : n - 1]).max() < 1e-13
    assert np.abs(full).max() > 1.0


def test_hankel_perturbations_leave_the_residual_invariant(rng):
    """S* H - H S vanishes on the interior for any Hankel H, so adding one
    to a displacement candidate cannot change the interior residual."""
    n = 24
    spec = HankelSpec(family("power", 0.7), n)
    gamma = make_hankel(spec)
    y = -derivation_product(spec, "gamma_d")
    h = make_hankel(HankelSpec(WeightSequence.custom(rng.standard_normal(2 * n - 1)), n))
    base = sylvester_residual(y, gamma, n - 1)
    bumped = sylvester_residual(y + h, gamma, n - 1)
    assert abs(base - bumped) < 1e-12


def test_displacement_kernel_contains_hankel_matrices(rng):
    n = 12
    h = make_hankel(HankelSpec(WeightSequence.custom(rng.standard_normal(2 * n - 1)), n))
    s = make_shift(n)
    moved = s.conj().T @ h - h @ s
    assert np.abs(moved[: n - 1, : n - 1]).max() < 1e-14


def test_sylvester_residual_validates_window():
    y = np.zeros((4, 4))
    with pytest.raises(ValidationError, match=re.escape("window must lie in [1, 3]")):
        sylvester_residual(y, y, 4)  # window must leave the boundary out
    with pytest.raises(ValidationError, match=re.escape("window must lie in [1, 3]")):
        sylvester_residual(y, y, 0)


def test_sylvester_residual_shape_mismatch():
    with pytest.raises(ValidationError, match="Y and Gamma must be square of equal size"):
        sylvester_residual(np.zeros((4, 4)), np.zeros((5, 5)), 2)

