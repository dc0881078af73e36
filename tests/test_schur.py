"""Entrywise multiplier sections: structure, summability criterion, probes.

The witness probe only ever produces lower bounds, so the oracle here is
a brute-force sweep over random unitaries at tiny sizes — by convexity of
the norm and the structure of the unit ball of a matrix algebra, the
supremum of ||M * A|| over the whole unit ball is attained on unitaries.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foguel_lab import (
    MultiplierSpec,
    ValidationError,
    WeightSequence,
    antidiagonal_sums,
    bennett_criterion,
    bennett_sums,
    iterated_limits,
    make_multiplier,
    multiplier_lower_bound,
    op_norm_dense,
)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---- the array itself --------------------------------------------------


def test_all_ones_is_schur_identity():
    probe = multiplier_lower_bound(MultiplierSpec(entry_fn=lambda i, j: 1.0), 4, witnesses=6)
    assert [r for _, r in probe.ratios] == [1.0] * 6


@given(
    st.sampled_from(["dq", "log", "loglog", "seq"]),
    st.integers(1, 30),
    st.integers(1, 30),
)
def test_structured_entries_are_antisymmetric(kind, i, j):
    spec = {
        "dq": MultiplierSpec.difference_quotient(),
        "log": MultiplierSpec.log_damped(0.5),
        "loglog": MultiplierSpec.loglog_damped(1.0),
        "seq": MultiplierSpec(WeightSequence.harmonic()),
    }[kind]
    assert spec.entry(i, j) == pytest.approx(-spec.entry(j, i), abs=1e-15)
    assert spec.entry(i, i) == 0.0


@given(
    st.sampled_from(["dq", "log", "loglog"]),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.floats(0.05, 2.0),
)
def test_named_kinds_match_their_closed_forms(kind, offset, di, dj, eps):
    """Each named kind against its entry formula written out literally."""
    i, j = offset + di, offset + dj
    n = i + j + 1.0
    literal, spec = {
        "dq": ((j - i) / n, MultiplierSpec.difference_quotient(offset)),
        "log": ((j - i) / (n * math.log(n) ** (1 + eps)),
                MultiplierSpec.log_damped(eps, offset)),
        "loglog": ((j - i) / (n * math.log(n) * math.log(math.log(n)) ** (1 + eps)),
                   MultiplierSpec.loglog_damped(eps, offset)),
    }[kind]
    assert spec.entry(i, j) == pytest.approx(literal, rel=1e-15, abs=0.0)


def test_make_multiplier_matches_entry_loop():
    # byte for byte, over sequence specs at several offsets and sizes
    specs = (
        MultiplierSpec.log_damped(0.5),
        MultiplierSpec.difference_quotient(),
        MultiplierSpec.loglog_damped(0.25, offset=2),
        MultiplierSpec(WeightSequence.harmonic(), offset=3),
    )
    for spec in specs:
        for n in (1, 2, 5, 16):
            m = make_multiplier(spec, n)
            ks = range(spec.offset, spec.offset + n)
            loop = np.array([[spec.entry(i, j) for j in ks] for i in ks])
            assert m.shape == loop.shape
            assert m.tobytes() == loop.tobytes()


def test_offset_moves_the_section():
    spec = MultiplierSpec.difference_quotient(offset=2)
    m = make_multiplier(spec, 3)
    assert m[0, 0] == 0.0  # m(2,2)
    assert m[0, 1] == pytest.approx(1.0 / 6.0)  # m(2,3)
    with pytest.raises(ValidationError):
        spec.entry(1, 5)  # below the section offset


def test_from_sequence_uses_the_quotient_profile():
    spec = MultiplierSpec(WeightSequence.harmonic())
    # m(i, j) = (j - i) a_{i+j} / (i + j + 1) with a_n = 1/n
    assert spec.entry(2, 5) == pytest.approx(3.0 / (7.0 * 8.0))


def test_damped_kinds_validate_epsilon_and_offset():
    with pytest.raises(ValidationError):
        MultiplierSpec.log_damped(0.0)
    with pytest.raises(ValidationError):
        MultiplierSpec.log_damped(1.0, offset=0)
    with pytest.raises(ValidationError):
        MultiplierSpec.loglog_damped(-2.0)


def test_an_offset_below_the_sequence_start_is_refused():
    # harmonic starts at 1, and an offset-0 section reads a(0) at (0, 0)
    with pytest.raises(ValidationError, match="reads the sequence at 0, below its start index 1"):
        MultiplierSpec(WeightSequence.harmonic(), offset=0)
    with pytest.raises(ValidationError, match="reads the sequence at 0, below its start index 2"):
        MultiplierSpec.loglog_damped(1.0, offset=0)
    assert MultiplierSpec(WeightSequence.constant(), offset=0).entry(0, 1) == 0.5


def test_a_spec_takes_exactly_one_of_sequence_and_entry_fn():
    with pytest.raises(ValidationError):
        MultiplierSpec()
    with pytest.raises(ValidationError):
        MultiplierSpec(WeightSequence.harmonic(), entry_fn=lambda i, j: 1.0)


# ---- second-difference summability criterion ---------------------------


@given(st.integers(2, 60), st.integers(1, 4))
def test_antidiag_coefficient_closed_form(n, offset):
    from foguel_lab.schur import antidiag_abs_coeff

    if n < 2 * offset:
        n = 2 * offset
    brute = sum(
        abs(n - 2 * i) for i in range(offset, n - offset + 1)
    )
    assert antidiag_abs_coeff(np.array([n]), offset)[0] == brute


def test_criterion_closed_form_matches_direct_summation():
    # same array fed through the structured O(T) route and the generic
    # entry-by-entry route; the two summations are independent code paths
    structured = MultiplierSpec.difference_quotient()
    literal = MultiplierSpec(entry_fn=lambda i, j: (j - i) / (i + j + 1.0))
    rs = bennett_criterion(structured, 80)
    rl = bennett_criterion(literal, 80)
    sums_s = antidiagonal_sums(structured, 80)
    assert np.abs(sums_s - antidiagonal_sums(literal, 80)).max() < 1e-12
    assert rs.total == pytest.approx(rl.total, rel=1e-12)


def test_constant_array_has_no_second_difference_mass():
    rep = bennett_criterion(MultiplierSpec(entry_fn=lambda i, j: 3.0), 60)
    assert rep.total == 0.0
    assert rep.row_tail == 3.0  # rows do not vanish: criterion inapplicable


def test_alternating_array_diverges_linearly():
    spec = MultiplierSpec(entry_fn=lambda i, j: (-1.0) ** (i + j))
    rep = bennett_criterion(spec, 60)
    sums = antidiagonal_sums(spec, 60)
    # every second difference has modulus 4, so antidiagonal sums grow
    # with the antidiagonal length and the partial sums diverge
    assert sums[0] == 4.0
    assert all(np.diff(sums) > 0)
    assert rep.verdict is False


def test_difference_quotient_fails_the_criterion():
    rep = bennett_criterion(MultiplierSpec.difference_quotient(), 2_000)
    assert rep.verdict is False
    # rows tend to -1, not 0: the entries themselves already obstruct
    assert rep.row_tail > 0.9
    assert rep.col_tail > 0.9


def test_log_damped_passes_the_criterion():
    rep = bennett_criterion(MultiplierSpec.log_damped(1.0), 10_000)
    assert rep.verdict is True
    assert rep.row_tail < 1e-2
    assert rep.col_tail < 1e-2
    # and the chain of series bounds dominates the matrix partial sum
    seq = WeightSequence("log", param=1.0)
    assert rep.total <= bennett_sums(seq, 10_000).chain_bound


def test_criterion_rejects_tiny_ranges():
    with pytest.raises(ValidationError):
        bennett_criterion(MultiplierSpec.difference_quotient(), 3)


# ---- iterated limits ---------------------------------------------------


def test_difference_quotient_iterated_limits_split():
    c, r = iterated_limits(MultiplierSpec.difference_quotient(), 1_000, 1_000)
    assert c < -0.95
    assert r > 0.95
    assert c == pytest.approx(-r, abs=1e-12)


def test_log_damped_iterated_limits_agree():
    c, r = iterated_limits(MultiplierSpec.log_damped(1.0), 100_000, 100_000)
    assert abs(c) < 0.01
    assert abs(r) < 0.01


def test_iterated_limits_rejects_small_indices():
    with pytest.raises(ValidationError):
        iterated_limits(MultiplierSpec.difference_quotient(), 5, 1_000)


# ---- witness probes ----------------------------------------------------


def test_all_ones_spec_probe_is_exactly_one():
    probe = multiplier_lower_bound(
        MultiplierSpec(entry_fn=lambda i, j: 1.0), 8, witnesses=5, seed=0
    )
    assert probe.lower_bound == 1.0


def test_probe_monotone_in_witness_count():
    spec = MultiplierSpec.difference_quotient()
    vals = [
        multiplier_lower_bound(spec, 12, witnesses=w, seed=3).lower_bound
        for w in (1, 2, 4, 6)
    ]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_probe_deterministic_for_fixed_seed():
    spec = MultiplierSpec.log_damped(1.0)
    a = multiplier_lower_bound(spec, 16, witnesses=5, seed=42)
    b = multiplier_lower_bound(spec, 16, witnesses=5, seed=42)
    assert a == b


def test_probe_records_every_ratio():
    probe = multiplier_lower_bound(
        MultiplierSpec.difference_quotient(), 8, witnesses=4, seed=0
    )
    assert len(probe.ratios) == 4
    assert probe.lower_bound == max(v for _, v in probe.ratios)
    assert probe.ratios[0][0] == "identity"
    assert probe.ratios[1][0] == "ones"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "spec",
    [MultiplierSpec.difference_quotient(), MultiplierSpec.log_damped(1.0)],
    ids=["dq", "log1"],
)
def test_probe_below_brute_force_norm_at_tiny_size(spec, n):
    """The probe never exceeds the actual multiplier norm of the section.

    At n <= 3 the norm is computed by sweeping random unitaries (the
    extreme points of the unit ball); 1500 draws land well within the
    margin between probe and true value observed for these arrays.
    """
    m = make_multiplier(spec, n)
    rng = np.random.default_rng(11)
    brute = max(
        op_norm_dense(m * haar_unitary(n, rng)).value for _ in range(1500)
    )
    probe = multiplier_lower_bound(spec, n, witnesses=6, seed=0)
    assert probe.lower_bound <= brute + 1e-9
    # row/column factorization bound caps everything from above
    cap = min(
        np.sqrt((np.abs(m) ** 2).sum(axis=1)).max(),
        np.sqrt((np.abs(m) ** 2).sum(axis=0)).max(),
    )
    assert brute <= cap + 1e-9


def test_two_by_two_multiplier_norm_is_the_corner_entry():
    # for an antisymmetric 2x2 array the multiplier norm is |m(1,2)|:
    # the unitary sweep must land on it
    m = make_multiplier(MultiplierSpec.difference_quotient(), 2)
    rng = np.random.default_rng(7)
    brute = max(
        op_norm_dense(m * haar_unitary(2, rng)).value for _ in range(1500)
    )
    assert brute == pytest.approx(0.25, abs=1e-3)


def test_difference_quotient_probe_grows():
    spec = MultiplierSpec.difference_quotient()
    vals = [
        multiplier_lower_bound(spec, n, witnesses=3, seed=0).lower_bound
        for n in (8, 16, 32)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_log_damped_probe_stays_flat():
    spec = MultiplierSpec.log_damped(1.0)
    p32 = multiplier_lower_bound(spec, 32, witnesses=3, seed=0).lower_bound
    p128 = multiplier_lower_bound(spec, 128, witnesses=3, seed=0).lower_bound
    assert p128 - p32 < 0.10 * p32  # no growth worth the name
