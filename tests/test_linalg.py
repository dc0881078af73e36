"""Dense kernel sanity: shapes, norms, and the two norm routes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foguel_lab import (
    InvalidDimensionError,
    SizeCapExceededError,
    as_matrix,
    block2x2,
    eye,
    make_shift,
    matvec_oracles,
    op_norm_dense,
    op_norm_power,
    zeros,
)
from conftest import random_complex


def test_make_shift_structure():
    s = make_shift(4)
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i + 1, i] = 1.0
    assert np.array_equal(s, expected)


def test_shift_is_a_contraction_of_norm_one():
    # the truncated shift is isometric on all but the last basis vector
    for n in (2, 5, 17):
        assert op_norm_dense(make_shift(n)).value == pytest.approx(1.0, abs=1e-12)


def test_make_shift_rejects_tiny():
    with pytest.raises(InvalidDimensionError):
        make_shift(0)


def test_block2x2_identity_doubling():
    r = block2x2(eye(3), zeros(3), zeros(3), eye(3))
    assert np.array_equal(r, np.eye(6))


def test_block2x2_zero_coupling_squares_blockwise():
    s = make_shift(4)
    r = block2x2(s.conj().T, zeros(4), zeros(4), s)
    r2 = r @ r
    assert np.array_equal(r2[:4, :4], s.conj().T @ s.conj().T)
    assert np.array_equal(r2[4:, 4:], s @ s)
    assert np.abs(r2[:4, 4:]).max() == 0.0
    assert np.abs(r2[4:, :4]).max() == 0.0


def test_block2x2_top_right_roundtrip(rng):
    x = random_complex(rng, 5)
    r = block2x2(eye(5), x, zeros(5), eye(5))
    assert np.array_equal(r[:5, 5:], x)


def test_op_norm_dense_against_numpy(rng):
    for _ in range(10):
        a = random_complex(rng, 7, 5)
        est = op_norm_dense(a)
        assert est.method == "dense"
        assert est.converged
        assert est.value == pytest.approx(np.linalg.norm(a, 2), abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(6, 6), (9, 4), (3, 8)]))
def test_op_norm_dense_real_operands(seed, shape):
    # real-valued complex128 operands take the real route; square, tall, wide
    a = np.random.default_rng(seed).standard_normal(shape).astype(np.complex128)
    est = op_norm_dense(a)
    assert est.value == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert est.relative_residual <= 1e-12
    assert op_norm_dense(a.real) == est


def test_op_norm_dense_keeps_a_small_imaginary_part():
    # real part alone has norm 1; the 1e-3j entry must still count
    est = op_norm_dense(np.array([[1.0, 1e-3j]]))
    assert est.value == pytest.approx(np.sqrt(1 + 1e-6), rel=1e-14)


def test_op_norm_dense_respects_cap(rng):
    a = random_complex(rng, 16)
    with pytest.raises(SizeCapExceededError):
        op_norm_dense(a, size_cap=8)


@given(st.integers(0, 2**32 - 1))
def test_power_iteration_agrees_with_dense(seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((6, 6)) + 1j * r.standard_normal((6, 6))
    apply_, apply_adj, dim = matvec_oracles(a)
    est = op_norm_power(apply_, apply_adj, dim, seed=seed)
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
    apply_, apply_adj, dim = matvec_oracles(a)
    est = op_norm_power(apply_, apply_adj, dim)
    exact = np.linalg.norm(u) * np.linalg.norm(v)
    assert est.value == pytest.approx(exact, rel=1e-9)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(InvalidDimensionError):
        as_matrix(np.zeros(3))
