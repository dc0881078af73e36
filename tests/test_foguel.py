"""Block operators, sliding antidiagonal sums, and the similarity pipeline."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foguel_lab import (
    INTERTWINER_TERMS_CAP,
    FoguelBlock,
    SizeCapExceededError,
    ValidationError,
    antidiag_partial_sum,
    antidiag_shift_form,
    assemble_foguel,
    circle_sup,
    intertwiner_partial,
    make_shift,
    op_norm_dense,
    poly_eval_matrix,
    power_offdiag,
    similarity_check,
    von_neumann_probe,
)
from foguel_lab.cli import main
from conftest import random_complex


def unit_block(rng, n):
    m = random_complex(rng, n)
    return m / op_norm_dense(m).value


# ---- block assembly and powers ----------------------------------------


def test_assembly_layout(rng):
    t2, t1, x = (random_complex(rng, 3) for _ in range(3))
    blk = assemble_foguel(t2, t1, x)
    assert blk.matrix.shape == (6, 6)
    assert np.array_equal(blk.matrix[:3, :3], t2.conj().T)
    assert np.array_equal(blk.matrix[:3, 3:], x)
    assert np.abs(blk.matrix[3:, :3]).max() == 0.0
    assert np.array_equal(blk.matrix[3:, 3:], t1)


def test_assembly_rejects_mismatched_shapes(rng):
    with pytest.raises(ValidationError, match=re.escape("t2 has shape (3, 3), expected (4, 4)")):
        assemble_foguel(random_complex(rng, 3), random_complex(rng, 4), random_complex(rng, 3))


def test_zero_coupling_powers_stay_block_diagonal(rng):
    t2, t1 = random_complex(rng, 4), random_complex(rng, 4)
    blk = assemble_foguel(t2, t1, np.zeros((4, 4)))
    r2 = blk.matrix @ blk.matrix
    assert np.abs(r2[:4, 4:]).max() == 0.0
    assert np.allclose(r2[:4, :4], (t2.conj().T) @ (t2.conj().T))
    assert np.abs(power_offdiag(blk, 3)).max() == 0.0


def test_power_offdiag_first_power_is_the_coupling(rng):
    t2, t1, x = (random_complex(rng, 5) for _ in range(3))
    blk = assemble_foguel(t2, t1, x)
    assert np.array_equal(power_offdiag(blk, 1), x)


def test_power_offdiag_shift_identity():
    s = make_shift(4)
    blk = assemble_foguel(s, s, np.eye(4))
    got = power_offdiag(blk, 2)
    assert np.allclose(got, s.conj().T + s)


@given(st.integers(0, 2**31 - 1), st.integers(1, 20))
@settings(max_examples=20)
def test_power_offdiag_matches_literal_power(seed, n):
    r = np.random.default_rng(seed)
    blk = assemble_foguel(unit_block(r, 6), unit_block(r, 6), unit_block(r, 6))
    got = power_offdiag(blk, n)  # raises internally beyond 1e-10
    direct = np.linalg.matrix_power(blk.matrix, n)[:6, 6:]
    assert np.abs(got - direct).max() < 1e-10


def test_power_offdiag_rejects_zero_power(rng):
    blk = assemble_foguel(*(random_complex(rng, 3) for _ in range(3)))
    with pytest.raises(ValidationError):
        power_offdiag(blk, 0)


def _shift_block():
    t = make_shift(3)
    return assemble_foguel(t, 0.5 * t, np.ones((3, 3)))


def _tampered_block():
    # a literal matrix that is not [[T2*, X], [0, T1]]: the two corner routes part
    blk = _shift_block()
    return FoguelBlock(blk.t2, blk.t1, blk.x, blk.matrix + 1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: power_offdiag(_tampered_block(), 2), RuntimeError,
     "corner-sum formula and literal power disagree by"),
    (lambda: antidiag_partial_sum(np.eye(2), 0), ValidationError, "need at least one term"),
    (lambda: antidiag_shift_form(np.eye(2), 0), ValidationError, "need at least one term"),
    (lambda: intertwiner_partial(*(make_shift(3),) * 3, 0), ValidationError,
     "need at least one term"),
    (lambda: similarity_check(_shift_block(), np.zeros((2, 2)), 1), ValidationError,
     "Z has shape (2, 2), expected (3, 3)"),
    (lambda: similarity_check(_shift_block(), np.zeros((3, 3)), 4), ValidationError,
     "window must lie in [1, 3]"),
    (lambda: similarity_check(_shift_block(), np.zeros((3, 3)), 0), ValidationError,
     "window must lie in [1, 3]"),
    (lambda: poly_eval_matrix([1.0], np.ones((2, 3))), ValidationError,
     "expected a square matrix"),
    (lambda: poly_eval_matrix([], np.eye(2)), ValidationError, "empty coefficient list"),
    (lambda: von_neumann_probe(np.eye(2), [], 8), ValidationError,
     "need at least one polynomial"),
    (lambda: poly_eval_matrix([np.nan], np.eye(2)), ValidationError,
     "polynomial coefficients must be finite"),
    (lambda: circle_sup([1.0], 0), ValidationError, "grid_points must be >= 1"),
    (lambda: circle_sup([], 8), ValidationError, "empty coefficient list"),
    (lambda: circle_sup([1.0, np.inf], 8), ValidationError,
     "polynomial coefficients must be finite"),
    (lambda: von_neumann_probe(np.eye(2), [[np.nan]], 8), ValidationError,
     "polynomial coefficients must be finite"),
    (lambda: circle_sup([1e308, 1e308], 8), ValidationError,
     "circle sup lies beyond the float range"),
    (lambda: von_neumann_probe(np.zeros((2, 2)), [[1e308, 1e308]], 8), ValidationError,
     "circle sup lies beyond the float range"),
], ids=["tampered-power", "partial-sum-no-term", "shift-form-no-term", "series-no-term",
        "z-shape", "window-high", "window-zero", "poly-not-square", "poly-no-coeffs",
        "probe-no-polys", "poly-nan", "circle-no-grid", "circle-no-coeffs", "circle-inf",
        "probe-nan", "circle-overflow", "probe-circle-overflow"])
def test_bad_operands_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call", [
    lambda: power_offdiag(assemble_foguel(2 * np.eye(2), 2 * np.eye(2), np.eye(2)), 2000),
    lambda: intertwiner_partial(2 * np.eye(2), 2 * np.eye(2), np.eye(2), 600),
    lambda: von_neumann_probe(1e200 * np.eye(2), [[1.0, 1.0, 1.0]], 16),
], ids=["power-offdiag", "intertwiner", "von-neumann"])
def test_an_overflow_is_refused_without_a_numpy_warning(call):
    # every warning is an error in this suite, so a matmul RuntimeWarning
    # would surface here in place of the refusal
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        call()


# ---- sliding antidiagonal sums ----------------------------------------


def _sliding_oracle(x, n):
    """Direct double loop over the defining sum (scalar entries)."""
    big = np.zeros_like(x)
    rows, cols = x.shape
    for i in range(rows):
        for j in range(cols):
            for t in range(n):
                if t <= i and j + t < cols:
                    big[i, j] += x[i - t, j + t]
    return big


@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_partial_sum_matches_direct_loop(rng, n):
    x = random_complex(rng, 8)
    assert np.allclose(antidiag_partial_sum(x, n), _sliding_oracle(x, n), atol=1e-13)


def test_partial_sum_in_blocks(rng):
    # build the block answer from four scalar answers, one per block entry
    d, nb = 2, 5
    x = random_complex(rng, nb * d)
    got = antidiag_partial_sum(x, 3, block_dim=d)
    for p in range(d):
        for q in range(d):
            scal = x[p::d, q::d]
            assert np.allclose(got[p::d, q::d], _sliding_oracle(scal, 3), atol=1e-13)


def test_single_term_is_identity(rng):
    x = random_complex(rng, 6)
    assert np.array_equal(antidiag_partial_sum(x, 1), x)


def test_saturation_beyond_the_grid(rng):
    x = random_complex(rng, 6)
    assert np.array_equal(
        antidiag_partial_sum(x, 6), antidiag_partial_sum(x, 60)
    )


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 8))
@settings(max_examples=20)
def test_shift_form_is_the_formula_shifted_down(seed, d, n):
    r = np.random.default_rng(seed)
    nb = int(r.integers(2, 9))
    x = r.standard_normal((nb * d, nb * d)) + 1j * r.standard_normal((nb * d, nb * d))
    formula = antidiag_partial_sum(x, n, block_dim=d)
    shifted = antidiag_shift_form(x, n, block_dim=d)
    assert np.abs(shifted[:d, :]).max() == 0.0
    assert np.abs(shifted[d:, :] - formula[:-d, :]).max() < 1e-13


# ---- partial-sum intertwiner and similarity ---------------------------


def test_intertwiner_rejects_mismatched_shapes(rng):
    # a 4 x 4 X between shifts of sizes 4 and 5; one term multiplies no T1,
    # so only the shape check catches it there
    wrong_shape = re.escape("t2 has shape (4, 4), expected (5, 5)")
    for n_terms in (1, 2):
        with pytest.raises(ValidationError, match=wrong_shape):
            intertwiner_partial(make_shift(4), make_shift(5), random_complex(rng, 4), n_terms)


def test_zero_t1_collapses_the_series(rng):
    n = 8
    t2 = make_shift(n)
    x = random_complex(rng, n)
    res = intertwiner_partial(t2, np.zeros((n, n)), x, 5)
    assert np.array_equal(res.z, t2 @ x)
    assert res.term_norms[1] == 0.0
    assert all(v == op_norm_dense(res.z).value for v in res.partial_norms)


def test_nilpotent_t1_stabilizes_exactly(rng):
    n = 6
    t2, t1 = make_shift(n), make_shift(n)
    x = random_complex(rng, n)
    res = intertwiner_partial(t2, t1, x, 20, stab_tol=1e-12)
    # S^j = 0 from j = n on, so terms die and the partial sums freeze
    assert res.stabilized_at is not None
    assert all(v == 0.0 for v in res.term_norms[n:])
    assert res.partial_norms[-1] == res.partial_norms[n - 1]
    # the norms carried over zero increments are those of the final Z
    assert all(v == op_norm_dense(res.z).value for v in res.partial_norms[n - 1:])


@pytest.mark.parametrize("stab_run", [0, -3])
def test_intertwiner_refuses_a_stab_run_below_one(stab_run):
    # an empty run would call the series stable at its first term, of norm 1
    n = 8
    t2, t1, x = make_shift(n), make_shift(n), np.eye(n)
    assert intertwiner_partial(t2, t1, x, 2, stab_tol=1e-12, stab_run=1).stabilized_at is None
    with pytest.raises(ValidationError, match="stab_run must be >= 1"):
        intertwiner_partial(t2, t1, x, 20, stab_tol=1e-12, stab_run=stab_run)


def test_a_run_ending_at_the_first_term_stabilizes_at_zero():
    # every term T2^(j+1) X T1^j has norm 1e-12 while the shifts leave it
    # nonzero, so a one-term run ends at j = 0 and a two-term run at j = 1
    n = 8
    t2, t1, x = make_shift(n), make_shift(n), 1e-12 * np.eye(n)
    res = intertwiner_partial(t2, t1, x, 3, stab_tol=1e-10, stab_run=1)
    assert res.term_norms[0] == 1e-12
    assert res.stabilized_at == 0
    assert intertwiner_partial(t2, t1, x, 3, stab_tol=1e-10, stab_run=2).stabilized_at == 1


def test_a_series_above_the_cap_is_refused_before_it_is_allocated(tmp_path, capsys):
    # 10^12 terms would ask numpy for two 8 TB norm arrays
    n = 4
    with pytest.raises(SizeCapExceededError):
        intertwiner_partial(make_shift(n), make_shift(n), np.eye(n), INTERTWINER_TERMS_CAP + 1)
    params = {"size": "8", "corner": "2", "window": "4", "n_terms": str(10**12)}
    message = f"n_terms={10**12} exceeds the series cap {INTERTWINER_TERMS_CAP}"
    argv = ["similarity"]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert main(argv + ["--out", str(tmp_path / "flags")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "flags" / "similarity.csv").exists()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": 1, "jobs": [
        {"id": 0, "command": "similarity", "params": params}]}))
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 1
    job = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["jobs"][0]
    assert (job["exit_code"], job["error"], job["rows"]) == (1, message, 0)


def test_running_sup_respects_the_geometric_envelope(rng):
    n, rho = 32, 0.7
    t2 = make_shift(n)
    t1 = rho * make_shift(n)
    x = unit_block(rng, n)
    res = intertwiner_partial(t2, t1, x, 80)
    bound = op_norm_dense(x).value / (1.0 - rho) + 1e-8
    assert max(res.partial_norms) <= bound


def test_isometry_rewrite_on_the_interior(rng):
    """Applying the co-isometry n times to the n-term partial sum
    reproduces the block-power corner on rows where the truncated shift
    still acts isometrically (everything below index N - n)."""
    n_size, n_terms = 16, 5
    t2 = make_shift(n_size)
    t1 = 0.8 * make_shift(n_size)
    x = random_complex(rng, n_size)
    res = intertwiner_partial(t2, t1, x, n_terms)
    blk = assemble_foguel(t2, t1, x)
    corner = power_offdiag(blk, n_terms)
    rewritten = np.linalg.matrix_power(t2.conj().T, n_terms) @ res.z
    assert np.abs((rewritten - corner)[: n_size - n_terms, :]).max() < 1e-10


def test_similarity_on_a_stabilized_pair(rng):
    n = 48
    t2 = make_shift(n)
    t1 = 0.85 * make_shift(n)
    x = np.zeros((n, n), dtype=complex)
    x[:12, :12] = unit_block(rng, 12)
    res = intertwiner_partial(t2, t1, x, 120, stab_tol=1e-12)
    blk = assemble_foguel(t2, t1, x)
    rep = similarity_check(blk, res.z, window=24)
    assert rep.residual_interior < 1e-10
    assert rep.residual_full < 1e-10
    assert abs(rep.conjugation_residual - rep.residual_full) < 1e-12
    assert np.isfinite(rep.cond_l)
    assert rep.cond_l >= 1.0


def test_conjugation_equals_sylvester_for_arbitrary_z(rng):
    # the equality is exact 2x2 block algebra, no convergence needed
    t2, t1, x = (random_complex(rng, 5) for _ in range(3))
    z = random_complex(rng, 5)
    blk = assemble_foguel(t2, t1, x)
    rep = similarity_check(blk, z, window=3)
    assert abs(rep.conjugation_residual - rep.residual_full) < 1e-12


# ---- polynomial calculus ----------------------------------------------


def test_horner_against_numpy(rng):
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c = random_complex(rng, 5)
    got = poly_eval_matrix(coeffs, c)
    expected = sum(coeffs[k] * np.linalg.matrix_power(c, k) for k in range(6))
    assert np.allclose(got, expected, atol=1e-10)


def test_circle_sup_of_a_monomial():
    assert circle_sup([0.0, 0.0, 1.0], 64) == pytest.approx(1.0)


def test_circle_sup_of_one_plus_z():
    assert circle_sup([1.0, 1.0], 4096) == pytest.approx(2.0, abs=1e-6)


def test_probe_passes_on_the_shift(rng):
    polys = [rng.standard_normal(int(rng.integers(1, 9))) for _ in range(20)]
    rep = von_neumann_probe(make_shift(16), polys, 512)
    assert rep.is_contraction
    assert rep.violations == 0
    assert rep.max_excess <= 1e-9
    assert rep.k_estimate <= 1.0 + 1e-9


def test_probe_monomials_are_tight_on_the_shift():
    # ||S^k|| = 1 = sup |z^k| while S^k != 0: equality, excess ~ 0
    rep = von_neumann_probe(make_shift(8), [[0, 0, 0, 1.0]], 64)
    deg, mat_norm, sup, excess = rep.results[0]
    assert deg == 3
    assert mat_norm == pytest.approx(1.0, abs=1e-12)
    assert sup == pytest.approx(1.0, abs=1e-12)
    assert abs(excess) < 1e-12


def test_probe_labels_non_contractions():
    c = 2.0 * make_shift(4)
    rep = von_neumann_probe(c, [[0.0, 1.0]], 64)
    assert not rep.is_contraction
    assert rep.k_estimate == pytest.approx(2.0)


def test_probe_demands_a_fine_grid():
    with pytest.raises(ValidationError):
        von_neumann_probe(make_shift(4), [np.ones(13)], 64)  # degree 12 needs 96
