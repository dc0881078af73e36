"""Acceptance gate: thirteen end-to-end checks at pinned tolerances.

Each test prints exactly one `[acceptance] Cnn <label>: PASS/FAIL` line
(visible with `pytest -s`, and in the failure output otherwise) and then
asserts.  Criteria and tolerances are fixed; none of the thresholds here
are tuned to the implementation.

C02 deserves a note up front.  The row/column profile bound of a
generator-valued Hankel section is attained exactly when every live
antidiagonal lies whole inside the section: with the profile supported in
[0, N), reversing the columns of the N x N section gives an
upper-triangular block Toeplitz matrix, a compression of the analytic
Toeplitz operator whose symbol sum_t w_t a_t z^(N-1-t) C_t has norm
||w a||_2 at every point of the circle, and row 0 attains that value.
C02 asserts this equality at sizes 2..4.  On sections of the full
profile, antidiagonals N..2N-2 are cut and the norm can sit strictly above
the bound (the flat profile at size 3 gives the golden ratio vs sqrt(2) —
see tests/test_car.py for the pinned counterexample and two independently
built representations agreeing on it).  There C02 asserts the true
two-sided statement: the bound below, and above the l^2 norm of the first
2N-1 weighted profile terms, since the cut section is the top-left corner
of the whole-antidiagonal section of size 2N-1.  Its failure message
carries the full per-case table.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from foguel_lab import (
    HankelSpec,
    MultiplierSpec,
    WeightSequence,
    antidiag_partial_sum,
    antidiag_shift_form,
    assemble_foguel,
    bennett_criterion,
    bennett_sums,
    build_car,
    car_check,
    car_hankel,
    car_pattern_matrix,
    commutator_pattern,
    derivation_product,
    derivative_weight,
    family,
    hankel_pattern,
    intertwiner_partial,
    iterated_limits,
    make_hankel,
    make_multiplier,
    make_shift,
    multiplier_lower_bound,
    op_norm_dense,
    power_offdiag,
    rc_bounds,
    similarity_check,
    sylvester_residual,
    von_neumann_probe,
)
from foguel_lab.cli import main as cli_main

SWEEP_SPEC = Path(__file__).resolve().parent.parent / "scripts" / "sweep_example.json"


def verdict(num: int, label: str, ok: bool, detail: str = "") -> str:
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance] C{num:02d} {label}: {tag}"
    if detail:
        line += f" — {detail}"
    print(line)
    return line


def test_c01_generator_relations_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 11):
        dev_anti, dev_mixed = car_check(build_car(m))
        worst = max(worst, dev_anti, dev_mixed)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    line = verdict(1, "generator relations m<=10", ok,
                   f"worst dev {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


PROFILE_CASES = [
    ("flat", family("pisier-flat")),
    ("sparse-geometric", family("pisier-geometric")),
    ("dyadic", WeightSequence.geometric(0.5)),
]
WEIGHT_CASES = [("unit", None), ("derivative", derivative_weight)]


def _profile_l2(alpha, weight, stop):
    """l^2 norm of the weighted profile w(t) a_t over t in [0, stop)."""
    w = (lambda k: 1.0) if weight is None else weight
    return float(np.sqrt(sum(abs(w(t) * alpha.values_at(t)) ** 2 for t in range(stop))))


def test_c02_hankel_pattern_norm_equals_profile_bound():
    rows = []
    worst = 0.0
    cut_ok = True
    for aname, alpha in PROFILE_CASES:
        for wname, weight in WEIGHT_CASES:
            section, lag = hankel_pattern(alpha, weight)
            for n in (2, 3, 4):
                # profile supported in [0, n): every live antidiagonal lies
                # whole inside the n x n section, so the norm is the bound
                head = WeightSequence.custom([alpha.values_at(k) for k in range(n)])
                hsection, hlag = hankel_pattern(head, weight)
                dense = op_norm_dense(car_pattern_matrix(hsection, hlag, n)).value
                bound = rc_bounds(hsection, n).lower
                gap = abs(dense - bound)
                worst = max(worst, gap)
                # full profile: antidiagonals n..2n-2 are cut; the section is
                # the corner of the whole-antidiagonal section of size 2n-1
                cut = op_norm_dense(car_pattern_matrix(section, lag, n)).value
                lower = rc_bounds(section, n).lower
                upper = _profile_l2(alpha, weight, 2 * n - 1)
                inside = lower - 1e-8 <= cut <= upper + 1e-8
                cut_ok = cut_ok and inside
                rows.append(
                    f"    {aname:>16s}/{wname:<10s} N={n}  dense={dense:.12f}  "
                    f"bound={bound:.12f}  gap={gap:.3e}  |  cut={cut:.12f} in "
                    f"[{lower:.12f}, {upper:.12f}] {'ok' if inside else 'OUT'}"
                )
    ok = worst < 1e-8 and cut_ok
    line = verdict(2, "Hankel-pattern norm equals row/col bound", ok,
                   f"worst gap {worst:.3e} on whole antidiagonals, cut sections "
                   + ("inside" if cut_ok else "outside") + " [bound, l2 of 2N-1 terms]")
    if not ok:
        pytest.fail(
            line
            + "\n  whole-antidiagonal sections must attain the profile bound;"
            + " cut sections must lie between it and the l2 norm of the first"
            + " 2N-1 weighted profile terms:\n"
            + "\n".join(rows)
        )


def test_c03_commutator_pattern_sandwich():
    ratios = []
    ok = True
    for aname, alpha in PROFILE_CASES:
        section, lag = commutator_pattern(alpha)
        for n in (2, 3, 4):
            dense = op_norm_dense(car_pattern_matrix(section, lag, n)).value
            b = rc_bounds(section, n)
            ok = ok and (b.lower - 1e-8 <= dense <= b.upper + 1e-8)
            ratios.append(f"{aname}/N{n}:{dense / b.lower:.4f}" if b.lower else "-")
    line = verdict(3, "commutator-pattern sandwich", ok, "ratios " + " ".join(ratios))
    assert ok, line


def test_c04_harmonic_telescoping_sums():
    t0 = time.perf_counter()
    terms = 10**6
    rep = bennett_sums(family("harmonic"), terms)
    elapsed = time.perf_counter() - t0
    err_b = abs(rep.sum_abs_diff1 - (1.0 - 1.0 / (terms + 1)))
    err_c = abs(rep.sum_weighted_diff2 - 1.0)
    err_a = abs(rep.sum_a_over_n - np.pi**2 / 6.0)
    ok = err_b < 1e-12 and err_c < 1e-5 and err_a < 1e-5 and elapsed < 10.0
    line = verdict(4, "harmonic telescoping at T=1e6", ok,
                   f"errs {err_b:.1e}/{err_c:.1e}/{err_a:.1e}, {elapsed:.1f}s")
    assert ok, line


DAMPED_FAMILIES = [
    ("log-eps1", WeightSequence("log", param=1.0), MultiplierSpec(family("log", 1.0))),
    ("loglog-eps1", WeightSequence("loglog", param=1.0), MultiplierSpec(family("loglog", 1.0))),
]


def _milestone_increments(decades, increments):
    """Increments for the decade windows ending at 1e3, 1e4, 1e5."""
    picked = []
    for hi in (10**3, 10**4, 10**5):
        idx = [k for k, (_, b) in enumerate(decades) if b == hi]
        assert idx, f"no decade window ending at {hi}"
        picked.append(increments[idx[0]])
    return picked


def test_c05_damped_families_converge_with_bounded_matrix_sum():
    ok = True
    notes = []
    for name, seq, spec in DAMPED_FAMILIES:
        srep = bennett_sums(seq, 10**5)
        for inc in srep.decade_increments:
            m = _milestone_increments(srep.decades, inc)
            ok = ok and m[0] > m[1] > m[2]
        mrep = bennett_criterion(spec, 10**5)
        mm = _milestone_increments(mrep.decades, mrep.decade_increments)
        ok = ok and mm[0] > mm[1] > mm[2]
        notes.append(f"{name} matrix decades {mm[0]:.4f}>{mm[1]:.4f}>{mm[2]:.4f}")
        for t in (10**3, 10**4, 10**5):
            total = bennett_criterion(spec, t).total
            bound = bennett_sums(seq, t).chain_bound
            ok = ok and total <= bound
        notes.append(f"{name} chain-dominated at T=1e3..1e5")
    line = verdict(5, "damped-family decade decrease + chain bound", ok,
                   "; ".join(notes))
    assert ok, line


def test_c06_quotient_array_obstruction():
    spec = MultiplierSpec.difference_quotient()
    c, r = iterated_limits(spec, 10**4, 10**4)
    ladder = [
        multiplier_lower_bound(make_multiplier(spec, n), witnesses=3, seed=0).lower_bound
        for n in (16, 32, 64, 128)
    ]
    ok = (
        abs(c - (-1.0)) < 0.01
        and abs(r - 1.0) < 0.01
        and all(a < b for a, b in zip(ladder, ladder[1:]))
    )
    line = verdict(6, "iterated-limit split + growing probe", ok,
                   f"C={c:.4f} R={r:.4f} ladder=" +
                   "/".join(f"{v:.3f}" for v in ladder))
    assert ok, line


def test_c07_sliding_sum_shift_form_equality():
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        for d in (1, 2):
            for nb in range(2, 17):
                x = r.standard_normal((nb * d, nb * d)) + 1j * r.standard_normal(
                    (nb * d, nb * d)
                )
                for n in range(1, 9):
                    formula = antidiag_partial_sum(x, n, block_dim=d)
                    shifted = antidiag_shift_form(x, n, block_dim=d)
                    worst = max(worst, np.abs(shifted[:d, :]).max())
                    worst = max(
                        worst, np.abs(shifted[d:, :] - formula[:-d, :]).max()
                    )
    ok = worst < 1e-13
    line = verdict(7, "sliding-sum dual route, 10 seeds", ok, f"worst {worst:.2e}")
    assert ok, line


def test_c08_similarity_pipeline_at_scale():
    t0 = time.perf_counter()
    n, rho, corner = 256, 0.9, 64
    t2 = make_shift(n)
    t1 = rho * make_shift(n)
    rng = np.random.default_rng(0)
    blk = rng.standard_normal((corner, corner)) + 1j * rng.standard_normal(
        (corner, corner)
    )
    blk /= op_norm_dense(blk).value
    x = np.zeros((n, n), dtype=np.complex128)
    x[:corner, :corner] = blk
    res = intertwiner_partial(t2, t1, x, 250, stab_tol=1e-10)
    rep = similarity_check(assemble_foguel(t2, t1, x), res.z, 128)
    elapsed = time.perf_counter() - t0
    ok = (
        res.stabilized_at is not None
        and res.stabilized_at <= 250
        and rep.residual_interior < 1e-8
        and abs(rep.conjugation_residual - rep.residual_full) < 1e-12
        and np.isfinite(rep.cond_l)
        and elapsed < 30.0
    )
    line = verdict(8, "similarity pipeline N=256", ok,
                   f"stab@{res.stabilized_at} interior {rep.residual_interior:.1e} "
                   f"cond_L {rep.cond_l:.2f}, {elapsed:.1f}s")
    assert ok, line


def test_c09_dyadic_displacement_identity():
    ok = True
    worst = 0.0
    for n in (64, 256, 512):
        spec = HankelSpec(WeightSequence.geometric(0.5), n)
        gamma = make_hankel(spec)
        y = -derivation_product(spec, "gamma_d")
        resid = sylvester_residual(y, gamma, n - 1)
        worst = max(worst, resid)
        ok = ok and resid < 1e-12
    # perturbing by any Hankel matrix must leave the interior residual alone
    n = 128
    spec = HankelSpec(WeightSequence.geometric(0.5), n)
    gamma = make_hankel(spec)
    y = -derivation_product(spec, "gamma_d")
    rng = np.random.default_rng(3)
    h = make_hankel(HankelSpec(WeightSequence.custom(rng.standard_normal(2 * n - 1)), n))
    drift = abs(
        sylvester_residual(y, gamma, n - 1) - sylvester_residual(y + h, gamma, n - 1)
    )
    ok = ok and drift < 1e-12
    line = verdict(9, "dyadic displacement + Hankel invariance", ok,
                   f"worst residual {worst:.2e}, drift {drift:.2e}")
    assert ok, line


def test_c10_growth_contrast():
    sizes = (64, 128, 256, 512)

    def norms(seq):
        return [
            op_norm_dense(derivation_product(HankelSpec(seq, n), "commutator")).value
            for n in sizes
        ]

    flat = norms(WeightSequence.geometric(0.5))
    rel_flat = [(b - a) / a for a, b in zip(flat, flat[1:])]
    grow = norms(family("power", 1.5))
    rel_grow = [(b - a) / a for a, b in zip(grow, grow[1:])]
    ok = (
        all(r <= 1e-8 for r in rel_flat)
        and all(x >= y - 1e-12 for x, y in zip(rel_flat, rel_flat[1:]))
        and all(r >= 0.1 for r in rel_grow)
    )
    line = verdict(
        10, "commutator plateau vs growth", ok,
        "flat " + "/".join(f"{r:.1e}" for r in rel_flat)
        + "  growing " + "/".join(f"{r:.3f}" for r in rel_grow),
    )
    assert ok, line


def test_c11_von_neumann_on_the_shift():
    rng = np.random.default_rng(0)
    polys = []
    for _ in range(100):
        deg = int(rng.integers(0, 13))
        polys.append(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    rep = von_neumann_probe(make_shift(64), polys, 4096)
    ok = rep.violations == 0
    line = verdict(11, "polynomial bound on shift(64)", ok,
                   f"max excess {rep.max_excess:.2e}")
    assert ok, line


def test_c12_block_power_identity():
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)

        def unit():
            m = r.standard_normal((8, 8)) + 1j * r.standard_normal((8, 8))
            return m / op_norm_dense(m).value

        blk = assemble_foguel(unit(), unit(), unit())
        for n in range(1, 11):
            got = power_offdiag(blk, n)
            direct = np.linalg.matrix_power(blk.matrix, n)[:8, 8:]
            worst = max(worst, float(np.abs(got - direct).max()))
    ok = worst < 1e-10
    line = verdict(12, "block power corner identity, 20 seeds", ok,
                   f"worst {worst:.2e}")
    assert ok, line


def test_c13_sweep_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["sweep", str(SWEEP_SPEC), "--out", str(out1)])
    rc2 = cli_main(["sweep", str(SWEEP_SPEC), "--out", str(out2)])
    identical = all(
        (out1 / f"{fam}.csv").read_bytes() == (out2 / f"{fam}.csv").read_bytes()
        for fam in ("car", "norms", "bennett", "multiplier", "similarity")
    )
    ok = rc1 == 0 and rc2 == 0 and identical
    line = verdict(13, "sweep rerun byte-identical", ok,
                   f"exit codes {rc1}/{rc2}")
    assert ok, line
