"""Reference values computed apart from the program.

Run as its own process, before the measured one; it never imports
``foguel_lab``.  Every reference comes from a closed form, from a matrix
the benchmark builds from its entry formula (``scipy.linalg.svdvals``), or
from the benchmark's own sparse Jordan-Wigner assembly
(``scipy.sparse.linalg.svds``).  Sums of the summability series use
extended precision and exact rearrangements with mpmath end terms.

    python3 perfbench/oracles.py --workload NAME --seed N --out FILE
    python3 perfbench/oracles.py --regenerate

The second form recomputes the stored reference for the car-hankel
section at N=7 (dimension 57344, about 20 s with ARPACK on two cores) and
rewrites ``reference.json``; every other reference is computed each run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import svds

import checks as C
import inputs as I

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
EPS = np.finfo(float).eps
mpmath.mp.dps = 40

#: Dense norms go through a full eigen- or singular-value decomposition,
#: accurate to a few ulps; this leaves room for any backward-stable route.
DENSE_RTOL = 1e-10
#: Matrix-free norms are asked for tol=1e-10; a value certified as
#: converged must at least be right to this.
POWER_RTOL = 1e-8
#: Residuals of identities that hold exactly at these sizes (C01, C08, C09).
RESIDUAL_ATOL = 1e-12
SIM_RESIDUAL_ATOL = 1e-8
#: Entrywise agreement of the intertwiner and the block power corner with
#: their index-shift formulas: sums of at most 64 rescaled copies of X.
ARRAY_RTOL = 1e-12
SUM_RTOL = 1e-12


# ---- sparse Jordan-Wigner assembly --------------------------------------


def jw_generators(modes: int) -> list:
    """c_k = Z x ... x Z x [[0,1],[0,0]] x I x ... x I on (C^2)^modes."""
    z = sp.diags([1.0, -1.0])
    low = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    eye = sp.identity(2)
    gens = []
    for k in range(modes):
        g = sp.identity(1, format="csr")
        for f in [z] * k + [low] + [eye] * (modes - k - 1):
            g = sp.kron(g, f, format="csr")
        gens.append(g)
    return gens


def pattern_coeffs(coef, n: int) -> np.ndarray:
    return np.array([[coef(i, j) for j in range(n)] for i in range(n)], dtype=float)


def pattern_operator(coef, n: int, lag: int = 0):
    """Sparse sum over antidiagonals t of B_t (x) c_{t-lag}, B_t[i, t-i] = coef(i, t-i)."""
    c = pattern_coeffs(coef, n)
    live = [t for t in range(2 * n - 1)
            if any(c[i, t - i] for i in range(max(0, t - n + 1), min(n, t + 1)))]
    gens = jw_generators(max(live) - lag + 1)
    total = None
    for t in live:
        rows = np.arange(max(0, t - n + 1), min(n, t + 1))
        b = sp.csr_matrix((c[rows, t - rows], (rows, t - rows)), shape=(n, n))
        term = sp.kron(b, gens[t - lag], format="csr")
        total = term if total is None else total + term
    return total


def top_singular(op) -> float:
    if op.shape[0] <= 1024:
        return float(sla.svdvals(op.toarray())[0])
    v0 = np.random.default_rng(0).standard_normal(min(op.shape))
    return float(svds(op, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def row_col_bounds(coef, n: int) -> tuple[float, float]:
    """(max of the row and column l2 sups, their sum) of the coefficients."""
    sq = pattern_coeffs(coef, n) ** 2
    r = float(np.sqrt(sq.sum(axis=1)).max())
    c = float(np.sqrt(sq.sum(axis=0)).max())
    return max(r, c), r + c


def geometric_half(k: int) -> float:
    return 0.5**k if k >= 0 else 0.0


def geometric_hankel(i: int, j: int) -> float:
    """The full geometric:0.5 profile, 2^-(i+j) on every antidiagonal."""
    return geometric_half(i + j)


def car_hankel_geometric(n: int) -> float:
    return top_singular(pattern_operator(geometric_hankel, n))


def regenerate() -> None:
    value = car_hankel_geometric(7)
    doc = {
        "car-hankel geometric:0.5 N=7": {
            "value": value,
            "dim": 7 * 2**13,
            "route": "scipy.sparse.linalg.svds (ARPACK, tol=0) on the sparse "
                     "Jordan-Wigner assembly of perfbench/oracles.py",
            "command": "python3 perfbench/oracles.py --regenerate",
        }
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"car-hankel geometric:0.5 N=7: {value!r}")


# ---- similarity ----------------------------------------------------------


def shift_series(x: np.ndarray, rho: float, corner: int) -> np.ndarray:
    """Z = sum_j S^(j+1) X (rho S)^j, entry (a, b) = sum_j rho^j X[a-j-1, b+j]."""
    z = np.zeros_like(x)
    for j in range(corner):
        z[j + 1 : j + 1 + corner, : corner - j] += rho**j * x[:corner, j:corner]
    return z


def power_corner(x: np.ndarray, rho: float, corner: int, n: int) -> np.ndarray:
    """Corner of R^n: sum_j (S*)^(n-1-j) X (rho S)^j, entry sum_j rho^j X[a+n-1-j, b+j]."""
    out = np.zeros_like(x)
    for j in range(n):
        k = n - 1 - j
        if k < corner and j < corner:
            out[: corner - k, : corner - j] += rho**j * x[k:corner, j:corner]
    return out


def stabilized_at(x: np.ndarray, rho: float, corner: int, n_terms: int):
    """First j with the last STAB_RUN increment norms rho^j ||X[:, j:]|| < tol."""
    run = 0
    for j in range(n_terms):
        norm = rho**j * sla.svdvals(x[:corner, j:corner])[0] if j < corner else 0.0
        run = run + 1 if norm < I.STAB_TOL else 0
        if run >= I.STAB_RUN:
            return j
    return None


def cond_unipotent(z_norm: float) -> float:
    """||L|| ||L^-1|| for L = [[I, Z], [0, I]]: ((s + sqrt(s^2 + 4)) / 2)^2."""
    s = mpmath.mpf(z_norm)
    return float(((s + mpmath.sqrt(s * s + 4)) / 2) ** 2)


def similarity_expect(x, rho, corner, n_terms):
    z = shift_series(x, rho, corner)
    z_norm = float(sla.svdvals(z)[0])
    return z, {
        "residual_interior": C.near_zero(SIM_RESIDUAL_ATOL),
        "residual_full": C.near_zero(SIM_RESIDUAL_ATOL),
        "conjugation_gap": C.near_zero(RESIDUAL_ATOL),
        "z_norm": C.rel(z_norm, DENSE_RTOL),
        "cond_L": C.rel(cond_unipotent(z_norm), DENSE_RTOL),
        "stabilized_at": C.equals(stabilized_at(x, rho, corner, n_terms)),
    }


def expect_similarity(inp: dict):
    p = I.C08
    x = inp["x"]
    z, pipeline = similarity_expect(x, p["rho"], p["corner"], p["n_terms"])
    pipeline["z"] = C.array("z", ARRAY_RTOL)
    arrays = {
        "z": z,
        "corner": power_corner(x, p["rho"], p["corner"], I.CORNER_POWER),
    }
    q = I.SIM_CLI
    rng = np.random.default_rng(inp["cli_seed"])
    c = q["corner"]
    blk = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    xc = np.zeros((q["size"], q["size"]), dtype=np.complex128)
    xc[:c, :c] = blk / sla.svdvals(blk)[0]
    _, command = similarity_expect(xc, q["rho"], c, q["n_terms"])
    expect = {
        "c08 pipeline": pipeline,
        "block power corner": {"corner": C.array("corner", ARRAY_RTOL)},
        "similarity command": command,
    }
    return expect, arrays


# ---- scalar sections -----------------------------------------------------


def entry_matrix(fn, n: int) -> np.ndarray:
    i = np.arange(n)
    return fn(i[:, None], i[None, :])


def expect_scalar(inp: dict):
    expect = {}
    for n in I.HANKEL_SIZES:
        ref = (1 - mpmath.mpf(4) ** (-n)) * mpmath.mpf(4) / 3
        expect[f"hankel N={n}"] = {"value": C.rel(float(ref), DENSE_RTOL),
                                   "converged": C.equals(True)}
    for n in I.DERIV_SIZES:
        # (i+j+1) * (i+j+1)^-2: the Hilbert section
        ref = sla.svdvals(entry_matrix(lambda i, j: 1.0 / (i + j + 1.0), n))[0]
        expect[f"hankel-deriv N={n}"] = {"value": C.rel(ref, DENSE_RTOL),
                                         "converged": C.equals(True)}
    profiles = {"geometric:0.5": lambda k: 0.5**k, "power:1.5": lambda k: (k + 1.0) ** -1.5}
    for name, a in profiles.items():
        for n in I.LADDER_SIZES:
            def entry(i, j):
                k = i + j - 1
                return np.where(k >= 0, (j - i) * a(np.maximum(k, 0)), 0.0)

            ref = sla.svdvals(entry_matrix(entry, n))[0]
            expect[f"commutator {name} N={n}"] = {"value": C.rel(ref, DENSE_RTOL),
                                                  "converged": C.equals(True)}
    # C10: the summable profile plateaus, the heavy tail keeps growing
    expect["commutator plateau"] = {
        "max_increment": C.within(-np.inf, 1e-8),
        "max_increment_rise": C.within(-np.inf, 1e-12),
    }
    expect["commutator growth"] = {"min_increment": C.within(0.1, np.inf)}
    for n in I.DISPLACEMENT_SIZES:
        expect[f"displacement N={n}"] = {"residual": C.near_zero(RESIDUAL_ATOL)}
    expect["displacement drift"] = {"drift": C.near_zero(RESIDUAL_ATOL)}
    return expect, {}


# ---- car sections --------------------------------------------------------


def expect_car(inp: dict):
    expect = {"car-check": {}}
    for m in range(1, I.CAR_CHECK_MODES + 1):
        expect["car-check"][f"dev_anti m={m}"] = C.near_zero(RESIDUAL_ATOL)
        expect["car-check"][f"dev_mixed m={m}"] = C.near_zero(RESIDUAL_ATOL)
    for n in I.CAR_DENSE_SIZES:
        # full geometric profile: antidiagonals n..2n-2 are cut
        lower, _ = row_col_bounds(geometric_hankel, n)
        l2 = float(np.sqrt(sum(geometric_half(t) ** 2 for t in range(2 * n - 1))))
        expect[f"car-hankel N={n}"] = {
            "value": C.rel(car_hankel_geometric(n), DENSE_RTOL),
            "sandwich": C.within(lower - 1e-8, l2 + 1e-8),
            "converged": C.equals(True),
        }

        def comm(i, j):
            return (j - i) * geometric_half(i + j - 1)

        lower, upper = row_col_bounds(comm, n)
        expect[f"car-commutator N={n}"] = {
            "value": C.rel(top_singular(pattern_operator(comm, n, lag=1)), DENSE_RTOL),
            "sandwich": C.within(lower - 1e-8, upper + 1e-8),
            "converged": C.equals(True),
        }
    for n, head in inp["whole"].items():
        for wname, w in (("unit", lambda t: 1.0), ("derivative", lambda t: t + 1.0)):
            # every live antidiagonal lies whole: the norm is ||w a||_2 (C02)
            ref = float(np.sqrt(sum((w(t) * head[t]) ** 2 for t in range(n))))
            expect[f"whole {wname} N={n}"] = {
                "value": C.rel(ref, DENSE_RTOL),
                "bound": C.rel(ref, SUM_RTOL),
            }
    for n, prof in inp["cut"].items():
        def cut(i, j):
            return (i + j + 1.0) * prof[i + j]

        lower, _ = row_col_bounds(cut, n)
        l2 = float(np.sqrt(sum(((t + 1.0) * prof[t]) ** 2 for t in range(2 * n - 1))))
        expect[f"cut derivative N={n}"] = {
            "value": C.rel(top_singular(pattern_operator(cut, n)), DENSE_RTOL),
            "sandwich": C.within(lower - 1e-8, l2 + 1e-8),
        }
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    refs = {6: car_hankel_geometric(6), 7: stored["car-hankel geometric:0.5 N=7"]["value"]}
    for n in I.CAR_POWER_SIZES:
        expect[f"car-hankel power N={n}"] = {
            "value": C.rel(refs[n], POWER_RTOL),
            "converged": C.equals(True),
        }
    return expect, {}


# ---- summability ---------------------------------------------------------


def _family(name: str):
    """(first index n0, a(n) for mpmath, a(n) for longdouble arrays)."""
    if name == "harmonic":
        return 1, (lambda n: 1 / mpmath.mpf(n)), (lambda n: 1 / n)
    if name == "log1":
        return (1, lambda n: 1 / mpmath.log(n + 1) ** 2,
                lambda n: 1 / np.log(n + 1) ** 2)
    return (2, lambda n: 1 / (mpmath.log(n + 1) * mpmath.log(mpmath.log(n + 1)) ** 2),
            lambda n: 1 / (np.log(n + 1) * np.log(np.log(n + 1)) ** 2))


def _ld_sum(x) -> mpmath.mpf:
    return mpmath.mpf(str(np.sum(x, dtype=np.longdouble)))


def bennett_refs(name: str, terms: int) -> dict:
    """The five totals of ``foguel-lab bennett`` for one family.

    All three families are positive, decreasing and convex in n (a convex
    decreasing function of the concave log(n+1)), so every difference has
    a known sign and each total rearranges, by telescoping and summation
    by parts, into end terms (mpmath) plus a sum of positive terms
    (extended precision), with no cancellation.
    """
    n0, a, a_ld = _family(name)
    T = terms
    ns = np.arange(n0, T + 3, dtype=np.longdouble)

    def b(n):
        return a(n) - a(n + 1)

    sum_a = _ld_sum(a_ld(ns[: T - n0 + 1]) / ns[: T - n0 + 1])
    sum_b = a(n0) - a(T + 1)
    # sum n (b_n - b_{n+1}) = n0 b_n0 + (a_{n0+1} - a_{T+1}) - T b_{T+1}
    sum_c = n0 * b(n0) + (a(n0 + 1) - a(T + 1)) - T * b(T + 1)
    m = ns[2:]
    chain = sum_c + sum_b + (a(n0 + 1) - a(T + 2)) + 2 * _ld_sum(a_ld(m) / m)
    # matrix criterion: sum_{n=2}^T W(n) d2g(n), g(n) = a(n)/(n+1) and
    # W(n) = sum_{i+j=n, i,j>=1} |j-i|; two summations by parts leave
    # 2 sum_{odd n in [3, T]} g(n) minus end terms, as W has second
    # difference 2 at odd n and 0 at even n (all three families start
    # at n0 <= 2, so g is defined from n = 2 on).
    odd = np.arange(3, T + 1, 2, dtype=np.longdouble)

    def g(n):
        return a(n) / (n + 1)

    w_t = mpmath.mpf(T * (T - 2)) / 2 if T % 2 == 0 else mpmath.mpf((T - 1) ** 2) / 2
    dw_t = T - 2 if T % 2 == 0 else T - 1
    crit = (2 * _ld_sum(a_ld(odd) / (odd + 1))
            - dw_t * g(T + 1) - w_t * (g(T + 1) - g(T + 2)))
    # a priori float64 error of the program's differences: each first
    # difference of values of size a_n is off by about 2 eps a_n, each
    # second difference by about 4 eps a_n, weighted by n.
    mass1 = float(_ld_sum(a_ld(ns)))
    mass2 = float(_ld_sum(ns * a_ld(ns)))

    def tol(ref, mass):
        return max(SUM_RTOL, 8 * EPS * mass / float(ref))

    return {
        "sum_a": C.rel(float(sum_a), SUM_RTOL),
        "sum_b": C.rel(float(sum_b), tol(sum_b, mass1)),
        "sum_c": C.rel(float(sum_c), tol(sum_c, mass2)),
        "second_diff_partial": C.rel(float(crit), tol(crit, mass2)),
        "chain_bound": C.rel(float(chain), tol(chain, mass2 + 2 * mass1)),
        "verdict": C.equals("convergent-looking"),
        "chain_dominates": C.equals(True),
    }


def multiplier_ref(n: int, witnesses: int, seed: int) -> float:
    """max over the witness ladder of ||M o A|| / ||A|| for M = [(j-i)/(i+j+1)]."""
    i = np.arange(1, n + 1)
    m = (i[None, :] - i[:, None]) / (i[:, None] + i[None, :] + 1.0)
    col = np.zeros((n, n))
    col[:, 0] = 1.0
    ladder = [np.eye(n), np.ones((n, n)), col]
    rng = np.random.default_rng(seed)
    while len(ladder) < witnesses:
        ladder.append(rng.choice([-1.0, 1.0], size=(n, n)))
    return max(sla.svdvals(m * w)[0] / sla.svdvals(w)[0] for w in ladder[:witnesses])


def expect_summability(inp: dict):
    expect = {}
    for name, _, _, _ in I.BENNETT_CASES:
        expect[f"bennett {name}"] = bennett_refs(name, inp["terms"][name])
    for n in I.MULTIPLIER_SIZES:
        ref = multiplier_ref(n, I.MULTIPLIER_WITNESSES, inp["cli_seed"])
        expect[f"multiplier N={n}"] = {"lower_bound": C.rel(ref, DENSE_RTOL)}
    # C06: the lower bounds grow along the ladder, and the iterated limits
    # of (j-i)/(i+j+1) are -1 along rows and +1 along columns
    expect["multiplier growth"] = {"min_step": C.within(0.0, np.inf)}
    expect["iterated limits"] = {
        "rows_first": C.within(-1.01, -0.99),
        "cols_first": C.within(0.99, 1.01),
    }
    return expect, {}


EXPECT = {
    "similarity": expect_similarity,
    "scalar-sections": expect_scalar,
    "car-sections": expect_car,
    "summability": expect_summability,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=I.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", help="JSON file for the checks; arrays go next to it")
    ap.add_argument("--regenerate", action="store_true")
    args = ap.parse_args(argv)
    if args.regenerate:
        regenerate()
        return 0
    if args.workload is None or args.seed is None or args.out is None:
        ap.error("--workload, --seed and --out are required")
    expect, arrays = EXPECT[args.workload](I.build(args.workload, args.seed))
    out = Path(args.out)
    out.write_text(json.dumps(expect, indent=1), encoding="utf-8")
    np.savez(out.with_suffix(".npz"), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
