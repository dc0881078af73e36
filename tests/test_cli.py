"""Command-line surface: files, formats, seeds, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

from foguel_lab import (
    BENNETT_TERMS_CAP,
    HankelSpec,
    MultiplierSpec,
    SizeCapExceededError,
    ValidationError,
    WeightSequence,
    antidiagonal_sums,
    bennett_criterion,
    bennett_sums,
    derivative_weight,
    hankel_pattern,
    make_multiplier,
    op_norm_dense,
    rc_bounds,
)
from foguel_lab.cli import (
    COMMANDS,
    DEFAULT_SEED,
    FAMILY_OF,
    SEED_ENV_VAR,
    main,
    normalize_params,
    parse_alpha,
    resolve_seed,
)
from foguel_lab.sequences import FAMILIES, family
from conftest import generator_section

ROOT = Path(__file__).resolve().parents[1]


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---- argument plumbing -------------------------------------------------


def test_parse_alpha_families():
    assert parse_alpha("pisier-flat").describe() == "pisier-flat"
    assert parse_alpha("geometric:0.5").values_at(3) == 0.5**3
    assert parse_alpha("harmonic").values_at(2) == 0.5
    # the log family starts at index 1, where log(k + 1) > 0
    assert parse_alpha("log:1.0").start_index == 1


@pytest.mark.parametrize("alpha, cell", [
    *((f"{name}:0.5",) * 2 if label else (name,) * 2 for name, (_, label, _) in FAMILIES.items()),
    ("log:1", "log:1"),  # was log:1+1, which --alpha refused
    ("loglog:0.25", "loglog:0.25"),
    ("power:1.23456789", "power:1.23456789"),  # was power:1.23457
    ("power:2.0", "power:2"),
])
def test_norm_param_cell_reads_back_as_its_alpha(tmp_path, alpha, cell):
    for text in (alpha, cell):
        assert main(["norm", "--target", "hankel", "--sizes", "3", "--alpha", text,
                     "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "norms.csv")[1][2] == cell
    assert parse_alpha(cell) == parse_alpha(alpha)


def test_parse_alpha_rejects_junk():
    from foguel_lab import ValidationError

    for text in ("fibonacci", "geometric:abc", "power", "harmonic:1", "power:nan"):
        with pytest.raises(ValidationError):
            parse_alpha(text)


def test_every_family_in_the_alpha_help_parses():
    alpha = next(prm for prm in COMMANDS["norm"].params if prm.name == "alpha")
    names = alpha.help.removeprefix("coefficients: ").split(" | ")
    assert len(names) == 8
    for name in names:
        head, sep, _ = name.partition(":")
        assert parse_alpha(f"{head}:0.5" if sep else head) == family(head, 0.5 if sep else None)


def log_damped(eps):
    return MultiplierSpec(family("log", eps))


def loglog_damped(eps):
    return MultiplierSpec(family("loglog", eps))


@pytest.mark.parametrize("kind,build", [
    ("difference-quotient", lambda eps: MultiplierSpec.difference_quotient()),
    ("log-damped", log_damped),
    ("loglog-damped", loglog_damped),
])
def test_each_multiplier_kind_builds_its_classmethod_section(tmp_path, monkeypatch, kind, build):
    sections = []

    def record(spec, size):
        sections.append(make_multiplier(spec, size))
        return sections[-1]

    monkeypatch.setattr("foguel_lab.cli.make_multiplier", record)
    argv = ["multiplier", "--kind", kind, "--sizes", "5,9", "--witnesses", "1"]
    eps = None if kind == "difference-quotient" else 0.75
    if eps is not None:
        argv += ["--epsilon", str(eps)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(sections) == 2
    for got in sections:
        want = make_multiplier(build(eps), len(got))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    assert resolve_seed(17) == 17
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert resolve_seed(None) == 99
    assert resolve_seed(17) == 17  # explicit beats environment
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    from foguel_lab import ValidationError

    with pytest.raises(ValidationError):
        resolve_seed(None)


# ---- single commands ---------------------------------------------------


def test_car_check_writes_csv_and_mirror(tmp_path):
    rc = main(["car-check", "--modes", "4", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "car.csv")
    assert rows[0] == ["modes", "dev_anti", "dev_mixed"]
    assert len(rows) == 5  # header + one row per mode count
    assert rows[1] == ["1", "0", "0"]
    doc = json.loads((tmp_path / "car.json").read_text())
    assert doc["schema"] == 1
    assert doc["command"] == "car-check"


def test_norm_dense_values(tmp_path):
    rc = main(
        [
            "norm",
            "--target",
            "hankel",
            "--alpha",
            "geometric:0.5",
            "--sizes",
            "4,8",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "norms.csv")
    assert rows[0] == ["target", "N", "param", "method", "value", "iters", "converged"]
    assert [r[1] for r in rows[1:]] == ["4", "8"]
    assert rows[1][3] == "dense"
    assert rows[1][4] == "1.328125"  # exact dyadic norm at N = 4
    assert rows[1][6] == "true"


def test_norm_power_route_agrees_with_dense(tmp_path):
    for target, n in (("car-hankel", "3"), ("car-commutator", "4")):
        a = tmp_path / target / "a"
        b = tmp_path / target / "b"
        base = ["norm", "--target", target, "--alpha", "pisier-flat", "--N", n]
        assert main(base + ["--method", "dense", "--out", str(a)]) == 0
        assert main(base + ["--method", "power", "--out", str(b)]) == 0
        va = float(read_csv(a / "norms.csv")[1][4])
        vb = float(read_csv(b / "norms.csv")[1][4])
        assert abs(va - vb) < 1e-8
        assert read_csv(b / "norms.csv")[1][3] == "power"


def test_car_hankel_power_rows_keep_their_known_faults(tmp_path):
    # above the dense cap car-hankel takes the power route: N = 6 stops at
    # max_iter unconverged, N = 7 reports convergence 4e-6 low; the
    # benchmark counts both rows as known faults, so neither may move
    argv = ["norm", "--target", "car-hankel", "--alpha", "geometric:0.5", "--N", "6,7"]
    assert main(argv + ["--seed", "2002", "--out", str(tmp_path)]) == 2
    assert (tmp_path / "norms.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "car-hankel,6,geometric:0.5,power,1.1545746087371436,1000,false",
        "car-hankel,7,geometric:0.5,power,1.1546688545290975,15,true",
    ]


@pytest.mark.parametrize("argv", [
    "norm --target hankel --alpha loglog:100 --sizes 8 --method power",
    "norm --target car-hankel --alpha loglog:100 --N 7",  # auto: power above the cap
])
def test_power_rows_of_a_huge_profile_read_the_dense_norm(tmp_path, argv):
    # a_2 of loglog:100 is about 4.5e103 and outweighs every other
    # coefficient by more than 1e50, so both norms are that of the scalar
    # section; unscaled, the power loop's norms overflowed and the row read 0
    dense = ["norm", "--target", "hankel", "--alpha", "loglog:100", "--sizes", "8",
             "--method", "dense", "--out", str(tmp_path / "dense")]
    assert main(dense) == 0
    assert main(argv.split() + ["--out", str(tmp_path / "power")]) == 0
    want = float(read_csv(tmp_path / "dense" / "norms.csv")[1][4])
    row = read_csv(tmp_path / "power" / "norms.csv")[1]
    assert (row[3], row[6]) == ("power", "true")
    assert float(row[4]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("method", ["power", "auto"])
def test_car_commutator_above_the_dense_cap_runs_matrix_free(tmp_path, method):
    # dimension 7 * 2^11 = 14336 > DENSE_SIZE_CAP: the power route must not
    # build the dense matrix; 1000 iterations do not converge here (exit 2)
    argv = ["norm", "--target", "car-commutator", "--alpha", "geometric:0.5", "--N", "7"]
    assert main(argv + ["--method", method, "--out", str(tmp_path)]) == 2
    row = read_csv(tmp_path / "norms.csv")[1]
    assert row[3] == "power"
    assert row[5] == "1000"
    assert row[6] == "false"


#: the generator-valued section targets and the pattern each one norms
CAR_PATTERNS = {
    "car-hankel": hankel_pattern,
    "car-hankel-deriv": lambda seq: hankel_pattern(seq, derivative_weight),
    "car-commutator": lambda seq: hankel_pattern(seq, "commutator"),
}
LACUNARY = ["pisier-flat", "pisier-geometric"]


def car_norm_rows(out, target, alpha, sizes):
    argv = ["norm", "--target", target, "--alpha", alpha, "--N", sizes, "--out", str(out)]
    assert main(argv) == 0
    return {int(r[1]): r for r in read_csv(out / "norms.csv")[1:]}


@pytest.mark.parametrize("alpha", LACUNARY)
@pytest.mark.parametrize("target", ["car-hankel", "car-hankel-deriv"])
def test_lacunary_car_hankel_sections_stay_dense(tmp_path, target, alpha):
    # one mode per live antidiagonal 2^j - 1: at most six through N = 32,
    # so the dimension N * 2^6 stays within the dense cap
    rows = car_norm_rows(tmp_path, target, alpha, "9,16,32")
    assert sorted(rows) == [9, 16, 32]
    assert all(r[3] == "dense" and r[6] == "true" for r in rows.values())
    # at N = 16 and 32 every live antidiagonal lies whole (C02), so the
    # norm is the row bound of the scalar section
    section, _ = CAR_PATTERNS[target](parse_alpha(alpha))
    for n in (16, 32):
        assert float(rows[n][4]) == pytest.approx(rc_bounds(section, n).lower, rel=1e-14)


@pytest.mark.parametrize("alpha", LACUNARY)
@pytest.mark.parametrize("target", sorted(CAR_PATTERNS))
def test_car_hankel_sections_equal_their_one_mode_per_antidiagonal_embedding(
    tmp_path, target, alpha
):
    # the embedding gives antidiagonal t the mode t - lag, on t_last - lag + 1
    # modes, live or not; the norm rows must match it to the bit
    rows = car_norm_rows(tmp_path, target, alpha, "2,3,4,5,6,7,8")
    section, lag = CAR_PATTERNS[target](parse_alpha(alpha))
    for n in range(2, 9):
        wide = generator_section(section, n, lambda t: t - lag)
        assert float(rows[n][4]) == op_norm_dense(wide).value, n


def ulps_off(value, exact):
    """Distance of a float from exact(), taken to 40 digits, in units of its last place."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - exact()) / math.ulp(value))


def test_whole_lacunary_sections_attain_the_profile_norm(tmp_path):
    # at N = 2^k every live antidiagonal 2^j - 1, j <= k, lies whole (C02), so
    # the norm is the l2 norm of the profile: sqrt(k + 1) for the flat one,
    # (sum_{j <= k} 4^-j)^(1/2) for the geometric one
    exact = {
        "pisier-flat": lambda k: mpmath.sqrt(k + 1),
        "pisier-geometric": lambda k: mpmath.sqrt(mpmath.fsum(mpmath.mpf(4) ** -j for j in range(k + 1))),
    }
    for alpha in LACUNARY:
        rows = car_norm_rows(tmp_path, "car-hankel", alpha, "2,4,8,16,32")
        for k in range(1, 6):
            row = rows[2**k]
            assert row[3] == "dense" and row[6] == "true"
            assert ulps_off(float(row[4]), lambda: exact[alpha](k)) <= 4, (alpha, k)


def test_flat_sections_have_path_graph_norms(tmp_path):
    # below N = 8 the flat sections cut live antidiagonals; each norm is the
    # spectral radius 2 cos(pi / (k + 1)) of the path on k vertices
    rows = car_norm_rows(tmp_path, "car-hankel", "pisier-flat", "2,3,4,5,6,7")
    for n, k in zip(range(2, 8), (3, 4, 5, 7, 7, 11)):
        assert ulps_off(float(rows[n][4]), lambda: 2 * mpmath.cos(mpmath.pi / (k + 1))) <= 4, n


def test_too_many_live_antidiagonals_are_refused(tmp_path, capsys):
    # geometric:0.5 is live on all 15 antidiagonals of the N = 8 section
    argv = ["norm", "--target", "car-hankel", "--alpha", "geometric:0.5", "--N", "8"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "15 live antidiagonals" in err and "at most 14" in err
    assert "--modes" not in err and "modes must lie" not in err


@pytest.mark.parametrize("method", ["power", "auto"])
@pytest.mark.parametrize("target", ["hankel", "derivation-commutator", "shift"])
def test_dense_section_above_the_cap_is_refused_before_it_is_built(
    tmp_path, monkeypatch, capsys, target, method
):
    def no_table(self, count):
        raise AssertionError("coefficient table built for an oversize section")

    monkeypatch.setattr(HankelSpec, "coeff_table", no_table)
    argv = ["norm", "--target", target, "--sizes", "4097", "--method", method]
    if target != "shift":
        argv += ["--alpha", "geometric:0.5"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "exceeds dense cap 4096" in capsys.readouterr().err


def test_multiplier_section_above_the_cap_is_refused_before_it_is_built(
    tmp_path, monkeypatch, capsys
):
    def no_section(self, ns):
        raise AssertionError("multiplier section built above the dense cap")

    monkeypatch.setattr(MultiplierSpec, "g_values", no_section)
    argv = ["multiplier", "--kind", "difference-quotient", "--sizes", "4097",
            "--witnesses", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "exceeds dense cap 4096" in capsys.readouterr().err


def test_bennett_terms_above_the_cap_are_refused_before_evaluation(
    tmp_path, monkeypatch, capsys
):
    def no_values(self, indices):
        raise AssertionError("sequence evaluated above the series cap")

    monkeypatch.setattr(WeightSequence, "values_at", no_values)
    terms = BENNETT_TERMS_CAP + 1
    argv = ["bennett", "--sequence", "harmonic", "--terms", str(terms),
            "--out", str(tmp_path)]
    assert main(argv) == 1
    assert f"exceeds the series cap {BENNETT_TERMS_CAP}" in capsys.readouterr().err
    with pytest.raises(SizeCapExceededError):
        bennett_criterion(MultiplierSpec(family("harmonic")), terms)
    with pytest.raises(SizeCapExceededError):
        antidiagonal_sums(MultiplierSpec(family("harmonic")), 2, terms + 1)


@pytest.mark.parametrize("oversize", ["window", "corner"])
def test_similarity_window_or_corner_above_the_size_is_refused_before_the_series(
    tmp_path, monkeypatch, capsys, oversize
):
    def no_series(*args, **kwargs):
        raise AssertionError("intertwiner series summed for a refused similarity run")

    monkeypatch.setattr("foguel_lab.cli.intertwiner_partial", no_series)
    params = {"size": 1024, "n_terms": 100, "window": 64, "corner": 16, oversize: 2000}
    argv = ["similarity"]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv + ["--out", str(tmp_path / "flags")]) == 1
    assert capsys.readouterr().err == f"error: {oversize} must not exceed size\n"
    spec = make_sweep_spec(tmp_path / "spec.json",
                           [{"id": 0, "command": "similarity", "params": params}])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 1
    job = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["jobs"][0]
    assert (job["exit_code"], job["error"]) == (1, f"{oversize} must not exceed size")


def test_bennett_row_matches_library(tmp_path):
    rc = main(
        ["bennett", "--sequence", "harmonic", "--terms", "1000", "--out", str(tmp_path)]
    )
    assert rc == 0
    row = read_csv(tmp_path / "bennett.csv")[1]
    rep = bennett_sums(family("harmonic"), 1000)
    assert row[0] == "harmonic"
    assert float(row[3]) == rep.sum_a_over_n
    assert float(row[4]) == rep.sum_abs_diff1
    assert float(row[5]) == rep.sum_weighted_diff2
    assert row[7] == "convergent-looking"


def test_bennett_epsilon_rules(tmp_path):
    # log family needs an epsilon ...
    assert (
        main(["bennett", "--sequence", "log", "--terms", "100", "--out", str(tmp_path)])
        == 1
    )
    # ... harmonic must not get one ...
    assert (
        main(
            [
                "bennett",
                "--sequence",
                "harmonic",
                "--epsilon",
                "1.0",
                "--terms",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )
    # ... and the happy path works
    assert (
        main(
            [
                "bennett",
                "--sequence",
                "log",
                "--epsilon",
                "1.0",
                "--terms",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )


def test_shift_alpha_rules(tmp_path):
    shift = ["norm", "--target", "shift", "--sizes", "3"]
    # the shift target takes no coefficients, so any --alpha is refused ...
    for alpha in ("junk", "geometric:0.5"):
        assert main(shift + ["--alpha", alpha, "--out", str(tmp_path)]) == 1
    # ... and without one it runs
    assert main(shift + ["--out", str(tmp_path)]) == 0
    # a one-job sweep applies the same rule
    for params, code in (({"alpha": "junk"}, 1), ({}, 0)):
        job = {"id": 0, "command": "norm",
               "params": {"target": "shift", "sizes": [3], **params}}
        spec = make_sweep_spec(tmp_path / "spec.json", [job])
        assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == code


def test_multiplier_rows_and_seed_column(tmp_path):
    rc = main(
        [
            "multiplier",
            "--kind",
            "difference-quotient",
            "--sizes",
            "8,16",
            "--seed",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "multiplier.csv")
    assert rows[0] == ["kind", "epsilon", "N", "witnesses", "lower_bound", "seed"]
    assert [r[2] for r in rows[1:]] == ["8", "16"]
    assert all(r[5] == "5" for r in rows[1:])
    assert rows[1][1] == ""  # no epsilon for the quotient kind
    assert float(rows[1][4]) < float(rows[2][4])  # growth with N


def test_similarity_row(tmp_path):
    rc = main(
        [
            "similarity",
            "--size",
            "24",
            "--rho",
            "0.8",
            "--n-terms",
            "60",
            "--window",
            "12",
            "--corner",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    row = read_csv(tmp_path / "similarity.csv")[1]
    assert row[0] == "24"
    assert float(row[4]) < 1e-8  # residual_interior
    assert float(row[5]) < 1e-8  # residual_full
    assert float(row[6]) >= 1.0  # cond_L


def test_environment_seed_feeds_commands(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["multiplier", "--kind", "log-damped", "--epsilon", "1.0", "--sizes", "8"]
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    assert main(argv + ["--out", str(a)]) == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    assert main(argv + ["--seed", "123", "--out", str(b)]) == 0
    assert (a / "multiplier.csv").read_bytes() == (b / "multiplier.csv").read_bytes()


SEEDED_JOBS = {
    "multiplier": {"kind": "difference-quotient", "sizes": "8"},
    "similarity": {"size": "16", "corner": "4", "n_terms": "5", "window": "8"},
    "norm": {"target": "hankel", "alpha": "geometric:0.5", "sizes": "4",
             "method": "power"},
}


@pytest.mark.parametrize("command", sorted(SEEDED_JOBS))
@pytest.mark.parametrize("source", ["flag", "env", "sweep"])
def test_negative_seed_is_refused(tmp_path, monkeypatch, capsys, source, command):
    """A seed below 0 exits 1 from every source, not 3 from the RNG."""
    params = SEEDED_JOBS[command]
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if source == "sweep":
        job = {"id": 0, "command": command, "params": params}
        argv = ["sweep", str(make_sweep_spec(tmp_path / "spec.json", [job], seed=-2))]
    else:
        argv = [command]
        for key, value in params.items():
            argv += ["--" + key.replace("_", "-"), value]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv(SEED_ENV_VAR, "-7")
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    # the message names where the seed came from
    name = SEED_ENV_VAR if source == "env" else "seed"
    assert capsys.readouterr().err == f"error: {name} must be >= 0\n"


def test_unknown_flags_exit_one(tmp_path):
    assert main(["norm", "--target", "warp-drive", "--out", str(tmp_path)]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_choice(capsys, command):
    """argparse checks no value, but --help still shows each choice list."""
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for prm in COMMANDS[command].params:
        if prm.choices:
            assert f"{prm.flag} {{{','.join(prm.choices)}}}" in out, prm.name


# ---- sweeps ------------------------------------------------------------


def make_sweep_spec(path: Path, jobs, seed=None):
    doc = {"schema": 1, "jobs": jobs}
    if seed is not None:
        doc["seed"] = seed
    path.write_text(json.dumps(doc))
    return path


ALL_FAMILY_JOBS = [
    {"id": 0, "command": "car-check", "params": {"modes": 3}},
    {
        "id": 1,
        "command": "norm",
        "params": {"target": "hankel", "alpha": "geometric:0.5", "sizes": [4, 8]},
    },
    {
        "id": 2,
        "command": "bennett",
        "params": {"sequence": "harmonic", "terms": 500},
    },
    {
        "id": 3,
        "command": "multiplier",
        "params": {"kind": "difference-quotient", "sizes": [8], "witnesses": 3},
    },
    {
        "id": 4,
        "command": "similarity",
        "params": {"size": 16, "rho": 0.8, "n_terms": 40, "window": 8, "corner": 4},
    },
]


def test_sweep_emits_every_family(tmp_path):
    spec = make_sweep_spec(tmp_path / "spec.json", ALL_FAMILY_JOBS, seed=7)
    out = tmp_path / "out"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    for family in ("car", "norms", "bennett", "multiplier", "similarity"):
        assert (out / f"{family}.csv").exists()
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["schema"] == 1
    assert summary["exit_code"] == 0
    assert [j["id"] for j in summary["jobs"]] == [0, 1, 2, 3, 4]
    # per-job seeds are the global seed XOR the job id
    assert [j["seed"] for j in summary["jobs"]] == [7 ^ i for i in range(5)]


def test_sweep_reruns_byte_identical(tmp_path):
    spec = make_sweep_spec(tmp_path / "spec.json", ALL_FAMILY_JOBS, seed=7)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["sweep", str(spec), "--out", str(out1)]) == 0
    assert main(["sweep", str(spec), "--out", str(out2)]) == 0
    for family in ("car", "norms", "bennett", "multiplier", "similarity"):
        assert (out1 / f"{family}.csv").read_bytes() == (
            out2 / f"{family}.csv"
        ).read_bytes()


def test_sweep_empty_jobs_leaves_headers(tmp_path):
    spec = make_sweep_spec(tmp_path / "spec.json", [])
    out = tmp_path / "out"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = read_csv(out / "norms.csv")
    assert rows == [["target", "N", "param", "method", "value", "iters", "converged"]]


def test_sweep_rejects_bad_schema(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"schema": 2, "jobs": []}))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1
    path.write_text(json.dumps({"schema": 1, "jobs": [{"id": 0, "command": "fly"}]}))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1


def car_job(jid=0, **fields):
    return {"id": jid, "command": "car-check", "params": {"modes": 2}, **fields}


BAD_SPECS = {
    "missing-file": (None, "sweep spec not found: {path}"),
    "invalid-json": ('{"schema": 1,', "sweep spec is not valid JSON: "),
    "seed-text": ({"schema": 1, "seed": "7", "jobs": []}, "sweep seed must be an integer"),
    "jobs-object": ({"schema": 1, "jobs": {"0": car_job()}}, 'sweep spec needs a "jobs" array'),
    "job-list": ({"schema": 1, "jobs": [[0, "car-check"]]}, "each job must be a JSON object"),
    "id-negative": ({"schema": 1, "jobs": [car_job(-1)]}, "job ids must be non-negative integers"),
    "id-boolean": ({"schema": 1, "jobs": [car_job(True)]}, "job ids must be non-negative integers"),
    "id-text": ({"schema": 1, "jobs": [car_job("0")]}, "job ids must be non-negative integers"),
    "id-duplicate": ({"schema": 1, "jobs": [car_job(3), car_job(3)]}, "duplicate job id 3"),
    "params-list": ({"schema": 1, "jobs": [car_job(params=["modes", 2])]},
                    "job params must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_sweep_spec_refusals(tmp_path, capsys, case):
    """A malformed sweep file exits 1 with its message before any job runs."""
    doc, message = BAD_SPECS[case]
    path = tmp_path / "spec.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1
    assert not out.exists()


def test_sweep_records_an_unexpected_error_and_runs_the_next_job(tmp_path, monkeypatch):
    def boom(params, seed):
        raise RuntimeError("boom")

    failing = dataclasses.replace(COMMANDS["car-check"], run=boom)
    monkeypatch.setitem(COMMANDS, "car-check", failing)
    jobs = [car_job(0), {"id": 1, "command": "bennett",
                     "params": {"sequence": "harmonic", "terms": 100}}]
    out = tmp_path / "out"
    assert main(["sweep", str(make_sweep_spec(tmp_path / "spec.json", jobs)),
                 "--out", str(out)]) == 3
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["exit_code"] == 3
    assert [(j["exit_code"], j.get("error")) for j in summary["jobs"]] == [
        (3, "RuntimeError: boom"), (0, None)]
    assert len(read_csv(out / "bennett.csv")) == 2  # the next job still ran


def test_sweep_keeps_going_past_a_bad_job(tmp_path):
    jobs = [
        {"id": 0, "command": "bennett", "params": {"sequence": "log", "terms": 100}},
        {"id": 1, "command": "car-check", "params": {"modes": 2}},
    ]
    spec = make_sweep_spec(tmp_path / "spec.json", jobs)
    out = tmp_path / "out"
    assert main(["sweep", str(spec), "--out", str(out)]) == 1  # worst job code
    summary = json.loads((out / "sweep.json").read_text())
    assert "error" in summary["jobs"][0]
    assert summary["jobs"][1]["exit_code"] == 0
    assert len(read_csv(out / "car.csv")) == 3  # the good job still ran


def test_sweep_refuses_unknown_parameter_names(tmp_path):
    jobs = [
        {"id": 0, "command": "multiplier",
         "params": {"kind": "difference-quotient", "sizes": [4], "witness": 5}},
        {"id": 1, "command": "norm",
         "params": {"target": "shift", "sizes": [4], "metod": "power"}},
        {"id": 2, "command": "car-check", "params": {"modes": 2}},
    ]
    spec = make_sweep_spec(tmp_path / "spec.json", jobs)
    out = tmp_path / "out"
    assert main(["sweep", str(spec), "--out", str(out)]) == 1
    summary = json.loads((out / "sweep.json").read_text())
    assert [j["exit_code"] for j in summary["jobs"]] == [1, 1, 0]
    assert "witness" in summary["jobs"][0]["error"]
    assert "metod" in summary["jobs"][1]["error"]
    assert len(read_csv(out / "multiplier.csv")) == 1  # header only
    assert len(read_csv(out / "norms.csv")) == 1
    assert len(read_csv(out / "car.csv")) == 3  # the good job still ran


HANKEL4 = {"target": "hankel", "alpha": "geometric:0.5", "sizes": "4"}

BAD_FLOATS = {
    "tol-inf-power": ("norm", {**HANKEL4, "method": "power", "tol": "inf"}),
    "tol-nan-power": ("norm", {**HANKEL4, "method": "power", "tol": "nan"}),
    "tol-nan-dense": ("norm", {**HANKEL4, "method": "dense", "tol": "nan"}),
    "tol-zero-dense": ("norm", {**HANKEL4, "method": "dense", "tol": "0"}),
    "alpha-inf": ("norm", {**HANKEL4, "alpha": "power:inf"}),
    "epsilon-inf": ("bennett", {"sequence": "log", "epsilon": "inf", "terms": "100"}),
    "rho-inf": ("similarity", {"size": "8", "rho": "inf", "window": "4", "corner": "2"}),
    # argparse only splits argv, so integers, choices, required parameters
    # and sizes are refused by the registry's readers on both doors
    "modes-text": ("car-check", {"modes": "abc"}),
    "modes-zero": ("car-check", {"modes": "0"}),
    "modes-high": ("car-check", {"modes": "15"}),
    "terms-low": ("bennett", {"sequence": "harmonic", "terms": "5"}),
    "witnesses-zero": ("multiplier", {"kind": "difference-quotient", "witnesses": "0"}),
    "target-unknown": ("norm", {**HANKEL4, "target": "warp-drive"}),
    "method-unknown": ("norm", {**HANKEL4, "method": "svd"}),
    "sequence-unknown": ("bennett", {"sequence": "fibonacci", "terms": "100"}),
    "kind-unknown": ("multiplier", {"kind": "schur-product"}),
    "target-missing": ("norm", {"alpha": "geometric:0.5", "sizes": "4"}),
    "sequence-missing": ("bennett", {"terms": "100"}),
    "sizes-text": ("norm", {**HANKEL4, "sizes": "a,b"}),
    "sizes-zero": ("norm", {**HANKEL4, "sizes": "0"}),
    "sizes-empty": ("norm", {**HANKEL4, "sizes": ","}),
}


@pytest.mark.parametrize("case", sorted(BAD_FLOATS))
def test_non_finite_floats_and_non_positive_tol_are_refused(tmp_path, capsys, monkeypatch,
                                                           case):
    """The command line and a one-job sweep both exit 1 with one message,
    for every bad value of the table: floats, integers, choices, a missing
    required parameter and sizes.  Each is refused before any CAR algebra
    is built: a car-check above 14 modes, before those of 1..14 modes."""
    built = []
    monkeypatch.setattr("foguel_lab.cli.build_car", built.append)
    command, params = BAD_FLOATS[case]
    argv = [command]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert main(argv + ["--out", str(tmp_path / "flags")]) == 1
    job = {"id": 0, "command": command, "params": params}
    spec = make_sweep_spec(tmp_path / "spec.json", [job])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 1
    summary = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert capsys.readouterr().err == f"error: {summary['jobs'][0]['error']}\n"
    assert built == []


def test_an_overflowing_family_is_refused_as_non_finite_without_a_warning(tmp_path, capsys):
    # (k+1)^400 overflows from k = 5 on, and log(2)^10001 underflows to 0,
    # so a_1 = 1/0 for log and loglog; a numpy warning raised as an error
    # would end the run as an unexpected error, exit 3
    cases = [
        ("norm --target hankel --alpha power:-400 --sizes 8", "matrix entries"),
        # a finite (k+1)^150 times the weight k+1 overflows, and 0 * inf is nan
        ("norm --target hankel-deriv --alpha power:-150 --sizes 64", "matrix entries"),
        ("norm --target derivation-commutator --alpha power:-300 --sizes 8", "matrix entries"),
        ("norm --target car-commutator --alpha power:-300 --N 7", "matrix entries"),
        ("norm --target car-hankel-deriv --alpha power:-150 --N 64", "matrix entries"),
        ("norm --target hankel --alpha log:10000 --sizes 8", "matrix entries"),
        ("norm --target hankel --alpha loglog:10000 --sizes 8", "matrix entries"),
        ("bennett --sequence log --epsilon 10000 --terms 100", "sequence values"),
        ("bennett --sequence loglog --epsilon 10000 --terms 100", "sequence values"),
        # finite values whose weighted second differences overflow (299),
        # or whose proof-chain terms do (298.9)
        ("bennett --sequence loglog --epsilon 299 --terms 100", "series terms"),
        ("bennett --sequence loglog --epsilon 298.9 --terms 100", "series terms"),
        ("multiplier --kind loglog-damped --epsilon 10000 --sizes 8", "sequence values"),
    ]
    for line, what in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(line.split() + ["--out", str(tmp_path / "out")]) == 1, line
        assert capsys.readouterr().err == f"error: {what} must be finite\n", line
        assert not (tmp_path / "out").exists(), line


def test_sizes_of_another_type_and_an_unknown_command_are_refused(tmp_path):
    # a sweep job's JSON can give sizes as a number or an object; a command
    # name reaches normalize_params unchecked only from the library
    for sizes in (5, {"n": 5}):
        job = {"id": 0, "command": "norm", "params": {**HANKEL4, "sizes": sizes}}
        spec = make_sweep_spec(tmp_path / "spec.json", [job])
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert summary["jobs"][0]["error"] == "sizes must be a comma-separated string or a list"
    with pytest.raises(ValidationError, match="unknown command 'warp'"):
        normalize_params("warp", {})


BOOLEAN_FLOATS = {
    "rho": ("similarity", {"size": 8, "rho": True, "window": 4, "corner": 2}),
    "tol": ("norm", {**HANKEL4, "tol": True}),
    "epsilon": ("bennett", {"sequence": "log", "epsilon": True, "terms": 100}),
    "multiplier-epsilon": ("multiplier", {"kind": "log-damped", "epsilon": False}),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_FLOATS))
def test_boolean_floats_are_refused_in_sweeps(tmp_path, case):
    """A JSON true/false is not a number, for float parameters as for ints."""
    command, params = BOOLEAN_FLOATS[case]
    spec = make_sweep_spec(tmp_path / "spec.json", [{"id": 0, "command": command,
                                                     "params": params}])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 1
    job = json.loads((tmp_path / "out" / "sweep.json").read_text())["jobs"][0]
    assert (job["exit_code"], job["rows"]) == (1, 0)
    assert job["error"].endswith("must be a number")


REQUIRED_ONLY = {
    "car-check": {},
    "norm": {"target": "hankel", "alpha": "geometric:0.5", "sizes": "8"},
    "bennett": {"sequence": "harmonic"},
    "multiplier": {"kind": "difference-quotient"},
    "similarity": {},
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ONLY))
def test_flags_and_sweep_params_share_their_defaults(tmp_path, command):
    """A command given only its required parameters writes the same CSV
    from the command line as from a one-job sweep at the same seed."""
    params = REQUIRED_ONLY[command]
    argv = [command]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), value]
    flags, swept = tmp_path / "flags", tmp_path / "sweep"
    assert main(argv + ["--seed", "11", "--out", str(flags)]) == 0
    job = {"id": 0, "command": command, "params": params}
    spec = make_sweep_spec(tmp_path / "spec.json", [job], seed=11)
    assert main(["sweep", str(spec), "--out", str(swept)]) == 0
    family = FAMILY_OF[command]
    assert (flags / f"{family}.csv").read_bytes() == (swept / f"{family}.csv").read_bytes()


def test_the_console_entry_point_runs_in_its_own_process(tmp_path):
    """`foguel-lab` is cli.entry_point; run through `python -m`, its exit
    status is main()'s return code."""
    assert 'foguel-lab = "foguel_lab.cli:entry_point"' in (
        ROOT / "pyproject.toml").read_text(encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "foguel_lab.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    ok = run("car-check", "--modes", "2", "--out", str(tmp_path))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "car.csv").is_file()
    bad = run("car-check", "--no-such-flag", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 1
    assert "--no-such-flag" in bad.stderr
