"""Command-line surface: files, formats, seeds, exit codes."""

import csv
import json
from pathlib import Path

import pytest

from foguel_lab import HankelSpec, WeightSequence, bennett_sums
from foguel_lab.cli import (
    DEFAULT_SEED,
    FAMILY_OF,
    SEED_ENV_VAR,
    main,
    parse_alpha,
    resolve_seed,
)


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---- argument plumbing -------------------------------------------------


def test_parse_alpha_families():
    assert parse_alpha("pisier-flat").describe() == "pisier-flat"
    assert parse_alpha("geometric:0.5").value(3) == 0.5**3
    assert parse_alpha("harmonic").value(2) == 0.5
    # damped families arrive pre-shifted so the section starts at index 1
    assert parse_alpha("log:1.0").start_index == 1


def test_parse_alpha_rejects_junk():
    from foguel_lab import ValidationError

    with pytest.raises(ValidationError):
        parse_alpha("fibonacci")
    with pytest.raises(ValidationError):
        parse_alpha("geometric:abc")


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


def test_bennett_row_matches_library(tmp_path):
    rc = main(
        ["bennett", "--sequence", "harmonic", "--terms", "1000", "--out", str(tmp_path)]
    )
    assert rc == 0
    row = read_csv(tmp_path / "bennett.csv")[1]
    rep = bennett_sums(WeightSequence.harmonic(), 1000)
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
    assert "seed must be >= 0" in capsys.readouterr().err


def test_unknown_flags_exit_one(tmp_path):
    assert main(["norm", "--target", "warp-drive", "--out", str(tmp_path)]) == 1
    assert main(["no-such-command"]) == 1


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
}


@pytest.mark.parametrize("case", sorted(BAD_FLOATS))
def test_non_finite_floats_and_non_positive_tol_are_refused(tmp_path, capsys, case):
    """The command line and a one-job sweep both exit 1 with one message."""
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
