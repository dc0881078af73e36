"""Command-line front end.

Subcommands
-----------
car-check    relation residuals for generator tuples of 1..M modes
norm         operator norms of the named matrix targets over a size ladder
bennett      scalar series + matrix second-difference summability report
multiplier   witness lower bounds for structured Schur multiplier sections
similarity   Sylvester-series similarity residuals for a shift-coupled block
sweep        run a batch of the above from a JSON job file

Each of the first five commands is stated once, as a :class:`Command` in
``COMMANDS``: its parameters (:class:`Param`: flag and aliases, reader,
default, choices, whether it is required), its handler, its row family
and that family's CSV fields.  The argparse subcommands, the parameter
validation that sweep jobs share (:func:`normalize_params`),
``FAMILY_OF`` and the CSV headers are all derived from it, so a flag and
the sweep parameter of the same name (``-`` read as ``_``) have one
default and one validator: argparse only names the flags and splits argv,
and a parameter's ``read`` is its value's one validator, so a bad value
gets the same message from a flag and from a sweep job.  ``NORM_TARGETS``
likewise gives each ``norm`` target the operator it norms: the shift, a
scalar ``hankel.Section`` held as its table, or for the generator-valued
targets one sparse operator; ``linalg.op_norm`` picks the route.  ``--alpha`` and ``bennett
--sequence`` name a family of ``sequences.FAMILIES``; ``multiplier
--kind`` names a ``schur.MULTIPLIER_KINDS``.

Every command writes a CSV for its row family (norms.csv, bennett.csv,
similarity.csv, car.csv or multiplier.csv) into --out, plus a JSON mirror
of the same rows with parameters and extra diagnostics.  ``sweep`` writes
all five CSVs (header-only when a family received no rows) and a
sweep.json run summary.  Output is deterministic for fixed inputs: floats
are printed with repr-faithful %.17g, files are LF-terminated UTF-8, and
rows appear in a fixed order, so re-running a command reproduces the
files byte for byte.

Randomness (witness matrices, power-iteration starts, coupling corners)
is driven by one seed with precedence: --seed, then the FOGUEL_LAB_SEED
environment variable, then the built-in default 2002; a negative seed is
refused.  Sweep jobs run with the global seed XOR the job id.

Exit codes: 0 success; 1 bad arguments or validation failure; 2 a norm
computation failed to converge (outputs are still written); 3 unexpected
internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .car import _MAX_MODES, build_car, car_check, car_pattern_operator
from .errors import ValidationError
from .foguel import assemble_foguel, intertwiner_partial, similarity_check
from .hankel import HankelSpec, Section
from .linalg import check_dense_cap, make_shift, op_norm, op_norm_dense
from .schur import (
    MULTIPLIER_KINDS, MultiplierSpec, bennett_criterion, make_multiplier, multiplier_lower_bound,
)
from .sequences import FAMILIES, FAMILY_HELP, WeightSequence, bennett_sums, family

DEFAULT_SEED = 2002
SEED_ENV_VAR = "FOGUEL_LAB_SEED"


#: ``norm`` targets: the operator of size n built from the coefficients
#: ``seq``, a scalar Section or, for the generator-valued targets, sparse.
NORM_TARGETS = {
    "shift": lambda seq, n: make_shift(n),
    "hankel": lambda seq, n: Section.of(HankelSpec(seq, n), "hankel"),
    "hankel-deriv": lambda seq, n: Section.of(HankelSpec(seq, n), "hankel-deriv"),
    "derivation-commutator": lambda seq, n: Section.of(HankelSpec(seq, n), "commutator"),
    "derivation-gamma-d": lambda seq, n: Section.of(HankelSpec(seq, n), "gamma_d"),
    "derivation-dstar-gamma": lambda seq, n: Section.of(HankelSpec(seq, n), "dstar_gamma"),
    "car-hankel": lambda seq, n: car_pattern_operator(Section.of(HankelSpec(seq, n), "hankel")),
    "car-hankel-deriv":
        lambda seq, n: car_pattern_operator(Section.of(HankelSpec(seq, n), "hankel-deriv")),
    "car-commutator":
        lambda seq, n: car_pattern_operator(Section.of(HankelSpec(seq, n), "commutator")),
}
_ALPHA_TARGETS = tuple(t for t in NORM_TARGETS if t != "shift")

#: ``bennett --sequence``: the harmonic series and the families of the
#: multiplier kinds.
_BENNETT_SEQUENCES = ("harmonic", *MULTIPLIER_KINDS.values())


# ---- parameter parsing -------------------------------------------------


def resolve_seed(explicit) -> int:
    """The seed ``explicit`` (--seed or a sweep file's), else $FOGUEL_LAB_SEED, else 2002."""
    if explicit is not None:
        return _as_int(explicit, "seed", 0)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _as_int(env, SEED_ENV_VAR, 0)
    return DEFAULT_SEED


def parse_alpha(text: str) -> WeightSequence:
    """The coefficient family ``NAME`` or ``NAME:X`` (``sequences.FAMILY_HELP``)."""
    name, sep, value = str(text).strip().partition(":")
    return family(name, _as_float(value, f"alpha {text!r} parameter") if sep else None)


def _alpha_text(text, key: str) -> str:
    parse_alpha(text)  # validate eagerly for a prompt error
    return str(text)


def parse_sizes(value, key: str = "sizes") -> list[int]:
    """Section sizes from ``"8,16,32"`` (empty items skipped) or a list."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{key} must be a comma-separated string or a list")
    if not value:
        raise ValidationError("at least one size is required")
    return [_as_int(item, key, 1) for item in value]


def _as_int(value, key: str, lo: int | None = None, hi: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        try:
            value = int(str(value))
        except (TypeError, ValueError):
            raise ValidationError(f"{key} must be an integer") from None
    value = int(value)
    if lo is not None and value < lo:
        raise ValidationError(f"{key} must be >= {lo}")
    if value > hi:
        raise ValidationError(f"{key} must be <= {hi}")
    return value


def _as_float(value, key: str, positive: bool = False) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"{key} must be a number")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    if positive and value <= 0:
        raise ValidationError(f"{key} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Param:
    """One parameter: flag ``--name`` (``_`` written ``-``), sweep key ``name``.

    argparse only names the flag and passes its text on; ``read(value,
    name)`` is the value's one validator, for a flag and a sweep key alike,
    and returns its canonical form (``_as_int``, ``_as_float``,
    ``parse_sizes``, ...; the default reader keeps the value as it is).
    A value outside ``choices`` is refused before it is read.
    ``applies=(key, values, unused)`` makes the parameter required when
    the earlier parameter ``key`` is one of ``values``; otherwise it is
    dropped, or refused with the message ``unused`` when one is given.
    """

    name: str
    read: Callable = lambda value, name: value
    default: object = None
    required: bool = False
    choices: tuple = ()
    applies: tuple = ()
    aliases: tuple = ()
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def normalize(self, value, canon: dict):
        if self.applies:
            key, values, unused = self.applies
            if canon[key] not in values:
                if value is not None and unused:
                    raise ValidationError(unused)
                return None
            if value is None:
                raise ValidationError(f"{key} {canon[key]!r} requires {self.flag}")
        if self.required and value is None:
            raise ValidationError(f"missing required parameter {self.name!r}")
        if self.choices and value not in self.choices:
            raise ValidationError(
                f"{self.name} must be one of {', '.join(self.choices)}, not {value!r}"
            )
        return self.read(value, self.name)


def normalize_params(command: str, params: dict) -> dict:
    """Coerce a raw parameter mapping to its canonical, serializable form.

    Shared by the argparse path and sweep jobs so that both validate and
    execute identically; a name the command does not declare is refused,
    and parameters are checked in their declared order.
    """
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    unknown = sorted(set(params) - {prm.name for prm in COMMANDS[command].params})
    if unknown:
        raise ValidationError(f"unknown {command} parameters: {', '.join(unknown)}")
    canon = {}
    for prm in COMMANDS[command].params:
        canon[prm.name] = prm.normalize(params.get(prm.name, prm.default), canon)
    return canon


# ---- command handlers --------------------------------------------------


def _run_car_check(p: dict, seed: int):
    rows = []
    for m in range(1, p["modes"] + 1):
        dev_anti, dev_mixed = car_check(build_car(m))
        rows.append({"modes": m, "dev_anti": float(dev_anti), "dev_mixed": float(dev_mixed)})
    diag = {f"max_{dev}": max(row[dev] for row in rows) for dev in ("dev_anti", "dev_mixed")}
    return rows, diag, 0


def _run_norm(p: dict, seed: int):
    seq = parse_alpha(p["alpha"]) if p["alpha"] is not None else None
    param = seq.describe() if seq is not None else None
    target = NORM_TARGETS[p["target"]]
    rows = []
    code = 0
    for n in p["sizes"]:
        est = op_norm(target(seq, n), p["method"], p["tol"], p["max_iter"], seed)
        rows.append(
            {
                "target": p["target"],
                "N": int(n),
                "param": param,
                "method": est.method,
                "value": float(est.value),
                "iters": int(est.iterations),
                "converged": bool(est.converged),
            }
        )
        if not est.converged:
            code = 2
    diag = {"tol": p["tol"], "max_iter": p["max_iter"]}
    return rows, diag, code


def _run_bennett(p: dict, seed: int):
    seq = family(p["sequence"], p["epsilon"])
    rep = bennett_sums(seq, p["terms"])
    mrep = bennett_criterion(MultiplierSpec(seq), p["terms"])
    all_ok = all(rep.verdicts) and mrep.verdict
    row = {
        "sequence": p["sequence"],
        "epsilon": p["epsilon"],
        "terms": int(p["terms"]),
        "sum_a": float(rep.sum_a_over_n),
        "sum_b": float(rep.sum_abs_diff1),
        "sum_c": float(rep.sum_weighted_diff2),
        "second_diff_partial": float(mrep.total),
        "verdict": "convergent-looking" if all_ok else "divergent-looking",
    }
    diag = {
        "series_start": int(rep.n_start),
        "series_decade_increments": [list(map(float, t)) for t in rep.decade_increments],
        "series_verdicts": [bool(v) for v in rep.verdicts],
        "matrix_decade_increments": list(map(float, mrep.decade_increments)),
        "matrix_verdict": bool(mrep.verdict),
        "row_tail": float(mrep.row_tail),
        "col_tail": float(mrep.col_tail),
        "chain_bound": float(rep.chain_bound),
        "chain_dominates": bool(mrep.total <= rep.chain_bound + 1e-12),
    }
    return [row], diag, 0


def _run_multiplier(p: dict, seed: int):
    spec = MultiplierSpec(family(MULTIPLIER_KINDS[p["kind"]], p["epsilon"]))
    rows = []
    probes = {}
    for n in p["sizes"]:
        probe = multiplier_lower_bound(make_multiplier(spec, n), p["witnesses"], seed)
        rows.append(
            {
                "kind": p["kind"],
                "epsilon": p["epsilon"],
                "N": int(n),
                "witnesses": int(p["witnesses"]),
                "lower_bound": float(probe.lower_bound),
                "seed": int(seed),
            }
        )
        probes[str(n)] = {
            "best_witness": probe.best_witness,
            "ratios": [[name, float(v)] for name, v in probe.ratios],
        }
    return rows, {"probes": probes}, 0


def _run_similarity(p: dict, seed: int):
    n, corner = p["size"], p["corner"]
    if corner > n:
        raise ValidationError("corner must not exceed size")
    if p["window"] > n:
        raise ValidationError("window must not exceed size")
    check_dense_cap((2 * n, 2 * n))  # the Foguel block, before its operands are built
    t2 = make_shift(n)
    t1 = p["rho"] * make_shift(n)
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((corner, corner)) + 1j * rng.standard_normal(
        (corner, corner)
    )
    block = block / op_norm_dense(block).value
    x = np.zeros((n, n), dtype=np.complex128)
    x[:corner, :corner] = block
    foguel = assemble_foguel(t2, t1, x)
    series = intertwiner_partial(t2, t1, x, p["n_terms"], stab_tol=1e-10)
    rep = similarity_check(foguel, series.z, p["window"])
    row = {
        "N": int(n),
        "rho": float(p["rho"]),
        "n_terms": int(p["n_terms"]),
        "window": int(p["window"]),
        "residual_interior": float(rep.residual_interior),
        "residual_full": float(rep.residual_full),
        "cond_L": float(rep.cond_l),
    }
    diag = {
        "conjugation_residual": float(rep.conjugation_residual),
        "stabilized_at": series.stabilized_at,
        "last_term_norm": float(series.term_norms[-1]),
        "intertwiner_norm": float(series.partial_norms[-1]),
        "corner": int(corner),
    }
    return [row], diag, 0


@dataclass(frozen=True)
class Command:
    """A subcommand: its parameters, handler, row family and CSV fields.

    ``run(canonical_params, seed)`` returns (rows, diagnostics, exit code).
    """

    help: str
    params: tuple
    run: Callable
    family: str
    fields: tuple


_SIZES_HELP = "comma-separated section sizes"

COMMANDS = {
    "car-check": Command(
        "anticommutation residual sweep",
        (Param("modes", partial(_as_int, lo=1, hi=_MAX_MODES), 6,
               help="check 1..MODES generators"),),
        _run_car_check,
        family="car",
        fields=("modes", "dev_anti", "dev_mixed"),
    ),
    "norm": Command(
        "operator norms over a size ladder",
        (
            Param("target", required=True, choices=tuple(NORM_TARGETS)),
            Param("sizes", parse_sizes, required=True, aliases=("--N",),
                  help=_SIZES_HELP),
            Param("alpha", _alpha_text,
                  applies=("target", _ALPHA_TARGETS,
                           "alpha does not apply to the shift target"),
                  help=f"coefficients: {FAMILY_HELP}"),
            Param("method", default="auto", choices=("auto", "dense", "power"),
                  help="norm route (auto: dense when within the size cap)"),
            Param("tol", partial(_as_float, positive=True), 1e-10,
                  help="power-iteration tolerance; bound on the dense relative residual"),
            Param("max_iter", partial(_as_int, lo=1), 1000),
        ),
        _run_norm,
        family="norms",
        fields=("target", "N", "param", "method", "value", "iters", "converged"),
    ),
    "bennett": Command(
        "summability report for a coefficient series",
        (
            Param("sequence", required=True, choices=_BENNETT_SEQUENCES),
            Param("epsilon", _as_float, applies=(
                "sequence", tuple(s for s in _BENNETT_SEQUENCES if FAMILIES[s][1]),
                "epsilon only applies to the log/loglog sequences")),
            Param("terms", partial(_as_int, lo=10), 10000),
        ),
        _run_bennett,
        family="bennett",
        fields=("sequence", "epsilon", "terms", "sum_a", "sum_b", "sum_c",
                "second_diff_partial", "verdict"),
    ),
    "multiplier": Command(
        "witness lower bounds for multiplier sections",
        (
            Param("kind", required=True, choices=tuple(MULTIPLIER_KINDS)),
            Param("epsilon", _as_float, applies=(
                "kind", tuple(k for k, fam in MULTIPLIER_KINDS.items() if FAMILIES[fam][1]),
                "epsilon only applies to the damped kinds")),
            Param("sizes", parse_sizes, "16,32,64", help=_SIZES_HELP),
            Param("witnesses", partial(_as_int, lo=1), 3),
        ),
        _run_multiplier,
        family="multiplier",
        fields=("kind", "epsilon", "N", "witnesses", "lower_bound", "seed"),
    ),
    "similarity": Command(
        "Sylvester-series similarity residuals",
        (
            Param("size", partial(_as_int, lo=2), 64),
            Param("rho", _as_float, 0.9, help="contraction factor of T1"),
            Param("n_terms", partial(_as_int, lo=1), 100),
            Param("window", partial(_as_int, lo=1), 32),
            Param("corner", partial(_as_int, lo=1), 16, help="support of the coupling X"),
        ),
        _run_similarity,
        family="similarity",
        fields=("N", "rho", "n_terms", "window", "residual_interior",
                "residual_full", "cond_L"),
    ),
}

FAMILY_OF = {name: cmd.family for name, cmd in COMMANDS.items()}
ROW_FIELDS = {cmd.family: cmd.fields for cmd in COMMANDS.values()}


# ---- output writers ----------------------------------------------------


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_family_csv(path: Path, family: str, rows: list[dict]) -> None:
    fields = ROW_FIELDS[family]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([format_cell(row[k]) for k in fields])


def write_json_mirror(
    path: Path, command: str, seed: int, params: dict, rows: list, diagnostics: dict
) -> None:
    doc = {
        "schema": 1,
        "command": command,
        "seed": seed,
        "params": params,
        "rows": rows,
        "diagnostics": diagnostics,
    }
    _write_json(path, doc)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_command(command: str, params: dict, seed: int, out_dir: Path) -> int:
    canon = normalize_params(command, params)
    rows, diagnostics, code = COMMANDS[command].run(canon, seed)
    family = FAMILY_OF[command]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_family_csv(out_dir / f"{family}.csv", family, rows)
    write_json_mirror(
        out_dir / f"{family}.json", command, seed, canon, rows, diagnostics
    )
    return code


# ---- sweep -------------------------------------------------------------


def load_sweep_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"sweep spec not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"sweep spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValidationError('sweep spec must be a JSON object with "schema": 1')
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValidationError("sweep seed must be an integer")
    jobs = doc.get("jobs")
    if not isinstance(jobs, list):
        raise ValidationError('sweep spec needs a "jobs" array')
    seen = set()
    for job in jobs:
        if not isinstance(job, dict):
            raise ValidationError("each job must be a JSON object")
        jid = job.get("id")
        if isinstance(jid, bool) or not isinstance(jid, int) or jid < 0:
            raise ValidationError("job ids must be non-negative integers")
        if jid in seen:
            raise ValidationError(f"duplicate job id {jid}")
        seen.add(jid)
        if job.get("command") not in COMMANDS:
            raise ValidationError(f"unknown job command {job.get('command')!r}")
        if not isinstance(job.get("params", {}), dict):
            raise ValidationError("job params must be a JSON object")
    return doc


def run_sweep(spec_path: str, cli_seed: str | None, out_dir: Path) -> int:
    doc = load_sweep_spec(spec_path)
    explicit = cli_seed if cli_seed is not None else doc.get("seed")
    global_seed = resolve_seed(explicit)
    jobs = sorted(doc["jobs"], key=lambda j: j["id"])
    family_rows = {family: [] for family in ROW_FIELDS}
    summaries = []
    overall = 0
    for job in jobs:
        jid = job["id"]
        command = job["command"]
        job_seed = global_seed ^ jid
        entry = {"id": jid, "command": command, "seed": job_seed, "rows": 0}
        try:
            canon = normalize_params(command, job.get("params", {}))
            rows, _, code = COMMANDS[command].run(canon, job_seed)
            family_rows[FAMILY_OF[command]].extend(rows)
            entry["family"] = FAMILY_OF[command]
            entry["rows"] = len(rows)
        except ValidationError as exc:
            entry["error"] = str(exc)
            code = 1
        except Exception as exc:  # keep the batch going; surface at the end
            entry["error"] = f"{type(exc).__name__}: {exc}"
            code = 3
        entry["exit_code"] = code
        overall = max(overall, code)
        summaries.append(entry)
    out_dir.mkdir(parents=True, exist_ok=True)
    for family in sorted(ROW_FIELDS):
        write_family_csv(out_dir / f"{family}.csv", family, family_rows[family])
    summary = {
        "schema": 1,
        "command": "sweep",
        "seed": global_seed,
        "params": {"spec": str(spec_path)},
        "jobs": summaries,
        "exit_code": overall,
    }
    _write_json(out_dir / "sweep.json", summary)
    return overall


# ---- argparse plumbing -------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default=".", help="output directory (default: .)")
    sp.add_argument("--seed", help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foguel-lab",
        description="Finite-section laboratory for shift/Hankel block operators, "
        "generator-valued matrices and Schur multiplier diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for prm in cmd.params:
            metavar = "{%s}" % ",".join(prm.choices) if prm.choices else None
            sp.add_argument(prm.flag, *prm.aliases, dest=prm.name, default=prm.default,
                            metavar=metavar, help=prm.help)
        _add_common(sp)

    sp = sub.add_parser("sweep", help="run a JSON-described batch of jobs")
    sp.add_argument("spec", help="path to the sweep JSON file")
    _add_common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out_dir = Path(args.out)
    try:
        if args.command == "sweep":
            return run_sweep(args.spec, args.seed, out_dir)
        params = {p.name: getattr(args, p.name) for p in COMMANDS[args.command].params}
        seed = resolve_seed(args.seed)
        return run_command(args.command, params, seed, out_dir)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
