"""The measured process: import foguel_lab, build the inputs, run rounds.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Each round makes the same calls into the program on the same inputs.
Only the calls are timed; reading back what the CLI wrote is not.  Rounds
repeat until the next one would end past ``--seconds`` (at least one).
With ``--trace 1`` the first round runs untraced and the rest traced, and
the per-layer metrics come from the traced rounds.  Results go to
``DIR/worker.json`` and the arrays to ``DIR/arrays.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import foguel_lab
    import foguel_lab.cli  # noqa: F401  (the command layer is part of the program)

    if not Path(foguel_lab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"foguel_lab imported from {foguel_lab.__file__}, not {SRC}")
    return foguel_lab


def setup(workload: str, seed: int):
    """Import the program and build the inputs; returns (program, inputs, seconds)."""
    t0 = perf_counter()
    fl = import_program()
    import inputs

    inp = inputs.build(workload, seed)
    return fl, inp, perf_counter() - t0


# ---- the calls of each workload ------------------------------------------
#
# A call is (name, run, collect): ``run()`` is timed and returns what the
# program returned; ``collect(result)`` turns it into {op: values}.


def cli_call(fl, out: Path, name: str, argv: list, collect_rows):
    """A ``foguel-lab`` command run through its main(); ops come from its JSON mirror."""
    target = out / "cli" / name.replace(" ", "_").replace(":", "")
    full = argv + ["--out", str(target)]
    family = fl.cli.FAMILY_OF[argv[0]]

    def run():
        return fl.cli.main(full)

    def collect(code):
        if code not in (0, 2):
            raise RuntimeError(f"foguel-lab {' '.join(argv)} exited {code}")
        doc = json.loads((target / f"{family}.json").read_text(encoding="utf-8"))
        return collect_rows(doc["rows"], doc["diagnostics"])

    return name, run, collect


def norm_rows(label):
    def collect(rows, diag):
        return {
            f"{label} N={r['N']}": {"value": r["value"], "sandwich": r["value"],
                                    "converged": r["converged"]}
            for r in rows
        }
    return collect


def relative_increments(rows):
    v = [r["value"] for r in rows]
    return [(b - a) / a for a, b in zip(v, v[1:])]


def similarity_calls(fl, inp, out):
    import inputs as I

    p = I.C08
    x = inp["x"]

    def c08():
        n = p["size"]
        t2 = fl.make_shift(n)
        t1 = p["rho"] * fl.make_shift(n)
        series = fl.intertwiner_partial(t2, t1, x, p["n_terms"], stab_tol=I.STAB_TOL,
                                        stab_run=I.STAB_RUN)
        rep = fl.similarity_check(fl.assemble_foguel(t2, t1, x), series.z, p["window"])
        return series, rep

    def c08_values(res):
        series, rep = res
        return {"c08 pipeline": {
            "residual_interior": rep.residual_interior,
            "residual_full": rep.residual_full,
            "conjugation_gap": abs(rep.conjugation_residual - rep.residual_full),
            "z_norm": float(series.partial_norms[-1]),
            "cond_L": rep.cond_l,
            "stabilized_at": series.stabilized_at,
            "z": series.z,
        }}

    def corner():
        n = p["size"]
        block = fl.assemble_foguel(fl.make_shift(n), p["rho"] * fl.make_shift(n), x)
        return fl.power_offdiag(block, I.CORNER_POWER)

    def command_values(rows, diag):
        r = rows[0]
        return {"similarity command": {
            "residual_interior": r["residual_interior"],
            "residual_full": r["residual_full"],
            "conjugation_gap": abs(diag["conjugation_residual"] - r["residual_full"]),
            "z_norm": diag["intertwiner_norm"],
            "cond_L": r["cond_L"],
            "stabilized_at": diag["stabilized_at"],
        }}

    q = I.SIM_CLI
    argv = ["similarity", "--size", str(q["size"]), "--rho", str(q["rho"]),
            "--n-terms", str(q["n_terms"]), "--window", str(q["window"]),
            "--corner", str(q["corner"]), "--seed", str(inp["cli_seed"])]
    return [
        ("c08 pipeline", c08, c08_values),
        ("block power corner", corner, lambda c: {"block power corner": {"corner": c}}),
        cli_call(fl, out, "similarity command", argv, command_values),
    ]


def scalar_calls(fl, inp, out):
    import inputs as I

    def sizes(ns):
        return ",".join(map(str, ns))

    def plateau(rows, diag):
        rel = relative_increments(rows)
        ops = norm_rows("commutator geometric:0.5")(rows, diag)
        ops["commutator plateau"] = {
            "max_increment": max(rel),
            "max_increment_rise": max(b - a for a, b in zip(rel, rel[1:])),
        }
        return ops

    def growth(rows, diag):
        ops = norm_rows("commutator power:1.5")(rows, diag)
        ops["commutator growth"] = {"min_increment": min(relative_increments(rows))}
        return ops

    def displacement():
        res = {}
        for n in I.DISPLACEMENT_SIZES:
            spec = fl.HankelSpec(fl.WeightSequence.geometric(0.5), n)
            y = -fl.derivation_product(spec, "gamma_d")
            res[f"displacement N={n}"] = {
                "residual": fl.sylvester_residual(y, fl.make_hankel(spec), n - 1)}
        # C09: adding any Hankel matrix leaves the interior residual alone
        n = I.DRIFT_SIZE
        spec = fl.HankelSpec(fl.WeightSequence.geometric(0.5), n)
        gamma = fl.make_hankel(spec)
        y = -fl.derivation_product(spec, "gamma_d")
        h = fl.make_hankel(fl.HankelSpec(fl.WeightSequence.custom(inp["drift_coeffs"]), n))
        res["displacement drift"] = {"drift": abs(
            fl.sylvester_residual(y, gamma, n - 1) - fl.sylvester_residual(y + h, gamma, n - 1))}
        return res

    return [
        cli_call(fl, out, "norm hankel",
                 ["norm", "--target", "hankel", "--alpha", "geometric:0.5",
                  "--sizes", sizes(I.HANKEL_SIZES)],
                 norm_rows("hankel")),
        cli_call(fl, out, "norm hankel-deriv",
                 ["norm", "--target", "hankel-deriv", "--alpha", "power:2",
                  "--sizes", sizes(I.DERIV_SIZES)],
                 norm_rows("hankel-deriv")),
        cli_call(fl, out, "norm commutator plateau",
                 ["norm", "--target", "derivation-commutator", "--alpha", "geometric:0.5",
                  "--sizes", sizes(I.LADDER_SIZES)],
                 plateau),
        cli_call(fl, out, "norm commutator growth",
                 ["norm", "--target", "derivation-commutator", "--alpha", "power:1.5",
                  "--sizes", sizes(I.LADDER_SIZES)],
                 growth),
        ("displacement", displacement, lambda res: res),
    ]


def car_calls(fl, inp, out):
    import inputs as I

    dense = ",".join(map(str, I.CAR_DENSE_SIZES))

    def car_check_values(rows, diag):
        vals = {}
        for r in rows:
            vals[f"dev_anti m={r['modes']}"] = r["dev_anti"]
            vals[f"dev_mixed m={r['modes']}"] = r["dev_mixed"]
        return {"car-check": vals}

    def whole():
        # C02: profiles supported in [0, N), every live antidiagonal whole
        res = {}
        for n, head in inp["whole"].items():
            seq = fl.WeightSequence.custom(head)
            for wname, w in (("unit", None), ("derivative", fl.derivative_weight)):
                beta, phi = fl.hankel_pattern(seq, w)
                res[f"whole {wname} N={n}"] = {
                    "value": fl.op_norm_dense(fl.car_pattern_matrix(beta, phi, n)).value,
                    "bound": fl.rc_bounds(beta, n).lower,
                }
        return res

    def cut():
        res = {}
        for n, prof in inp["cut"].items():
            sec = fl.car_hankel(fl.WeightSequence.custom(prof), fl.derivative_weight, n)
            v = fl.op_norm_dense(sec).value
            res[f"cut derivative N={n}"] = {"value": v, "sandwich": v}
        return res

    def power_rows(rows, diag):
        return {f"car-hankel power N={r['N']}": {"value": r["value"],
                                                  "converged": r["converged"]}
                for r in rows}

    return [
        cli_call(fl, out, "car-check", ["car-check", "--modes", str(I.CAR_CHECK_MODES)],
                 car_check_values),
        cli_call(fl, out, "norm car-hankel dense",
                 ["norm", "--target", "car-hankel", "--alpha", "geometric:0.5",
                  "--N", dense, "--method", "dense"], norm_rows("car-hankel")),
        cli_call(fl, out, "norm car-commutator dense",
                 ["norm", "--target", "car-commutator", "--alpha", "geometric:0.5",
                  "--N", dense, "--method", "dense"], norm_rows("car-commutator")),
        ("whole sections", whole, lambda res: res),
        ("cut sections", cut, lambda res: res),
        cli_call(fl, out, "norm car-hankel power",
                 ["norm", "--target", "car-hankel", "--alpha", "geometric:0.5",
                  "--N", ",".join(map(str, I.CAR_POWER_SIZES)),
                  "--seed", str(I.CAR_POWER_SEED)], power_rows),
    ]


def summability_calls(fl, inp, out):
    import inputs as I

    def bennett_values(name):
        def collect(rows, diag):
            r = rows[0]
            return {f"bennett {name}": {
                "sum_a": r["sum_a"], "sum_b": r["sum_b"], "sum_c": r["sum_c"],
                "second_diff_partial": r["second_diff_partial"],
                "chain_bound": diag["chain_bound"], "verdict": r["verdict"],
                "chain_dominates": diag["chain_dominates"],
            }}
        return collect

    def multiplier_values(rows, diag):
        ops = {f"multiplier N={r['N']}": {"lower_bound": r["lower_bound"]} for r in rows}
        lb = [r["lower_bound"] for r in rows]
        ops["multiplier growth"] = {"min_step": min(b - a for a, b in zip(lb, lb[1:]))}
        return ops

    def limits():
        rows_first, cols_first = fl.iterated_limits(
            fl.MultiplierSpec.difference_quotient(), I.LIMIT_INDEX, I.LIMIT_INDEX)
        return {"iterated limits": {"rows_first": rows_first, "cols_first": cols_first}}

    calls = []
    for name, sequence, eps, _ in I.BENNETT_CASES:
        argv = ["bennett", "--sequence", sequence, "--terms", str(inp["terms"][name])]
        if eps is not None:
            argv += ["--epsilon", str(eps)]
        calls.append(cli_call(fl, out, f"bennett {name}", argv, bennett_values(name)))
    calls.append(cli_call(
        fl, out, "multiplier",
        ["multiplier", "--kind", "difference-quotient",
         "--sizes", ",".join(map(str, I.MULTIPLIER_SIZES)),
         "--witnesses", str(I.MULTIPLIER_WITNESSES), "--seed", str(inp["cli_seed"])],
        multiplier_values))
    calls.append(("iterated limits", limits, lambda res: res))
    return calls


CALLS = {
    "similarity": similarity_calls,
    "scalar-sections": scalar_calls,
    "car-sections": car_calls,
    "summability": summability_calls,
}


# ---- rounds --------------------------------------------------------------


def run_round(calls, arrays: dict, index: int, errors: list):
    """One pass over the calls: ({call: seconds}, {op: {value: ...}}).

    A call that raises yields no operations; its error goes to ``errors``.
    """
    import numpy as np

    seconds = {}
    outputs = {}
    for name, run, collect in calls:
        t0 = perf_counter()
        try:
            result = run()
            error = None
        except Exception as exc:  # a failing call is counted, the round goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds[name] = perf_counter() - t0
        if error is None:
            try:
                ops = collect(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(f"round {index}, {name}: {error}")
            continue
        for op, values in ops.items():
            plain = {}
            for key, v in values.items():
                if isinstance(v, np.ndarray):
                    ref = f"r{index}|{op}|{key}"
                    arrays[ref] = v
                    plain[key] = {"$array": ref}
                elif isinstance(v, (np.floating, np.integer, np.bool_)):
                    plain[key] = v.item()
                else:
                    plain[key] = v
            outputs[op] = plain
    return seconds, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fl, inp, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    calls = CALLS[args.workload](fl, inp, out)
    arrays: dict = {}
    rounds, round_s, traced_s, calls_s, errors = [], [], [], [], []
    tracer = None
    start = perf_counter()
    while True:
        call_s, outputs = run_round(calls, arrays, len(rounds), errors)
        seconds = sum(call_s.values())
        rounds.append(outputs)
        calls_s.append(call_s)
        (traced_s if tracer else round_s).append(seconds)
        if args.trace and tracer is None:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            continue
        if perf_counter() - start + seconds > args.seconds:
            break
    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "call_s": calls_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "errors": errors,
    }
    if tracer is not None:
        result["traced_round_s"] = traced_s
        result["layers"] = spans.layer_metrics(tracer.spans, len(traced_s))
        result["tracing_overhead_s"] = statistics.median(traced_s) - statistics.median(round_s)
    import numpy as np

    np.savez(out / "arrays.npz", **arrays)
    (out / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
