"""The foguel-lab benchmark: one workload per run, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Three kinds of child process run one
after another: the oracle (``oracles.py``), a few set-up-only workers, and
the measured worker (``worker.py``).  The last line of standard output is
the result as one JSON object; everything before it is provenance and
notes.  Outputs of the last run of each workload stay in
``perfbench/out/<workload>/``.
"""

import os

# Fix BLAS threads before anything imports numpy; children inherit them.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only processes per run; the measured worker's own set-up is one
#: more sample, and setup_s is the median of them all.
SETUP_REPEATS = 6
#: Every child must end within this many seconds of the start of the run.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def child(argv: list, deadline: float) -> str:
    """Run a Python child to completion in the checkout root; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for {argv[0]}")
    try:
        proc = subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{argv[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def provenance(args, argv) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "argv": argv,
    }


def resolve_arrays(rounds: list, arrays) -> list:
    for outputs in rounds:
        for values in outputs.values():
            for key, v in values.items():
                if isinstance(v, dict) and "$array" in v:
                    values[key] = arrays[v["$array"]]
    return rounds


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "foguel_lab" / "__init__.py").is_file():
        print(f"error: no foguel_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", args.seed]
    try:
        child([HERE / "oracles.py", *common, "--out", out / "oracle.json"], deadline)
        setup = [json.loads(child([HERE / "worker.py", *common, "--setup-only"],
                                  deadline))["setup_s"] for _ in range(SETUP_REPEATS)]
        child([HERE / "worker.py", *common, "--seconds", args.seconds,
               "--trace", args.trace, "--out", out], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    with np.load(out / "arrays.npz") as got, np.load(out / "oracle.npz") as ref:
        rounds = resolve_arrays(result["rounds"], dict(got))
        verdict = checks.evaluate(
            json.loads((out / "oracle.json").read_text(encoding="utf-8")), rounds,
            inputs.KNOWN_FAULTS.get(args.workload, ()), dict(ref))

    prov = provenance(args, argv)
    print("provenance " + json.dumps(prov))
    for line in result["errors"] + verdict["notes"]:
        print("note " + line)
    print(f"worst digits {verdict['digits']:.3f} at {verdict['digits_at']}")
    print(f"rounds {len(result['round_s'])} untraced, "
          f"{len(result.get('traced_round_s', []))} traced; "
          f"unexpected failures: {verdict['unexpected'] or 'none'}")
    if args.trace:
        print(f"tracing overhead {result['tracing_overhead_s']:.4f} s per round "
              "(median traced minus median untraced round)")
        metrics = {name: {"value": value, "unit": spans.METRICS[name]}
                   for name, value in result["layers"].items()}
    else:
        setup.append(result["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(result["round_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "oracle_digits": {"value": verdict["digits"], "unit": "digits"},
        }
    (out / "provenance.json").write_text(json.dumps(prov, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not verdict["unexpected"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
