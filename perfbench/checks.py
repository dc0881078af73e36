"""Check specifications and the verdict over a run's outputs.

An oracle describes what each operation must return as a mapping
``{op: {value: check}}``; a check is a small JSON-ready dict built by the
helpers below.  The measured worker reports ``{op: {value: ...}}`` per
round.  :func:`evaluate` applies every check to every round and counts
the operations attempted and failed.

An operation fails when it has no output (the call that makes it raised
or exited with an error), when a value is missing, or when any of its
checks fails.  Failures of the operations a workload lists as known
faults are counted and nothing more; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 16.0


def rel(ref: float, rtol: float) -> dict:
    """|value - ref| <= rtol |ref|; the relative error counts towards digits."""
    return {"kind": "rel", "ref": float(ref), "rtol": float(rtol)}


def within(lo: float, hi: float) -> dict:
    """lo <= value <= hi."""
    return {"kind": "range", "lo": float(lo), "hi": float(hi)}


def near_zero(atol: float) -> dict:
    """|value| <= atol, for residuals whose exact value is 0."""
    return {"kind": "abs", "atol": float(atol)}


def equals(ref) -> dict:
    """value == ref exactly (flags, counts, verdict strings)."""
    return {"kind": "eq", "ref": ref}


def array(key: str, rtol: float) -> dict:
    """max|value - ref| <= rtol max|ref| for an array saved under ``key``."""
    return {"kind": "array", "ref": key, "rtol": float(rtol)}


def apply(check: dict, value, ref_arrays=None):
    """(passed, relative error or None) of one check on one value."""
    kind = check["kind"]
    if kind == "eq":
        return value == check["ref"], None
    if kind == "array":
        ref = ref_arrays[check["ref"]]
        got = np.asarray(value)
        if got.shape != ref.shape or not np.isfinite(got).all():
            return False, math.inf
        scale = float(np.abs(ref).max())
        err = float(np.abs(got - ref).max()) / scale
        return err <= check["rtol"], err
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False, math.inf if kind == "rel" else None
    value = float(value)
    if not math.isfinite(value):
        return False, math.inf if kind == "rel" else None
    if kind == "rel":
        err = abs(value - check["ref"]) / abs(check["ref"])
        return err <= check["rtol"], err
    if kind == "range":
        return check["lo"] <= value <= check["hi"], None
    if kind == "abs":
        return abs(value) <= check["atol"], None
    raise ValueError(f"unknown check kind {kind!r}")


def digits(err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if err <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def evaluate(expect: dict, rounds: list, known_faults=(), ref_arrays=None) -> dict:
    """Apply ``expect`` to every round of outputs.

    Returns attempted/failed counts, the failing operations outside
    ``known_faults`` (``unexpected``), the worst digits over every value
    checked with a relative error, failed operations included, where
    they occur, and one line per failing check of the first round.
    """
    attempted = failed = 0
    unexpected = set()
    worst, worst_at = DIGITS_CAP, None
    notes = []
    for r, outputs in enumerate(rounds):
        extra = set(outputs) - set(expect)
        if extra:
            raise ValueError(f"outputs for unchecked operations: {sorted(extra)}")
        for op, checks in expect.items():
            attempted += 1
            values = outputs.get(op)
            problems = []
            if values is None:
                problems.append("no output")
            else:
                for name, check in checks.items():
                    if name not in values:
                        problems.append(f"{name} missing")
                        continue
                    ok, err = apply(check, values[name], ref_arrays)
                    if err is not None and digits(err) < worst:
                        worst, worst_at = digits(err), f"{op}: {name}"
                    if not ok:
                        shown = values[name]
                        if check["kind"] == "array":
                            shown = f"array, relative error {err:.3e}"
                        problems.append(f"{name}={shown!r} fails {check}")
            if problems:
                failed += 1
                if op not in known_faults:
                    unexpected.add(op)
                if r == 0:
                    notes.extend(f"{op}: {p}" for p in problems)
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": sorted(unexpected),
        "digits": worst,
        "digits_at": worst_at,
        "notes": notes,
    }
