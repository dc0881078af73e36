"""The benchmark's checks catch wrong answers; its known faults count as failed.

    python3 -m pytest perfbench/test_checks.py

Every check the oracles emit is tried on a value just inside its
tolerance (it must pass) and one just beyond it (it must fail).  The two
power-route norms of car-sections are run for real and must come out
attempted and failed, not skipped, without making the run incorrect.
"""

import math

import numpy as np
import pytest

import checks as C
import inputs as I
import oracles
import worker

SEED = 7


def edge_values(check: dict, arrays: dict):
    """(a value just inside the check's tolerance, one just beyond it)."""
    kind = check["kind"]
    if kind == "rel":
        ref, rtol = check["ref"], check["rtol"]
        return ref * (1 + 0.99 * rtol), ref * (1 + 1.01 * rtol)
    if kind == "abs":
        return -check["atol"], math.nextafter(check["atol"], math.inf)
    if kind == "range":
        if math.isfinite(check["hi"]):
            return check["hi"], math.nextafter(check["hi"], math.inf)
        return check["lo"], math.nextafter(check["lo"], -math.inf)
    if kind == "eq":
        ref = check["ref"]
        if isinstance(ref, bool):
            return ref, not ref
        if isinstance(ref, int):
            return ref, ref + 1
        if ref is None:
            return None, 0
        return ref, ref + "?"
    ref = arrays[check["ref"]]
    at = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    step = check["rtol"] * np.abs(ref).max()
    inside, outside = ref.copy(), ref.copy()
    inside[at] += 0.99 * step
    outside[at] += 1.01 * step
    return inside, outside


@pytest.mark.parametrize("workload", I.WORKLOADS)
def test_each_check_fails_just_beyond_its_tolerance(workload):
    expect, arrays = oracles.EXPECT[workload](I.build(workload, SEED))
    tried = 0
    for op, checks in expect.items():
        for name, check in checks.items():
            inside, outside = edge_values(check, arrays)
            assert C.apply(check, inside, arrays)[0], (op, name, check)
            assert not C.apply(check, outside, arrays)[0], (op, name, check)
            tried += 1
    assert tried >= len(expect)


def test_a_wrong_answer_outside_the_known_faults_makes_the_run_incorrect():
    expect = {"a": {"value": C.rel(2.0, 1e-10)}, "b": {"value": C.rel(3.0, 1e-10)}}
    outputs = {"a": {"value": 2.0}, "b": {"value": 3.0 * (1 + 1e-9)}}
    verdict = C.evaluate(expect, [outputs], known_faults=("a",))
    assert (verdict["attempted"], verdict["failed"], verdict["unexpected"]) == (2, 1, ["b"])
    verdict = C.evaluate(expect, [outputs], known_faults=("b",))
    assert (verdict["failed"], verdict["unexpected"]) == (1, [])
    assert verdict["digits"] == pytest.approx(9.0, abs=0.01)


def test_a_missing_operation_counts_as_failed():
    expect = {"a": {"value": C.rel(2.0, 1e-10)}}
    verdict = C.evaluate(expect, [{}])
    assert (verdict["attempted"], verdict["failed"], verdict["unexpected"]) == (1, 1, ["a"])


def test_known_power_faults_are_attempted_and_failed(tmp_path):
    fl, inp, _ = worker.setup("car-sections", SEED)
    power = [c for c in worker.car_calls(fl, inp, tmp_path) if c[0] == "norm car-hankel power"]
    errors: list = []
    rounds = [worker.run_round(power, {}, r, errors)[1] for r in range(2)]
    assert not errors
    faults = I.KNOWN_FAULTS["car-sections"]
    assert sorted(rounds[0]) == sorted(faults)
    expect, _ = oracles.expect_car(inp)
    verdict = C.evaluate({op: expect[op] for op in faults}, rounds, faults)
    # every round attempts both and fails both, so the failed share is fixed
    assert (verdict["attempted"], verdict["failed"], verdict["unexpected"]) == (4, 4, [])
    # N=6 stops at max_iter unconverged; N=7 claims convergence 4e-6 off
    assert rounds[0]["car-hankel power N=6"]["converged"] is False
    assert rounds[0]["car-hankel power N=7"]["converged"] is True
    assert verdict["digits"] < 6.0
