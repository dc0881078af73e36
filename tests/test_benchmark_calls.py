"""The library calls the benchmark makes directly still run and score.

``perfbench/worker.py`` calls some library functions itself rather than
through the command line: ``hankel_pattern``, ``car_pattern_matrix``,
``rc_bounds`` and ``car_hankel`` in the car-sections workload, the
Hankel builders with ``sylvester_residual`` in the scalar-sections one,
``assemble_foguel`` with ``power_offdiag`` in the similarity one, and
``iterated_limits`` of ``MultiplierSpec.difference_quotient()`` in the
summability one.  A change to their signatures or results would
otherwise show only when the benchmark runs.  One round of each such
call is run here and scored by the benchmark's own oracles, which never
import the package; and every package name the worker's source uses
must resolve, so that removing one fails here first.
"""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

SEED = 7


WORKLOADS = {
    # workload: (worker's calls, oracle, calls run here, prefix of their ops)
    "car-sections": ("car_calls", "expect_car", ("whole sections", "cut sections"),
                     ("whole ", "cut ")),
    "scalar-sections": ("scalar_calls", "expect_scalar", ("displacement",),
                        ("displacement ",)),
    "similarity": ("similarity_calls", "expect_similarity", ("block power corner",),
                   ("block power corner",)),
    "summability": ("summability_calls", "expect_summability", ("iterated limits",),
                    ("iterated limits",)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_direct_library_calls_score_correct(tmp_path, workload):
    make_calls, expect, names, prefixes = WORKLOADS[workload]
    fl, inp, _ = worker.setup(workload, SEED)
    calls = [c for c in getattr(worker, make_calls)(fl, inp, tmp_path) if c[0] in names]
    assert sorted(c[0] for c in calls) == sorted(names)
    errors: list = []
    got: dict = {}
    _, outputs = worker.run_round(calls, got, 0, errors)
    assert not errors
    for values in outputs.values():
        for key, v in values.items():
            if isinstance(v, dict) and "$array" in v:
                values[key] = got[v["$array"]]
    full, arrays = getattr(oracles, expect)(inp)
    scored = {op: c for op, c in full.items() if op.startswith(prefixes)}
    verdict = checks.evaluate(scored, [outputs], ref_arrays=arrays)
    assert (verdict["failed"], verdict["unexpected"]) == (0, []), verdict["notes"]
    assert verdict["attempted"] == len(scored) > 0


def test_every_package_name_the_worker_uses_resolves():
    fl = worker.import_program()
    source = Path(worker.__file__).read_text(encoding="utf-8")
    names = set(re.findall(r"\bfl\.(\w+(?:\.\w+)?)", source))
    assert {"WeightSequence.custom", "MultiplierSpec.difference_quotient", "cli.main"} <= names
    for name in sorted(names):
        obj = fl
        for part in name.split("."):
            assert hasattr(obj, part), f"perfbench/worker.py uses fl.{name}"
            obj = getattr(obj, part)
