"""The example sweep still writes the recorded CSVs ("same behaviour").

``tests/data/sweep_example`` holds the five CSVs that
``foguel-lab sweep scripts/sweep_example.json --seed 2002`` writes.  A
rerun must reproduce every text and integer cell exactly and every float
cell to |delta| <= 1e-12 * max(1, |golden|), so a change that moves a
number beyond rounding, or any label, header or row, fails here.  After
a deliberate numeric change, regenerate the files with that command
(``--out tests/data/sweep_example``, then delete ``sweep.json``) and say
which cells moved.
"""

import csv
from pathlib import Path

import pytest

from foguel_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "sweep_example"
FAMILIES = ("bennett", "car", "multiplier", "norms", "similarity")


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def cell_matches(got: str, want: str) -> bool:
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        ref = float(want)
    except ValueError:
        return got == want
    try:
        return abs(float(got) - ref) <= 1e-12 * max(1.0, abs(ref))
    except ValueError:
        return False


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_example")
    spec = ROOT / "scripts" / "sweep_example.json"
    assert main(["sweep", str(spec), "--seed", "2002", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_example_sweep_matches_the_golden_csv(sweep_out, family):
    got = read_csv(sweep_out / f"{family}.csv")
    want = read_csv(GOLDEN / f"{family}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    bad = [
        (r, c, g, w)
        for r, (grow, wrow) in enumerate(zip(got, want))
        for c, (g, w) in enumerate(zip(grow, wrow))
        if not cell_matches(g, w)
    ]
    assert all(len(g) == len(w) for g, w in zip(got, want))
    assert not bad, f"(row, column, got, golden): {bad}"
