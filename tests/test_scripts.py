"""The example scripts run end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["similarity_demo.py", "--size", "32", "--corner", "8", "--n-terms", "40",
         "--window", "16"],
        ["growth_contrast.py", "--sizes", "16,32"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
