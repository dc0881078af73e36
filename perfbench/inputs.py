"""Seeded inputs shared by the measured worker and the oracle process.

Only numpy and scipy are used here, never ``foguel_lab``: the oracle
process must rebuild exactly the inputs the program received without
importing the program.  Every workload runs the same operations on inputs
of the same size whatever the seed; the seed only changes values.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

WORKLOADS = ("similarity", "scalar-sections", "car-sections", "summability")

# similarity: the C08 pipeline, the block power corner and the CLI command
C08 = {"size": 256, "rho": 0.9, "corner": 64, "n_terms": 250, "window": 128}
CORNER_POWER = 16
SIM_CLI = {"size": 128, "rho": 0.9, "n_terms": 150, "window": 64, "corner": 32}
STAB_TOL = 1e-10
STAB_RUN = 10

# scalar-sections
HANKEL_SIZES = (256, 512, 1024, 2048)
DERIV_SIZES = (128, 256, 512, 1024)
LADDER_SIZES = (64, 128, 256, 512)
DISPLACEMENT_SIZES = (64, 256, 512)
DRIFT_SIZE = 128

# car-sections
CAR_CHECK_MODES = 10
CAR_DENSE_SIZES = (2, 3, 4, 5)
CAR_CUT_RANDOM_SIZES = (2, 3, 4)
CAR_POWER_SIZES = (6, 7)
#: The power-route norms run at the CLI's default seed, not the workload's:
#: their two known faults must not depend on ``--seed``.
CAR_POWER_SEED = 2002

# summability: (name, CLI sequence, epsilon, base number of terms)
BENNETT_CASES = (
    ("harmonic", "harmonic", None, 10**7),
    ("log1", "log", 1.0, 10**6),
    ("loglog1", "loglog", 1.0, 10**6),
)
#: The seed moves each term count down by less than this, so the work
#: stays within 0.1% of the same on every seed.
TERMS_JITTER = 1000
MULTIPLIER_SIZES = (16, 32, 64, 128)
MULTIPLIER_WITNESSES = 5
LIMIT_INDEX = 10**4


def cli_seed(seed: int) -> int:
    """The seed handed to seeded CLI commands."""
    return abs(int(seed)) % 2**32


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), WORKLOADS.index(workload)])


def build(workload: str, seed: int) -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(seed, workload)
    if workload == "similarity":
        c = C08["corner"]
        blk = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        blk /= sla.svdvals(blk)[0]
        x = np.zeros((C08["size"], C08["size"]), dtype=np.complex128)
        x[:c, :c] = blk
        return {"x": x, "cli_seed": cli_seed(seed)}
    if workload == "scalar-sections":
        return {"drift_coeffs": rng.standard_normal(2 * DRIFT_SIZE - 1)}
    if workload == "car-sections":
        return {
            "whole": {n: rng.standard_normal(n) for n in CAR_DENSE_SIZES},
            "cut": {n: rng.standard_normal(2 * n - 1) for n in CAR_CUT_RANDOM_SIZES},
        }
    jitter = rng.integers(0, TERMS_JITTER, size=len(BENNETT_CASES))
    return {
        "terms": {
            name: int(base - j)
            for (name, _, _, base), j in zip(BENNETT_CASES, jitter)
        },
        "cli_seed": cli_seed(seed),
    }


#: Operations that fail on every run because of a fault in the program;
#: they are counted in ``failed`` and do not make a run incorrect.
KNOWN_FAULTS = {
    "car-sections": ("car-hankel power N=6", "car-hankel power N=7"),
}
