"""Shared test configuration.

Property tests keep example counts modest: every property here wraps a
numerical routine whose cost is a dense decomposition, not a pure
function, and the suite as a whole has a hard runtime budget.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from foguel_lab import build_car

settings.register_profile(
    "lab",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def generator_section(section, size, mode_of):
    """sum_t B_t (x) C_{mode_of(t)} over the antidiagonals t live in section(size).

    B_t keeps the section's entries on antidiagonal t, and the algebra has
    the modes that the largest mode_of(t) needs.  The caller picks the
    generator of each live antidiagonal; nothing here goes through
    ``car_pattern_operator``.
    """
    coeffs = np.asarray(section(size), dtype=float)
    anti = np.add.outer(np.arange(size), np.arange(size))
    live = np.unique(anti[coeffs != 0.0])
    gens = build_car(max(mode_of(t) for t in live) + 1)
    out = sp.csr_matrix((size * gens[0].shape[0],) * 2)
    for t in live:
        b_t = np.where(anti == t, coeffs, 0.0)
        out = out + sp.kron(b_t, gens[mode_of(t)], format="csr")
    return out
