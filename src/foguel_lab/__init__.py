"""foguel-lab: finite-section experiments with shift-coupled block operators.

The package builds truncations of the operator-theoretic objects that
appear around power-bounded-but-not-similar examples — Hankel sections,
derivation commutators, matrices with anticommuting generator entries,
2x2 Foguel-type blocks — and checks the identities and norm bounds that
the infinite-dimensional theory predicts, always through at least two
independent computational routes.
"""

from .car import (
    RowColBounds,
    build_car,
    car_check,
    car_hankel,
    car_pattern_matrix,
    car_pattern_operator,
    commutator_pattern,
    hankel_pattern,
    rc_bounds,
)
from .errors import SizeCapExceededError, ValidationError
from .foguel import (
    INTERTWINER_TERMS_CAP,
    FoguelBlock,
    IntertwinerResult,
    SimilarityReport,
    VonNeumannReport,
    antidiag_partial_sum,
    antidiag_shift_form,
    assemble_foguel,
    circle_sup,
    intertwiner_partial,
    poly_eval_matrix,
    power_offdiag,
    similarity_check,
    von_neumann_probe,
)
from .hankel import (
    HankelSpec,
    derivation_matrix,
    derivation_product,
    derivative_weight,
    hankel_defect,
    make_hankel,
    make_weighted_hankel,
    sylvester_residual,
    unit_weight,
)
from .linalg import (
    DENSE_SIZE_CAP,
    NormEstimate,
    as_matrix,
    make_shift,
    op_norm,
    op_norm_dense,
    op_norm_power,
)
from .schur import (
    MatrixDiffReport,
    MultiplierProbe,
    MultiplierSpec,
    antidiagonal_sums,
    bennett_criterion,
    iterated_limits,
    make_multiplier,
    multiplier_lower_bound,
)
from .sequences import (
    BENNETT_TERMS_CAP,
    BennettReport,
    WeightSequence,
    bennett_sums,
    diff1,
    diff2,
    family,
)
from .summation import exact_sum, exact_sums

__version__ = "0.1.0"

