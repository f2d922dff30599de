"""Series estimation for instrumental regression with data-driven selection.

The public surface groups into four layers: the trigonometric basis and
weight sequences (``basis``), the thresholded series estimator
(``estimator``), penalised dimension selection with its cutoffs and oracle
(``selection``), and the synthetic data generator (``simulate``).  The
``npiv`` console script drives them end to end.
"""

from .basis import (
    WeightSequence,
    evaluate_coeffs,
    parse_weights,
    trig_design,
    weighted_norm_sq,
)
from .estimator import (
    GalerkinEstimate,
    Sample,
    derivative_coeffs,
    diagonal_estimate,
    empirical_diagonal,
    empirical_operator_matrix,
    empirical_rhs,
    galerkin_estimate,
    load_csv,
    risk_weighted,
    write_csv,
)
from .selection import (
    PenaltySequences,
    SelectionTrace,
    dimension_cap,
    dimension_cutoff,
    dimension_cutoff_lower,
    empirical_dimension_cutoff,
    mean_squared_response,
    oracle_dimension,
    penalized_select,
    penalty_sequences,
    penalty_sequences_from_diagonal,
)
from .simulate import (
    OperatorSpec,
    StructuralSpec,
    custom_operator,
    generate_sample,
    joint_density,
    make_operator,
    make_structural,
    noise_sigma_for_snr,
    regression_coeffs,
    sample_joint,
    stream_rng,
    task_seed,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
