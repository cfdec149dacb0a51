"""Maximum asymptotic bias, breakdown and efficiency diagnostics for S-, MM-
and CM-estimates of regression under Gaussian and Cauchy models."""

from .curves import (
    BiasCurve,
    BiasPoint,
    CriticalPair,
    EstimatorSpec,
    bias_curve,
    breakdown_point,
    cm_estimate,
    cm_maxbias,
    mm_bounds,
    mm_estimate,
    objective_tail_inf,
    s_estimate,
    s_maxbias,
    scale_bounds,
    scale_objective,
    write_curve_csv,
)
from .dominance import (
    DominanceReport,
    c_naught,
    c_of_eps,
    c_one,
    c_zero_limit,
    cm_vs_s_ratio_curve,
    d_gap,
    dominance_report,
    h_gap,
    inadmissibility_threshold,
    slope_condition,
)
from .efficiency import (
    LAW_NAMES,
    avar_table,
    error_law,
    gaussian_efficiency,
    m_avar,
    reference_estimators,
    s_scale,
    tune,
    write_avar_csv,
)
from .errors import (
    BracketError,
    ConditionError,
    DegenerateEfficiencyError,
    DomainError,
    MaxbiasError,
    NumericalError,
    TargetRangeError,
    UnsupportedOperationError,
)
from .gfunction import (
    CAUCHY,
    GAUSSIAN,
    LAWS,
    GFunction,
    Law,
    Model,
    cauchy_model,
    gaussian_model,
    write_phi_csv,
)
from .numerics import find_root, maximize_unimodal
from .rho import (
    ALPHA_QUANTILE,
    BIWEIGHT,
    RhoSpec,
    alpha_quantile,
    biweight,
    psi_deriv_eval,
    psi_eval,
    rho_eval,
    validate_loss,
)

__version__ = "0.1.0"
