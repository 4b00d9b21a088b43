"""Point-null Bayesian testing for the unit-variance normal model.

Bayes factors and posterior null probabilities, prior-mass schemes with
their large-spread regimes, Type I error calibration of the spread, and
seeded Monte Carlo verification — plus a CLI exposing all of it.
"""

from .calibration import (
    CalibrationResult,
    CalibrationSpec,
    Decision,
    InfeasibleAlphaError,
    PsiDomainError,
    classical_threshold,
    decide,
    positivity_bound,
    power_analytic,
    psi,
    solve_sigma,
    type_i_error,
)
from .model import (
    AlternativeSpread,
    Observation,
    PosteriorReport,
    bayes_factor,
    expected_kl,
    kl_null_vs_alt,
    marginal_alt,
    posterior_h0,
    posterior_report,
)
from .montecarlo import (
    MonteCarloReport,
    SimulationPlan,
    draw_standard_normal,
    simulate_power,
    simulate_type_i,
)
from .numerics import (
    Bracket,
    BracketError,
    DomainError,
    EvaluationError,
    find_root_bracketed,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .priors import (
    ClassifiedRegime,
    ConsistencyError,
    CustomTablePrior,
    FixedPrior,
    KLSelfInformationPrior,
    PriorScheme,
    Regime,
    RobertPrior,
    classify_regime,
    log_m_of_sigma,
    m_of_sigma,
    paradox_sweep,
    scheme_from_string,
)

__version__ = "0.1.0"
