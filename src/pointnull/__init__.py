"""Point-null Bayesian testing for the unit-variance normal model.

Bayes factors and posterior null probabilities, prior-mass schemes with
their large-spread regimes, Type I error calibration of the spread, and
seeded Monte Carlo verification — plus a CLI exposing all of it.
"""

from importlib import import_module as _import_module

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
    bayes_factor,
    expected_kl,
    kl_null_vs_alt,
    marginal_alt,
    posterior_from_log_odds,
    posterior_h0,
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

#: Resolved on first use, so that a start which simulates nothing never loads montecarlo.
_MONTECARLO = ("MonteCarloReport", "SimulationPlan", "draw_standard_normal", "simulate_power",
               "simulate_type_i", "montecarlo")
__all__ = sorted({n for n in globals() if not n.startswith("_")} | set(_MONTECARLO))


def __getattr__(name: str):
    if name not in _MONTECARLO:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    montecarlo = _import_module(".montecarlo", __name__)
    return montecarlo if name == "montecarlo" else getattr(montecarlo, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MONTECARLO))
