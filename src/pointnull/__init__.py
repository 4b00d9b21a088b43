"""Point-null Bayesian testing for the unit-variance normal model.

Bayes factors and posterior null probabilities, prior-mass schemes with
their large-spread regimes, Type I error calibration of the spread, and
seeded Monte Carlo verification — plus a CLI exposing all of it.

Every public name, and every submodule, loads its module on first use, so
`import pointnull` itself loads none of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each submodule and its public names: the one list of them. A submodule's
#: `__all__` is its entry here, and the package takes each name from it.
#: montecarlo.uniform_unit stays out: bench/harness.py adds it to these names itself.
_EXPORTS = {
    "calibration": ("CalibrationResult", "CalibrationSpec", "Decision", "PsiDomainError",
                    "classical_threshold", "decide", "positivity_bound", "power_analytic", "psi",
                    "psi_sweep", "solve_sigma", "type_i_error"),
    "model": ("AlternativeSpread", "Observation", "bayes_factor", "log_marginal_variance",
              "marginal_alt", "posterior_from_log_odds", "posterior_h0", "variance_ratio"),
    "montecarlo": ("MonteCarloReport", "SimulationPlan", "draw_standard_normal",
                   "simulate_power", "simulate_type_i", "splitmix64"),
    "numerics": ("Bracket", "BracketError", "DomainError", "EvaluationError",
                 "find_root_bracketed", "std_normal_cdf", "std_normal_pdf", "std_normal_quantile"),
    "priors": ("ClassifiedRegime", "CustomTablePrior", "FixedPrior", "InfeasibleAlphaError",
               "KLSelfInformationPrior", "ParadoxRow", "PriorScheme", "Regime", "RegimeEvidence",
               "RobertPrior", "SQRT_TWO_PI", "SchemeParseError", "TableRangeError",
               "UnsupportedSchemeError", "classify_regime", "log_m_of_sigma", "m_of_sigma",
               "paradox_sweep", "scheme_from_string"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME.keys() | _EXPORTS.keys())


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
