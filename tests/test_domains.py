"""Every public function is total on its documented domain.

A deterministic pass over the documented extremes: subnormal, tiny, unit,
huge and largest arguments, probabilities next to 0 and next to 1, and
each built-in scheme. Each call must return a value that is not NaN or
raise DomainError; an infinity is accepted only where the function's
docstring names it. Any other exception escapes and fails the test.
"""

import math

import pytest
from test_calibration import agrees_with_the_threshold_route

from pointnull import (AlternativeSpread, CalibrationSpec, CustomTablePrior, Decision,
                       DomainError, FixedPrior, KLSelfInformationPrior, Observation, RobertPrior,
                       bayes_factor, classical_threshold, decide, log_m_of_sigma, m_of_sigma,
                       marginal_alt, paradox_sweep, positivity_bound, posterior_from_log_odds,
                       posterior_h0, power_analytic, psi, psi_sweep, solve_sigma, std_normal_cdf,
                       std_normal_pdf, std_normal_quantile, type_i_error)

MAGNITUDES = (5e-324, 1e-300, 1e-10, 0.5, 1.0, 40.0, 1e154, 1.3e154, 1e200, 1.7e308)
XS = (0.0, *MAGNITUDES, *(-m for m in MAGNITUDES))
SIGMAS = (5e-324, 1e-300, 1e-162, 1e-10, 1.0, 1e10, 1e154, 1e200, 1.7e308)
#: Used for alpha, alpha_b, rho0 and p. The last is the largest float below 1, which
#: 1 - 1e-16 rounds to.
PROBABILITIES = (5e-324, 1e-300, 1e-10, 0.05, 0.5, 1.0 - 2.0**-53)
THETAS = (0.0, 1.5, -1e300, 1e308)
KL = KLSelfInformationPrior()
SCHEMES = (KL, RobertPrior(), FixedPrior(0.3), FixedPrior(1e-300))
#: A 3-row table: its sigma domain [0.5, 8] holds only sigma = 1 of the grid.
TABLE = CustomTablePrior(((0.5, 0.5), (2.0, 0.4), (8.0, 0.3)), "table:domains")


def outcome(function, *args):
    """What function returns, or DomainError when it refuses the arguments."""
    try:
        return function(*args)
    except DomainError:
        return DomainError


def allowed(value, inf_documented=False):
    """Not NaN, and infinite only where the docstring says so."""
    return not math.isnan(value) and (inf_documented or not math.isinf(value))


def test_normal_functions():
    bad = [("cdf", z) for z in XS if not allowed(outcome(std_normal_cdf, z))]
    bad += [("pdf", z) for z in XS if not allowed(outcome(std_normal_pdf, z))]
    bad += [("quantile", p) for p in PROBABILITIES if not allowed(outcome(std_normal_quantile, p))]
    assert bad == []


def test_classical_threshold():
    results = [outcome(classical_threshold, alpha) for alpha in PROBABILITIES]
    assert all(r is DomainError or allowed(r) for r in results)


def test_observation_functions():
    bad = []
    for x in XS:
        obs = Observation(x)
        for sigma in SIGMAS:
            spread = AlternativeSpread(sigma)
            values = [bayes_factor(obs, spread), marginal_alt(obs, spread)]
            values += [outcome(posterior_h0, obs, spread, rho0) for rho0 in PROBABILITIES]
            values += [posterior_from_log_odds(obs, spread, s.log_prior_odds(sigma))
                       for s in SCHEMES]
            bad += [(x, sigma, v) for v in values if v is not DomainError and not allowed(v)]
    assert bad == []


def test_decide():
    bad = []
    for x in XS:
        for sigma in SIGMAS:
            for alpha_b in PROBABILITIES:
                for scheme in (*SCHEMES, TABLE):
                    result = outcome(decide, Observation(x), sigma, alpha_b, scheme)
                    if result is DomainError:
                        continue
                    if not (isinstance(result, Decision) and agrees_with_the_threshold_route(
                            result, x, sigma, alpha_b, scheme)):
                        bad.append((x, sigma, alpha_b, scheme, result))
    assert bad == []


def test_m_and_log_m():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for sigma in SIGMAS:
            m, log_m = outcome(m_of_sigma, scheme, sigma), outcome(log_m_of_sigma, scheme, sigma)
            if m is DomainError and log_m is DomainError:
                continue
            # m overflows for divergent schemes; kl's log m only once sigma^2 / 2 does.
            log_m_inf = scheme is KL and 0.5 * sigma * sigma == math.inf
            if not (allowed(m, inf_documented=True) and allowed(log_m, log_m_inf)):
                bad.append((scheme, sigma, m, log_m))
    assert bad == []
    assert [s for s in SIGMAS if log_m_of_sigma(KL, s) == math.inf] == [1e200, 1.7e308]


def test_psi_type_i_error_and_power():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for sigma in SIGMAS:
            for alpha_b in PROBABILITIES:
                value = outcome(psi, sigma, alpha_b, scheme)
                # psi is +inf where sigma^2 underflows, below about sigma = 1e-162.
                if value is not DomainError and not allowed(value, inf_documented=sigma <= 1e-162):
                    bad.append(("psi", scheme, sigma, alpha_b, value))
                values = [outcome(type_i_error, sigma, alpha_b, scheme)]
                values += [outcome(power_analytic, t, sigma, alpha_b, scheme) for t in THETAS]
                bad += [(scheme, sigma, alpha_b, v) for v in values
                        if v is not DomainError and not allowed(v)]
    assert bad == []


def test_positivity_bound():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for alpha_b in PROBABILITIES:
            bound = outcome(positivity_bound, alpha_b, scheme)
            if bound not in (None, DomainError) and not (allowed(bound) and bound >= 0.0):
                bad.append((scheme, alpha_b, bound))
    assert bad == []


def test_psi_sweep():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for alpha_b in PROBABILITIES:
            swept = outcome(psi_sweep, scheme, alpha_b, SIGMAS)
            if swept is DomainError:
                continue
            rows, end = swept
            # psi is +inf where sigma^2 underflows, below about sigma = 1e-162.
            bad += [(scheme, alpha_b, sigma, value) for sigma, value in rows
                    if not allowed(value, inf_documented=sigma <= 1e-162)]
            if end is not None and not (allowed(end) and end >= 0.0):
                bad.append((scheme, alpha_b, end))
    assert bad == []


def test_paradox_sweep_rows():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for x in XS:
            rows = outcome(paradox_sweep, scheme, x, SIGMAS)
            if rows is DomainError:
                continue
            # Only the m column may overflow, as m_of_sigma does.
            bad += [(scheme, x, row) for row in rows
                    if not (allowed(row.sigma) and allowed(row.rho0)
                            and allowed(row.m, inf_documented=True)
                            and allowed(row.posterior_h0))]
    assert bad == []


@pytest.mark.parametrize("scheme", (*SCHEMES, TABLE), ids=lambda s: s.scheme_id)
def test_solve_sigma(scheme):
    # Only "not NaN" is checked. alpha = 5e-324 is refused, as classical_threshold
    # refuses it: alpha/2 rounds to 0. A target below the smallest normal float
    # solves only to the subnormal grid of the Type I error; the log-domain
    # calibration item in ROADMAP.md owns that defect and its accuracy bar.
    bad = []
    for alpha in PROBABILITIES:
        for alpha_b in PROBABILITIES:
            result = outcome(solve_sigma, CalibrationSpec(alpha, alpha_b, scheme))
            if result is DomainError:
                continue
            fields = (result.sigma_star, result.psi_at_sigma, result.achieved_alpha,
                      result.residual, result.bracket_used.lo, result.bracket_used.hi)
            if not (all(allowed(f) for f in fields) and result.sigma_star > 0.0):
                bad.append((alpha, alpha_b, result))
    assert bad == []
