"""Every public function is total on its documented domain.

A deterministic pass over the documented extremes: subnormal, tiny, unit,
huge and largest arguments, probabilities next to 0 and next to 1, and
each built-in scheme. Then a hypothesis pass draws its arguments from the
same domains. Each call must return a value that is not NaN or raise
DomainError; an infinity is accepted only where the function's docstring
names it. Any other exception escapes and fails the test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_calibration import GOLDEN_TABLE, agrees_with_the_threshold_route

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


def refused_or_allowed(value, inf_documented=False):
    """A refusal, or a value allowed() accepts."""
    return value is DomainError or allowed(value, inf_documented)


def psi_ok(value, sigma):
    """psi is +inf where sigma^2 underflows, below about sigma = 1e-162."""
    return refused_or_allowed(value, inf_documented=sigma <= 1e-162)


def m_ok(scheme, sigma):
    """m and log m refuse sigma together, or both are allowed.

    m overflows for divergent schemes; kl's log m only once sigma^2 / 2 does.
    """
    m, log_m = outcome(m_of_sigma, scheme, sigma), outcome(log_m_of_sigma, scheme, sigma)
    if m is DomainError or log_m is DomainError:
        return m is log_m
    log_m_inf = scheme is KL and 0.5 * sigma * sigma == math.inf
    return allowed(m, inf_documented=True) and allowed(log_m, log_m_inf)


def decision_ok(result, x, sigma, alpha_b, scheme):
    """A refusal, or a Decision that agrees with the threshold route outside the band."""
    return result is DomainError or (isinstance(result, Decision) and
                                     agrees_with_the_threshold_route(result, x, sigma, alpha_b,
                                                                     scheme))


def bound_ok(bound):
    """None, a refusal, or an allowed bound >= 0."""
    return bound in (None, DomainError) or (allowed(bound) and bound >= 0.0)


def sweep_faults(swept):
    """The rows and end of a psi_sweep outcome that break psi's rules."""
    if swept is DomainError:
        return []
    rows, end = swept
    bad = [(sigma, value) for sigma, value in rows if not psi_ok(value, sigma)]
    return bad if end is None or (allowed(end) and end >= 0.0) else [*bad, end]


def row_ok(row):
    """Only the m column of a paradox_sweep row may overflow, as m_of_sigma does."""
    return (allowed(row.sigma) and allowed(row.rho0) and allowed(row.m, inf_documented=True)
            and allowed(row.posterior_h0))


def solve_ok(result):
    """A refusal, or a result whose fields are all allowed, with sigma* > 0."""
    if result is DomainError:
        return True
    fields = (result.sigma_star, result.psi_at_sigma, result.achieved_alpha, result.residual,
              result.bracket_used.lo, result.bracket_used.hi)
    return all(allowed(f) for f in fields) and result.sigma_star > 0.0


def test_normal_functions():
    bad = [("cdf", z) for z in XS if not allowed(outcome(std_normal_cdf, z))]
    bad += [("pdf", z) for z in XS if not allowed(outcome(std_normal_pdf, z))]
    bad += [("quantile", p) for p in PROBABILITIES if not allowed(outcome(std_normal_quantile, p))]
    assert bad == []


def test_classical_threshold():
    results = [outcome(classical_threshold, alpha) for alpha in PROBABILITIES]
    assert all(refused_or_allowed(r) for r in results)


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
            bad += [(x, sigma, v) for v in values if not refused_or_allowed(v)]
    assert bad == []


def test_decide():
    bad = []
    for x in XS:
        for sigma in SIGMAS:
            for alpha_b in PROBABILITIES:
                for scheme in (*SCHEMES, TABLE):
                    result = outcome(decide, Observation(x), sigma, alpha_b, scheme)
                    if not decision_ok(result, x, sigma, alpha_b, scheme):
                        bad.append((x, sigma, alpha_b, scheme, result))
    assert bad == []


def test_m_and_log_m():
    bad = [(scheme, sigma) for scheme in (*SCHEMES, TABLE) for sigma in SIGMAS
           if not m_ok(scheme, sigma)]
    assert bad == []
    assert [s for s in SIGMAS if log_m_of_sigma(KL, s) == math.inf] == [1e200, 1.7e308]


def test_psi_type_i_error_and_power():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for sigma in SIGMAS:
            for alpha_b in PROBABILITIES:
                value = outcome(psi, sigma, alpha_b, scheme)
                if not psi_ok(value, sigma):
                    bad.append(("psi", scheme, sigma, alpha_b, value))
                values = [outcome(type_i_error, sigma, alpha_b, scheme)]
                values += [outcome(power_analytic, t, sigma, alpha_b, scheme) for t in THETAS]
                bad += [(scheme, sigma, alpha_b, v) for v in values if not refused_or_allowed(v)]
    assert bad == []


def test_positivity_bound():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for alpha_b in PROBABILITIES:
            bound = outcome(positivity_bound, alpha_b, scheme)
            if not bound_ok(bound):
                bad.append((scheme, alpha_b, bound))
    assert bad == []


def test_psi_sweep():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for alpha_b in PROBABILITIES:
            bad += [(scheme, alpha_b, fault)
                    for fault in sweep_faults(outcome(psi_sweep, scheme, alpha_b, SIGMAS))]
    assert bad == []


def test_paradox_sweep_rows():
    bad = []
    for scheme in (*SCHEMES, TABLE):
        for x in XS:
            rows = outcome(paradox_sweep, scheme, x, SIGMAS)
            if rows is not DomainError:
                bad += [(scheme, x, row) for row in rows if not row_ok(row)]
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
            if not solve_ok(result):
                bad.append((alpha, alpha_b, result))
    assert bad == []


# ------------------------------------------------------------- the hypothesis pass

#: Subnormals, 1e-300, 1e154 up to the largest float, and a unit range that holds
#: the golden table's domain [0.5, 8].
sigmas = st.one_of(st.floats(5e-324, 2.0**-1022, exclude_max=True), st.just(1e-300),
                   st.floats(1e154, 1.7e308), st.floats(0.01, 100.0))
#: alpha, alpha_b and rho0: anywhere in (0, 1), the two ends most of all.
probabilities = st.one_of(st.sampled_from((5e-324, 1.0 - 2.0**-53)),
                          st.floats(5e-324, 1.0 - 2.0**-53))
reals = st.floats(-1.7e308, 1.7e308)
drawn_schemes = st.one_of(st.sampled_from((KL, RobertPrior(), GOLDEN_TABLE)),
                          st.builds(FixedPrior, probabilities))
grids = st.lists(sigmas, min_size=1, max_size=4, unique=True).map(sorted)


@given(reals, reals, sigmas, grids, probabilities, probabilities, drawn_schemes)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_drawn_arguments(x, theta, sigma, grid, alpha_b, rho0, scheme):
    obs, spread = Observation(x), AlternativeSpread(sigma)
    values = {
        "bayes_factor": outcome(bayes_factor, obs, spread),
        "marginal_alt": outcome(marginal_alt, obs, spread),
        "posterior_h0": outcome(posterior_h0, obs, spread, rho0),
        "classical_threshold": outcome(classical_threshold, rho0),
        "type_i_error": outcome(type_i_error, sigma, alpha_b, scheme),
        "power_analytic": outcome(power_analytic, theta, sigma, alpha_b, scheme),
    }
    bad = [(name, v) for name, v in values.items() if not refused_or_allowed(v)]
    value = outcome(psi, sigma, alpha_b, scheme)
    if not psi_ok(value, sigma):
        bad.append(("psi", value))
    if not m_ok(scheme, sigma):
        bad.append(("m_of_sigma or log_m_of_sigma", sigma))
    decision = outcome(decide, obs, sigma, alpha_b, scheme)
    if not decision_ok(decision, x, sigma, alpha_b, scheme):
        bad.append(("decide", decision))
    bound = outcome(positivity_bound, alpha_b, scheme)
    if not bound_ok(bound):
        bad.append(("positivity_bound", bound))
    rows = outcome(paradox_sweep, scheme, x, grid)
    if rows is not DomainError:
        bad += [("paradox_sweep", row) for row in rows if not row_ok(row)]
    swept = outcome(psi_sweep, scheme, alpha_b, grid)
    bad += [("psi_sweep", fault) for fault in sweep_faults(swept)]
    assert bad == []


@given(probabilities, probabilities, drawn_schemes)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_drawn_solves(alpha, alpha_b, scheme):
    result = outcome(solve_sigma, CalibrationSpec(alpha, alpha_b, scheme))
    assert solve_ok(result), result
