"""Closed-form model quantities: frozen references, identities, stability."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointnull.model import (
    AlternativeSpread,
    Observation,
    bayes_factor,
    expected_kl,
    kl_null_vs_alt,
    log_marginal_variance,
    marginal_alt,
    posterior_from_log_odds,
    posterior_h0,
    posterior_report,
    variance_ratio,
)
from pointnull.numerics import DomainError, std_normal_pdf
from pointnull.priors import FixedPrior, paradox_sweep

# Extended-precision reference values, frozen.
BF_X2_S1 = 0.52026009502288889636
MARGINAL_X1_S1 = 0.21969564473386119852
MARGINAL_X0_SQRT3 = 0.19947114020071633897
POSTERIOR_PARADOX = 0.99931782395642130653  # x=1.96, sigma=1e4, rho0=1/2
RHO_KL_AT_1 = 0.37754066879814543536
POSTERIOR_X0_S1_KL = 0.46171846266612572997

X_GRID = [x * 0.5 for x in range(-10, 11)]
SIGMA_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]

sigmas = st.floats(1e-3, 1e3)


def test_bayes_factor_reference():
    assert bayes_factor(Observation(2.0), AlternativeSpread(1.0)) == pytest.approx(
        BF_X2_S1, rel=1e-14
    )


def test_bayes_factor_at_zero_is_prefactor():
    for sigma in SIGMA_GRID:
        bf = bayes_factor(Observation(0.0), AlternativeSpread(sigma))
        assert bf == pytest.approx(math.sqrt(1.0 + sigma * sigma), rel=1e-15)


def test_marginal_reference():
    assert marginal_alt(Observation(1.0), AlternativeSpread(1.0)) == pytest.approx(
        MARGINAL_X1_S1, rel=1e-14
    )
    assert marginal_alt(Observation(0.0), AlternativeSpread(math.sqrt(3.0))) == pytest.approx(
        MARGINAL_X0_SQRT3, rel=1e-14
    )


@given(st.floats(-8.0, 8.0), sigmas)
@settings(max_examples=300)
def test_bayes_factor_is_density_ratio(x, sigma):
    """B = N(x|0,1) / N(x|0,1+sigma^2) — the two public forms must agree."""
    obs, spread = Observation(x), AlternativeSpread(sigma)
    assert bayes_factor(obs, spread) == pytest.approx(
        std_normal_pdf(x) / marginal_alt(obs, spread), rel=1e-12
    )


def test_posterior_matches_direct_formula_on_grid():
    """posterior = 1/(1 + m exp(x^2 sigma^2 / (2(1+sigma^2)))) to 1e-14."""
    rho = 0.5
    for x in X_GRID:
        for sigma in SIGMA_GRID:
            m = ((1.0 - rho) / rho) / math.sqrt(1.0 + sigma * sigma)
            s2 = sigma * sigma
            direct = 1.0 / (1.0 + m * math.exp(0.5 * x * x * s2 / (1.0 + s2)))
            got = posterior_h0(Observation(x), AlternativeSpread(sigma), rho)
            assert abs(got - direct) <= 1e-14, (x, sigma)


def test_posterior_reference_values():
    got = posterior_h0(Observation(1.96), AlternativeSpread(1e4), 0.5)
    assert got == pytest.approx(POSTERIOR_PARADOX, rel=1e-13)
    got = posterior_h0(Observation(0.0), AlternativeSpread(1.0), RHO_KL_AT_1)
    assert got == pytest.approx(POSTERIOR_X0_S1_KL, rel=1e-13)


@given(st.floats(-4.0, 4.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=300)
def test_posterior_monotone_in_sigma_beyond_x(x, bump1, bump2):
    """For sigma >= |x| the posterior can only grow as the spread grows."""
    lo = abs(x) + 1e-6 + min(bump1, bump2)
    hi = abs(x) + 1e-6 + max(bump1, bump2)
    p_lo = posterior_h0(Observation(x), AlternativeSpread(lo), 0.5)
    p_hi = posterior_h0(Observation(x), AlternativeSpread(hi), 0.5)
    assert p_hi >= p_lo - 1e-12


@given(st.floats(-40.0, 40.0), st.floats(1e-3, 1e6), st.floats(1e-300, 1.0, exclude_max=True))
@settings(max_examples=300)
def test_posterior_h0_is_the_log_odds_posterior_of_rho0(x, sigma, rho):
    obs, spread = Observation(x), AlternativeSpread(sigma)
    log_odds = math.log1p(-rho) - math.log(rho)
    assert posterior_h0(obs, spread, rho) == posterior_from_log_odds(obs, spread, log_odds)


def test_posterior_from_huge_log_odds_is_zero_not_an_error():
    # kl's odds at sigma = 40: rho0 = 1 / (1 + e^800) underflows to 0.0.
    assert posterior_from_log_odds(Observation(0.0), AlternativeSpread(40.0), 800.0) == 0.0
    report = posterior_report(Observation(0.0), AlternativeSpread(40.0), 0.05, "kl", log_odds=800.0)
    assert report.m_value == math.inf
    assert report.posterior_h0 == 0.0 and report.rejected


def test_posterior_report_refuses_a_positional_rho0():
    with pytest.raises(TypeError):
        posterior_report(Observation(0.0), AlternativeSpread(1.0), 0.5, 0.05, "fixed:0.5")


def test_posterior_extreme_observation_saturates_cleanly():
    tiny = posterior_h0(Observation(40.0), AlternativeSpread(1.0), 0.5)
    assert 0.0 < tiny < 1e-150
    assert posterior_h0(Observation(400.0), AlternativeSpread(1.0), 0.5) == 0.0


def test_posterior_huge_sigma_saturates_to_one():
    assert posterior_h0(Observation(1.96), AlternativeSpread(1e154), 0.5) > 0.999999


def test_bayes_factor_huge_sigma_no_overflow():
    bf = bayes_factor(Observation(1.0), AlternativeSpread(1e160))
    assert math.isfinite(bf) and bf > 1e159


def test_kl_quantities():
    assert kl_null_vs_alt(2.0) == 2.0
    assert kl_null_vs_alt(0.0) == 0.0
    assert expected_kl(AlternativeSpread(3.0)) == 4.5
    # theta^2 / 2 and sigma^2 / 2 pass float range at sqrt(2) * 1.34e154.
    assert kl_null_vs_alt(1.89e154) == expected_kl(AlternativeSpread(1.89e154)) < math.inf
    assert kl_null_vs_alt(-1.9e154) == expected_kl(AlternativeSpread(1.9e154)) == math.inf
    with pytest.raises(DomainError):
        kl_null_vs_alt(math.inf)


@given(sigmas)
def test_variance_helpers_consistent(sigma):
    assert variance_ratio(sigma) == pytest.approx(
        sigma * sigma / (1.0 + sigma * sigma), rel=1e-14
    )
    assert log_marginal_variance(sigma) == pytest.approx(
        math.log1p(sigma * sigma), rel=1e-14
    )


def test_input_validation():
    with pytest.raises(DomainError):
        Observation(math.nan)
    with pytest.raises(DomainError):
        AlternativeSpread(0.0)
    with pytest.raises(DomainError):
        AlternativeSpread(-1.0)
    with pytest.raises(DomainError):
        AlternativeSpread(math.inf)
    with pytest.raises(DomainError):
        posterior_h0(Observation(0.0), AlternativeSpread(1.0), 0.0)
    with pytest.raises(DomainError):
        posterior_h0(Observation(0.0), AlternativeSpread(1.0), 1.0)


def test_posterior_report_bundle():
    report = posterior_report(
        Observation(0.0), AlternativeSpread(math.sqrt(3.0)), 0.05, "fixed:0.5", log_odds=0.0
    )
    assert report.scheme == "fixed:0.5"
    assert report.m_value == pytest.approx(0.5, rel=1e-12)
    assert report.posterior_h0 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert report.bayes_factor == pytest.approx(2.0, rel=1e-12)
    assert not report.rejected


def test_rejection_is_strict_so_ties_retain():
    post = posterior_h0(Observation(1.0), AlternativeSpread(2.0), 0.5)
    report = posterior_report(Observation(1.0), AlternativeSpread(2.0), post, "fixed:0.5",
                              log_odds=0.0)
    assert not report.rejected
    report = posterior_report(
        Observation(1.0), AlternativeSpread(2.0), math.nextafter(post, 1.0), "fixed:0.5",
        log_odds=0.0,
    )
    assert report.rejected


@pytest.mark.parametrize(
    "x, sigma, exponent",
    ((1e200, 1e-200, 0.5), (1e155, 1e-160, 5e-11), (-1e300, 1e-150, 5e149)),
)
def test_x_squared_term_past_float_range(x, sigma, exponent):
    """x * x overflows and sigma^2 underflows; the term x^2 sigma^2 / (2(1 + sigma^2)) does not."""
    obs, spread = Observation(x), AlternativeSpread(sigma)
    assert bayes_factor(obs, spread) == pytest.approx(math.exp(-exponent), rel=1e-15)
    expected = 1.0 / (1.0 + math.exp(exponent)) if exponent < 700 else 0.0
    assert posterior_from_log_odds(obs, spread, 0.0) == pytest.approx(expected, rel=1e-15)
    report = posterior_report(obs, spread, 0.05, log_odds=0.0)
    assert report.posterior_h0 == posterior_from_log_odds(obs, spread, 0.0)
    (row,) = paradox_sweep(FixedPrior(0.5), x, [sigma])  # log prior odds 0
    assert row.posterior_h0 == report.posterior_h0
