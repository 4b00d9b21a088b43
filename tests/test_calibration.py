"""Frequentist calibration of the Bayesian test: psi, error rates, sigma solving."""

import math
import random

import pytest

from pointnull.calibration import (
    CalibrationSpec,
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
from pointnull.model import Observation
from pointnull.numerics import DomainError, std_normal_cdf
from pointnull.priors import CustomTablePrior, FixedPrior, KLSelfInformationPrior, RobertPrior

# Frozen extended-precision references.
PSI_KL_1 = 11.164050277785652459  # psi(sigma=1, alpha_b=0.05, kl)
ALPHA_KL_1 = 8.3397650765538e-4  # type I error at the same point
PSI_ROBERT_1E6 = 4.0510008919285864373
PSI_ROBERT_LIMIT = 4.0510008919235354365  # 2 log(19 / sqrt(2 pi))
ALPHA_SUP_ROBERT = 0.044145163806617783563  # 2 Phi(-sqrt(limit))
BOUND_KL_05 = 2.8454877865455884127  # sigma where log m = log 19 under kl
BOUND_ROBERT_04 = 0.74690810274854419363
SIGMA_STAR_001_KL = 1.5565551603653667573
SIGMA_STAR_005_KL = 2.1089733943720829818
SIGMA_STAR_010_KL = 2.3384925574891440249
SIGMA_STAR_001_ROBERT = 1.4273082827389831827
C_005 = 3.8414588206941259584  # classical two-sided threshold at alpha=0.05
C_NEAR_ONE = 1.0000000324953121755  # at alpha = 0.3173105
# c with erfc(sqrt(c / 2)) = alpha for the float alpha, solved by 60-digit mpmath.
C_1E10 = 41.821456364761294135
C_1E17 = 73.512517030737110510
C_1E100 = 453.94308223879897009
C_1E300 = 1373.8726312223941371
POWER_THETA2_AT_C005 = 0.5160052557351434001

KL = KLSelfInformationPrior()
ROBERT = RobertPrior()


# ---------------------------------------------------------------------------
# psi


def test_psi_reference_value():
    assert psi(1.0, 0.05, KL) == pytest.approx(PSI_KL_1, rel=1e-13)


def test_psi_robert_approaches_its_limit():
    value = psi(1e6, 0.05, ROBERT)
    assert value == pytest.approx(PSI_ROBERT_1E6, rel=1e-12)
    assert abs(value - PSI_ROBERT_LIMIT) < 1e-4


def test_psi_nonpositive_raises_with_reason():
    with pytest.raises(PsiDomainError, match="psi nonpositive: Bayesian test rejects for all x"):
        psi(3.0, 0.05, KL)


def test_psi_positive_only_at_large_sigma_for_small_fixed_mass():
    # rho0 = 0.2 against alpha_b = 0.5: prior odds already favour rejection
    # until sigma shrinks m = 4/sqrt(1+sigma^2) below 1.
    with pytest.raises(PsiDomainError):
        psi(1.0, 0.5, FixedPrior(0.2))
    assert psi(100.0, 0.5, FixedPrior(0.2)) > 0.0


# ---------------------------------------------------------------------------
# error rates


def test_type_i_error_reference_value():
    got = type_i_error(1.0, 0.05, KL)
    assert got == pytest.approx(ALPHA_KL_1, rel=1e-10)
    assert got == pytest.approx(ALPHA_KL_1, abs=1e-6)


def test_type_i_error_is_tail_mass_of_psi():
    for sigma in (0.5, 1.0, 2.0):
        expected = 2.0 * std_normal_cdf(-math.sqrt(psi(sigma, 0.05, KL)))
        assert type_i_error(sigma, 0.05, KL) == expected


def test_type_i_error_saturates_past_the_positivity_bound():
    assert type_i_error(3.0, 0.05, KL) == 1.0


@pytest.mark.parametrize("scheme", (KL, ROBERT, FixedPrior(0.3)))
def test_sigma_squared_underflow_gives_the_limit_not_an_error(scheme):
    """Below sigma ~ 1e-162 variance_ratio is 0.0: psi is its limit +inf."""
    for sigma in (1e-200, 5e-324):
        assert psi(sigma, 0.05, scheme) == math.inf
        assert type_i_error(sigma, 0.05, scheme) == 0.0
        assert power_analytic(2.0, sigma, 0.05, scheme) == 0.0
    assert math.isfinite(psi(1e-150, 0.05, scheme))


def test_type_i_error_at_calibrated_sigma_hits_the_target():
    assert type_i_error(SIGMA_STAR_005_KL, 0.05, KL) == pytest.approx(0.05, abs=1e-9)


def test_power_matches_type_i_at_zero_effect():
    for sigma in (0.7, 1.0, 2.0):
        assert power_analytic(0.0, sigma, 0.05, KL) == type_i_error(sigma, 0.05, KL)


def test_power_reference_and_symmetry():
    got = power_analytic(2.0, SIGMA_STAR_005_KL, 0.05, KL)
    assert got == pytest.approx(POWER_THETA2_AT_C005, abs=1e-4)
    assert power_analytic(-2.0, SIGMA_STAR_005_KL, 0.05, KL) == pytest.approx(got, rel=1e-15)


def test_power_saturates():
    assert power_analytic(40.0, SIGMA_STAR_005_KL, 0.05, KL) == pytest.approx(1.0, abs=1e-12)
    assert power_analytic(2.0, 3.0, 0.05, KL) == 1.0  # past the bound: always reject


# ---------------------------------------------------------------------------
# classical threshold


def test_classical_threshold_references():
    assert classical_threshold(0.05) == pytest.approx(C_005, rel=1e-12)
    assert classical_threshold(0.3173105) == pytest.approx(1.0, abs=1e-5)
    assert classical_threshold(0.3173105) == pytest.approx(C_NEAR_ONE, rel=1e-12)
    for alpha, c in ((0.05, C_005), (1e-10, C_1E10), (1e-17, C_1E17), (1e-100, C_1E100),
                     (1e-300, C_1E300)):
        assert classical_threshold(alpha) == pytest.approx(c, rel=1e-14), alpha


def test_classical_threshold_round_trip():
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.32):
        c = classical_threshold(alpha)
        assert abs(2.0 * std_normal_cdf(-math.sqrt(c)) - alpha) <= 1e-12


# ---------------------------------------------------------------------------
# positivity bound


def test_positivity_bound_kl():
    bound = positivity_bound(0.05, KL)
    assert bound == pytest.approx(BOUND_KL_05, abs=1e-10)
    from pointnull.priors import log_m_of_sigma

    assert abs(log_m_of_sigma(KL, bound) - math.log(19.0)) <= 1e-12


def test_positivity_bound_absent_when_m_stays_low():
    assert positivity_bound(0.05, ROBERT) is None  # ceiling sqrt(2 pi) < 19
    assert positivity_bound(0.5, FixedPrior(0.5)) is None
    assert positivity_bound(0.5, FixedPrior(0.2)) is None  # infeasible side is small sigma


def test_positivity_bound_robert_at_permissive_threshold():
    assert positivity_bound(0.4, ROBERT) == pytest.approx(BOUND_ROBERT_04, abs=1e-10)


def test_positivity_bound_empty_domain_is_zero():
    assert positivity_bound(0.5, KL) == 0.0
    assert positivity_bound(0.6, KL) == 0.0


def test_positivity_bound_rejects_tables():
    with pytest.raises(DomainError):
        positivity_bound(0.05, CustomTablePrior(((0.5, 0.5), (2.0, 0.4))))


def test_positivity_bound_of_a_tiny_fixed_mass_is_unbounded():
    # m is decreasing under a fixed mass, so psi stays positive at any large sigma.
    assert positivity_bound(0.05, FixedPrior(1e-9)) is None
    assert psi(1e8, 0.05, FixedPrior(1e-9)) > 0.0


# ---------------------------------------------------------------------------
# solving for sigma


def test_solve_round_trips_a_scan_point_exactly():
    alpha = type_i_error(1.0, 0.05, KL)
    result = solve_sigma(CalibrationSpec(alpha, 0.05, KL))
    assert result.sigma_star == 1.0
    assert result.residual == 0.0


@pytest.mark.parametrize(
    "alpha,expected",
    [(0.01, SIGMA_STAR_001_KL), (0.05, SIGMA_STAR_005_KL), (0.1, SIGMA_STAR_010_KL)],
)
def test_solve_kl_targets(alpha, expected):
    result = solve_sigma(CalibrationSpec(alpha, 0.05, KL))
    assert result.sigma_star == pytest.approx(expected, rel=1e-8)
    assert abs(result.residual) <= 1e-10
    assert abs(result.achieved_alpha - alpha) <= 1e-10


def test_solve_result_invariants():
    result = solve_sigma(CalibrationSpec(0.05, 0.05, KL))
    assert result.psi_at_sigma == pytest.approx(psi(result.sigma_star, 0.05, KL), rel=1e-15)
    assert result.achieved_alpha == pytest.approx(
        type_i_error(result.sigma_star, 0.05, KL), rel=1e-15
    )
    assert abs(result.residual) == abs(result.achieved_alpha - 0.05)
    assert result.bracket_used.lo <= result.sigma_star <= result.bracket_used.hi
    assert result.evaluations > 0


def test_solve_agrees_with_plain_bisection():
    target = 0.05

    def gap(sigma):
        return type_i_error(sigma, 0.05, KL) - target

    lo, hi = 0.5, BOUND_KL_05 - 1e-9
    assert gap(lo) < 0.0 < gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    result = solve_sigma(CalibrationSpec(target, 0.05, KL))
    assert abs(result.sigma_star - 0.5 * (lo + hi)) <= 1e-8


def test_solve_robert_ceiling_is_infeasible():
    with pytest.raises(InfeasibleAlphaError) as excinfo:
        solve_sigma(CalibrationSpec(0.05, 0.05, ROBERT))
    err = excinfo.value
    assert err.requested == 0.05
    assert err.achievable_hi == pytest.approx(ALPHA_SUP_ROBERT, abs=1e-9)
    assert err.achievable_lo <= 1e-6
    assert "achievable range is approximately" in str(err)
    # The finest scan pass plus the far probes give exactly this range.
    assert (err.achievable_lo, err.achievable_hi) == (0.0, 0.04414516380661788)


def test_solve_finds_a_root_beyond_the_scan_range():
    """fixed:0.07 at alpha_b = 0.1 reaches alpha = 1e-4 only near sigma = 2858."""
    result = solve_sigma(CalibrationSpec(1e-4, 0.1, FixedPrior(0.07)))
    assert (result.bracket_used.lo, result.bracket_used.hi) == (1e3, 1e6)
    assert abs(result.residual) <= 1e-10


@pytest.mark.parametrize(
    "points",
    (
        ((0.5, 0.6), (2.0, 0.3), (5.0, 0.05)),
        ((1.0, 0.6), (10.0, 0.01)),  # both ends on scan grid points
    ),
)
def test_solve_calibrates_inside_a_table_range(points):
    table = CustomTablePrior(points)
    lo, hi = table.sigma_domain()
    result = solve_sigma(CalibrationSpec(0.01, 0.05, table))
    assert abs(result.residual) <= 1e-10
    assert lo <= result.bracket_used.lo <= result.sigma_star <= result.bracket_used.hi <= hi


def test_solve_robert_below_the_ceiling_succeeds():
    """Targets inside the achievable band (0, ~0.04414) do resolve to a sigma."""
    result = solve_sigma(CalibrationSpec(0.01, 0.05, ROBERT))
    assert result.sigma_star == pytest.approx(SIGMA_STAR_001_ROBERT, rel=1e-8)
    assert abs(result.residual) <= 1e-10


def test_solve_fixed_half_cannot_reach_common_levels():
    with pytest.raises(InfeasibleAlphaError) as excinfo:
        solve_sigma(CalibrationSpec(0.05, 0.05, FixedPrior(0.5)))
    assert excinfo.value.achievable_hi < 0.01


def test_spec_validation():
    with pytest.raises(DomainError):
        CalibrationSpec(0.0, 0.05, KL)
    with pytest.raises(DomainError):
        CalibrationSpec(1.0, 0.05, KL)
    with pytest.raises(DomainError):
        CalibrationSpec(0.05, math.nan, KL)


# ---------------------------------------------------------------------------
# decisions


def test_decide_clear_retain():
    decision = decide(Observation(0.0), 1.0, 0.05, KL)
    assert not decision.reject
    assert not decision.via_posterior
    assert not decision.via_threshold


def test_decide_clear_reject():
    decision = decide(Observation(4.0), 1.0, 0.05, KL)
    assert decision.reject
    assert decision.via_posterior
    assert decision.via_threshold


def test_decide_at_the_exact_boundary_does_not_blow_up():
    x = math.sqrt(PSI_KL_1)
    decision = decide(Observation(x), 1.0, 0.05, KL)
    assert decision.reject == decision.via_posterior


def test_decide_past_positivity_bound_always_rejects():
    decision = decide(Observation(0.0), 3.0, 0.05, KL)
    assert decision.reject
    assert decision.via_threshold


def test_decide_routes_agree_under_fuzzing():
    rng = random.Random(20240709)
    schemes = [FixedPrior(0.3), ROBERT, KL]
    for scheme in schemes:
        for _ in range(2000):
            x = rng.uniform(-6.0, 6.0)
            sigma = 10.0 ** rng.uniform(-2.0, 2.0)
            decision = decide(Observation(x), sigma, 0.05, scheme)
            assert decision.reject == decision.via_posterior
