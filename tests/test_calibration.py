"""Frequentist calibration of the Bayesian test: psi, error rates, sigma solving."""

import collections
import functools
import hashlib
import math
import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointnull import calibration, priors
from pointnull.calibration import (
    CalibrationSpec,
    Decision,
    InfeasibleAlphaError,
    PsiDomainError,
    classical_threshold,
    decide,
    positivity_bound,
    power_analytic,
    psi,
    psi_sweep,
    solve_sigma,
    type_i_error,
)
from pointnull.model import (AlternativeSpread, Observation, _x2_term, posterior_from_log_odds,
                             posterior_h0, variance_ratio)
from pointnull.montecarlo import SimulationPlan, simulate_power
from pointnull.numerics import Bracket, DomainError, _upper_tail, std_normal_cdf
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior,
                              PriorScheme, RobertPrior, UnsupportedSchemeError, log_m_of_sigma,
                              m_of_sigma, paradox_sweep)

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
FIXED_03 = FixedPrior(0.3)


class ScannedRobert(RobertPrior):
    """robert's log odds and slope on the base scan, as RobertPrior solved before its bracket."""

    __slots__ = ()
    _proven_cell = PriorScheme._proven_cell


class ScannedFixed(FixedPrior):
    """A fixed mass on the base scan, as FixedPrior solved before its bracket."""

    __slots__ = ()
    _proven_cell = PriorScheme._proven_cell


SCANNED_ROBERT, SCANNED_FIXED_03 = ScannedRobert(), ScannedFixed(0.3)


def on_the_scan(spec):
    """spec with robert or a fixed mass in place of the same log odds on the base scan."""
    scheme = spec.scheme
    if type(scheme) is RobertPrior:
        scheme = SCANNED_ROBERT
    elif type(scheme) is FixedPrior:
        scheme = ScannedFixed(scheme.rho0_value)
    return CalibrationSpec(spec.alpha, spec.alpha_b, scheme)


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


#: sigma ranges where the error at alpha_b = 0.05 is subnormal; below each it is 0.0.
SUBNORMAL_BANDS = ((KL, 0.0632, 0.0648), (ROBERT, 0.0788, 0.0806), (FIXED_03, 0.0533, 0.0547))


def test_type_i_error_is_bit_identical_to_the_checked_tail():
    """2 Phi(-sqrt(psi)) by the checked std_normal_cdf, 0.0 at psi = inf, 1.0 past the bound."""
    rng = random.Random(20261019)
    sigmas = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(200)]
    sigmas += [1e-170, 5e-324, 1e8, 1e15, 1e154]
    sigmas += [lo + (hi - lo) * i / 40 for _, lo, hi in SUBNORMAL_BANDS for i in range(41)]
    table = CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv"))
    lo, hi = table.sigma_domain()
    cases = [(scheme, sigmas) for scheme in (KL, ROBERT, FIXED_03, FixedPrior(1e-300))]
    cases.append((table, [lo, hi] + [rng.uniform(lo, hi) for _ in range(100)]))
    outcomes = {"tail": 0, "subnormal": 0, "inf": 0, "past": 0}
    for alpha_b in (0.01, 0.05, 0.3):
        for scheme, grid in cases:
            for sigma in grid:
                got = type_i_error(sigma, alpha_b, scheme)
                assert power_analytic(0.0, sigma, alpha_b, scheme) == got
                try:
                    cut = psi(sigma, alpha_b, scheme)
                except PsiDomainError:
                    assert got == 1.0
                    outcomes["past"] += 1
                    continue
                if cut == math.inf:
                    assert got == 0.0
                    outcomes["inf"] += 1
                    continue
                assert got == 2.0 * std_normal_cdf(-math.sqrt(cut)), (sigma, alpha_b, scheme)
                outcomes["tail"] += 1
                outcomes["subnormal"] += 0.0 < got < sys.float_info.min
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("scheme, lo, hi", SUBNORMAL_BANDS)
def test_type_i_error_is_subnormal_in_a_narrow_band(scheme, lo, hi):
    errors = [type_i_error(lo + (hi - lo) * i / 20, 0.05, scheme) for i in range(21)]
    assert sum(0.0 < e < sys.float_info.min for e in errors) >= 15
    assert type_i_error(0.999 * lo, 0.05, scheme) == 0.0
    assert type_i_error(1.001 * hi, 0.05, scheme) >= sys.float_info.min


def test_upper_tail_is_the_checked_cdf_reflected():
    rng = random.Random(7)
    for r in [rng.uniform(-40.0, 40.0) for _ in range(2000)] + [0.0, -0.0, 40.0, -40.0]:
        assert _upper_tail(r) == std_normal_cdf(-r), r
    assert _upper_tail(math.inf) == 0.0
    assert _upper_tail(-math.inf) == 1.0


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
    assert abs(bound - BOUND_KL_05) <= 2.0 * math.ulp(BOUND_KL_05)
    from pointnull.priors import log_m_of_sigma

    assert abs(log_m_of_sigma(KL, bound) - math.log(19.0)) <= 1e-12


def test_positivity_bound_absent_when_m_stays_low():
    assert positivity_bound(0.05, ROBERT) is None  # ceiling sqrt(2 pi) < 19
    assert positivity_bound(0.5, FixedPrior(0.5)) is None
    assert positivity_bound(0.5, FixedPrior(0.2)) is None  # infeasible side is small sigma


def test_positivity_bound_robert_at_permissive_threshold():
    assert abs(positivity_bound(0.4, ROBERT) - BOUND_ROBERT_04) <= 2.0 * math.ulp(BOUND_ROBERT_04)


def test_positivity_bound_empty_domain_is_zero():
    assert positivity_bound(0.5, KL) == 0.0
    assert positivity_bound(0.6, KL) == 0.0


def test_positivity_bound_rejects_tables():
    with pytest.raises(UnsupportedSchemeError, match="table:<inline>"):
        positivity_bound(0.05, CustomTablePrior(((0.5, 0.5), (2.0, 0.4))))


def test_positivity_bound_rejects_a_scheme_without_a_closed_form():
    class Custom(PriorScheme):
        scheme_id = "custom"

        def rho0(self, sigma):
            return 0.5

    with pytest.raises(UnsupportedSchemeError, match="'custom'"):
        positivity_bound(0.05, Custom())
    with pytest.raises(DomainError, match="alpha_b"):  # checked before the scheme is asked
        positivity_bound(1.5, Custom())


def test_nan_log_prior_odds_are_refused_by_name():
    # -inf is rho0 = 1: psi was +inf there, and decide met NaN once x^2 overflowed.
    class BadOdds(PriorScheme):
        scheme_id = "bad odds"

        def __init__(self, odds):
            self.odds = odds

        def log_prior_odds(self, sigma):
            return self.odds

    for scheme in (BadOdds(math.nan), BadOdds(-math.inf)):
        calls = (lambda: psi(1.0, 0.05, scheme), lambda: type_i_error(1.0, 0.05, scheme),
                 lambda: power_analytic(1.0, 1.0, 0.05, scheme),
                 lambda: decide(Observation(1.0), 1.0, 0.05, scheme),
                 lambda: decide(Observation(1e200), 1.0, 0.05, scheme),
                 lambda: psi_sweep(scheme, 0.05, [0.5, 1.0, 2.0]),
                 lambda: solve_sigma(CalibrationSpec(0.05, 0.05, scheme)),
                 lambda: simulate_power(SimulationPlan(100, 1, 1.0, 1.0, 0.05, scheme)),
                 lambda: paradox_sweep(scheme, 1.0, [0.5, 1.0]), lambda: m_of_sigma(scheme, 1.0),
                 lambda: log_m_of_sigma(scheme, 1.0))
        for call in calls:
            with pytest.raises(DomainError, match="log prior odds are NaN or -inf at sigma="):
                call()


@pytest.mark.parametrize("rho0", [0.0, 1.0, 1.5, -0.1])
def test_rho0_outside_the_unit_interval_is_refused_by_name(rho0):
    class BadMass(PriorScheme):
        scheme_id = "bad mass"

        def rho0(self, sigma):
            return rho0

    scheme = BadMass()
    for call in (lambda: psi(2.0, 0.05, scheme),
                 lambda: decide(Observation(1.0), 2.0, 0.05, scheme),
                 lambda: log_m_of_sigma(scheme, 2.0)):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == (
            f"rho0 must lie strictly between 0 and 1, got rho0={rho0!r} at sigma=2.0")


def test_positivity_bound_robert_exists_only_above_its_ceiling_threshold():
    edge = 1.0 / (1.0 + math.sqrt(2.0 * math.pi))  # 0.2852...: m's ceiling is the level
    assert positivity_bound(math.nextafter(edge, 0.0), ROBERT) is None
    assert positivity_bound(1e-300, ROBERT) is None
    assert positivity_bound(0.2853, ROBERT) > 20.0


def test_positivity_bound_robert_near_one_is_the_tiny_root():
    # 50-digit value of e^L / sqrt(2 pi - e^(2 L)) at the float L: 3.98942269517517191e-10.
    assert positivity_bound(1.0 - 1e-9, ROBERT) == 3.9894226951751723e-10


def test_positivity_bound_fixed_and_kl_edges():
    for alpha_b in (1e-300, 0.05, 0.5, 1.0 - 1e-16):
        assert positivity_bound(alpha_b, FixedPrior(0.3)) is None
    assert positivity_bound(math.nextafter(0.5, 0.0), KL) > 0.0
    assert positivity_bound(1.0 - 1e-16, KL) == 0.0


def test_psi_changes_sign_at_the_positivity_bound():
    rng = random.Random(13)
    cases = [(KL, 10.0 ** rng.uniform(-300.0, math.log10(0.45))) for _ in range(40)]
    cases += [(ROBERT, rng.uniform(0.3, 0.49)) for _ in range(40)]
    for scheme, alpha_b in cases:
        bound = positivity_bound(alpha_b, scheme)
        assert psi(bound * (1.0 - 1e-12), alpha_b, scheme) > 0.0, (scheme, alpha_b)
        with pytest.raises(PsiDomainError):
            psi(bound * (1.0 + 1e-12), alpha_b, scheme)


def test_positivity_bound_needs_no_root_finder_nor_log_m(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("positivity_bound must use the scheme's closed form")

    monkeypatch.setattr(calibration, "find_root_bracketed", refuse)
    monkeypatch.setattr(calibration, "log_m_of_sigma", refuse)
    assert abs(positivity_bound(0.05, KL) - BOUND_KL_05) <= 2.0 * math.ulp(BOUND_KL_05)
    assert abs(positivity_bound(0.4, ROBERT) - BOUND_ROBERT_04) <= 2.0 * math.ulp(BOUND_ROBERT_04)
    assert positivity_bound(0.05, FixedPrior(0.5)) is None


def test_positivity_bound_of_a_tiny_fixed_mass_is_unbounded():
    # m is decreasing under a fixed mass, so psi stays positive at any large sigma.
    assert positivity_bound(0.05, FixedPrior(1e-9)) is None
    assert psi(1e8, 0.05, FixedPrior(1e-9)) > 0.0


def refusal(sweep, *args):
    """The message of the DomainError sweep raises, or None."""
    try:
        sweep(*args)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("scheme, alphas", ((KL, (1e-10, 0.01, 0.05, 0.3, 0.49)),
                                            (ROBERT, (0.29, 0.3, 0.4, 0.45, 0.49))))
def test_psi_sweep_ends_at_the_positivity_bound(scheme, alphas):
    for alpha_b in alphas:
        bound = positivity_bound(alpha_b, scheme)
        for grid in ([bound * k / 8 for k in range(1, 17)], [bound / 3, bound * 1.001],
                     [bound * 10.0 ** (k / 4) for k in range(-12, 3)]):
            rows, end = psi_sweep(scheme, alpha_b, grid)
            assert end == bound, (alpha_b, grid)
            n = len(rows)
            assert 0 < n < len(grid)
            assert rows == [(s, psi(s, alpha_b, scheme)) for s in grid[:n]]
            with pytest.raises(PsiDomainError):
                psi(grid[n], alpha_b, scheme)


def test_psi_sweep_skips_forward_to_the_first_feasible_sigma():
    scheme = FixedPrior(0.01)
    grid = [1e-3 * 10.0 ** (k / 2) for k in range(13)]
    rows, end = psi_sweep(scheme, 0.05, grid)
    first = next(k for k, s in enumerate(grid) if refusal(psi, s, 0.05, scheme) is None)
    assert first > 0
    assert rows == [(s, psi(s, 0.05, scheme)) for s in grid[first:]]
    assert end is None


def test_psi_sweep_of_a_grid_wholly_past_the_bound_is_empty():
    bound = positivity_bound(0.05, KL)
    assert psi_sweep(KL, 0.05, [bound * 1.5, bound * 2.0, bound * 4.0]) == ([], None)


def test_psi_sweep_solves_where_robert_has_no_closed_form_end():
    # Within 2 ulps below 1/(1 + sqrt(2 pi)) positivity_bound is None, yet log m
    # rounds onto the level between 1e7 and 1e8: the end is solved for.
    alpha_b = 0.28517422483431865
    assert positivity_bound(alpha_b, ROBERT) is None
    rows, end = psi_sweep(ROBERT, alpha_b, [1e7, 1e8, 1e9, 1e10])
    assert [s for s, _ in rows] == [1e7]
    assert 1e7 < end < 1e8
    level = math.log1p(-alpha_b) - math.log(alpha_b)
    assert log_m_of_sigma(ROBERT, math.nextafter(end, 0.0)) < level
    assert log_m_of_sigma(ROBERT, math.nextafter(end, math.inf)) >= level


def test_psi_sweep_ends_at_an_odds_jump():
    """Log odds 0 up to sigma = 47.3 and +inf above, with no slope or closed-form bound: h_0 is
    -inf past the jump, which Brent's method reads as a sign, so the run ends at the jump."""
    class Jump(PriorScheme):
        __slots__ = ()
        scheme_id = "jump"

        def log_prior_odds(self, sigma):
            return 0.0 if sigma <= 47.3 else math.inf

    rows, end = psi_sweep(Jump(), 0.05, [10.0 * k for k in range(1, 11)])
    assert [s for s, _ in rows] == [10.0, 20.0, 30.0, 40.0]
    assert end == 47.3


@pytest.mark.parametrize("grid", ([], [1.0, 1.0], [2.0, 1.0], (0.5, 1.0, 0.75)))
def test_psi_sweep_refuses_the_grids_paradox_sweep_refuses(grid):
    message = refusal(psi_sweep, KL, 0.05, grid)
    assert message is not None
    assert message == refusal(paradox_sweep, KL, 1.0, grid)


# ---------------------------------------------------------------------------
# solving for sigma


def h_c_and_its_bound(spec, result):
    """|h_c| at result's sigma* and solve_sigma's stated rounding bound E for it.

    h_c = (ratio/2)(psi - c_alpha) from the psi the result reports, and
    E = 16 eps (1 + |L| + |log m|), eps = 2^-53, L = log(1/alpha_b - 1), with log m computed.
    """
    sigma = result.sigma_star
    level = calibration._log_rejection_odds(spec.alpha_b)
    h_c = 0.5 * variance_ratio(sigma) * (result.psi_at_sigma - classical_threshold(spec.alpha))
    bound = 16.0 * 2.0**-53 * (1.0 + abs(level) + abs(log_m_of_sigma(spec.scheme, sigma)))
    return abs(h_c), bound


def test_solve_round_trips_a_scan_point_exactly():
    # kl, robert and fixed solve on analytic brackets and have no scan points; tables and a
    # fixed mass on the base scan still scan.
    # The error at a scan point is met exactly, inside the domain at a table's ends. At the
    # table's end, 10.0, the root finder answers that end; at the interior point 1.0 it answers
    # the float nearest the root of h_c for the rounded target, within test_accuracy's bound of
    # its 60-digit value (0.10 and 0.05 ulp, where 1.0 itself is 2.10 and 2.05 ulp away).
    from test_accuracy import _sigma_star_bound, h_root_reference

    table = CustomTablePrior(((1.0, 0.6), (10.0, 0.01)))
    for scheme, s in ((SCANNED_FIXED_03, 1.0), (table, 1.0), (table, 10.0)):
        lo, hi = scheme.sigma_domain()
        alpha = type_i_error(s, 0.05, scheme)
        result = solve_sigma(CalibrationSpec(alpha, 0.05, scheme))
        if s == hi:
            assert result.sigma_star == s, (scheme, s)
        else:
            root, kappa = h_root_reference(scheme, alpha, 0.05, s)
            gap = float(abs(result.sigma_star - root)) / math.ulp(result.sigma_star)
            assert gap <= _sigma_star_bound(kappa), (scheme, s, gap)
        assert result.residual == 0.0, (scheme, s)
        bracket = result.bracket_used
        assert lo <= bracket.lo <= result.sigma_star <= bracket.hi <= hi, (scheme, s, bracket)


def test_solve_kl_round_trips_sigma_one_to_its_tolerance():
    alpha = type_i_error(1.0, 0.05, KL)
    result = solve_sigma(CalibrationSpec(alpha, 0.05, KL))
    assert abs(result.residual) <= 5e-12 * alpha
    assert abs(result.sigma_star - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha_b", [0.4999999, 1e-300])
def test_solve_kl_refuses_a_target_met_only_where_the_error_rounds_to_one(alpha_b):
    # The root finder closes in on sigma whose computed error is exactly 1, where psi <= 0.
    with pytest.raises(InfeasibleAlphaError) as excinfo:
        solve_sigma(CalibrationSpec(0.999999999, alpha_b, KL))
    got = excinfo.value
    assert got.requested == 0.999999999
    assert 0.0 < got.achievable_lo <= got.achievable_hi < 0.999999999


def test_solve_kl_answers_a_target_above_the_error_at_its_rounded_bound():
    # The computed error at the float bound is about 1 - 3.6e-8, not 1, and it moves by about
    # 1e-8 between adjacent floats there. The root of h_c for alpha = 1 - 1e-9 lies between the
    # bound and the next float, where psi rounds to <= 0: the bound answers, with h_c within E.
    spec = CalibrationSpec(1.0 - 1e-9, 0.05, KL)
    result = solve_sigma(spec)
    bound = positivity_bound(0.05, KL)
    assert result.sigma_star == result.bracket_used.hi == bound
    assert result.achieved_alpha == type_i_error(bound, 0.05, KL) < 1.0 - 1e-9
    h_c, stated = h_c_and_its_bound(spec, result)
    assert result.psi_at_sigma > 0.0 and h_c <= stated


def test_solve_accepts_a_sigma_star_by_h_c_within_its_bound(monkeypatch):
    """The floats above kl's sigma* for alpha = alpha_b = 0.05, handed to the acceptance test in
    place of _root_of_h's root: the last whose |h_c| is below E / 2 answers, the first above 2 E
    is refused, so a bound off by a factor of 2 either way fails here."""
    spec = CalibrationSpec(0.05, 0.05, KL)
    sigma, near, far = solve_sigma(spec).sigma_star, None, None
    while far is None:
        sigma = math.nextafter(sigma, math.inf)
        candidate = types.SimpleNamespace(sigma_star=sigma, psi_at_sigma=psi(sigma, 0.05, KL))
        h_c, bound = h_c_and_its_bound(spec, candidate)
        near, far = (sigma if h_c < 0.5 * bound else near), (sigma if h_c > 2.0 * bound else None)
    assert near is not None
    for candidate in (near, far):
        monkeypatch.setattr(calibration, "_root_of_h", lambda *args, sigma=candidate: sigma)
        if candidate == near:
            assert solve_sigma(spec).sigma_star == near
        else:
            with pytest.raises(InfeasibleAlphaError):
                solve_sigma(spec)


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
    result = solve_sigma(CalibrationSpec(1e-4, 0.1, ScannedFixed(0.07)))
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


def scan_reference(spec):
    """The grid scan solve_sigma ran for every scheme before kl got its bracket.

    Each pass evaluates all of its points again. Returns (bracket, outcome),
    outcome naming the pass that bracketed the root, or raises
    InfeasibleAlphaError. Calls type_i_error through the calibration module,
    so a test can count the calls there.
    """
    alpha, lo, hi = spec.alpha, *spec.scheme.sigma_domain()

    def error_at(sigma):
        return calibration.type_i_error(sigma, spec.alpha_b, spec.scheme)

    for outcome, per_decade in (("coarse", 1), ("fine", 16), ("fine", 64)):
        pts = [10.0 ** (k + j / per_decade) for k in range(-3, 3) for j in range(per_decade)]
        pts = [s for s in pts + [1e3] if lo < s < hi]
        pts = [lo] * (lo > 0.0) + pts + [hi] * (hi < math.inf)
        errors = [error_at(s) for s in pts]
        if per_decade == 64 and (min(errors) > alpha or max(errors) < alpha):
            far = [s for s in (1e6, 1e12) if pts[-1] < s < hi]
            pts += far
            errors += [error_at(s) for s in far]
            outcome = "beyond"
        for (s_lo, e_lo), (s_hi, e_hi) in zip(zip(pts, errors), zip(pts[1:], errors[1:])):
            if e_lo == alpha:
                return Bracket(s_lo / 2.0, s_hi), "exact"
            if e_hi == alpha:
                return Bracket(s_lo, s_hi * 2.0), "exact"
            if (e_lo > alpha) != (e_hi > alpha):
                return Bracket(s_lo, s_hi), outcome
    raise InfeasibleAlphaError(alpha, min(errors), max(errors))


SCANNED_TABLES = (CustomTablePrior(((0.5, 0.6), (2.0, 0.3), (5.0, 0.05))),
                  CustomTablePrior(((1.0, 0.6), (10.0, 0.01))),
                  CustomTablePrior(tuple((s, 1.0 / (1.0 + math.exp(0.5 * s * s)))
                                         for s in (0.3 + 0.1 * k for k in range(45)))))


def scanned_requests():
    """Seeded robert, fixed and table specs, plus fixed ones of each scan outcome.

    fixed:0.3 peaks at 0.0074412442 near sigma = 2.48: 0.00744 needs a fine
    pass, and the scan misses 0.007441. fixed:0.07 has its root beyond it.
    """
    rng = random.Random(19)
    specs = [CalibrationSpec(1e-4, 0.1, FixedPrior(0.07)), CalibrationSpec(0.00744, 0.05, FIXED_03),
             CalibrationSpec(0.007441, 0.05, FIXED_03)]
    for k in range(150):
        scheme = (ROBERT, FixedPrior(rng.uniform(0.02, 0.98)), SCANNED_TABLES[k % 3])[k % 3]
        alpha = 10.0 ** rng.uniform(-8.0, -0.7)
        specs.append(CalibrationSpec(alpha, rng.choice((0.01, 0.05, 0.1, 0.3)), scheme))
    for _ in range(30):  # next to a fixed mass's peak, where the fine passes decide
        scheme, alpha_b = FixedPrior(rng.uniform(0.02, 0.98)), rng.choice((0.01, 0.05, 0.1))
        peak = max(type_i_error(10.0 ** (j / 64), alpha_b, scheme) for j in range(-192, 193))
        specs.append(CalibrationSpec(peak * rng.uniform(0.97, 1.01), alpha_b, scheme))
    return specs


def test_solve_matches_the_scan_reference():
    """The solve on the base scan brackets or refuses as the reference scan does.

    Inside the bracket, Newton on h_c meets alpha to within 5e-12 * alpha, and test_accuracy
    holds sigma* to the root of h_c.
    """
    outcomes = set()
    for spec in map(on_the_scan, scanned_requests()):
        try:
            bracket, outcome = scan_reference(spec)
        except InfeasibleAlphaError as expected:
            with pytest.raises(InfeasibleAlphaError) as excinfo:
                solve_sigma(spec)
            got = excinfo.value
            assert (got.requested, got.achievable_lo, got.achievable_hi) == (
                expected.requested, expected.achievable_lo, expected.achievable_hi), spec
            outcomes.add("infeasible")
            continue
        result = solve_sigma(spec)
        assert result.bracket_used == bracket, spec
        assert bracket.lo <= result.sigma_star <= bracket.hi, spec
        assert result.achieved_alpha == type_i_error(result.sigma_star, spec.alpha_b, spec.scheme)
        assert abs(result.residual) <= 5e-12 * spec.alpha, spec
        outcomes.add(outcome)
    assert outcomes >= {"coarse", "fine", "beyond", "infeasible"}


def recording_polish(monkeypatch):
    """The bracket of each Newton polish, and the sigma at which it evaluated h_c."""
    polishes, sigmas = [], []
    real = calibration._root_of_h

    def recorded(scheme, level, c, lo, hi, evaluated):
        polishes.append(Bracket(lo, hi))
        ends = real(scheme, level, c, lo, hi, evaluated)
        sigmas.extend(evaluated)
        return ends

    monkeypatch.setattr(calibration, "_root_of_h", recorded)
    return polishes, sigmas


def counting_type_i_error(monkeypatch):
    calls = []
    real = calibration.type_i_error

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calibration, "type_i_error", counted)
    return calls


def counting_psi(monkeypatch):
    """The sigma of each psi that solve_sigma's memo computes: its at's log m calls, and the
    acceptance's at sigma* where it fills the memo. Where the memo has sigma* already, as at the
    end a refusal stops at, the acceptance's log m adds no psi and is not listed."""
    calls = []
    real = calibration.log_m_of_sigma

    def counted(scheme, sigma):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "at" or (caller.f_code.co_name == "solve_sigma"
                                                 and sigma not in caller.f_locals["cuts"]):
            calls.append(sigma)
        return real(scheme, sigma)

    monkeypatch.setattr(calibration, "log_m_of_sigma", counted)
    return calls


FEASIBLE_SCANNED = [
    CalibrationSpec(0.01, 0.05, ROBERT), CalibrationSpec(0.005, 0.05, FIXED_03),
    CalibrationSpec(1e-4, 0.1, FixedPrior(0.07)),
    CalibrationSpec(0.01, 0.05, CustomTablePrior(((0.5, 0.6), (2.0, 0.3), (5.0, 0.05)))),
]


def test_each_scanned_sigma_is_evaluated_once(monkeypatch):
    calls = counting_psi(monkeypatch)
    polishes, sigmas = recording_polish(monkeypatch)
    with pytest.raises(InfeasibleAlphaError):
        solve_sigma(CalibrationSpec(0.05, 0.05, ROBERT))
    assert len(calls) == len(set(calls)) == 387
    # No cell encloses c_alpha: the polish gets the cell nearest it, evaluates h_c at its two
    # ends, which have one sign, and stops.
    assert len(polishes) == 1 and sigmas == [polishes[0].lo, polishes[0].hi]
    for spec in FEASIBLE_SCANNED:
        calls.clear()
        polishes.clear()
        result = solve_sigma(spec)
        # The polish starts from its cell's ends, whose psi the scan computed.
        assert len(calls) == len(set(calls)), spec
        assert polishes == [result.bracket_used], spec
    reference_calls = counting_type_i_error(monkeypatch)
    with pytest.raises(InfeasibleAlphaError):
        scan_reference(CalibrationSpec(0.05, 0.05, ROBERT))
    assert len(reference_calls) == 491


def kl_requests():
    """kl at its edges: alpha_b >= 1/2, alpha within 1e-7 of 1, and an alpha 2e-12 of itself
    above the error at the rounded bound, which the tolerance meets."""
    e_hi = type_i_error(positivity_bound(0.05, KL), 0.05, KL)
    return ([CalibrationSpec(0.05, alpha_b, KL) for alpha_b in (0.5, 0.6, 0.999)]
            + [CalibrationSpec(1.0 - gap, alpha_b, KL) for alpha_b in (0.01, 0.05, 0.3)
               for gap in (1e-7, 3e-8, 1e-8, 1e-9, 1e-12)]
            + [CalibrationSpec(e_hi * (1.0 + 2e-12), 0.05, KL)])


def test_each_bracket_encloses_c_alpha_or_is_the_cell_nearest_it(monkeypatch):
    """Each scheme's bracket for the scanned and kl requests, and solve_sigma's verdict on it.

    A scan's bracket encloses c_alpha, or holds the scanned sigma whose psi is nearest it. kl's
    is [lo, bound] for alpha_b < 1/2 and a refusal, before any psi, for the rest; a taken cell
    leaves the memo empty, and its ends' psi is computed here. Where the bracket does not enclose
    c_alpha, solve_sigma answers only at an end where h_c is within its stated bound E
    (h_c_and_its_bound); it refuses the rest with the least and greatest error at the sigma the
    bracket evaluated and at its ends.
    """
    calls = counting_psi(monkeypatch)
    outcomes = set()
    for spec in scanned_requests() + kl_requests():
        cuts, c = psi_memo(spec), classical_threshold(spec.alpha)
        try:
            bracket = calibration._solve_bracket(cuts, spec.alpha, c)
        except InfeasibleAlphaError as refusal:
            got = (refusal.requested, refusal.achievable_lo, refusal.achievable_hi)
            assert spec.scheme is KL and spec.alpha_b >= 0.5, spec  # the error is 1 everywhere
            assert cuts == {} and got == (spec.alpha, 1.0, 1.0), spec
            outcomes.add("kl, alpha_b >= 1/2")
            continue
        lo, hi = spec.scheme.sigma_domain()
        assert lo <= bracket.lo < bracket.hi <= hi, spec
        level, sigmas = cuts.level, (bracket.lo, bracket.hi)
        ends = tuple(calibration._cut(level, log_m_of_sigma(spec.scheme, sigma),
                                      variance_ratio(sigma)) for sigma in sigmas)
        if spec.scheme._proven_cell(level, spec.alpha, c) == sigmas:
            assert cuts == {}, spec  # the check's log m stays in the check
        else:
            assert ends == (cuts[bracket.lo], cuts[bracket.hi]), spec
        if min(ends) <= c <= max(ends):
            outcomes.add("encloses c_alpha")
            continue
        assert spec.scheme is KL or min(abs(cut - c) for cut in ends) == min(
            abs(cut - c) for cut in cuts.values()), spec  # the scan's cell nearest c_alpha
        try:
            result = solve_sigma(spec)
        except InfeasibleAlphaError as refusal:
            errors = [type_i_error(sigma, spec.alpha_b, spec.scheme) for sigma in [*cuts, *sigmas]]
            assert (refusal.achievable_lo, refusal.achievable_hi) == (min(errors), max(errors))
            outcomes.add("refused")
            continue
        assert result.sigma_star in (bracket.lo, bracket.hi), spec
        h_c, stated = h_c_and_its_bound(spec, result)
        assert h_c <= stated, spec
        outcomes.add("met at an end")
    assert outcomes == {"kl, alpha_b >= 1/2", "encloses c_alpha", "refused", "met at an end"}
    calls.clear()
    with pytest.raises(InfeasibleAlphaError):
        solve_sigma(CalibrationSpec(0.05, 0.5, KL))
    assert calls == []  # solve_sigma computes no psi for it either
    assert type_i_error(1e-3, 0.5, KL) == type_i_error(1e3, 0.5, KL) == 1.0


@pytest.mark.parametrize("spec", [CalibrationSpec(0.05, 0.05, KL)] + FEASIBLE_SCANNED)
def test_evaluations_count_the_type_i_error_calls(monkeypatch, spec):
    """The sigma of each psi, from which the solve takes its Type I errors, computed once each,
    and the sigma where only h_c was evaluated."""
    calls = counting_psi(monkeypatch)
    _, sigmas = recording_polish(monkeypatch)
    result = solve_sigma(spec)
    assert len(calls) == len(set(calls))
    assert result.evaluations == len(set(calls) | set(sigmas))


def test_a_feasible_solve_computes_one_type_i_error(monkeypatch):
    """erfc once per answer, for the achieved alpha: on a proven cell (kl, robert, fixed:0.3), on
    the scan (the golden table, fixed:0.3 on the base scan) and by Brent's method (a scheme
    without _log_m_slope). A taken cell leaves the psi memo empty."""
    tails, upper_tail = [], calibration._upper_tail
    monkeypatch.setattr(calibration, "_upper_tail", lambda z: tails.append(z) or upper_tail(z))
    for scheme, alpha in ((KL, 0.01), (ROBERT, 0.01), (FIXED_03, 0.005), (GOLDEN_TABLE, 0.01),
                          (SCANNED_FIXED_03, 0.005), (WavyPrior(), 0.001)):
        spec, c = CalibrationSpec(alpha, 0.05, scheme), classical_threshold(alpha)
        cuts = psi_memo(spec)
        bracket = calibration._solve_bracket(cuts, alpha, c)
        if scheme in (KL, ROBERT, FIXED_03):
            assert (bracket.lo, bracket.hi) == scheme._proven_cell(cuts.level, alpha, c), scheme
            assert cuts == {}, scheme
        tails.clear()
        result = solve_sigma(spec)
        assert tails == [math.sqrt(result.psi_at_sigma)], scheme
        assert result.achieved_alpha == 2.0 * upper_tail(tails[0]), scheme


# The scan's grid as priors built it before _scan_passes, kept verbatim: the reference
# passes below and the eager scan are built from it.
_SCAN_DECADES = range(-3, 4)
#: Probes past the scan range, taken only when the finest pass brackets
#: nothing: asymptotically flat schemes reach some targets only there, and
#: their values bound the achievable range a refusal reports.
_FAR_PROBES = (1e6, 1e12)


@functools.lru_cache(maxsize=64)
def _scan_points(per_decade: int, lo: float, hi: float) -> tuple[float, ...]:
    """Log-spaced grid over 10^-3 .. 10^3, per_decade points per decade.

    Only the points inside the domain (lo, hi) are kept, and its finite
    ends close the grid. A finer grid holds every point of a coarser one bit
    for bit, since k + j/16 == k + 4j/64 exactly. Built once per domain.
    """
    pts = [10.0 ** (k + j / per_decade) for k in _SCAN_DECADES[:-1] for j in range(per_decade)]
    pts = [s for s in pts + [10.0 ** _SCAN_DECADES[-1]] if lo < s < hi]
    return (lo,) * (lo > 0.0) + tuple(pts) + (hi,) * (hi < math.inf)


def reference_scan_passes(lo, hi):
    """The walk's three passes as the scan built them from _scan_points, the last extended."""
    coarse, mid, fine = (_scan_points(per_decade, lo, hi) for per_decade in (1, 16, 64))
    return coarse, mid, fine + tuple(s for s in _FAR_PROBES if fine[-1] < s < hi)


def test_scan_passes_are_the_reference_grid_bit_for_bit():
    """_scan_passes builds _scan_points' passes, and each pass holds the coarser one in order.

    Domains: the edge cases below, the scanned tables' and 9000 seeded ones, whose ends are
    0, inf, grid points or log-uniform draws over 10^-6 .. 10^14.
    """
    grid = reference_scan_passes(0.0, math.inf)[-1]
    rng = random.Random(37)

    def end():
        return rng.choice(grid) if rng.random() < 0.3 else 10.0 ** rng.uniform(-6.0, 14.0)

    domains = [(0.0, math.inf), (0.0, 5e-4), (5e3, math.inf), (2e6, math.inf), (2e12, math.inf),
               (0.1, 1e7), (1e-5, 1e13)] + [table.sigma_domain() for table in SCANNED_TABLES]
    for _ in range(9000):
        lo, hi = sorted((end(), end()))
        domains.append((0.0 if rng.random() < 0.2 else lo, math.inf if rng.random() < 0.2 else hi))
    for lo, hi in domains:
        passes = calibration._scan_passes(lo, hi)
        assert passes == reference_scan_passes(lo, hi), (lo, hi)  # no two positive floats tie
        for coarse, fine in zip(passes, passes[1:]):
            finer = iter(fine)
            assert all(s in finer for s in coarse), (lo, hi)  # a subsequence, in order


def eager_calibration_bracket(psi, c):
    """The sigma scan (calibration._scan_bracket) as it was before it stopped at the first cell.

    Each pass computes psi at every point, then returns the first cell that
    encloses c; where none does, the last pass's cell nearest c. The scan as
    it ran on Type I errors, self renamed to scheme, moved onto psi and c, as
    the reference the walk must agree with.
    """
    lo, hi = psi.scheme.sigma_domain()
    for per_decade in (1, 16, 64):
        pts = _scan_points(per_decade, lo, hi)
        cuts = [psi.at(s) for s in pts]
        if per_decade == 64 and not min(cuts) <= c <= max(cuts):
            # Nothing on the grid meets c: look past its upper end.
            far = tuple(s for s in _FAR_PROBES if pts[-1] < s < hi)
            pts += far
            cuts += [psi.at(s) for s in far]
        if min(cuts) <= c <= max(cuts):  # some cell of this pass encloses c
            return next(Bracket(s_lo, s_hi) for s_lo, s_hi, p_lo, p_hi
                        in zip(pts, pts[1:], cuts, cuts[1:])
                        if min(p_lo, p_hi) <= c <= max(p_lo, p_hi))
    near = min(range(len(pts)), key=lambda i: abs(cuts[i] - c))
    return Bracket(*pts[near:near + 2]) if near + 1 < len(pts) else Bracket(*pts[-2:])


def psi_memo(spec):
    """An empty memo of psi for spec's scheme and alpha_b, as solve_sigma's: it fills in the
    order each sigma is first computed."""
    return calibration._PsiMemo(spec.scheme, calibration._log_rejection_odds(spec.alpha_b))


def scan_outcome(scan, spec):
    """scan's Bracket for spec, and the psi it computed at each sigma, in order.

    scan(psi, c) gets a memo of psi, as solve_sigma gives, so each sigma is listed once.
    """
    cuts = psi_memo(spec)
    return scan(cuts, classical_threshold(spec.alpha)), cuts


def walk_and_eager_scan(spec):
    """Whether the walk's cell encloses c_alpha, its evaluation count, and the eager scan's.

    The walk must return the eager scan's bracket and compute the first of the
    eager scan's sigma in the same order; a cell that does not enclose c_alpha
    comes after them all.
    """
    walked, walk_cuts = scan_outcome(calibration._scan_bracket, spec)
    eager, eager_cuts = scan_outcome(eager_calibration_bracket, spec)
    assert walked == eager, spec
    walk_order, eager_order = list(walk_cuts), list(eager_cuts)
    assert walk_order == eager_order[:len(walk_order)], spec
    ends, c = (walk_cuts[walked.lo], walk_cuts[walked.hi]), classical_threshold(spec.alpha)
    encloses = min(ends) <= c <= max(ends)
    if not encloses:
        assert walk_order == eager_order, spec
    return encloses, len(walk_order), len(eager_order)


class WavyPrior(PriorScheme):
    """A custom scheme whose null mass rises and falls with log sigma, and its error with it."""

    __slots__ = ()

    def rho0(self, sigma):
        return 0.5 + 0.45 * math.sin(math.log(sigma))

    @property
    def scheme_id(self):
        return "wavy"


def test_solve_answers_a_wavy_target_that_rounds_to_one():
    # c_alpha is about 1.5e-23, below psi's resolution next to the root: psi jumps from about
    # 1.7e-10 (error 0.99998965) to <= 0 (error 1.0) between adjacent floats. h_c = (ratio/2)
    # (psi - c_alpha) is about 3e-16 there, within its bound E, so that float answers;
    # test_accuracy holds it to the root of h_c. Its error misses alpha by 1e-5, the error's
    # step between adjacent floats. The scheme has no slope, so Brent's method finds it.
    spec = CalibrationSpec(0.9999999999968855, 0.5, WavyPrior())
    result = solve_sigma(spec)
    assert result.sigma_star == 0.0018674409227121525
    assert result.achieved_alpha == 0.9999896476358079
    h_c, stated = h_c_and_its_bound(spec, result)
    assert result.psi_at_sigma > 0.0 and h_c <= stated


class NoSlopeTable(CustomTablePrior):
    """A table without _log_m_slope: its solve finds the root of h_c by Brent's method."""

    _log_m_slope = None


GOLDEN_TABLE = CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv"))


def test_a_table_without_its_slope_solves_to_its_sigma_star():
    """Brent's solve of a table without its slope, against Newton's of the table with it.

    On scanned_requests' tables sigma* is within 2 ulp of Newton's. On the golden table h_c is
    flatter (kappa up to 34), and the two may differ by more while both stay within
    test_accuracy's bound of the root, so only the residual is checked there. Each solve takes at
    most 32 evaluations (52 before Brent's method stepped one float off a converged end), and on
    average less than twice Newton's. The bracket's secant steps
    (regula falsi) took 81 on the golden table at alpha = alpha_b = 0.5, and 2.9 times Newton's
    on scanned_requests' tables.
    """
    scanned = [spec for spec in scanned_requests() if isinstance(spec.scheme, CustomTablePrior)]
    golden = [CalibrationSpec(alpha, alpha_b, GOLDEN_TABLE) for alpha, alpha_b in
              ((0.01, 0.05), (1e-4, 0.05), (0.001, 0.1), (0.05, 0.3), (0.1, 0.5), (0.5, 0.5))]
    counts = []
    for spec in scanned + golden:
        copy = CalibrationSpec(spec.alpha, spec.alpha_b, NoSlopeTable(spec.scheme.points))
        try:
            newton = solve_sigma(spec)
        except InfeasibleAlphaError as refused:
            assert refusal(solve_sigma, copy) == str(refused), spec
            continue
        brent = solve_sigma(copy)
        if spec in scanned:
            gap = abs(brent.sigma_star - newton.sigma_star)
            assert gap <= 2.0 * math.ulp(newton.sigma_star), spec
        assert abs(brent.residual) <= 5e-12 * spec.alpha, spec
        assert brent.bracket_used == newton.bracket_used, spec
        assert brent.evaluations <= 32, spec
        counts.append((newton.evaluations, brent.evaluations))
    assert len(counts) > 40
    assert sum(b for _, b in counts) < 2 * sum(n for n, _ in counts)


def test_a_scheme_infinite_past_a_sigma_is_refused_as_before():
    """Log odds 0 below sigma = 50 and +inf above, with no slope: h_c is -inf at the bracket's
    high end, which Brent's method reads as a sign. It stops at the jump, where the error misses
    alpha, and the solve refuses alpha from the scan's errors."""
    class Cliff(PriorScheme):
        __slots__ = ()
        scheme_id = "cliff"

        def log_prior_odds(self, sigma):
            return 0.0 if sigma < 50.0 else math.inf

    for alpha in (0.2, 0.5, 0.9, 0.99):
        with pytest.raises(InfeasibleAlphaError) as excinfo:
            solve_sigma(CalibrationSpec(alpha, 0.05, Cliff()))
        got = excinfo.value
        assert (got.achievable_lo, got.achievable_hi) == (0.0, 0.0011253619579786802), alpha


def test_a_domain_the_scan_cannot_split_is_refused_by_name():
    """Every pass over (0, 5e-4) holds the one sigma 5e-4, and so no cell to enclose alpha in.

    That sigma achieves the target exactly, so calling it infeasible would be wrong.
    """
    class Narrow(PriorScheme):
        __slots__ = ()
        scheme_id = "narrow"

        def rho0(self, sigma):
            return 0.05

        def sigma_domain(self):
            return 0.0, 5e-4

    alpha = 0.3173104772093517
    assert type_i_error(5e-4, 0.05, Narrow()) == alpha
    with pytest.raises(UnsupportedSchemeError, match=r"cannot split the domain \(0\.0, 0\.0005\)"):
        solve_sigma(CalibrationSpec(alpha, 0.05, Narrow()))


def test_the_walk_matches_the_eager_scan_on_the_scanned_requests():
    outcomes = set()
    for spec in map(on_the_scan, scanned_requests()):
        encloses, walk_count, eager_count = walk_and_eager_scan(spec)
        if not encloses:
            outcomes.add("nearest cell")
        elif walk_count < eager_count:
            outcomes.add("stopped early")
        else:  # the cell that encloses c_alpha is the pass's last
            outcomes.add("walked whole")
    assert outcomes == {"nearest cell", "stopped early", "walked whole"}


FIXED_03_PEAK = 0.0074412442  # fixed:0.3's greatest Type I error at alpha_b = 0.05, near 2.48
log_alphas = st.floats(-8.0, -0.7).map(lambda t: 10.0 ** t)
scan_alpha_bs = st.sampled_from((0.01, 0.05, 0.1, 0.3))
scan_requests = st.one_of(
    st.builds(CalibrationSpec, st.floats(0.9, 1.01).map(lambda f: f * ALPHA_SUP_ROBERT),
              st.just(0.05), st.just(ROBERT)),  # near robert's ceiling
    st.builds(CalibrationSpec, log_alphas, scan_alpha_bs, st.just(ROBERT)),
    st.builds(lambda alpha, alpha_b, ratio: CalibrationSpec(alpha, alpha_b,
                                                            FixedPrior(min(alpha_b * ratio, 0.99))),
              log_alphas, scan_alpha_bs, st.floats(-1.0, 1.0).map(lambda u: 10.0 ** u)),
    st.builds(CalibrationSpec, st.floats(0.97, 1.01).map(lambda f: f * FIXED_03_PEAK),
              st.just(0.05), st.just(FIXED_03)),  # the fine passes decide
    st.builds(CalibrationSpec, st.floats(-8.0, -2.0).map(lambda t: 10.0 ** t), st.just(0.1),
              st.just(FixedPrior(0.07))),  # roots beyond the scan
    st.builds(CalibrationSpec, log_alphas, scan_alpha_bs,
              st.sampled_from((CustomTablePrior.from_csv(str(Path(__file__).parent / "golden"
                                                             / "table.csv")),)
                              + SCANNED_TABLES)),
    st.builds(CalibrationSpec, log_alphas, scan_alpha_bs, st.just(WavyPrior())),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scan_requests)
@example(CalibrationSpec(0.00744, 0.05, FIXED_03))  # the 16-per-decade pass encloses it
@example(CalibrationSpec(0.007441, 0.05, FIXED_03))  # no pass does
@example(CalibrationSpec(1e-4, 0.1, FixedPrior(0.07)))  # only the far probes do
def test_the_walk_matches_the_eager_scan(spec):
    walk_and_eager_scan(on_the_scan(spec))


def test_the_scan_stops_at_the_first_cell_that_encloses_alpha(monkeypatch):
    """Criterion 11's request: the coarse pass stops at [1, 10], two points short of its end.

    Then the polish evaluates h_c at 6 new sigma, and the memo psi at one of them, sigma*.
    """
    calls = counting_psi(monkeypatch)
    polishes, sigmas = recording_polish(monkeypatch)
    result = solve_sigma(CalibrationSpec(0.01, 0.05, SCANNED_ROBERT))
    assert calls == [1e-3, 1e-2, 0.1, 1.0, 10.0, result.sigma_star]
    assert result.sigma_star in sigmas
    assert polishes == [Bracket(1.0, 10.0)]
    assert result.evaluations == 11
    assert result.sigma_star == 1.4273082827389831
    assert solve_sigma(CalibrationSpec(0.003, 0.05, SCANNED_FIXED_03)).evaluations == 57
    calls.clear()
    with pytest.raises(InfeasibleAlphaError, match=r"\(0\.0, 0\.04414516380661788\)"):
        solve_sigma(CalibrationSpec(0.045, 0.05, SCANNED_ROBERT))
    assert len(calls) == 387  # a refusal still computes every point of the last pass


def recording_ends(monkeypatch):
    """The ends robert's and fixed's _proven_cell return: each proven cell, or None."""
    ends = []

    def recording(real):
        def recorded(scheme, level, alpha, c):
            ends.append(proposed := real(scheme, level, alpha, c))
            return proposed
        return recorded

    for cls in (RobertPrior, FixedPrior):
        monkeypatch.setattr(cls, "_proven_cell", recording(cls._proven_cell))
    return ends


def recording_scans(monkeypatch):
    """The scheme of each sigma scan (calibration._scan_bracket) run."""
    scans = []
    real = calibration._scan_bracket

    def recorded(psi, c):
        scans.append(psi.scheme)
        return real(psi, c)

    monkeypatch.setattr(calibration, "_scan_bracket", recorded)
    return scans


def answer_or_refusal(spec):
    try:
        return solve_sigma(spec)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def bracket_requests():
    """robert and fixed requests: scanned_requests' own, then seeded ones with alpha from 1e-300
    to within 1e-15 of 1, alpha_b from 1e-300 to 0.9 (robert's g = L - log sqrt(2 pi) is
    negative above 0.2853) and masses from 1e-300 to 0.99, then five edges: a proven end within
    rounding of the root, a mass whose log m cancels near it, an end past float range,
    fixed:0.3's peak error times 1 - 8 * 2^-52, where only the upper end is within rounding, and
    robert 4e-16 below its ceiling 0.0441451638066179, where only the lower end is."""
    rng = random.Random(44)
    specs = [spec for spec in scanned_requests() if type(spec.scheme) in (RobertPrior, FixedPrior)]
    for _ in range(400):
        alpha = rng.choice((10.0 ** rng.uniform(-300.0, -0.3), rng.uniform(0.001, 0.999),
                            1.0 - 10.0 ** rng.uniform(-15.0, -1.0)))
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.9),
                              10.0 ** rng.uniform(-300.0, -1.0)))
        rho0 = rng.choice((rng.uniform(0.01, 0.99), 10.0 ** rng.uniform(-300.0, -0.1)))
        specs.append(CalibrationSpec(alpha, alpha_b, rng.choice((ROBERT, FixedPrior(rho0)))))
    return specs + [CalibrationSpec(0.9999999999999999, 0.05, FixedPrior(0.0009)),
                    CalibrationSpec(0.05, 0.05, FixedPrior(1e-300)),
                    CalibrationSpec(1e-300, 1e-10, FixedPrior(1e-20)),
                    CalibrationSpec(0.007441244218194309, 0.05, FIXED_03),
                    CalibrationSpec(0.044145163806617, 0.05, ROBERT)]


def test_robert_and_fixed_brackets_hold_the_root_or_leave_it_to_the_scan(monkeypatch):
    """Where the scheme proves a cell and h_c, as the root finder computes it, is past its rounding
    bound E at the lower end and, at the upper end, past it with the opposite sign or within it,
    or within E at the lower end and not past it above 0 at the upper, that cell is the bracket,
    found without a scan, and the memo holds nothing from it.
    The solve then answers in it, at the root the scan brackets where the scan answers.
    Everywhere else the scan decides as on the base scan: the same bracket, psi at the same sigma
    in the same order, and the same answer, evaluation count or refusal."""
    ends, scans = recording_ends(monkeypatch), recording_scans(monkeypatch)
    outcomes = set()
    for spec in bracket_requests():
        scanned, scheme = on_the_scan(spec), spec.scheme
        level, c = calibration._log_rejection_odds(spec.alpha_b), classical_threshold(spec.alpha)
        ends.clear()
        scans.clear()
        cuts = psi_memo(spec)
        bracket = calibration._solve_bracket(cuts, spec.alpha, c)
        [proposed] = ends
        if not scans:
            assert proposed == (bracket.lo, bracket.hi), spec
            assert cuts == {}, spec
            rises = type(scheme) is FixedPrior and level <= scheme._log_odds  # h_c < 0 at lo
            lower_within = False
            for sigma in proposed:
                h_c = level - log_m_of_sigma(scheme, sigma) - 0.5 * c * variance_ratio(sigma)
                stated = 16.0 * 2.0**-53 * (1.0 + abs(level) + abs(log_m_of_sigma(scheme, sigma)))
                if sigma == proposed[1] and lower_within:
                    assert h_c <= stated, spec
                if abs(h_c) <= stated:
                    end = "upper" if sigma == proposed[1] else "lower"
                    outcomes.add(f"{end} end within rounding: the cell is taken")
                    lower_within = sigma == proposed[0]
                    continue
                assert abs(h_c) > stated, spec
                assert (h_c > 0.0) == ((sigma == proposed[0]) != rises), spec
            result = solve_sigma(spec)
            assert result.bracket_used == bracket and bracket.lo <= result.sigma_star <= bracket.hi
            scan = answer_or_refusal(scanned)
            if isinstance(scan, str):
                outcomes.add("proven, where the scan refuses")
                continue
            assert scan.bracket_used.lo <= result.sigma_star <= scan.bracket_used.hi, spec
            outcomes.add("proven")
            continue
        scan_bracket, scan_cuts = scan_outcome(calibration._scan_bracket, scanned)
        assert (scan_bracket, list(scan_cuts.items())) == (bracket, list(cuts.items())), spec
        assert answer_or_refusal(spec) == answer_or_refusal(scanned), spec
        if proposed is None:
            cancels = type(scheme) is FixedPrior and 2.0 * (1.0 + abs(level)) < scheme._log_odds
            outcomes.add("log m cancels" if cancels and level <= scheme._log_odds else "no root")
        elif math.isinf(proposed[1]):
            outcomes.add("an end past float range")
        else:
            outcomes.add("an end within rounding")
    assert outcomes == {"proven", "proven, where the scan refuses", "no root", "log m cancels",
                        "an end past float range", "an end within rounding",
                        "upper end within rounding: the cell is taken",
                        "lower end within rounding: the cell is taken"}


def proven_cell_or_refusal(scheme, level, alpha, c):
    try:
        return scheme._proven_cell(level, alpha, c)
    except InfeasibleAlphaError as exc:
        return (exc.requested, exc.achievable_lo, exc.achievable_hi)


def test_robert_and_fixed_prove_their_cells_without_a_log_m(monkeypatch):
    """_proven_cell is pure math: with log_m_of_sigma raising in priors and calibration, and so
    psi too, robert's and fixed's cells for bracket_requests, and kl's at the same alpha and
    alpha_b, are what they are without it. So is kl's refusal of alpha_b >= 1/2, where the error
    is 1 at every sigma."""
    requests = [(scheme, calibration._log_rejection_odds(spec.alpha_b), spec.alpha,
                 classical_threshold(spec.alpha))
                for spec in bracket_requests() for scheme in (spec.scheme, KL)]
    cells = [proven_cell_or_refusal(*request) for request in requests]

    def refused(scheme, sigma):
        raise AssertionError(f"log m computed at sigma={sigma!r} for {scheme.scheme_id}")

    for module in (priors, calibration):
        monkeypatch.setattr(module, "log_m_of_sigma", refused)
    assert [proven_cell_or_refusal(*request) for request in requests] == cells
    assert None in cells and {type(scheme) for (scheme, *_), cell in zip(requests, cells)
                              if cell is not None} == {RobertPrior, FixedPrior,
                                                       KLSelfInformationPrior}
    for (scheme, level, alpha, _), cell in zip(requests, cells):
        if scheme is KL:
            assert (cell == (alpha, 1.0, 1.0)) == (level <= 0.0), (level, alpha)


class ScannedKL(KLSelfInformationPrior):
    """kl's log odds and slope on the sigma scan, with no proven cell."""

    __slots__ = ()
    _proven_cell = PriorScheme._proven_cell


def test_kl_leaves_its_cell_to_the_scan_only_where_its_check_fails(monkeypatch):
    """kl's cell is checked like robert's and fixed's. Where _h_past_rounding reads h_c above 0
    at its upper end, the bound, with the lower end past rounding above 0 or within it, the
    solve takes the scan's bracket, and answers and counts as kl on the scan. Where it reads 0
    at the lower end alone, as for alpha_b within about 6e-14 of 1/2, the cell is taken."""
    pending = []
    real_cell, real_h = KLSelfInformationPrior._proven_cell, calibration._h_past_rounding

    def recorded(scheme, level, alpha, c):
        pending[:] = reads  # the check reads the lower end, then the upper
        return real_cell(scheme, level, alpha, c)

    def misread(level, c, log_m, ratio):
        read = pending.pop(0) if pending else None
        return real_h(level, c, log_m, ratio) if read is None else read

    targets = ((1e-10, 0.05), (0.01, 0.05), (0.05, 0.05), (0.3, 0.01), (0.9, 0.3), (0.9999, 0.05))
    plain = {target: solve_sigma(CalibrationSpec(*target, KL)) for target in targets}
    monkeypatch.setattr(KLSelfInformationPrior, "_proven_cell", recorded)
    monkeypatch.setattr(calibration, "_h_past_rounding", misread)
    scanned = ScannedKL()
    for reads in ((None, 1.0), (0.0, 1.0), (0.0, None)):
        for target in targets:
            spec = CalibrationSpec(*target, KL)
            result = solve_sigma(spec)
            if reads[1] is None:
                assert result == plain[target], (reads, spec)
                continue
            scan_bracket, _ = scan_outcome(calibration._scan_bracket, spec)
            assert result == solve_sigma(CalibrationSpec(*target, scanned)), (reads, spec)
            assert result.bracket_used == scan_bracket != plain[target].bracket_used, spec


KL_NEXT_TO_ONE_HALF_DIGEST = "62b8afd70bf84b4989acf16e41f1e352889b6ddb71c78e529c6519ee2249d23c"


def kl_requests_next_to_one_half(count=600, seed=47):
    """kl with alpha_b = 1/2 - 10^U(-16, -12), where h_c at kl's lower end, about
    L (1 - c/(1 - 2 log alpha)), is within rounding for many targets and so, for L below about
    2e-15, is h_c at both ends; alpha from 1e-300 to within 1e-16 of 1."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha_b = 0.5 - 10.0 ** rng.uniform(-16.0, -12.0)
        alpha = rng.choice((10.0 ** rng.uniform(-300.0, -1.0), rng.uniform(0.001, 0.999),
                            1.0 - 10.0 ** rng.uniform(-16.0, -1.0)))
        yield alpha, alpha_b


def test_kl_answers_targets_next_to_alpha_b_one_half_in_its_cell():
    """The scan, from sigma = 1e-3, cannot reach kl's roots near 1e-8 there, so the cell must be
    taken where its lower end, or both ends, are within rounding. The digest and the 487 answers
    are those of kl's cell taken unchecked, before every cell was checked; checking it with a
    lower end that must be past rounding answered 298."""
    digest, answers, within = hashlib.sha256(), 0, collections.Counter()
    for alpha, alpha_b in kl_requests_next_to_one_half():
        level, c = calibration._log_rejection_odds(alpha_b), classical_threshold(alpha)
        within[tuple(not calibration._h_past_rounding(level, c, log_m_of_sigma(KL, sigma),
                                                      variance_ratio(sigma))
                     for sigma in KL._proven_cell(level, alpha, c))] += 1
        line = answer_or_refusal(CalibrationSpec(alpha, alpha_b, KL))
        answers += not isinstance(line, str)
        digest.update(f"{alpha!r} {alpha_b!r} {line!r}\n".encode())
    assert within[True, False] > 0 and within[True, True] > 0, within
    assert answers == 487
    assert digest.hexdigest() == KL_NEXT_TO_ONE_HALF_DIGEST
    result = solve_sigma(CalibrationSpec(2.7771982424568544e-94, 0.4999999999999978, KL))
    assert result.sigma_star == 6.470085275355061e-09


def test_the_brackets_of_pinned_requests():
    """robert's cell [sqrt(2 g / (c - 2 g)), sqrt(2 (1 + c) / (c - 2 g))], fixed's
    [sqrt(2 D / (c - 2 D)), sqrt(c - 1)] for D > 0 and [sqrt(e^k - 1), sqrt(e^(c + 1 - 2 D) - 1)],
    k = max(-2 D, log c), for D <= 0, and the evaluations each solve takes on it. The last two
    targets the scan refuses: fixed:0.3 peaks at 0.0074412442, and fixed:0.01's root lies far past
    1e12. test_accuracy holds each sigma* to the root of h_c."""
    pinned = (
        (CalibrationSpec(0.01, 0.05, ROBERT), 1.4273082827389834, 1.252113445221609,
         2.4309671341481187, 7),
        (CalibrationSpec(0.005, 0.05, FIXED_03), 1.4408739199976905, 1.0668438722948541,
         2.622868387209396, 9),
        (CalibrationSpec(1e-4, 0.1, FixedPrior(0.07)), 2857.825763576881, 3.759881012295921,
         4711.762672998424, 11),
        (CalibrationSpec(0.007441, 0.05, FIXED_03), 2.4681340751891976, 1.1885627539390387,
         2.4826003007813955, 14),
        (CalibrationSpec(1e-30, 0.05, FixedPrior(0.01)), 3.5810624375411505e+29,
         11.480413437895615, 5.9041738124793724e+29, 7),
    )
    for spec, sigma_star, lo, hi, evaluations in pinned:
        result = solve_sigma(spec)
        assert (result.sigma_star, result.bracket_used, result.evaluations) == (
            sigma_star, Bracket(lo, hi), evaluations), spec
    for spec, achievable in ((pinned[3][0], r"\(0\.0, 0\.007440547098067371\)"),
                             (pinned[4][0], r"\(5\.662321767420992e-13, 1\.0\)")):
        with pytest.raises(InfeasibleAlphaError, match=achievable):
            solve_sigma(on_the_scan(spec))


def test_the_brackets_take_fewer_evaluations_than_the_scan():
    """Feasible robert and fixed requests as calibrate's benchmark draws them (alpha_b 0.01, 0.05
    and 0.1, masses from 0.05 to 0.95, alpha log-uniform from 1e-4 up to the largest error
    on the scan): each solve on its bracket takes at most 16 evaluations, and on average 7.0 for
    robert and 7.2 for fixed, where the scan took 10.5 and 22.2."""
    rng = random.Random(45)
    counts = {"robert": ([], []), "fixed": ([], [])}
    while min(len(analytic) for analytic, _ in counts.values()) < 200:
        scheme = rng.choice((ROBERT, FixedPrior(rng.uniform(0.05, 0.95))))
        spec = CalibrationSpec(10.0 ** rng.uniform(-4.0, -0.7), rng.choice((0.01, 0.05, 0.1)),
                               scheme)
        try:
            result = solve_sigma(spec)
        except InfeasibleAlphaError:
            continue
        analytic, scanned = counts[scheme.scheme_id.split(":")[0]]
        analytic.append(result.evaluations)
        scanned.append(solve_sigma(on_the_scan(spec)).evaluations)
    for name, (analytic, scanned) in counts.items():
        assert max(analytic) <= 16, name
        assert sum(analytic) < 7.2 * len(analytic) < 0.75 * sum(scanned), name


def test_spec_validation():
    with pytest.raises(DomainError):
        CalibrationSpec(0.0, 0.05, KL)
    with pytest.raises(DomainError):
        CalibrationSpec(1.0, 0.05, KL)
    with pytest.raises(DomainError):
        CalibrationSpec(0.05, math.nan, KL)


# ---------------------------------------------------------------------------
# decisions


def threshold_route(x, sigma, alpha_b, scheme):
    """x^2 > psi(sigma), the classical form of decide's rule, from one log m and variance ratio.

    The cut is calibration._cut; where x * x overflows, the x^2 term is weighed
    against the gap L - log m instead. This route weighs 0.5 x^2 ratio against
    L - log m to within 3 eps |L - log m|, so where it and the posterior route
    disagree the posterior exponent t lies within
    9 eps (|L| + |log m|) + s + eps (3 |L| + 3) < tau of L (calibration._band's
    eps, s and tau). The tests hold decide to it outside that band.
    """
    level = calibration._log_rejection_odds(alpha_b)
    base = log_m_of_sigma(scheme, sigma)
    ratio = variance_ratio(sigma)
    x_squared = x * x
    cut = calibration._cut(level, base, ratio)
    if x_squared < math.inf or cut < 0.0:
        return x_squared > cut
    return _x2_term(x, sigma) > level - base


def test_decide_clear_retain():
    decision = decide(Observation(0.0), 1.0, 0.05, KL)
    assert not decision.reject
    assert not decision.via_posterior
    assert not threshold_route(0.0, 1.0, 0.05, KL)


def test_decide_clear_reject():
    decision = decide(Observation(4.0), 1.0, 0.05, KL)
    assert decision.reject
    assert decision.via_posterior
    assert threshold_route(4.0, 1.0, 0.05, KL)


def test_decide_at_the_exact_boundary_does_not_blow_up():
    x = math.sqrt(PSI_KL_1)
    decision = decide(Observation(x), 1.0, 0.05, KL)
    assert decision.reject == decision.via_posterior


def test_rejection_is_strict_so_ties_retain():
    tie = posterior_h0(Observation(1.0), AlternativeSpread(2.0), 0.5)
    assert tie == 0.5998209101916216
    assert not decide(Observation(1.0), 2.0, tie, FixedPrior(0.5)).reject
    assert decide(Observation(1.0), 2.0, math.nextafter(tie, 1.0), FixedPrior(0.5)).reject


def test_decide_past_positivity_bound_always_rejects():
    decision = decide(Observation(0.0), 3.0, 0.05, KL)
    assert decision.reject
    assert threshold_route(0.0, 3.0, 0.05, KL)


def test_decide_returns_one_shared_record_per_outcome():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(2000):
        scheme = rng.choice((KL, ROBERT, FixedPrior(0.3)))
        alpha_b = rng.choice((0.05, 1e-20, 0.5))
        sigma = 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            x = math.sqrt(psi(sigma, alpha_b, scheme)) * rng.choice((1.0, 1.0 + 2**-52, 0.5, 2.0))
        except PsiDomainError:
            x = rng.uniform(-5.0, 5.0)
        decision = decide(Observation(x), sigma, alpha_b, scheme)
        assert decision == Decision(decision.reject, decision.reject)
        assert seen.setdefault(decision.reject, decision) is decision
    assert set(seen) == {False, True}


def test_cached_alpha_b_level_still_refuses_a_bad_alpha_b():
    """Past 64 distinct alpha_b the memo is emptied: the levels stay exact, and refusals repeat."""
    type_i_error(1.0, 0.05, KL)  # puts a good level in the cache
    goods = [0.05, *(k / 200.0 for k in range(1, 200))]
    for _round in range(3):  # 200 levels a pass: the memo is emptied three times each
        for good in goods:
            assert calibration._log_rejection_odds(good) == math.log1p(-good) - math.log(good)
        for bad in (0.0, 1.0, -0.0, -0.5, 1.5, math.nan, math.inf, -math.inf):
            for _ in range(2):
                with pytest.raises(DomainError, match="alpha_b"):
                    calibration._log_rejection_odds(bad)
                with pytest.raises(DomainError, match="alpha_b"):
                    decide(Observation(1.0), 1.0, bad, KL)
        assert len(calibration._LEVELS) <= 64
    assert calibration._log_rejection_odds(0.05) == math.log1p(-0.05) - math.log(0.05)


@pytest.mark.parametrize("bad", (0.0, 1.0, math.nan, 1.5))
def test_a_refused_alpha_b_leaves_the_memo_as_it_was_and_chains_no_error(bad):
    """A full memo is not emptied by a refusal, nothing is stored, and no KeyError is chained."""
    k = 1
    while len(calibration._LEVELS) < 64:
        calibration._log_rejection_odds(k / 1000.0)
        k += 1
    before = dict(calibration._LEVELS)
    routes = {
        "_log_rejection_odds": lambda: calibration._log_rejection_odds(bad),
        "psi": lambda: psi(1.0, bad, KL),
        "type_i_error": lambda: type_i_error(1.0, bad, KL),
        "power_analytic": lambda: power_analytic(0.5, 1.0, bad, KL),
        "positivity_bound": lambda: positivity_bound(bad, KL),
    }
    for name, route in routes.items():
        with pytest.raises(DomainError, match="alpha_b") as refused:
            route()
        assert refused.value.__context__ is None, name
        assert dict(calibration._LEVELS) == before, name


def test_decide_routes_agree_under_fuzzing():
    rng = random.Random(20240709)
    schemes = [FixedPrior(0.3), ROBERT, KL]
    for scheme in schemes:
        for _ in range(2000):
            x = rng.uniform(-6.0, 6.0)
            sigma = 10.0 ** rng.uniform(-2.0, 2.0)
            decision = decide(Observation(x), sigma, 0.05, scheme)
            assert decision.reject == decision.via_posterior
            assert agrees_with_the_threshold_route(decision, x, sigma, 0.05, scheme)


TABLE = CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.35), (8.0, 0.1)))


def outcome(route):
    """(value, None) from a route that returns, (None, error) from one that raises."""
    try:
        return route(), None
    except DomainError as error:
        return None, error


def public_routes(x, sigma, alpha_b, scheme):
    """decide's two routes through the public posterior and psi, and the error due first.

    decide checks sigma, then alpha_b, then the scheme's own errors: the
    spread raises the first, psi the second (before its log m) and the
    posterior the last.
    """
    obs = Observation(x)
    _, spread_error = outcome(lambda: AlternativeSpread(sigma))
    post, post_error = outcome(lambda: posterior_from_log_odds(
        obs, AlternativeSpread(sigma), scheme.log_prior_odds(sigma)))
    threshold, psi_error = outcome(lambda: psi(sigma, alpha_b, scheme))
    if isinstance(psi_error, PsiDomainError):
        threshold, psi_error = -math.inf, None  # psi <= 0: every x rejects
    error = spread_error or psi_error or post_error
    return post, (None if threshold is None else x * x > threshold), error


def outside_band(x, sigma, alpha_b, scheme):
    """Whether the posterior exponent t = log m + x^2 term lies farther than tau from the level."""
    level = calibration._log_rejection_odds(alpha_b)
    base = log_m_of_sigma(scheme, sigma)
    t = base + _x2_term(x, sigma)
    return abs(t - level) > calibration._band(level, base, alpha_b)


def agrees_with_the_threshold_route(decision, x, sigma, alpha_b, scheme):
    """decide's verdict is threshold_route's, unless t lies within tau of the level."""
    return (decision.reject == threshold_route(x, sigma, alpha_b, scheme)
            or not outside_band(x, sigma, alpha_b, scheme))


finite_square = st.floats(-1e300, 1e300).filter(lambda x: math.isfinite(x * x))
log_uniform_sigma = st.floats(math.log(5e-324), math.log(1e300)).map(
    lambda t: max(math.exp(t), 5e-324))
sigmas = st.one_of(log_uniform_sigma, st.sampled_from((5e-324, 0.5, 8.0, 1e300)))
alpha_bs = st.one_of(st.sampled_from((1e-300, 0.5, 1.0 - 2.0**-53)),
                     st.floats(1e-300, 1.0 - 2.0**-53))
schemes = st.one_of(st.sampled_from((KL, ROBERT, TABLE)),
                    st.floats(1e-9, 1.0 - 1e-9).map(FixedPrior))


@settings(max_examples=400, deadline=None)
@given(finite_square, sigmas, alpha_bs, schemes)
@example(0.0, 3.0, 0.05, KL)  # past the positivity bound: gap <= 0
@example(1.0, 1e-170, 0.05, FixedPrior(0.5))  # sigma^2 underflows: psi = inf
@example(1.0, -1.0, 2.0, KL)  # bad sigma and bad alpha_b: the sigma message
def test_decide_matches_the_public_routes(x, sigma, alpha_b, scheme):
    post, threshold, error = public_routes(x, sigma, alpha_b, scheme)
    if error is not None:
        with pytest.raises(type(error)) as raised:
            decide(Observation(x), sigma, alpha_b, scheme)
        assert str(raised.value) == str(error)
        return
    decision = decide(Observation(x), sigma, alpha_b, scheme)
    assert decision.via_posterior == (post < alpha_b)
    assert decision.reject == decision.via_posterior
    assert threshold_route(x, sigma, alpha_b, scheme) == threshold
    if outside_band(x, sigma, alpha_b, scheme):
        assert threshold == (post < alpha_b)


def test_decide_branches_of_the_explicit_examples():
    past_bound = decide(Observation(0.0), 3.0, 0.05, KL)
    assert threshold_route(0.0, 3.0, 0.05, KL) and past_bound.via_posterior
    assert psi(1e-170, 0.05, FixedPrior(0.5)) == math.inf
    tiny = decide(Observation(1.0), 1e-170, 0.05, FixedPrior(0.5))
    assert not threshold_route(1.0, 1e-170, 0.05, FixedPrior(0.5)) and not tiny.via_posterior
    with pytest.raises(DomainError, match="sigma must be finite and positive, got -1.0"):
        decide(Observation(1.0), -1.0, 2.0, KL)


def test_decide_where_x_squared_overflows():
    """x * x = inf while sigma^2 underflows: the x^2 term is (x sigma)^2 / 2 = 5e-11."""
    decision = decide(Observation(1e155), 1e-160, 0.05, FixedPrior(0.5))
    assert not (decision.reject or decision.via_posterior)
    assert not threshold_route(1e155, 1e-160, 0.05, FixedPrior(0.5))


def test_decide_never_raises_near_the_cut():
    """x within 3 ulps of sqrt(psi), alpha_b down to 1e-300: the routes may split, decide returns.

    A split is counted between decide's posterior route and the public x^2 > psi.
    """
    rng = random.Random(20261018)
    decided = split = 0
    for _ in range(20000):
        scheme = rng.choice((KL, ROBERT, TABLE, FixedPrior(rng.uniform(0.01, 0.99))))
        alpha_b = rng.choice((1e-300, 10.0 ** rng.uniform(-300.0, math.log10(0.5)),
                              rng.uniform(1e-3, 0.999)))
        sigma = rng.uniform(0.5, 8.0) if scheme is TABLE else 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            cut = psi(sigma, alpha_b, scheme)
        except PsiDomainError:
            continue
        x = math.sqrt(cut)
        for _ in range(rng.randint(0, 3)):
            x = math.nextafter(x, rng.choice((0.0, math.inf)))
        decision = decide(Observation(rng.choice((x, -x))), sigma, alpha_b, scheme)
        decided += 1
        split += decision.via_posterior != (x * x > cut)
    assert decided > 15000
    assert split > 100  # the draws reach the band where the routes round apart
