"""Matching the Bayesian rejection rule to a classical Type I error rate.

Rejecting the null when its posterior probability drops below alpha_b is,
for the normal point-null model, the same as rejecting when x^2 exceeds

    psi(sigma) = 2 (1 + sigma^2) / sigma^2 * (log(1/alpha_b - 1) - log m(sigma)),

so the Bayesian test is a classical two-sided test in disguise and its
Type I error is 2(1 - Phi(sqrt(psi))). That turns "choose sigma" into a
solvable equation: pick the spread whose induced Type I error equals a
target alpha. This module provides psi, the error curve, the sigma solver,
the edge of psi's positivity domain, and the decision rule checked both
ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Observation, _posterior_from_parts, _x2_term, variance_ratio

# Unused here, but bench/tracing.py rebinds pointnull.calibration.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import (
    Bracket,
    DomainError,
    _check_finite,
    _check_prob,
    _check_sigma,
    find_root_bracketed,
    std_normal_cdf,
    std_normal_quantile,
)
from .priors import ConsistencyError, PriorScheme, log_m_of_sigma

__all__ = [
    "CalibrationResult",
    "CalibrationSpec",
    "Decision",
    "InfeasibleAlphaError",
    "PsiDomainError",
    "classical_threshold",
    "decide",
    "positivity_bound",
    "power_analytic",
    "psi",
    "solve_sigma",
    "type_i_error",
]

#: Boundary band inside which the two decision routes may disagree.
DECISION_BAND = 1e-12


class PsiDomainError(DomainError):
    """Raised where log m(sigma) >= log(1/alpha_b - 1), i.e. psi <= 0."""


class InfeasibleAlphaError(DomainError):
    """No sigma achieves the requested Type I error under this scheme."""

    def __init__(self, requested: float, achievable_lo: float, achievable_hi: float):
        self.requested = requested
        self.achievable_lo = achievable_lo
        self.achievable_hi = achievable_hi
        super().__init__(
            f"no sigma achieves Type I error {requested}; achievable range is "
            f"approximately ({achievable_lo!r}, {achievable_hi!r})"
        )


@dataclass(frozen=True, slots=True)
class CalibrationSpec:
    """Target classical level alpha, Bayesian threshold alpha_b, and scheme."""

    alpha: float
    alpha_b: float
    scheme: PriorScheme

    def __post_init__(self) -> None:
        _check_prob("alpha", self.alpha)
        _check_prob("alpha_b", self.alpha_b)


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    sigma_star: float
    psi_at_sigma: float
    achieved_alpha: float
    residual: float
    bracket_used: Bracket
    evaluations: int


@dataclass(frozen=True, slots=True)
class Decision:
    """Reject/retain, recorded through both equivalent routes."""

    reject: bool
    via_posterior: bool
    via_threshold: bool


def _log_rejection_odds(alpha_b: float) -> float:
    """log(1/alpha_b - 1), the log prior-odds level m must stay below."""
    _check_prob("alpha_b", alpha_b)
    return math.log1p(-alpha_b) - math.log(alpha_b)


def psi(sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Squared-observation rejection threshold equivalent to the posterior rule.

    Computed through log m so it stays usable where m itself overflows.
    Only positive values are meaningful: once m(sigma) reaches 1/alpha_b - 1
    the posterior rule rejects every observation and no threshold exists.
    Where sigma^2 underflows (sigma below about 1e-162) it returns +inf, the
    limit as sigma -> 0, so the Type I error and the power are 0 there.
    """
    gap = _log_rejection_odds(alpha_b) - log_m_of_sigma(scheme, sigma)
    if gap <= 0.0:
        raise PsiDomainError(
            "psi nonpositive: Bayesian test rejects for all x "
            f"(sigma={sigma}, alpha_b={alpha_b}, scheme={scheme.scheme_id})"
        )
    try:
        return 2.0 * gap / variance_ratio(sigma)
    except ZeroDivisionError:  # sigma^2 underflows below ~1e-162: the limit
        return math.inf


def type_i_error(sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Null probability of rejection: 2(1 - Phi(sqrt(psi))), or 1 past the bound.

    Defined for every sigma > 0: where psi has no positive value the test
    rejects always, so the error rate is literally 1. That choice keeps the
    curve continuous and monotone for root-finding.
    """
    try:
        p = psi(sigma, alpha_b, scheme)
    except PsiDomainError:
        return 1.0
    try:
        return 2.0 * std_normal_cdf(-math.sqrt(p))
    except DomainError:  # psi = inf, where sigma^2 underflows: nothing rejects
        return 0.0


def power_analytic(theta: float, sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Rejection probability when x ~ N(theta, 1): 1 - Phi(r - theta) + Phi(-r - theta).

    r = sqrt(psi(sigma)); evaluated as Phi(theta - r) + Phi(-r - theta) so the
    theta = 0 case reduces bit-for-bit to type_i_error.
    """
    _check_finite("theta", theta)
    try:
        p = psi(sigma, alpha_b, scheme)
    except PsiDomainError:
        return 1.0
    r = math.sqrt(p)
    try:
        return std_normal_cdf(theta - r) + std_normal_cdf(-r - theta)
    except DomainError:  # psi = inf, where sigma^2 underflows: nothing rejects
        return 0.0


def classical_threshold(alpha: float) -> float:
    """c_alpha with P0(x^2 > c_alpha) = alpha: the squared two-sided z critical value."""
    _check_prob("alpha", alpha)
    return std_normal_quantile(0.5 * alpha) ** 2


def positivity_bound(alpha_b: float, scheme: PriorScheme) -> float | None:
    """Upper end of the sigma domain on which psi is positive, if finite.

    Read off the scheme's declared regime. A vanishing m is decreasing: no
    upper end, None (a fixed mass's infeasible region, when rho0 < alpha_b,
    sits at small sigma and psi reports it). A finite or divergent m is
    increasing: the bound solves log m(sigma) = log(1/alpha_b - 1), which
    the divergent scheme always crosses for alpha_b < 1/2 and the linear-odds
    scheme only when its ceiling sqrt(2 pi) exceeds the level. Returns None
    when m never reaches the level, and 0.0 when even tiny sigma is past it.
    A table declares no regime and raises UnsupportedSchemeError.
    """
    level = _log_rejection_odds(alpha_b)
    if scheme.declared_regime().kind == "vanishing":
        return None

    def gap(sigma: float) -> float:
        return log_m_of_sigma(scheme, sigma) - level

    lo, hi = 1e-8, 1.0
    if gap(lo) >= 0.0:
        return 0.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            return None  # never reaches the level at any practical sigma
    return find_root_bracketed(gap, Bracket(lo, hi), xtol=1e-15, ftol=1e-13)


def decide(obs: Observation, sigma: float, alpha_b: float, scheme: PriorScheme) -> Decision:
    """Evaluate the rejection decision via the posterior and via x^2 > psi.

    The two must agree; a disagreement is tolerated only while the posterior
    sits within DECISION_BAND of alpha_b, where the routes legitimately
    round in different directions. The reported decision follows the
    posterior route (rejection on strict inequality, ties retain the null).
    Both routes share one log m and variance ratio; the threshold route is
    psi's expression, or where x * x overflows the x^2 term against the gap.
    """
    _check_sigma(sigma)
    level = _log_rejection_odds(alpha_b)
    base = log_m_of_sigma(scheme, sigma)
    ratio = variance_ratio(sigma)
    x = obs.x
    x_squared = x * x
    post = _posterior_from_parts(x_squared, base, ratio, x, sigma)
    via_posterior = post < alpha_b
    gap = level - base
    if gap <= 0.0:  # psi nonpositive: every x rejects
        via_threshold = True
    elif x_squared == math.inf:
        via_threshold = _x2_term(x_squared, ratio, x, sigma) > gap
    else:
        try:
            via_threshold = x_squared > 2.0 * gap / ratio
        except ZeroDivisionError:  # psi = inf, where sigma^2 underflows
            via_threshold = False
    if via_posterior != via_threshold and abs(post - alpha_b) >= DECISION_BAND:
        raise ConsistencyError(
            f"decision routes disagree outside the boundary band: x={x}, "
            f"sigma={sigma}, posterior={post!r}, alpha_b={alpha_b}, "
            f"posterior route {via_posterior}, threshold route {via_threshold}"
        )
    return Decision(via_posterior, via_posterior, via_threshold)


_SCAN_DECADES = range(-3, 4)
#: Probes past the scan range, taken only when the finest pass brackets
#: nothing: asymptotically flat schemes reach some targets only there, and
#: their values bound the achievable range a refusal reports.
_FAR_PROBES = (1e6, 1e12)


def _scan_points(per_decade: int, lo: float, hi: float) -> list[float]:
    """Log-spaced grid over 10^-3 .. 10^3, per_decade points per decade.

    Only the points inside the domain (lo, hi) are kept, and its finite
    ends close the grid.
    """
    pts = [10.0 ** (k + j / per_decade) for k in _SCAN_DECADES[:-1] for j in range(per_decade)]
    pts = [s for s in pts + [10.0 ** _SCAN_DECADES[-1]] if lo < s < hi]
    return [lo] * (lo > 0.0) + pts + [hi] * (hi < math.inf)


def solve_sigma(spec: CalibrationSpec) -> CalibrationResult:
    """Find sigma whose induced Type I error equals spec.alpha.

    Brackets a crossing of type_i_error(sigma) = alpha on a geometric grid
    (decades 10^-3..10^3, refined 16 then 64 points per decade when the
    coarse pass misses, the last pass extended to sigma = 1e6 and 1e12),
    cut to the scheme's sigma domain, then polishes with the bracketed root
    finder to |achieved - alpha| <= 1e-10. When no crossing exists the
    target is unachievable under the scheme and the error carries the range
    the last pass saw.
    """
    evaluations = 0
    alpha = spec.alpha
    lo, hi = spec.scheme.sigma_domain()

    def error_at(sigma: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return type_i_error(sigma, spec.alpha_b, spec.scheme)

    bracket = None
    for per_decade in (1, 16, 64):
        pts = _scan_points(per_decade, lo, hi)
        errors = [error_at(s) for s in pts]
        if per_decade == 64 and (min(errors) > alpha or max(errors) < alpha):
            # Nothing on the grid meets alpha: look past its upper end.
            far = [s for s in _FAR_PROBES if pts[-1] < s < hi]
            pts += far
            errors += [error_at(s) for s in far]
        for (s_lo, e_lo), (s_hi, e_hi) in zip(zip(pts, errors), zip(pts[1:], errors[1:])):
            if e_lo == alpha:
                return _result_at(s_lo, spec, Bracket(s_lo / 2.0, s_hi), evaluations)
            if e_hi == alpha:
                return _result_at(s_hi, spec, Bracket(s_lo, s_hi * 2.0), evaluations)
            if (e_lo > alpha) != (e_hi > alpha):
                bracket = Bracket(s_lo, s_hi)
                break
        if bracket is not None:
            break
    if bracket is None:
        raise InfeasibleAlphaError(alpha, min(errors), max(errors))

    sigma_star = find_root_bracketed(
        lambda s: error_at(s) - alpha, bracket, xtol=1e-15, ftol=5e-12
    )
    return _result_at(sigma_star, spec, bracket, evaluations)


def _result_at(
    sigma_star: float, spec: CalibrationSpec, bracket: Bracket, evaluations: int
) -> CalibrationResult:
    achieved = type_i_error(sigma_star, spec.alpha_b, spec.scheme)
    return CalibrationResult(
        sigma_star=sigma_star,
        psi_at_sigma=psi(sigma_star, spec.alpha_b, spec.scheme),
        achieved_alpha=achieved,
        residual=achieved - spec.alpha,
        bracket_used=bracket,
        evaluations=evaluations,
    )
