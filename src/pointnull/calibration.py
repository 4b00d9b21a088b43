"""Matching the Bayesian rejection rule to a classical Type I error rate.

Rejecting the null when its posterior probability drops below alpha_b is,
for the normal point-null model, the same as rejecting when x^2 exceeds

    psi(sigma) = 2 (1 + sigma^2) / sigma^2 * (log(1/alpha_b - 1) - log m(sigma)),

so the Bayesian test is a classical two-sided test in disguise and its
Type I error is 2(1 - Phi(sqrt(psi))). That turns "choose sigma" into a
solvable equation: pick the spread whose induced Type I error equals a
target alpha. This module provides psi and its sweep along a sigma grid,
the error curve, the sigma solver, the edge of psi's positivity domain,
and the decision rule.
"""

from __future__ import annotations

import functools
import math

from . import _EXPORTS
from .model import Observation, _posterior_from_parts, variance_ratio

# Unused here, but bench/tracing.py rebinds pointnull.calibration.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import (
    Bracket,
    BracketError,
    DomainError,
    _check_finite,
    _check_prob,
    _check_sigma,
    _Record,
    _set,
    _upper_tail,
    find_root_bracketed,
    std_normal_cdf,
    std_normal_quantile,
)
from .priors import PriorScheme, UnsupportedSchemeError, _checked_grid, log_m_of_sigma

__all__ = _EXPORTS["calibration"]


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


class CalibrationSpec(_Record):
    """Target classical level alpha, Bayesian threshold alpha_b, and scheme."""

    __slots__ = ("alpha", "alpha_b", "scheme")

    def __init__(self, alpha: float, alpha_b: float, scheme: PriorScheme) -> None:
        _set(self, "alpha", _check_prob("alpha", alpha))
        _set(self, "alpha_b", _check_prob("alpha_b", alpha_b))
        _set(self, "scheme", scheme)


class CalibrationResult(_Record):
    __slots__ = ("sigma_star", "psi_at_sigma", "achieved_alpha", "residual", "bracket_used",
                 "evaluations")

    def __init__(self, sigma_star: float, psi_at_sigma: float, achieved_alpha: float,
                 residual: float, bracket_used: Bracket, evaluations: int) -> None:
        _set(self, "sigma_star", sigma_star)
        _set(self, "psi_at_sigma", psi_at_sigma)
        _set(self, "achieved_alpha", achieved_alpha)
        _set(self, "residual", residual)
        _set(self, "bracket_used", bracket_used)
        _set(self, "evaluations", evaluations)


class Decision(_Record):
    """Reject/retain: reject is the posterior route's verdict, and via_posterior repeats it."""

    __slots__ = ("reject", "via_posterior")

    def __init__(self, reject: bool, via_posterior: bool) -> None:
        _set(self, "reject", reject)
        _set(self, "via_posterior", via_posterior)


#: decide's two possible results.
_REJECT, _RETAIN = Decision(True, True), Decision(False, False)


@functools.lru_cache(maxsize=64)
def _log_rejection_odds(alpha_b: float) -> float:
    """log(1/alpha_b - 1), the log prior-odds level m must stay below.

    Memoized: a sweep, a solve or a simulation fixes alpha_b. A refusal is
    not cached, so a bad alpha_b raises on every call.
    """
    _check_prob("alpha_b", alpha_b)
    return math.log1p(-alpha_b) - math.log(alpha_b)


def _cut(level: float, base: float, ratio: float) -> float:
    """psi from log(1/alpha_b - 1), log m and the variance ratio: 2 (level - base) / ratio.

    -inf where level <= base, as every x rejects; +inf where ratio underflows to 0, as none does.
    A NaN log m, which only a custom scheme's log prior odds can give, is refused.
    """
    gap = level - base
    if gap > 0.0:
        if ratio == 0.0:
            return math.inf
        return 2.0 * gap / ratio
    if gap <= 0.0:
        return -math.inf
    raise DomainError("the scheme's log prior odds are NaN")


def _band(level: float, base: float, alpha_b: float) -> float:
    """tau: a computed exponent t = base + 0.5 x^2 ratio past level +- tau decides surely.

    The posterior route rejects iff _stable_inv_logistic(t) < alpha_b. Write
    eps = 2^-53, L* = log(1/alpha_b - 1) in real arithmetic and L for level.

    1. Logistic. exp is faithful (relative error < 2 eps), so each branch of
       _stable_inv_logistic returns P(t) = 1 / (1 + e^t) within relative error
       6 eps, plus, once the result is subnormal, half its unit 2^-1075 =
       d alpha_b (exp rounds to nearest there; d <= 1/2). So the route decides
       right wherever |log P - log alpha_b| > 6.01 eps - log(1 - d). log P falls
       with slope 1 - P, which is at least 1 - alpha_b for t >= L* and at least
       (1 - alpha_b) / 2 for t within 1/2 of L* below it. So the route rejects
       for every t >= L* + s and retains for every t <= L* - s, where
       s = (13 eps + 8 d) / (1 - alpha_b). s exceeds 1/2 only for alpha_b
       below 2^-1071, where P is tiny within s of L* and its slope near 1.
    2. The exponent. The square, the product with ratio and the sum with base
       (in a simulation also x = theta + q) each round once, so near the cut
       t is within eps (5 |x^2 ratio / 2| + |t|) <= 6 eps (|L| + |base|) of the
       real one, and non-decreasing in |x| (sign-symmetric rounding, positive
       factors). L = log1p(-alpha_b) - log(alpha_b) is within eps (3 |L| + 3) of
       L*. All of this, with s, sits inside
       tau = 16 eps (1 + |L| + |base| + 1 / (1 - alpha_b)) + 2^-1072 / (alpha_b (1 - alpha_b)).

    So a real t >= L* + tau rejects and one <= L* - tau retains.
    """
    return (16.0 * 2.0**-53 * (1.0 + abs(level) + abs(base) + 1.0 / (1.0 - alpha_b))
            + 2.0**-1072 / (alpha_b * (1.0 - alpha_b)))


def psi(sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Squared-observation rejection threshold equivalent to the posterior rule.

    Computed through log m so it stays usable where m itself overflows.
    Only positive values are meaningful: once m(sigma) reaches 1/alpha_b - 1
    the posterior rule rejects every observation and no threshold exists.
    Where sigma^2 underflows (sigma below about 1e-162) it returns +inf, the
    limit as sigma -> 0, so the Type I error and the power are 0 there.

    For kl, robert and fixed, where sigma^2 is normal, the relative error is at most
    6 eps (1 + kappa), eps = 2^-53, with log and log1p within 1 ulp. kappa = S / |L - log m|,
    L = log(1/alpha_b - 1), and S adds the sizes of the terms of L - log m: |log alpha_b|,
    |log1p(-alpha_b)|, log(1 + sigma^2) / 2 and the log odds' terms (kl sigma^2 / 2,
    robert log sqrt(2 pi) + |log sigma|, fixed |log rho0| + |log1p(-rho0)|).
    """
    cut = _cut(_log_rejection_odds(alpha_b), log_m_of_sigma(scheme, sigma), variance_ratio(sigma))
    if cut < 0.0:
        raise PsiDomainError(
            "psi nonpositive: Bayesian test rejects for all x "
            f"(sigma={sigma}, alpha_b={alpha_b}, scheme={scheme.scheme_id})"
        )
    return cut


def type_i_error(sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Null probability of rejection: 2(1 - Phi(sqrt(psi))), or 1 past the bound.

    Defined for every sigma > 0: where psi has no positive value the test
    rejects always, so the error rate is literally 1. That choice keeps the
    curve continuous and monotone for root-finding. At or above 2^-1021 its relative
    error is at most 10 eps + 3 eps (1 + psi) (2 + kappa), as in psi, with erfc within 5 ulp.
    """
    cut = _cut(_log_rejection_odds(alpha_b), log_m_of_sigma(scheme, sigma), variance_ratio(sigma))
    if cut < 0.0:
        return 1.0
    return 2.0 * _upper_tail(math.sqrt(cut))  # 0.0 where cut is inf


def power_analytic(theta: float, sigma: float, alpha_b: float, scheme: PriorScheme) -> float:
    """Rejection probability when x ~ N(theta, 1): 1 - Phi(r - theta) + Phi(-r - theta).

    r = sqrt(psi(sigma)); evaluated as Phi(theta - r) + Phi(-r - theta) so the
    theta = 0 case reduces bit-for-bit to type_i_error.
    """
    _check_finite("theta", theta)
    cut = _cut(_log_rejection_odds(alpha_b), log_m_of_sigma(scheme, sigma), variance_ratio(sigma))
    if cut < 0.0:
        return 1.0
    if cut == math.inf:
        return 0.0
    r = math.sqrt(cut)
    return std_normal_cdf(theta - r) + std_normal_cdf(-r - theta)


def classical_threshold(alpha: float) -> float:
    """c_alpha with P0(x^2 > c_alpha) = alpha: the squared two-sided z critical value."""
    _check_prob("alpha", alpha)
    return std_normal_quantile(0.5 * alpha) ** 2


def positivity_bound(alpha_b: float, scheme: PriorScheme) -> float | None:
    """Upper end of the sigma domain on which psi is positive, if finite.

    Past it the prior odds alone push P(H0|x) below alpha_b: every x rejects.
    Each built-in scheme solves log m(sigma) = log(1/alpha_b - 1) in closed
    form. None: m never reaches the level (a fixed mass; robert for alpha_b
    <= 1/(1 + sqrt(2 pi))). 0.0: every sigma > 0 is past the level (kl for
    alpha_b >= 1/2). Other schemes, tables included, raise UnsupportedSchemeError.
    """
    return scheme._positivity_bound(_log_rejection_odds(alpha_b))


def psi_sweep(scheme: PriorScheme, alpha_b: float, sigma_grid: list[float] | tuple[float, ...]
              ) -> tuple[list[tuple[float, float]], float | None]:
    """(sigma, psi) over the grid's first run where psi is defined, and where the run ends.

    The end is None when the run lasts to the grid's end, else positivity_bound or, without a
    closed form (a table, say), the root of log m = log(1/alpha_b - 1) between the run's last
    sigma and the next. Points before the run are skipped; grids are refused as in paradox_sweep.
    """
    rows, level = [], _log_rejection_odds(alpha_b)
    for sigma in _checked_grid(sigma_grid):
        cut = _cut(level, log_m_of_sigma(scheme, sigma), variance_ratio(sigma))
        if cut > 0.0:
            rows.append((sigma, cut))
        elif rows:
            break
    else:
        return rows, None
    try:
        end = positivity_bound(alpha_b, scheme)
    except UnsupportedSchemeError:
        end = None
    if end is None:
        end = find_root_bracketed(lambda s: log_m_of_sigma(scheme, s) - level,
                                  Bracket(rows[-1][0], sigma), xtol=1e-15, ftol=0.0)
    return rows, end


def decide(obs: Observation, sigma: float, alpha_b: float, scheme: PriorScheme) -> Decision:
    """Reject where P(H0 | x) < alpha_b (a tie retains): x^2 > psi(sigma) outside _band.

    Refuses sigma, then alpha_b, then as the scheme does, and NaN log odds as psi does.
    """
    _check_sigma(sigma)
    _check_prob("alpha_b", alpha_b)
    x = obs.x
    post = _posterior_from_parts(x * x, log_m_of_sigma(scheme, sigma), variance_ratio(sigma), x,
                                 sigma)
    if post < alpha_b:
        return _REJECT
    if post >= alpha_b:
        return _RETAIN
    raise DomainError("the scheme's log prior odds are NaN")  # only a NaN posterior gets here


def solve_sigma(spec: CalibrationSpec) -> CalibrationResult:
    """Find sigma whose induced Type I error equals spec.alpha.

    The scheme brackets the root (PriorScheme._calibration_bracket), and the
    root finder polishes it until the achieved error is within 5e-12 * alpha
    of alpha or the bracket narrows to 2^-52 of its lower end. Both read one
    memo of errors, so evaluations, the type_i_error calls, counts each sigma
    once. Without a bracket, or where the root finder meets alpha only where
    the error rounds to 1 (psi <= 0), the target is unachievable and the
    error carries the range the solve saw.
    """
    alpha, alpha_b, scheme = spec.alpha, spec.alpha_b, spec.scheme
    seen: dict[float, float] = {}

    def error_at(sigma: float) -> float:
        if sigma in seen:
            return seen[sigma]
        seen[sigma] = error = type_i_error(sigma, alpha_b, scheme)
        return error

    bracket = scheme._calibration_bracket(_log_rejection_odds(alpha_b), alpha, error_at)
    if bracket is None:
        raise InfeasibleAlphaError(alpha, min(seen.values()), max(seen.values()))
    try:
        sigma_star = find_root_bracketed(
            lambda s: error_at(s) - alpha, bracket, xtol=2.0**-52 * bracket.lo, ftol=5e-12 * alpha)
    except BracketError:  # kl within about 1e-7 of 1: above the error at the rounded bound
        raise InfeasibleAlphaError(alpha, seen[bracket.lo], seen[bracket.hi]) from None
    achieved = seen[sigma_star]
    if achieved == 1.0:  # kl within about 1e-8 of 1: met only where psi <= 0
        raise InfeasibleAlphaError(alpha, seen[bracket.lo], max(e for e in seen.values() if e < 1))
    return CalibrationResult(sigma_star=sigma_star, psi_at_sigma=psi(sigma_star, alpha_b, scheme),
                             achieved_alpha=achieved, residual=achieved - alpha,
                             bracket_used=bracket, evaluations=len(seen))
