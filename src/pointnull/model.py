"""Closed-form quantities for the point-null normal test.

The null fixes the mean of a unit-variance normal at zero; the alternative
puts a centred normal prior with standard deviation ``sigma`` on the mean.
Everything in this module is an elementary function of ``(x, sigma)``; the
care is in evaluating those functions so that sweeps over extreme ``sigma``
or ``x`` stay finite (log-domain posterior, no ratio of two underflowing
exponentials).
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .numerics import (DomainError, _check_finite, _check_prob, _check_sigma, _Record, _set,
                       std_normal_pdf)

__all__ = _EXPORTS["model"]


class Observation(_Record):
    """A single draw x from the unit-variance normal under test."""

    __slots__ = ("x",)

    def __init__(self, x: float) -> None:
        _set(self, "x", _check_finite("observation", x))


class AlternativeSpread(_Record):
    """Prior standard deviation of the mean under the alternative.

    Deliberately restricted to finite positive values: the degenerate
    infinite-spread prior is exactly the pathological choice this package
    exists to replace with a calibrated finite one.
    """

    __slots__ = ("sigma",)

    def __init__(self, sigma: float) -> None:
        _set(self, "sigma", _check_sigma(sigma))


def variance_ratio(sigma: float) -> float:
    """sigma^2 / (1 + sigma^2), the alternative's share of the marginal variance.

    Also the shrinkage weight on x in the posterior mean of the alternative's
    location. Written so it never overflows for huge sigma.
    """
    if sigma > 1.0:
        return 1.0 / (1.0 + 1.0 / (sigma * sigma))
    s2 = sigma * sigma
    return s2 / (1.0 + s2)


def log_marginal_variance(sigma: float) -> float:
    """log(1 + sigma^2) without overflowing for huge sigma."""
    if sigma > 1.0:
        return 2.0 * math.log(sigma) + math.log1p(1.0 / (sigma * sigma))
    return math.log1p(sigma * sigma)


def _tau(sigma: float) -> float:
    """sqrt(1 + sigma^2), the marginal standard deviation, overflow-safe."""
    if sigma > 1.0:
        return sigma * math.sqrt(1.0 + 1.0 / (sigma * sigma))
    return math.sqrt(1.0 + sigma * sigma)


def _stable_inv_logistic(t: float) -> float:
    """1 / (1 + exp(t)), within 2 ulp in both tails: exp rounds, then the division."""
    if t >= 0.0:
        u = math.exp(-t)
        return u / (1.0 + u)
    return 1.0 / (1.0 + math.exp(t))


def _x2_term(x: float, sigma: float) -> float:
    """x^2 sigma^2 / (2 (1 + sigma^2)): 0.5 x^2 variance_ratio(sigma) while x * x is finite.

    Past that, where the ratio may underflow and the product be inf * 0, 0.5 (x sigma / tau)^2.
    """
    x_squared = x * x
    if x_squared < math.inf:
        return 0.5 * x_squared * variance_ratio(sigma)
    t = x * (sigma / _tau(sigma))
    return 0.5 * t * t


def _exp_or_inf(t: float) -> float:
    """exp(t), or inf where the value exceeds float range."""
    if t > 709.79:  # e^709.79 exceeds the largest float: inf without raising OverflowError
        return math.inf
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def bayes_factor(obs: Observation, spread: AlternativeSpread) -> float:
    """Null-to-alternative marginal likelihood ratio.

    Equals sqrt(1 + sigma^2) * exp(-x^2 sigma^2 / (2 (1 + sigma^2))), exactly the
    prefactor when x = 0. In float64 it underflows to 0.0 once the exponent passes about 745.
    """
    return _tau(spread.sigma) * math.exp(-_x2_term(obs.x, spread.sigma))


def marginal_alt(obs: Observation, spread: AlternativeSpread) -> float:
    """Marginal density of x under the alternative: N(x | 0, 1 + sigma^2)."""
    tau = _tau(spread.sigma)
    return std_normal_pdf(obs.x / tau) / tau


def posterior_from_log_odds(obs: Observation, spread: AlternativeSpread, log_odds: float) -> float:
    """Posterior probability of the null given x, spread sigma, and log prior odds.

    log_odds is log((1 - rho0) / rho0). With m = exp(log_odds) / sqrt(1+sigma^2),
    the posterior is 1 / (1 + m * exp(x^2 sigma^2 / (2(1+sigma^2)))), computed
    as a stable logistic so extreme x, sigma or odds saturate to 0 or 1
    instead of producing NaN. NaN odds are refused; -inf and inf give 1 and 0.
    """
    sigma = spread.sigma
    base = log_odds - 0.5 * log_marginal_variance(sigma)
    post = _stable_inv_logistic(base + _x2_term(obs.x, sigma))
    if post == post:
        return post
    if log_odds != log_odds:
        raise DomainError("the log prior odds are NaN")
    return 1.0  # -inf odds (rho0 = 1) against an x^2 term that overflowed: the null is certain


def posterior_h0(obs: Observation, spread: AlternativeSpread, rho0: float) -> float:
    """Posterior probability of the null given x, spread sigma, and prior mass rho0."""
    _check_prob("rho0", rho0)
    return posterior_from_log_odds(obs, spread, math.log1p(-rho0) - math.log(rho0))
