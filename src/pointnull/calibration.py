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
from .model import Observation, _stable_inv_logistic, _x2_term, variance_ratio

# Unused here, but bench/tracing.py rebinds pointnull.calibration.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import (
    _INF,
    Bracket,
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
from .priors import (InfeasibleAlphaError, PriorScheme, UnsupportedSchemeError, _checked_grid,
                     log_m_of_sigma)

__all__ = _EXPORTS["calibration"]


class PsiDomainError(DomainError):
    """Raised where log m(sigma) >= log(1/alpha_b - 1), i.e. psi <= 0."""


class CalibrationSpec(_Record):
    """Target classical level alpha, Bayesian threshold alpha_b, and scheme."""

    __slots__ = ("alpha", "alpha_b", "scheme")

    def __init__(self, alpha: float, alpha_b: float, scheme: PriorScheme) -> None:
        _set(self, "alpha", _check_prob("alpha", alpha))
        _set(self, "alpha_b", _check_prob("alpha_b", alpha_b))
        _set(self, "scheme", scheme)


class CalibrationResult(_Record):
    """solve_sigma's answer: sigma*, psi and Type I error there, residual, bracket, evaluations."""

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


_TWO_PI = 2.0 * math.pi


class _Levels(dict[float, float]):
    """alpha_b -> log(1/alpha_b - 1), the log prior-odds level m must stay below.

    A sweep, a solve or a simulation fixes alpha_b, so _log_rejection_odds is this memo's
    __getitem__: a hit is one dict probe with no Python frame. A miss checks alpha_b, empties
    the memo once it holds 64 levels, and stores the new one. A refusal is not stored, so a bad
    alpha_b raises on every call, and it chains no KeyError: dict calls __missing__ without one.
    """

    __slots__ = ()

    def __missing__(self, alpha_b: float) -> float:
        _check_prob("alpha_b", alpha_b)
        if len(self) >= 64:
            self.clear()
        level = self[alpha_b] = math.log1p(-alpha_b) - math.log(alpha_b)
        return level


_LEVELS = _Levels()
_log_rejection_odds = _LEVELS.__getitem__


def _cut(level: float, base: float, ratio: float) -> float:
    """psi from log(1/alpha_b - 1), log m and the variance ratio: 2 (level - base) / ratio.

    -inf where level <= base, as every x rejects; +inf where ratio underflows to 0, as none does.
    base is never NaN: log_m_of_sigma refuses a NaN log m.
    """
    gap = level - base
    if gap <= 0.0:
        return -math.inf
    return 2.0 * gap / ratio if ratio != 0.0 else math.inf


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
    """c_alpha with P0(x^2 > c_alpha) = alpha: the squared two-sided z critical value.

    The square of the quantile at alpha/2, then for 2^-1021 <= alpha <= 1/2 one Newton step on
    erfc(sqrt(c/2)) = alpha, within 1 + k (11 + c) ulp: k = alpha / (c |d erfc(sqrt(c/2))/dc|),
    about 2/c for small alpha and 2.4 at 1/2, with erfc within 5 ulp and conditioned by 1 + c.
    alpha = 5e-324 is refused: its half tail rounds to 0, where the quantile is undefined.
    """
    tail = 0.5 * _check_prob("alpha", alpha)
    if tail == 0.0:
        raise DomainError(f"alpha={alpha!r} is too small: alpha/2 rounds to 0, so c_alpha is "
                          "not computed")
    c = std_normal_quantile(tail) ** 2
    if 2.0**-1021 <= alpha <= 0.5:
        c += (math.erfc(math.sqrt(0.5 * c)) - alpha) * math.sqrt(_TWO_PI * c) * math.exp(0.5 * c)
    return c


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
    closed form (a table, say), the root of h_0 = log(1/alpha_b - 1) - log m between the run's
    last sigma and the next, found by solve_sigma's routine (_root_of_h) at c = 0: where the odds
    jump to +inf, the jump itself. Points before the run are skipped; grids are refused as in
    paradox_sweep.
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
        end = _root_of_h(scheme, level, 0.0, rows[-1][0], sigma, [])
    return rows, end


def decide(obs: Observation, sigma: float, alpha_b: float, scheme: PriorScheme) -> Decision:
    """Reject where P(H0 | x) < alpha_b (a tie retains): x^2 > psi(sigma) outside _band.

    Refuses sigma, then alpha_b, then as log_m_of_sigma does, which leaves no NaN posterior.
    """
    if not (0.0 < sigma < _INF and 0.0 < alpha_b < 1.0):
        _check_sigma(sigma)  # one of the two raises
        _check_prob("alpha_b", alpha_b)
    post = _stable_inv_logistic(log_m_of_sigma(scheme, sigma) + _x2_term(obs.x, sigma))
    return _REJECT if post < alpha_b else _RETAIN


def _root_of_h(scheme: PriorScheme, level: float, c: float, lo: float, hi: float,
               evaluated: list[float]) -> float:
    """The end of a sigma bracket, shrunk onto the root of h_c = (level - log m) - (c/2) ratio.

    h_c = (ratio/2)(psi - c) has the sign of alpha - error where c = c_alpha, and at c = 0 it is
    level - log m, whose root is psi's positivity bound. Where the ends do not change sign it
    stops at once. With the scheme's _log_m_slope each step is Newton's from the end with the
    smaller |h_c|, slope -d log m/d sigma - c sigma/(1 + sigma^2)^2, and the ends keep h_c's sign
    change. A step that leaves the bracket, or exceeds half the step before the last (a stall), is
    replaced by bisection. Once a step is within 2 ulp its end point is evaluated, and the loop
    stops; so it does at an exact zero or at adjacent floats. Without a slope, Brent's method
    (find_root_bracketed) stops at the same two places and reads an infinite h_c, where the odds
    are infinite, as its sign. Returns the end with the smaller |h_c|, and appends each sigma h_c
    is evaluated at to evaluated.
    """
    half_c, log_m_slope = 0.5 * c, scheme._log_m_slope

    def h(sigma: float) -> float:
        evaluated.append(sigma)
        return level - log_m_of_sigma(scheme, sigma) - half_c * variance_ratio(sigma)

    h_lo, h_hi = h(lo), h(hi)
    if h_lo and h_hi and (h_lo > 0.0) != (h_hi > 0.0):
        if log_m_slope is None:
            return find_root_bracketed(h, Bracket(lo, hi))
        last = before = math.inf
        while True:
            x, h_x = (lo, h_lo) if abs(h_lo) <= abs(h_hi) else (hi, h_hi)
            t = 1.0 + x * x
            slope = -log_m_slope(x) - c * x / (t * t)
            nxt = x - h_x / slope if slope else math.nan
            step = abs(nxt - x)  # NaN from a NaN or infinite step
            done = step <= 2.0 * math.ulp(x)
            if not (lo < nxt < hi and step <= 0.5 * before):
                if done:
                    break
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:  # adjacent floats
                    break
            h_nxt = h(nxt)
            if (h_nxt > 0.0) == (h_lo > 0.0):
                lo, h_lo = nxt, h_nxt
            else:
                hi, h_hi = nxt, h_nxt
            if done or not h_nxt:
                break
            before, last = last, abs(nxt - x)
    return lo if abs(h_lo) <= abs(h_hi) else hi


def _h_past_rounding(level: float, c: float, log_m: float, ratio: float) -> float:
    """h_c = (level - log m) - (c/2) ratio as _root_of_h computes it, or 0.0 within its rounding
    bound E = 16 eps (1 + |level| + |log m|), eps = 2^-53, with log m as computed (solve_sigma)."""
    h = level - log_m - 0.5 * c * ratio
    return h if abs(h) > 16.0 * 2.0**-53 * (1.0 + abs(level) + abs(log_m)) else 0.0


@functools.lru_cache(maxsize=64)
def _scan_passes(lo: float, hi: float) -> tuple[tuple[float, ...], ...]:
    """The scan's 1, 16 and 64 sigma per decade of 10^-3 .. 10^3 in (lo, hi), once per domain. The
    coarser passes are slices of the finest, so each of their points is one of its points bit for
    bit. The domain's finite ends close each pass. When hi is inf the last goes on to 1e6 and 1e12:
    flat schemes reach some targets only there, and their errors bound a refusal's range."""
    grid = [10.0 ** (k + j / 64) for k in range(-3, 3) for j in range(64)] + [1e3]
    head, tail = (lo,) * (lo > 0.0), (hi,) * (hi < math.inf)
    coarse, mid, fine = (head + tuple(s for s in grid[::step] if lo < s < hi) + tail
                         for step in (64, 4, 1))
    return coarse, mid, fine + (tuple(s for s in (1e6, 1e12) if lo < s) if hi == math.inf else ())


class _PsiMemo(dict[float, float]):
    """sigma -> _cut for one scheme and level: solve_sigma's one memo, which at(sigma) fills."""

    __slots__ = ("scheme", "level")

    def __init__(self, scheme: PriorScheme, level: float) -> None:
        self.scheme, self.level = scheme, level  # dict.__new__ made it empty

    def at(self, sigma: float) -> float:
        if sigma in self:
            return self[sigma]
        cut = self[sigma] = _cut(self.level, log_m_of_sigma(self.scheme, sigma),
                                 variance_ratio(sigma))
        return cut


def _scan_bracket(psi: _PsiMemo, c: float) -> Bracket:
    """The sigma scan: the first cell of a pass of _scan_passes whose psi values enclose c; a pass
    that encloses none is evaluated whole, and the next refines it. Where none does: the last
    pass's cell nearest c, at whose end h_c may be zero to within rounding."""
    lo, hi, at = *psi.scheme.sigma_domain(), psi.at
    for pts in _scan_passes(lo, hi):
        gaps = [abs((p_lo := at(pts[0])) - c)]
        for s_lo, s_hi in zip(pts, pts[1:]):
            p_hi = at(s_hi)
            if p_lo <= c <= p_hi or p_hi <= c <= p_lo:
                return Bracket(s_lo, s_hi)
            gaps.append(abs((p_lo := p_hi) - c))
    if len(pts) < 2:  # no cell, though the one sigma may well achieve alpha
        raise UnsupportedSchemeError(f"the sigma scan cannot split the domain {(lo, hi)!r}")
    k = min(gaps.index(min(gaps)), len(pts) - 2)  # the first cell holding the sigma nearest c
    return Bracket(pts[k], pts[k + 1])


def _solve_bracket(psi: _PsiMemo, alpha: float, c: float) -> Bracket:
    """psi.scheme's _proven_cell where _h_past_rounding reads h_lo >= 0 >= h_hi or h_lo < 0 <= h_hi
    at its ends, else _scan_bracket; only the scan fills psi. A lower end within rounding passes
    unless h_hi > 0: kl's (alpha_b within 6e-14 of 1/2; the scan cannot reach its roots near
    1e-8) does, fixed's at its bound next to alpha = 1 does not."""
    scheme, level = psi.scheme, psi.level
    cell = scheme._proven_cell(level, alpha, c)
    if cell is not None and 0.0 < (lo := cell[0]) < (hi := cell[1]) < _INF:
        h_lo = _h_past_rounding(level, c, log_m_of_sigma(scheme, lo), variance_ratio(lo))
        h_hi = _h_past_rounding(level, c, log_m_of_sigma(scheme, hi), variance_ratio(hi))
        if h_hi <= 0.0 <= h_lo or h_lo < 0.0 <= h_hi:
            return Bracket(lo, hi)
    return _scan_bracket(psi, c)


def _error_of(cut: float) -> float:
    """The Type I error where psi is cut, as type_i_error computes it."""
    return 1.0 if cut < 0.0 else 2.0 * _upper_tail(math.sqrt(cut))


def solve_sigma(spec: CalibrationSpec) -> CalibrationResult:
    """Find sigma whose induced Type I error equals spec.alpha.

    The error is alpha exactly where h_c(sigma) = (L - log m) - (c_alpha/2) ratio, which is
    (ratio/2)(psi - c_alpha), is 0: L = log(1/alpha_b - 1), c_alpha = classical_threshold(alpha).
    One predicate, _h_past_rounding, reads h_c as the root finder computes it, or 0 within its
    rounding bound E = 16 eps (1 + |L| + |log m|), eps = 2^-53, log m as computed (as _band takes
    base). The bracket is _solve_bracket's: a proven cell its check takes, or the scan's cell.
    Newton's method on h_c, or Brent's without a slope, finds the float nearest its root
    (_root_of_h): h_c has neither erfc nor sqrt, so it does not flatten out. That float is the
    answer where psi > 0 and _h_past_rounding reads h_c as 0. E adds:
    - _band's step 2: L is within eps (3 |L| + 3) of log(1/alpha_b - 1); the gap L - log m,
      (c/2) ratio and h_c round once each; ratio is within 4 eps, and (c/2) ratio with it.
    - c_alpha is within 1 + k (11 + c) ulp (classical_threshold), and k c <= 2 by
      erfc(z) <= e^(-z^2) / (z sqrt(pi)), so it moves h_c by at most eps (3 (c/2) ratio + 11).
      Above alpha = 1/2, c < 0.46 is within 15 ulp, which is less. Below alpha = 2^-1021
      classical_threshold states no such bound, and E does not cover c_alpha's error there.
    Where |h_c| <= E, (c/2) ratio is within 1.01 E of the gap, so these sum to at most
    14 eps (1 + |L| + |log m|) + 10 eps E < E. The answer is thus a float where h_c is zero to
    within rounding; one where h_c jumps past zero (odds that turn infinite) is not. Next to
    alpha = 1 its error can miss alpha by far more than an ulp (about 1e-8 next to kl's bound),
    since the error moves that much between adjacent floats there.
    Otherwise alpha is refused with InfeasibleAlphaError and the errors at the sigma of greatest
    and least psi the solve evaluated, the bracket's ends included; where that range would hold
    alpha, alpha is met only where the error rounds to 1, and the errors of 1 are left out.
    evaluations counts the distinct sigma of psi's memo and of _root_of_h's h_c, sigma* included.
    """
    alpha, alpha_b, scheme = spec.alpha, spec.alpha_b, spec.scheme
    level, c = _log_rejection_odds(alpha_b), classical_threshold(alpha)
    bracket = _solve_bracket(cuts := _PsiMemo(scheme, level), alpha, c)
    lo, hi, evaluated = bracket.lo, bracket.hi, []
    sigma_star = _root_of_h(scheme, level, c, lo, hi, evaluated)
    log_m, ratio = log_m_of_sigma(scheme, sigma_star), variance_ratio(sigma_star)
    cut = cuts[sigma_star] = _cut(level, log_m, ratio)  # as the memo computes it
    if 0.0 < cut < _INF and not _h_past_rounding(level, c, log_m, ratio):
        achieved = _error_of(cut)
        return CalibrationResult(sigma_star, cut, achieved, achieved - alpha, bracket,
                                 len(cuts.keys() | evaluated))
    cuts.at(lo), cuts.at(hi)  # a taken cell's ends, which the scan's memo already holds
    least = type_i_error(max(cuts, key=cuts.get), alpha_b, scheme)
    most = type_i_error(min(cuts, key=cuts.get), alpha_b, scheme)
    if least <= alpha <= most:  # met only where the error rounds to 1
        most = max(e for e in map(_error_of, cuts.values()) if e < 1.0)
    raise InfeasibleAlphaError(alpha, least, most)
