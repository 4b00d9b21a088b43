"""Prior null-mass schemes and the asymptotics of m(sigma).

A scheme maps the alternative's spread sigma to the prior mass rho0 placed
on the point null. The composite quantity

    m(sigma) = ((1 - rho0) / rho0) / sqrt(1 + sigma^2)

controls what happens as sigma grows: m -> 0 forces the posterior null
probability to 1 whatever the data (the classic large-spread paradox),
m -> c pins it at a data-independent constant, and m -> infinity sends it
to 0. Schemes declare which of those regimes they belong to analytically;
``classify_regime`` reports that declaration with m and log m at two large
sigma values as evidence.

All log-odds work happens in log-domain so the divergent scheme remains
usable far past the point where m itself overflows.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable, NamedTuple

from . import _EXPORTS
from .model import (Observation, _exp_or_inf, _posterior_from_parts, _stable_inv_logistic,
                    log_marginal_variance, variance_ratio)
# Unused here, but bench/tracing.py rebinds pointnull.priors.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import Bracket, DomainError, _check_prob, _check_sigma, _Record, _set, _u_minus_log1p

__all__ = _EXPORTS["priors"]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: sigma values at which classification evidence is collected.
_PROBE_SIGMAS = (1.0e3, 1.0e6)

_SCAN_DECADES = range(-3, 4)
#: Probes past the scan range, taken only when the finest pass brackets
#: nothing: asymptotically flat schemes reach some targets only there, and
#: their values bound the achievable range a refusal reports.
_FAR_PROBES = (1e6, 1e12)


class TableRangeError(DomainError):
    """A tabulated scheme was queried outside its tabulated sigma range."""


class UnsupportedSchemeError(DomainError):
    """The requested operation is undefined for this scheme variant."""


class SchemeParseError(ValueError):
    """A scheme string did not match fixed:<rho0> | robert | kl | table:<path>."""


class Regime(_Record):
    """Limit behaviour of m(sigma): vanishing, finite (with constant), divergent."""

    __slots__ = ("kind", "limit")
    _KINDS = ("vanishing", "finite", "divergent")

    def __init__(self, kind: str, limit: float | None = None) -> None:
        if kind not in self._KINDS:
            raise DomainError(f"unknown regime kind {kind!r}")
        if (kind == "finite") != (limit is not None):
            raise DomainError("exactly the finite regime carries a limit constant")
        if limit is not None and not (math.isfinite(limit) and limit > 0):
            raise DomainError(f"finite-regime limit must be positive, got {limit}")
        _set(self, "kind", kind)
        _set(self, "limit", limit)

    @property
    def case_label(self) -> str:
        """Conventional numbering: (i) vanishing, (ii) finite, (iii) divergent."""
        return {"vanishing": "i", "finite": "ii", "divergent": "iii"}[self.kind]


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


class PriorScheme:
    """Base class for rules assigning prior null mass as a function of sigma."""

    __slots__ = ()

    def rho0(self, sigma: float) -> float:
        """Prior probability of the null, in (0, 1)."""
        raise NotImplementedError

    def log_prior_odds(self, sigma: float) -> float:
        """log((1 - rho0) / rho0), overridden where an exact form exists.

        The model takes these odds, not rho0: they stay exact where rho0 underflows.
        An override must reject sigma outside (0, inf): log_m_of_sigma does not check it.
        """
        r = self.rho0(_check_sigma(sigma))
        return math.log1p(-r) - math.log(r)

    def sigma_domain(self) -> tuple[float, float]:
        """(lo, hi): the sigma range the scheme is defined on, ends included if finite."""
        return 0.0, math.inf

    def declared_regime(self) -> Regime:
        raise UnsupportedSchemeError(
            f"scheme {self.scheme_id!r} has no analytically declared regime"
        )

    def _positivity_bound(self, level: float) -> float | None:
        """The sigma where log m reaches level, in closed form; see calibration.positivity_bound."""
        raise UnsupportedSchemeError(f"no closed-form positivity bound for {self.scheme_id!r}")

    def _calibration_bracket(self, level: float, alpha: float,
                             error_at: Callable[[float], float]) -> Bracket | None:
        """A sigma cell whose Type I errors enclose alpha; None: no sigma reaches alpha.

        level is log(1/alpha_b - 1); error_at(sigma), memoized by solve_sigma, is the error. This
        default returns the first such cell of a scan over decades 10^-3..10^3 of the sigma domain,
        refined 16 then 64 points per decade when a pass misses, the last extended to 1e6 and 1e12.
        """
        lo, hi = self.sigma_domain()
        for per_decade in (1, 16, 64):
            pts = _scan_points(per_decade, lo, hi)
            errors = [error_at(s) for s in pts]
            if per_decade == 64 and not min(errors) <= alpha <= max(errors):
                # Nothing on the grid meets alpha: look past its upper end.
                far = tuple(s for s in _FAR_PROBES if pts[-1] < s < hi)
                pts += far
                errors += [error_at(s) for s in far]
            if min(errors) <= alpha <= max(errors):  # some cell of this pass encloses alpha
                return next(Bracket(s_lo, s_hi) for s_lo, s_hi, e_lo, e_hi
                            in zip(pts, pts[1:], errors, errors[1:])
                            if min(e_lo, e_hi) <= alpha <= max(e_lo, e_hi))
        return None

    @property
    def scheme_id(self) -> str:
        raise NotImplementedError


class _LogOdds:
    __slots__ = ("_log_odds",)  # a cache beside the record's fields, which are its own __slots__


class FixedPrior(_LogOdds, _Record, PriorScheme):
    """Constant null mass, the textbook choice that triggers the paradox."""

    __slots__ = ("rho0_value",)

    def __init__(self, rho0_value: float) -> None:
        _set(self, "rho0_value", _check_prob("fixed rho0", rho0_value))
        _set(self, "_log_odds", math.log1p(-rho0_value) - math.log(rho0_value))

    def rho0(self, sigma: float) -> float:
        _check_sigma(sigma)
        return self.rho0_value

    def log_prior_odds(self, sigma: float) -> float:
        _check_sigma(sigma)
        return self._log_odds

    def declared_regime(self) -> Regime:
        return Regime("vanishing")

    def _positivity_bound(self, level: float) -> None:
        return None  # m falls: where rho0 < alpha_b, psi reports the small-sigma infeasible side

    @property
    def scheme_id(self) -> str:
        return f"fixed:{self.rho0_value!r}"


class RobertPrior(_Record, PriorScheme):
    """rho0 = 1 / (1 + sqrt(2 pi) sigma): prior odds grow linearly with sigma.

    Chosen so that m(sigma) tends to the finite constant sqrt(2 pi); the
    posterior null probability then converges to a data-independent value,
    which is the canonical illustration of the finite regime's incoherence.
    """

    __slots__ = ()

    def rho0(self, sigma: float) -> float:
        return 1.0 / (1.0 + SQRT_TWO_PI * _check_sigma(sigma))

    def log_prior_odds(self, sigma: float) -> float:
        return _LOG_SQRT_TWO_PI + math.log(_check_sigma(sigma))

    def declared_regime(self) -> Regime:
        return Regime("finite", SQRT_TWO_PI)

    def _positivity_bound(self, level: float) -> float | None:
        """e^level / sqrt(2 pi - e^(2 level)), or None past the ceiling sqrt(2 pi).

        As e^level / (sqrt(2 pi) sqrt(-expm1(d))), d = 2 (level - log sqrt(2 pi)): relative error
        given level is <= 4 eps (1 + 1/(1 - e^d)), eps = 2^-53; 1/(1 - e^d) is the condition number.
        """
        d = 2.0 * (level - _LOG_SQRT_TWO_PI)
        return None if d >= 0.0 else math.exp(level) / (SQRT_TWO_PI * math.sqrt(-math.expm1(d)))

    @property
    def scheme_id(self) -> str:
        return "robert"


class KLSelfInformationPrior(_Record, PriorScheme):
    """rho0 = 1 / (1 + exp(sigma^2 / 2)): odds match the expected KL separation.

    The exponent is the mean Kullback-Leibler divergence of the alternative
    from the null (sigma^2 / 2), so the prior charges the null according to
    the information needed to tell the hypotheses apart. Prior odds explode
    rapidly, making this the divergent regime.
    """

    __slots__ = ()

    def rho0(self, sigma: float) -> float:
        return _stable_inv_logistic(self.log_prior_odds(sigma))

    def log_prior_odds(self, sigma: float) -> float:
        return 0.5 * _check_sigma(sigma) * sigma

    def declared_regime(self) -> Regime:
        return Regime("divergent")

    def _positivity_bound(self, level: float) -> float:
        # u = sigma^2 solves u - log1p(u) = k = 2 level by Newton. The start lies left of
        # the convex root, so the first step overshoots and the rest descend (3-7 evaluations).
        if level <= 0.0:
            return 0.0
        k = 2.0 * level
        u = k + math.log1p(k) if k > 1.0 else math.sqrt(2.0 * k)
        u -= (_u_minus_log1p(u) - k) * (1.0 + u) / u
        while (nxt := u - (_u_minus_log1p(u) - k) * (1.0 + u) / u) < u:
            u = nxt
        return math.sqrt(u)

    def _calibration_bracket(self, level: float, alpha: float,
                             error_at: Callable[[float], float]) -> Bracket | None:
        """[sqrt(L / (1/2 - log alpha)), the positivity bound] with L = level, if alpha_b < 1/2.

        log m <= sigma^2 / 2 and ratio <= sigma^2 give psi >= 2 L / sigma^2 - 1, so with
        erfc(x) <= e^(-x^2) the Type I error at the lower end is at most alpha, while it is 1 at
        the bound; the lower end lies below the bound, whose square exceeds 2 L. For alpha_b >=
        1/2 the error is 1 everywhere, and the default scan finds that no sigma reaches alpha.
        """
        if level <= 0.0:
            return super()._calibration_bracket(level, alpha, error_at)
        return Bracket(math.sqrt(level / (0.5 - math.log(alpha))), self._positivity_bound(level))

    @property
    def scheme_id(self) -> str:
        return "kl"


class CustomTablePrior(_Record, PriorScheme):
    """Null mass tabulated at increasing sigma values, linearly interpolated.

    Queries outside the tabulated range raise TableRangeError rather than
    extrapolating, and no regime is declared: the tail behaviour of a finite
    table is whatever the user wants it to be, which is to say unknowable.
    """

    __slots__ = ("points", "source")

    def __init__(self, points: tuple[tuple[float, float], ...],
                 source: str = "table:<inline>") -> None:
        try:  # tuples, so that rho0's bisect and hash work on rows given as lists
            points = tuple((sigma, rho) for sigma, rho in points)
        except (TypeError, ValueError):
            raise DomainError("prior table rows must be (sigma, rho0) pairs") from None
        if len(points) < 2:
            raise DomainError("a prior table needs at least two (sigma, rho0) rows")
        for sigma, rho in points:
            try:
                if not (math.isfinite(sigma) and sigma > 0.0):
                    raise DomainError(f"table sigma values must be positive, got {sigma}")
                _check_prob("table rho0 values", rho)
            except TypeError:  # an entry that is not a real number: a str or None, say
                raise DomainError(f"prior table row {(sigma, rho)!r} is not two numbers") from None
        sigmas = [s for s, _ in points]
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise DomainError("table sigma values must be strictly increasing")
        _set(self, "points", points)
        _set(self, "source", source)

    @classmethod
    def from_csv(cls, path: str) -> "CustomTablePrior":
        """Load a two-column CSV (sigma, rho0) with one header row.

        Lines starting with '#' are treated as comments, matching the CSV
        dialect this package emits.
        """
        import csv  # loaded on use

        try:
            with open(path, newline="", encoding="utf-8") as handle:
                lines = [line for line in handle if line.strip() and line.lstrip()[0] != "#"]
            records = list(csv.reader(lines))
        except UnicodeDecodeError as error:
            raise DomainError(f"prior table {path!r} is not UTF-8 text ({error.reason})") from None
        except csv.Error as error:  # a field past csv.field_size_limit(), say
            raise DomainError(f"prior table {path!r}: {error}") from None
        if not records:
            raise DomainError(f"prior table {path!r} is empty")
        rows: list[tuple[float, float]] = []
        for lineno, row in enumerate(records[1:], start=2):  # after the header row
            if len(row) != 2:
                raise DomainError(
                    f"prior table {path!r} line {lineno}: expected 2 columns, got {len(row)}"
                )
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise DomainError(
                    f"prior table {path!r} line {lineno}: non-numeric entry {row!r}"
                ) from None
        return cls(points=tuple(rows), source=f"table:{path}")

    def sigma_domain(self) -> tuple[float, float]:
        return self.points[0][0], self.points[-1][0]

    def rho0(self, sigma: float) -> float:
        _check_sigma(sigma)
        points = self.points
        lo, hi = points[0][0], points[-1][0]
        if sigma < lo or sigma > hi:
            raise TableRangeError(f"sigma={sigma} outside tabulated range [{lo}, {hi}]")
        i = bisect.bisect_left(points, (sigma,))  # (sigma,) sorts before (sigma, rho0)
        if points[i][0] == sigma:
            return points[i][1]
        (s_lo, r_lo), (s_hi, r_hi) = points[i - 1], points[i]
        w = (sigma - s_lo) / (s_hi - s_lo)
        return r_lo + w * (r_hi - r_lo)

    @property
    def scheme_id(self) -> str:
        return self.source


def m_of_sigma(scheme: PriorScheme, sigma: float) -> float:
    """((1 - rho0)/rho0) / sqrt(1 + sigma^2), the regime-deciding quantity.

    Computed as exp(log_m_of_sigma); returns inf where the true value
    exceeds float range (divergent schemes at large sigma).
    """
    return _exp_or_inf(log_m_of_sigma(scheme, sigma))


def log_m_of_sigma(scheme: PriorScheme, sigma: float) -> float:
    """log m(sigma), finite long after m overflows; kl's is inf past sigma ~ 1.9e154."""
    return scheme.log_prior_odds(sigma) - 0.5 * log_marginal_variance(sigma)


class RegimeEvidence(NamedTuple):
    """m and log m probed at two large sigma values (1e3 and 1e6)."""

    sigma_probes: tuple[float, float]
    m_values: tuple[float, float]
    log_m_values: tuple[float, float]


class ClassifiedRegime(_Record):
    __slots__ = ("regime", "evidence")

    def __init__(self, regime: Regime, evidence: RegimeEvidence) -> None:
        _set(self, "regime", regime)
        _set(self, "evidence", evidence)


def classify_regime(scheme: PriorScheme) -> ClassifiedRegime:
    """Return the scheme's declared regime, with m and log m at sigma = 1e3 and 1e6.

    The declaration is analytic: a numeric probe alone cannot tell slow
    divergence from a large finite limit, nor slow decay from a small
    constant. The probes are evidence for the reader, not a check; the
    tests hold each built-in scheme's numbers to its label.
    """
    regime = scheme.declared_regime()  # first: a table has none, and no value at 1e6 either
    log_ms = tuple(log_m_of_sigma(scheme, s) for s in _PROBE_SIGMAS)
    evidence = RegimeEvidence(_PROBE_SIGMAS, tuple(_exp_or_inf(v) for v in log_ms), log_ms)
    return ClassifiedRegime(regime, evidence)


def _checked_grid(sigma_grid: list[float] | tuple[float, ...]) -> list[float]:
    """The grid as a list, refused unless non-empty and strictly increasing."""
    grid = list(sigma_grid)
    if not grid:
        raise DomainError("sigma grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma grid must be strictly increasing")
    return grid


class ParadoxRow(NamedTuple):
    sigma: float
    rho0: float
    m: float
    posterior_h0: float


def paradox_sweep(
    scheme: PriorScheme, x: float, sigma_grid: list[float] | tuple[float, ...]
) -> list[ParadoxRow]:
    """Posterior null probability along a sigma grid at a held observation.

    One row per sigma: (sigma, rho0, m, posterior). This is the table that
    exhibits each regime directly — posterior climbing to 1 under a fixed
    mass, flattening at a constant under the linear-odds scheme, collapsing
    to 0 under the divergent one. Each row's log m serves both m and the
    posterior, so rows past kl's rho0 underflow still carry exact odds.
    """
    grid = _checked_grid(sigma_grid)
    x = Observation(x).x
    x_squared = x * x
    rows = []
    make = ParadoxRow._make
    for sigma in grid:
        log_m = log_m_of_sigma(scheme, sigma)
        post = _posterior_from_parts(x_squared, log_m, variance_ratio(sigma), x, sigma)
        rows.append(make((sigma, scheme.rho0(sigma), _exp_or_inf(log_m), post)))
    return rows


def scheme_from_string(text: str) -> PriorScheme:
    """Parse the flat CLI grammar: fixed:<rho0> | robert | kl | table:<path>."""
    spelled = text.strip()
    if spelled == "robert":
        return RobertPrior()
    if spelled == "kl":
        return KLSelfInformationPrior()
    if spelled.startswith("fixed:"):
        raw = spelled[len("fixed:") :]
        try:
            value = float(raw)
        except ValueError:
            raise SchemeParseError(f"fixed:<rho0> needs a number, got {raw!r}") from None
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            raise SchemeParseError(f"fixed rho0 must lie strictly in (0, 1), got {raw}")
        return FixedPrior(value)
    if spelled.startswith("table:"):
        path = spelled[len("table:") :]
        if not path:
            raise SchemeParseError("table:<path> needs a file path")
        return CustomTablePrior.from_csv(path)
    raise SchemeParseError(
        f"unknown scheme {text!r}; expected fixed:<rho0>, robert, kl, or table:<path>"
    )
