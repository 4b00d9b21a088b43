"""Prior null-mass schemes and the asymptotics of m(sigma).

A scheme maps the alternative's spread sigma to the prior mass rho0 placed
on the point null. The composite quantity

    m(sigma) = ((1 - rho0) / rho0) / sqrt(1 + sigma^2)

controls what happens as sigma grows: m -> 0 forces the posterior null
probability to 1 whatever the data (the classic large-spread paradox),
m -> c sends it to 1 / (1 + c e^(x^2/2)), which depends on x while the
threshold psi stays fixed, and m -> infinity sends it to 0. Schemes declare
which of those regimes they belong to analytically; ``classify_regime``
reports that declaration with m and log m at two large sigma values as
evidence.

All log-odds work happens in log-domain so the divergent scheme remains
usable far past the point where m itself overflows.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Callable, NamedTuple

from . import _EXPORTS
from .model import (Observation, _exp_or_inf, _stable_inv_logistic, _x2_term, log_marginal_variance,
                    variance_ratio)
# Unused here, but bench/tracing.py rebinds pointnull.priors.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import (_INF, DomainError, _check_prob, _check_sigma, _Record, _set,
                       _u_minus_log1p)

__all__ = _EXPORTS["priors"]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_NEG_INF = -math.inf  # log_m_of_sigma's bound: one global load per call, no negation

#: sigma values at which classification evidence is collected.
_PROBE_SIGMAS = (1.0e3, 1.0e6)


class TableRangeError(DomainError):
    """A tabulated scheme was queried outside its tabulated sigma range."""


class UnsupportedSchemeError(DomainError):
    """The requested operation is undefined for this scheme variant."""


class SchemeParseError(ValueError):
    """A scheme string did not match fixed:<rho0> | robert | kl | table:<path>."""


class InfeasibleAlphaError(DomainError):
    """No sigma achieves the requested Type I error under this scheme."""

    def __init__(self, requested: float, achievable_lo: float, achievable_hi: float):
        self.requested = requested
        self.achievable_lo = achievable_lo
        self.achievable_hi = achievable_hi
        super().__init__(f"no sigma achieves Type I error {requested}; achievable range is "
                         f"approximately ({achievable_lo!r}, {achievable_hi!r})")


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


def _log_tau_slope(sigma: float) -> float:
    """sigma / (1 + sigma^2), the slope of log sqrt(1 + sigma^2); 1 / (sigma + 1/sigma) above 1."""
    return 1.0 / (sigma + 1.0 / sigma) if sigma > 1.0 else sigma / (1.0 + sigma * sigma)


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
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        r = self.rho0(sigma)
        try:
            return math.log1p(-r) - math.log(r)
        except ValueError:  # r outside (0, 1); NaN passes, for log_m_of_sigma to refuse
            raise DomainError(f"rho0 must lie strictly between 0 and 1, got rho0={r!r} "
                              f"at sigma={sigma!r}") from None

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

    #: d log m / d sigma, the slope of solve_sigma's Newton steps. Each built-in scheme defines it
    #: in closed form; without one the root is found by Brent's method.
    _log_m_slope: Callable[[float], float] | None = None

    def _proven_cell(self, level: float, alpha: float, c: float) -> tuple[float, float] | None:
        """A cell proven in closed form to hold the smallest root of h_c, c = c_alpha, with h_c of
        one sign below it, or None; calibration._solve_bracket checks its ends or scans."""
        return None

    @property
    def scheme_id(self) -> str:
        raise NotImplementedError


def _sqrt_expm1(k: float) -> float:
    """sqrt(e^k - 1) for k > 0, as exp((k + log(1 - e^-k)) / 2): inf only past float range."""
    return _exp_or_inf(0.5 * (k + math.log(-math.expm1(-k))))


class _LogOdds:
    __slots__ = ("_log_odds",)  # a cache beside the record's fields, which are its own __slots__


class FixedPrior(_LogOdds, _Record, PriorScheme):
    """Constant null mass, the textbook choice that triggers the paradox."""

    __slots__ = ("rho0_value",)

    def __init__(self, rho0_value: float) -> None:
        _set(self, "rho0_value", _check_prob("fixed rho0", rho0_value))
        _set(self, "_log_odds", math.log1p(-rho0_value) - math.log(rho0_value))

    def rho0(self, sigma: float) -> float:
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        return self.rho0_value

    def log_prior_odds(self, sigma: float) -> float:
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        return self._log_odds

    def declared_regime(self) -> Regime:
        return Regime("vanishing")

    def _positivity_bound(self, level: float) -> None:
        return None  # m falls: where rho0 < alpha_b, psi reports the small-sigma infeasible side

    def _log_m_slope(self, sigma: float) -> float:
        return -_log_tau_slope(sigma)  # the odds are constant

    def _proven_cell(self, level: float, alpha: float, c: float) -> tuple[float, float] | None:
        """A cell that holds the smallest root of h_c, or None.

        With u = 1 + sigma^2 and D = level - log odds, h_c = D + log(u)/2 - (c/2)(1 - 1/u) falls
        to its least at u = c and then rises without bound.
        - D > 0: a root needs h_c(c) < 0, 2 D < (c - 1) - log c, and the smallest lies below
          sigma^2 = c - 1. As log u >= 0, h_c > 0 below sigma^2 = 2 D / (c - 2 D).
        - D <= 0: h_c < 0 up to u = max(c, e^(-2 D)), and h_c > 1/2 from u = e^(c + 1 - 2 D) on.
          Both ends are sqrt(e^k - 1) in log form. Where the log odds exceed 2 (1 + |level|),
          log m = log odds - log(u)/2 cancels near the root: its rounding, about eps (log odds +
          log(u)/2), can pass solve_sigma's bound: None, and the scan decides.
        """
        d = level - self._log_odds
        if d > 0.0:
            return (math.sqrt(2.0 * d / (c - 2.0 * d)), math.sqrt(c - 1.0)) \
                if c > 1.0 and 2.0 * d < _u_minus_log1p(c - 1.0) else None
        k = max(-2.0 * d, math.log(c))
        return (_sqrt_expm1(k), _sqrt_expm1(c + 1.0 - 2.0 * d)) \
            if k > 0.0 and self._log_odds <= 2.0 * (1.0 + abs(level)) else None

    @property
    def scheme_id(self) -> str:
        return f"fixed:{self.rho0_value!r}"


class RobertPrior(_Record, PriorScheme):
    """rho0 = 1 / (1 + sqrt(2 pi) sigma): prior odds grow linearly with sigma.

    Chosen so that m(sigma) tends to the finite constant sqrt(2 pi); the
    posterior null probability then tends to 1 / (1 + sqrt(2 pi) e^(x^2/2)), which
    depends on x, while psi tends to a constant: the test becomes a fixed-level z-test.
    """

    __slots__ = ()

    def rho0(self, sigma: float) -> float:
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        return 1.0 / (1.0 + SQRT_TWO_PI * sigma)

    def log_prior_odds(self, sigma: float) -> float:
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        return _LOG_SQRT_TWO_PI + math.log(sigma)

    def declared_regime(self) -> Regime:
        return Regime("finite", SQRT_TWO_PI)

    def _positivity_bound(self, level: float) -> float | None:
        """e^level / sqrt(2 pi - e^(2 level)), or None past the ceiling sqrt(2 pi).

        As e^level / (sqrt(2 pi) sqrt(-expm1(d))), d = 2 (level - log sqrt(2 pi)): relative error
        given level is <= 4 eps (1 + 1/(1 - e^d)), eps = 2^-53; 1/(1 - e^d) is the condition number.
        """
        d = 2.0 * (level - _LOG_SQRT_TWO_PI)
        return None if d >= 0.0 else math.exp(level) / (SQRT_TWO_PI * math.sqrt(-math.expm1(d)))

    def _log_m_slope(self, sigma: float) -> float:
        """1/sigma - sigma/(1 + sigma^2) = 1 / (sigma (1 + sigma^2)), divided twice: no overflow."""
        return 1.0 / sigma / (1.0 + sigma * sigma)

    def _proven_cell(self, level: float, alpha: float, c: float) -> tuple[float, float] | None:
        """A cell that holds the root of h_c, or None.

        With t = 1/sigma^2 and g = level - log sqrt(2 pi), h_c = g + log1p(t)/2 - c/(2 (1 + t))
        rises with t, from g - c/2 as sigma -> inf: a root needs c > 2 g. For g > 0, log1p(t) >= 0
        keeps h_c > 0 from t = (c - 2 g)/(2 g) on, and log1p(t) <= t keeps h_c below -(c - 2 g)/6
        up to t = (c - 2 g)/(2 (1 + c)) < 1/2, since there t (1 + 2 g + t) < (c - 2 g)/2. For
        g <= 0 (alpha_b above about 0.2853): None, and the scan decides.
        """
        g = level - _LOG_SQRT_TWO_PI
        gap = c - 2.0 * g
        return (math.sqrt(2.0 * g / gap), math.sqrt(2.0 * (1.0 + c) / gap)) \
            if gap > 0.0 < g else None

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
        if not 0.0 < sigma < _INF:
            _check_sigma(sigma)  # raises
        return 0.5 * sigma * sigma

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

    def _log_m_slope(self, sigma: float) -> float:
        """sigma - sigma/(1 + sigma^2) = sigma ratio(sigma), which cannot cancel."""
        return sigma * variance_ratio(sigma)

    def _proven_cell(self, level: float, alpha: float, c: float) -> tuple[float, float]:
        """[sqrt(L / (1/2 - log alpha)), the positivity bound] with L = level, if alpha_b < 1/2.

        log m <= sigma^2 / 2 and ratio <= sigma^2 give psi >= 2 L / sigma^2 - 1, so by erfc(x) <=
        e^(-x^2) the error, rising with sigma, is <= alpha up to the lower end (h_c > 0), and 1 at
        the bound, whose square exceeds 2 L. At the rounded bound it is below 1 (1 - 3.6e-8 at
        alpha_b = 0.05): a target above that is answered with the bound where h_c is within
        rounding there. For alpha_b >= 1/2 the error is 1."""
        if level <= 0.0:
            raise InfeasibleAlphaError(alpha, 1.0, 1.0)
        return math.sqrt(level / (0.5 - math.log(alpha))), self._positivity_bound(level)

    @property
    def scheme_id(self) -> str:
        return "kl"


class _Knots:
    __slots__ = ("_sigmas", "_rhos", "_drops")  # the rows as columns, beside the record's fields


class CustomTablePrior(_Knots, _Record, PriorScheme):
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
                sigma + rho + 0.0  # rho0 mixes the entries with floats, which a Decimal refuses
            except TypeError:  # an entry that is not a real number: a str, None or a Decimal
                raise DomainError(f"prior table row {(sigma, rho)!r} is not two numbers") from None
            except OverflowError:  # an int or a Fraction past float range
                raise DomainError(f"prior table row {(sigma, rho)!r} is past float range") from None
        sigmas, rhos = zip(*points)
        widths = [b - a for a, b in zip(sigmas, sigmas[1:])]
        if not all(w > 0.0 for w in widths):  # each segment divides by its width, which may round
            raise DomainError("table sigma values must be strictly increasing")  # to 0.0 if mixed
        _set(self, "points", points)
        _set(self, "source", source)
        _set(self, "_sigmas", sigmas)
        _set(self, "_rhos", rhos)
        _set(self, "_drops", tuple(-(r_hi - r_lo) / w  # -rho0' on each segment, entries as given
                                   for r_lo, r_hi, w in zip(rhos, rhos[1:], widths)))

    @classmethod
    def from_csv(cls, path: str) -> "CustomTablePrior":
        """Load a two-column CSV (sigma, rho0) with one header row.

        Lines starting with '#' are treated as comments, matching the CSV
        dialect this package emits.
        """
        import csv  # loaded on use

        try:
            with open(path, newline="", encoding="utf-8-sig") as handle:  # drops a byte-order mark
                records = [(lineno, row) for lineno, line in enumerate(handle, start=1)
                           if line.strip() and line.lstrip()[0] != "#"
                           for row in csv.reader([line])]  # numbered as lines of the file
        except UnicodeDecodeError as error:
            raise DomainError(f"prior table {path!r} is not UTF-8 text ({error.reason})") from None
        except csv.Error as error:  # a field past csv.field_size_limit(), say
            raise DomainError(f"prior table {path!r}: {error}") from None
        if not records:
            raise DomainError(f"prior table {path!r} is empty")
        rows: list[tuple[float, float]] = []
        for lineno, row in records[1:]:  # after the header row
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
        return self._sigmas[0], self._sigmas[-1]

    def rho0(self, sigma: float) -> float:
        sigmas = self._sigmas
        lo, hi = sigmas[0], sigmas[-1]
        if not lo <= sigma <= hi:  # lo > 0 and hi < inf: every sigma outside (0, inf) fails too
            _check_sigma(sigma)
            raise TableRangeError(f"sigma={sigma} outside tabulated range [{lo}, {hi}]")
        i = bisect.bisect_left(sigmas, sigma)
        s_hi, rhos = sigmas[i], self._rhos
        if s_hi == sigma:
            return rhos[i]
        s_lo, r_lo = sigmas[i - 1], rhos[i - 1]
        w = (sigma - s_lo) / (s_hi - s_lo)
        return r_lo + w * (rhos[i] - r_lo)

    def _log_m_slope(self, sigma: float) -> float:
        """-rho0' / (rho0 (1 - rho0)) - sigma/(1 + sigma^2), rho0' of the left segment at a row."""
        rho = self.rho0(sigma)  # first: it refuses a sigma off the table
        drop = self._drops[(bisect.bisect_left(self._sigmas, sigma) or 1) - 1]
        return drop / (rho * (1.0 - rho)) - _log_tau_slope(sigma)

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
    """log m(sigma), finite long after m overflows; kl's is inf past sigma ~ 1.9e154.

    NaN and -inf (rho0 = 1), which only a custom scheme's log prior odds give, are refused.
    """
    log_m = scheme.log_prior_odds(sigma) - 0.5 * log_marginal_variance(sigma)
    if log_m > _NEG_INF:  # False for NaN as well
        return log_m
    raise DomainError(f"the scheme's log prior odds are NaN or -inf at sigma={sigma!r}")


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
    if any(map(operator.le, grid[1:], grid)):  # False at a NaN, which the sigma check refuses
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
    The posterior is decide's: 0.5 x^2 is taken once, and each row's x^2 term
    is (0.5 x^2) variance_ratio(sigma), as _x2_term computes it, or _x2_term's
    own overflow-safe route where x * x overflows.
    """
    grid = _checked_grid(sigma_grid)
    x = Observation(x).x
    half_x2 = 0.5 * (x * x)  # inf past |x| = 1.34e154; 0.5 * x * x stays finite to 1.9e154
    rows = []
    append, rho0, new = rows.append, scheme.rho0, tuple.__new__  # new(ParadoxRow, ...) is _make
    for sigma in grid:
        log_m = log_m_of_sigma(scheme, sigma)
        x2 = half_x2 * variance_ratio(sigma) if half_x2 < _INF else _x2_term(x, sigma)
        post = _stable_inv_logistic(log_m + x2)
        append(new(ParadoxRow, (sigma, rho0(sigma), _exp_or_inf(log_m), post)))
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
