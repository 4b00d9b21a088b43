"""Prior null-mass schemes and the asymptotics of m(sigma).

A scheme maps the alternative's spread sigma to the prior mass rho0 placed
on the point null. The composite quantity

    m(sigma) = ((1 - rho0) / rho0) / sqrt(1 + sigma^2)

controls what happens as sigma grows: m -> 0 forces the posterior null
probability to 1 whatever the data (the classic large-spread paradox),
m -> c pins it at a data-independent constant, and m -> infinity sends it
to 0. Schemes declare which of those regimes they belong to analytically;
``classify_regime`` corroborates the declaration numerically and refuses
to certify a scheme whose numbers disagree with its label.

All log-odds work happens in log-domain so the divergent scheme remains
usable far past the point where m itself overflows.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import (Observation, _exp_or_inf, _posterior_from_parts, log_marginal_variance,
                    variance_ratio)
# Unused here, but bench/tracing.py rebinds pointnull.priors.posterior_h0 (INNER_CALLS).
from .model import posterior_h0  # noqa: F401
from .numerics import DomainError, _check_prob, _check_sigma

__all__ = [
    "ClassifiedRegime",
    "ConsistencyError",
    "CustomTablePrior",
    "FixedPrior",
    "KLSelfInformationPrior",
    "ParadoxRow",
    "PriorScheme",
    "Regime",
    "RegimeEvidence",
    "RobertPrior",
    "SQRT_TWO_PI",
    "SchemeParseError",
    "TableRangeError",
    "UnsupportedSchemeError",
    "classify_regime",
    "log_m_of_sigma",
    "m_of_sigma",
    "paradox_sweep",
    "scheme_from_string",
]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: sigma values at which classification evidence is collected.
_PROBE_SIGMAS = (1.0e3, 1.0e6)


class TableRangeError(DomainError):
    """A tabulated scheme was queried outside its tabulated sigma range."""


class UnsupportedSchemeError(DomainError):
    """The requested operation is undefined for this scheme variant."""


class ConsistencyError(RuntimeError):
    """Two internally redundant computations disagreed beyond tolerance."""


class SchemeParseError(ValueError):
    """A scheme string did not match fixed:<rho0> | robert | kl | table:<path>."""


@dataclass(frozen=True, slots=True)
class Regime:
    """Limit behaviour of m(sigma): vanishing, finite (with constant), divergent."""

    kind: str
    limit: float | None = None

    _KINDS = ("vanishing", "finite", "divergent")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown regime kind {self.kind!r}")
        if (self.kind == "finite") != (self.limit is not None):
            raise DomainError("exactly the finite regime carries a limit constant")
        if self.limit is not None and not (math.isfinite(self.limit) and self.limit > 0):
            raise DomainError(f"finite-regime limit must be positive, got {self.limit}")

    @property
    def case_label(self) -> str:
        """Conventional numbering: (i) vanishing, (ii) finite, (iii) divergent."""
        return {"vanishing": "i", "finite": "ii", "divergent": "iii"}[self.kind]


class PriorScheme:
    """Base class for rules assigning prior null mass as a function of sigma."""

    def rho0(self, sigma: float) -> float:
        """Prior probability of the null, in (0, 1)."""
        raise NotImplementedError

    def log_prior_odds(self, sigma: float) -> float:
        """log((1 - rho0) / rho0), overridden where an exact form exists.

        The model takes these odds, not rho0: they stay exact where rho0 underflows.
        """
        r = self.rho0(sigma)
        return math.log1p(-r) - math.log(r)

    def sigma_domain(self) -> tuple[float, float]:
        """(lo, hi): the sigma range the scheme is defined on, ends included if finite."""
        return 0.0, math.inf

    def declared_regime(self) -> Regime:
        raise UnsupportedSchemeError(
            f"scheme {self.scheme_id!r} has no analytically declared regime"
        )

    @property
    def scheme_id(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FixedPrior(PriorScheme):
    """Constant null mass, the textbook choice that triggers the paradox."""

    rho0_value: float

    def __post_init__(self) -> None:
        _check_prob("fixed rho0", self.rho0_value)

    def rho0(self, sigma: float) -> float:
        _check_sigma(sigma)
        return self.rho0_value

    def declared_regime(self) -> Regime:
        return Regime("vanishing")

    @property
    def scheme_id(self) -> str:
        return f"fixed:{self.rho0_value!r}"


@dataclass(frozen=True, slots=True)
class RobertPrior(PriorScheme):
    """rho0 = 1 / (1 + sqrt(2 pi) sigma): prior odds grow linearly with sigma.

    Chosen so that m(sigma) tends to the finite constant sqrt(2 pi); the
    posterior null probability then converges to a data-independent value,
    which is the canonical illustration of the finite regime's incoherence.
    """

    def rho0(self, sigma: float) -> float:
        return 1.0 / (1.0 + SQRT_TWO_PI * _check_sigma(sigma))

    def log_prior_odds(self, sigma: float) -> float:
        return _LOG_SQRT_TWO_PI + math.log(_check_sigma(sigma))

    def declared_regime(self) -> Regime:
        return Regime("finite", SQRT_TWO_PI)

    @property
    def scheme_id(self) -> str:
        return "robert"


@dataclass(frozen=True, slots=True)
class KLSelfInformationPrior(PriorScheme):
    """rho0 = 1 / (1 + exp(sigma^2 / 2)): odds match the expected KL separation.

    The exponent is the mean Kullback-Leibler divergence of the alternative
    from the null (sigma^2 / 2), so the prior charges the null according to
    the information needed to tell the hypotheses apart. Prior odds explode
    rapidly, making this the divergent regime.
    """

    def rho0(self, sigma: float) -> float:
        # exp(-sigma^2/2) underflows to 0 for sigma beyond ~38.6; the returned
        # 0.0 is then the nearest representable value to the true mass, and
        # log_prior_odds still carries the exact odds.
        try:
            u = math.exp(-0.5 * _check_sigma(sigma) ** 2)
        except OverflowError:  # sigma^2 past float range, beyond ~1.34e154
            return 0.0
        return u / (1.0 + u)

    def log_prior_odds(self, sigma: float) -> float:
        # sigma ** 2 raises where sigma * sigma would give inf; the two differ
        # in the last bit for some sigma, so the power stays.
        try:
            return 0.5 * _check_sigma(sigma) ** 2
        except OverflowError:
            return math.inf

    def declared_regime(self) -> Regime:
        return Regime("divergent")

    @property
    def scheme_id(self) -> str:
        return "kl"


@dataclass(frozen=True, slots=True)
class CustomTablePrior(PriorScheme):
    """Null mass tabulated at increasing sigma values, linearly interpolated.

    Queries outside the tabulated range raise TableRangeError rather than
    extrapolating, and no regime is declared: the tail behaviour of a finite
    table is whatever the user wants it to be, which is to say unknowable.
    """

    points: tuple[tuple[float, float], ...]
    source: str = "table:<inline>"

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a prior table needs at least two (sigma, rho0) rows")
        for sigma, rho in self.points:
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise DomainError(f"table sigma values must be positive, got {sigma}")
            _check_prob("table rho0 values", rho)
        sigmas = [s for s, _ in self.points]
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise DomainError("table sigma values must be strictly increasing")

    @classmethod
    def from_csv(cls, path: str) -> "CustomTablePrior":
        """Load a two-column CSV (sigma, rho0) with one header row.

        Lines starting with '#' are treated as comments, matching the CSV
        dialect this package emits.
        """
        rows: list[tuple[float, float]] = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(
                line for line in handle if line.strip() and not line.lstrip().startswith("#")
            )
            try:
                next(reader)  # header row
            except StopIteration:
                raise DomainError(f"prior table {path!r} is empty") from None
            for lineno, row in enumerate(reader, start=2):
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
    """log m(sigma), finite long after m itself overflows."""
    return scheme.log_prior_odds(sigma) - 0.5 * log_marginal_variance(_check_sigma(sigma))


class RegimeEvidence(NamedTuple):
    """m and log m probed at two large sigma values (1e3 and 1e6)."""

    sigma_probes: tuple[float, float]
    m_values: tuple[float, float]
    log_m_values: tuple[float, float]


@dataclass(frozen=True, slots=True)
class ClassifiedRegime:
    regime: Regime
    evidence: RegimeEvidence


def classify_regime(scheme: PriorScheme) -> ClassifiedRegime:
    """Return the scheme's declared regime, corroborated at sigma = 1e3, 1e6.

    The declaration is analytic (a numeric probe alone cannot tell slow
    divergence from a large finite limit); the probe exists to catch a
    scheme whose implementation drifted from its label. Vanishing demands
    m(1e6) < 1e-3 and still falling, finite demands m(1e6) within 1e-6
    relative of the limit constant, divergent demands log m(1e6) > 1e3.
    """
    regime = scheme.declared_regime()
    log_ms = tuple(log_m_of_sigma(scheme, s) for s in _PROBE_SIGMAS)
    ms = tuple(m_of_sigma(scheme, s) for s in _PROBE_SIGMAS)
    evidence = RegimeEvidence(_PROBE_SIGMAS, ms, log_ms)

    if regime.kind == "vanishing":
        ok = ms[1] < 1.0e-3 and ms[1] < ms[0]
    elif regime.kind == "finite":
        assert regime.limit is not None
        ok = abs(ms[1] - regime.limit) < 1.0e-6 * regime.limit
    else:
        ok = log_ms[1] > 1.0e3
    if not ok:
        raise ConsistencyError(
            f"scheme {scheme.scheme_id!r} declares the {regime.kind} regime but its "
            f"probes contradict it: m={ms}, log_m={log_ms} at sigma={_PROBE_SIGMAS}"
        )
    return ClassifiedRegime(regime, evidence)


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
    grid = list(sigma_grid)
    if not grid:
        raise DomainError("sigma grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma grid must be strictly increasing")
    x = Observation(x).x
    x_squared = x * x
    rows = []
    for sigma in grid:
        log_m = log_m_of_sigma(scheme, sigma)
        post = _posterior_from_parts(x_squared, log_m, variance_ratio(sigma), x, sigma)
        rows.append(ParadoxRow(sigma, scheme.rho0(sigma), _exp_or_inf(log_m), post))
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
