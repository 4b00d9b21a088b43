"""Scalar numerics underpinning the rest of the package.

Standard-normal density, distribution, and quantile functions, the domain
checks every module shares, the immutable record base, and a bracket-safe
root finder: Brent's method to an exact zero or adjacent floats, with an
infinite value read as its sign. The density and distribution are closed
forms over math.exp and math.erfc; the quantile is the standard library's,
called without importing statistics where CPython's accelerator is present.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from . import _EXPORTS

__all__ = _EXPORTS["numerics"]

_SQRT2 = math.sqrt(2.0)
_INF = math.inf
_INV_SQRT_TWO_PI = 1.0 / math.sqrt(2.0 * math.pi)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _check_prob(name: str, value: float) -> float:
    if not 0.0 < value < 1.0:  # nan and +-inf fail it too
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def _check_sigma(sigma: float) -> float:
    if not 0.0 < sigma < _INF:  # nan fails it too
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    return sigma


class BracketError(ValueError):
    """The supplied bracket does not straddle a sign change."""


class EvaluationError(ArithmeticError):
    """A user-supplied function returned a value its caller cannot use (NaN, to the root finder)."""


_set = object.__setattr__  # how a record's __init__ stores each field


class _Record:
    """An immutable record: its fields are its class's __slots__, stored by __init__ with _set.

    Equality, hashing, repr and pickling follow the class and the fields in order.
    """

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Bracket(_Record):
    """A finite interval [lo, hi] with lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"bracket endpoints must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)


def std_normal_pdf(z: float) -> float:
    """Density of the standard normal at z."""
    z = _check_finite("z", float(z))
    return _INV_SQRT_TWO_PI * math.exp(-0.5 * z * z)


def std_normal_cdf(z: float) -> float:
    """Distribution function of the standard normal at z.

    Evaluated through the complementary error function so both tails keep
    full relative accuracy (absolute error well below 1e-14 everywhere).
    """
    return _upper_tail(-_check_finite("z", float(z)))


def _upper_tail(r: float) -> float:
    return 0.5 * math.erfc(r / _SQRT2)  # 1 - Phi(r), unchecked for type_i_error; 0.0 at r = inf


@functools.cache
def _inv_cdf() -> Callable[[float, float, float], float]:
    """The quantile (p, mu, sigma) behind statistics.NormalDist.inv_cdf, loaded on first use.

    CPython's accelerator _statistics is taken directly, which skips importing statistics;
    where it is missing, NormalDist().inv_cdf runs the standard library's Python version.
    """
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist

        return lambda p, mu, sigma: NormalDist(mu, sigma).inv_cdf(p)
    return _normal_dist_inv_cdf


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1): Wichura's AS241 (Appl. Statist. 37, 1988).

    The standard library's, as statistics.NormalDist().inv_cdf computes it. Within 7 ulp of
    the true quantile over all of (0, 1), subnormal p included (worst 6.2 ulp over 25 000
    seeded p against mpmath), and exactly antisymmetric: quantile(p) == -quantile(1 - p).
    """
    return _inv_cdf()(_check_prob("p", float(p)), 0.0, 1.0)


def _u_minus_log1p(u: float) -> float:
    """u - log1p(u) for u >= 0, without cancellation below u = 1/2.

    There log1p(u) = 2 atanh(t) with t = u / (2 + u) < 1/5, so the difference is
    u t - 2 t^3 (1/3 + t^2/5 + ... + t^18/21), truncated below 1e-16 of the result.
    """
    if u >= 0.5:
        return u - math.log1p(u)
    t = u / (2.0 + u)
    t2, s = t * t, 1.0 / 21.0
    for n in range(19, 2, -2):
        s = s * t2 + 1.0 / n
    return u * t - 2.0 * t * t2 * s


def find_root_bracketed(f: Callable[[float], float], bracket: Bracket) -> float:
    """Brent's method (Algorithms for Minimization without Derivatives, 1973) on a sign change.

    Returns an exact zero of f, or the end with the smaller |f| once the ends are adjacent
    floats. Where interpolation lands on b, the float next to b toward a is evaluated in its
    place: once the interpolants have converged on the root from one side, the sign changes
    there and the search stops. Every iterate stays inside the initial bracket, so f is never
    evaluated outside it. An infinite value of f counts as its sign: the interpolants it yields
    are NaN or infinite, and the safeguard bisects in their place. A NaN raises EvaluationError.
    """
    a, b = bracket.lo, bracket.hi
    fa = f(a)
    if math.isnan(fa):
        raise EvaluationError(f"f returned {fa} at x={a}")
    fb = f(b)
    if math.isnan(fb):
        raise EvaluationError(f"f returned {fb} at x={b}")
    if fa and fb and (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f(lo)={fa}, f(hi)={fb}")

    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = a
    bisected = True
    while fb:  # b keeps the smaller |f|, so an exact zero at either end returns at once
        den_a, den_b, den_c = (fa - fb) * (fa - fc), (fb - fa) * (fb - fc), (fc - fa) * (fc - fb)
        if den_a and den_b and den_c:
            # Inverse quadratic interpolation; the secant where f values repeat
            # or are so small that a product underflows to 0.
            s = a * fb * fc / den_a + b * fa * fc / den_b + c * fa * fb / den_c
        else:
            s = b - fb * (b - a) / (fb - fa)  # secant
        if s == b:  # converged on b: the next float toward a may close the bracket
            s = math.nextafter(b, a)
        lo_lim = 0.25 * (3.0 * a + b)
        step = abs(b - c) if bisected else abs(c - d)  # the last step, or the one before it
        bisected = not (lo_lim < s < b or b < s < lo_lim) or abs(s - b) >= 0.5 * step
        if bisected:
            s = 0.5 * (a + b)
        if s == a or s == b:
            # The bracket has collapsed to machine resolution; no new point
            # is representable between the endpoints, so stop here.
            break
        fs = f(s)
        if math.isnan(fs):
            raise EvaluationError(f"f returned {fs} at x={s}")
        d, c, fc = c, b, fb
        if (fa > 0.0) != (fs > 0.0):
            b, fb = s, fs
        else:
            a, fa = s, fs
        if abs(fa) < abs(fb):
            a, b, fa, fb = b, a, fb, fa
    return b
