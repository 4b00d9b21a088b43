"""Seeded Monte Carlo checks of the calibrated test's rejection rates.

Variates are counter-based: sample i of stream `seed` is a pure function
of (seed, i), a splitmix64 bit-mix fed through std_normal_quantile. There
is no sequential generator state, so a simulation can be split across any
partition of its index range and reproduce bit-identical counts — reports
only ever depend on the plan.

Most draws are counted without computing the normal itself: the rule
P(H0|x) < alpha_b with x = theta + quantile(u) holds exactly when u falls
below Phi(-r - theta) or above Phi(r - theta). Those two cut points are
computed once per plan, and only a draw within _CUT_WINDOW of one of them
is decided by the quantile and the posterior.

The comparisons run _LANES draws at a time, one splitmix64 state in each
128-bit lane of a single Python int: whole-int operations mix every lane,
and int.bit_count counts the lanes on each side of the thresholds. A chunk
with a draw inside a window is recounted one draw at a time; that scalar
loop is the only place a draw takes the exact route.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .calibration import _band, _cut, _log_rejection_odds, power_analytic, type_i_error
from .model import _posterior_from_parts, variance_ratio
from .numerics import (DomainError, _check_finite, _check_prob, _check_sigma, std_normal_cdf,
                       std_normal_quantile)
from .priors import PriorScheme, log_m_of_sigma

__all__ = [
    "MonteCarloReport",
    "SimulationPlan",
    "draw_standard_normal",
    "simulate_power",
    "simulate_type_i",
    "splitmix64",
    "uniform_unit",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_TWO_NEG53 = 2.0**-53  # also the unit roundoff of a float64
_EXACT_ONLY = (0, 0, 0, 1 << 64)  # thresholds that send every draw to the exact route
_REJECT_ALL = (1 << 64,) * 4  # thresholds under which every draw rejects

_CUT_WINDOW = 1e-9
"""Half-width, in u, of the band around each cut point that takes the exact route.

Outside the band the exact route's decision is certain. It computes
x = theta + q with q = quantile(u) and the exponent t of calibration._band,
whose eps, L*, L, s and tau (steps 1 and 2) are used here. With
gap* = L* - base and the plan's real cut radius R* = sqrt(2 gap* / ratio),
|theta + q| >= R_hi = sqrt(2 (gap* + tau) / ratio) rejects and
|theta + q| <= R_lo = sqrt(2 (gap* - tau) / ratio) retains.

3. Radii. With gap = L - base computed, gap > 2 tau gives gap* > gap / 2,
   and R_hi - R* and R* - R_lo are at most tau R* / gap*. The computed
   radius r is within R* (tau / gap* + 3 eps) of R*, so every edge lies
   within r (8 tau / gap + 8 eps) of r. The normal density is below 0.4, so
   in u each edge lies within 3.2 r (tau / gap + eps) of Phi(+-r - theta).
   _cut_thresholds only keeps plans where that is at most 0.4 _CUT_WINDOW.
   As ratio < 1 gives r >= sqrt(2 gap), and gap <= |L| + |base| <=
   tau / (16 eps), this also forces tau < 1e-5, so _band's slopes apply.
4. The uniform. std_normal_quantile is within 7 ulp of Phi^-1(u), so q is
   within 7 * 2^-52 |q| (1 + 1e-15) of it, and as phi(z) |z| <= 1 / sqrt(2 pi e)
   < 0.25, Phi(q) is within 4e-16 of u. std_normal_cdf is within 1e-14 of
   Phi both at q and at the cut points, so |cdf(q) - u| <= 1e-12;
   rounding -r - theta moves Phi by at most 0.25 eps. The thresholds of
   _grid_below and _grid_above stay 1.5 grid steps (2^-53 each) clear of
   each band edge, which covers the rounding of the edge itself and of
   u = (k + 1/2) 2^-53 when k >= 2^52.

Steps 3 and 4 use at most 0.4 _CUT_WINDOW + 1.1e-12 < _CUT_WINDOW, so a draw
below Phi(-r - theta) - _CUT_WINDOW has theta + q < -R_hi and is rejected, a
draw above Phi(r - theta) + _CUT_WINDOW has theta + q > R_hi and is
rejected, and a draw between the inner edges has |theta + q| < R_lo and is
retained. A plan that fails the guard takes the exact route for every draw.

Past the bound, gap < -2 tau and _band's step 2 give base > L* + tau, and
t >= base as 0.5 x^2 ratio >= 0, so _band's step 1 rejects every draw, as
it does t = base = +inf.
"""


_LANES = 2048
"""Draws per packed chunk, one 128-bit lane each of a single 32 KiB int.

A lane keeps its 64-bit state in the low half; the high half holds the full
product of a multiply by a 64-bit constant, so no carry reaches the next lane.
"""


@functools.cache
def _lane_constants() -> tuple[int, int]:
    """(ones, ramp): 1 and j * golden mod 2^64 in lane j of _LANES lanes.

    Built by doubling on first use, so importing the module costs nothing;
    only these two are kept, the rest are cheap to derive per call.
    """
    ones, ramp, width = 1, 0, 1
    while width < _LANES:
        ramp |= (ramp + width * ones) << (128 * width)
        ones |= ones << (128 * width)
        width *= 2
    ones &= (1 << (128 * _LANES)) - 1
    return ones, (ramp * _GOLDEN) & ((ones << 64) - ones)


def splitmix64(seed: int, index: int) -> int:
    """Output i of the splitmix64 stream seeded at `seed`, as a 64-bit int."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_B) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C) & _MASK64
    return z ^ (z >> 31)

def uniform_unit(seed: int, index: int) -> float:
    """Uniform double strictly inside (0, 1): top 53 bits, centered on the grid."""
    return ((splitmix64(seed, index) >> 11) + 0.5) * _TWO_NEG53


def draw_standard_normal(seed: int, index: int) -> float:
    """Standard normal sample i of stream `seed` via the inverse CDF."""
    return std_normal_quantile(uniform_unit(seed, index))


@dataclass(frozen=True)
class SimulationPlan:
    """Everything a run depends on; two equal plans give bit-identical reports."""

    n: int
    seed: int
    theta: float
    sigma: float
    alpha_b: float
    scheme: PriorScheme

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be an integer >= 1, got {self.n}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        _check_finite("theta", self.theta)
        _check_sigma(self.sigma)
        _check_prob("alpha_b", self.alpha_b)


@dataclass(frozen=True)
class MonteCarloReport:
    n: int
    rejections: int
    estimate: float
    std_error: float
    ci95: tuple[float, float]
    analytic_value: float
    within_3se: bool
    exact_route_draws: int


def _grid_below(u: float) -> int:
    """Mix bound z0 such that every z < z0 gives a uniform below u."""
    return min(max(math.floor(u * 2.0**53) - 1, 0), 1 << 53) << 11


def _grid_above(u: float) -> int:
    """Mix bound z0 such that every z >= z0 gives a uniform above u."""
    return min(max(math.ceil(u * 2.0**53) + 1, 0), 1 << 53) << 11


def _cut_thresholds(
    base: float, ratio: float, theta: float, alpha_b: float
) -> tuple[int, int, int, int]:
    """(keep_lo, keep_hi, reject_lo, reject_hi) bounds on the raw 64-bit mix z.

    z < reject_lo or z >= reject_hi certainly rejects, keep_lo <= z < keep_hi
    certainly retains, and every other z takes the exact route. The bounds
    are grid indices shifted left by 11, since u = ((z >> 11) + 0.5) 2^-53,
    and are sorted: reject_lo <= keep_lo <= keep_hi <= reject_hi.
    See _CUT_WINDOW for why the bands are wide enough, and why a plan
    clearly past the positivity bound gets _REJECT_ALL. A plan on the bound,
    or too ill-conditioned for the window, gets _EXACT_ONLY.
    """
    level = _log_rejection_odds(alpha_b)
    gap = level - base
    tau = _band(level, base, alpha_b)
    if gap < -2.0 * tau or base == math.inf:
        return _REJECT_ALL
    if not gap > 2.0 * tau:
        return _EXACT_ONLY
    r = math.sqrt(_cut(level, base, ratio))  # inf where ratio underflows: fails the guard
    if not 8.0 * r * (tau / gap + _TWO_NEG53) <= _CUT_WINDOW:
        return _EXACT_ONLY
    lower = std_normal_cdf(-r - theta)
    upper = std_normal_cdf(r - theta)
    keep_lo = _grid_above(lower + _CUT_WINDOW)
    # For large |theta| both cut points sit in one tail, the keep band is
    # empty and keep_lo > keep_hi. Clamping keeps the four bounds sorted,
    # which _packed_chunks relies on; the scalar loop decides the same.
    keep_hi = max(keep_lo, _grid_below(upper - _CUT_WINDOW))
    return (
        keep_lo,
        keep_hi,
        _grid_below(lower - _CUT_WINDOW),
        _grid_above(upper + _CUT_WINDOW),
    )


def _scalar_count(plan: SimulationPlan, lo: int, hi: int, base: float, ratio: float,
                  thresholds: tuple[int, int, int, int]) -> tuple[int, int]:
    """(rejections, exact_route_draws) among indices [lo, hi), one draw at a time.

    Each raw splitmix64 output is compared against the integer thresholds of
    _cut_thresholds. Only a draw inside a window takes the exact route: the
    posterior route of calibration.decide, using the same precomputed pieces
    as model.posterior_from_log_odds so the counted event is bit-for-bit
    {P(H0|x) < alpha_b}.
    """
    seed, theta, sigma, alpha_b = plan.seed, plan.theta, plan.sigma, plan.alpha_b
    keep_lo, keep_hi, reject_lo, reject_hi = thresholds
    count = exact = 0
    for i in range(lo, hi):
        z = splitmix64(seed, i)
        if keep_lo <= z < keep_hi:
            continue
        if z < reject_lo or z >= reject_hi:
            count += 1
            continue
        exact += 1
        x = theta + std_normal_quantile(((z >> 11) + 0.5) * _TWO_NEG53)
        if _posterior_from_parts(x * x, base, ratio, x, sigma) < alpha_b:
            count += 1
    return count, exact


def _packed_chunks(
    seed: int, lo: int, hi: int, thresholds: tuple[int, int, int, int]
) -> Iterator[tuple[int, int, int | None]]:
    """Yield (start, stop, kept) for consecutive chunks of [lo, hi).

    Lane j of a chunk holds the splitmix64 state of draw start + j; every
    lane is masked back to 64 bits after each xorshift and before each
    multiply, so no bit crosses a lane. Adding 2^64 - t to a lane sets its
    bit 64 exactly when z >= t. As the thresholds are sorted, z lies in a
    window exactly when z >= reject_lo differs from z >= keep_lo or
    z >= keep_hi from z >= reject_hi, and is kept exactly when z >= keep_lo
    differs from z >= keep_hi. kept counts the kept lanes, or is None when
    any lane is in a window: the caller then recounts the chunk with the
    scalar loop.
    """
    ones, ramp = _lane_constants()
    flag = ones << 64
    mask = flag - ones  # the low 64 bits of every lane
    step = ones * ((_LANES * _GOLDEN) & _MASK64)  # one chunk on, in every lane
    state = (ones * ((seed + (lo + 1) * _GOLDEN) & _MASK64) + ramp) & mask
    a, b, c, d = (ones * ((1 << 64) - t) for t in thresholds)
    for start in range(lo, hi, _LANES):
        lanes = min(_LANES, hi - start)
        if lanes < _LANES:  # the last chunk: drop, and stop flagging, lanes past hi
            low = (1 << (128 * lanes)) - 1
            state, flag = state & low, flag & low
        z = (state ^ (state >> 30)) & mask
        z = (z * _MIX_B) & mask
        z = (z ^ (z >> 27)) & mask
        z = (z * _MIX_C) & mask
        # Unmasked: the next lane's low bits land at 97 and up, where they
        # cannot reach the flags at bit 64.
        z ^= z >> 31
        fa, fb, fc, fd = (z + a) & flag, (z + b) & flag, (z + c) & flag, (z + d) & flag
        kept = None if (fc ^ fa) | (fb ^ fd) else (fa ^ fb).bit_count()
        yield start, start + lanes, kept
        state = (state + step) & mask


def _rejection_count(plan: SimulationPlan, lo: int, hi: int) -> tuple[int, int]:
    """(rejections, exact_route_draws) among sample indices [lo, hi) of the stream.

    Draws are counted a packed chunk at a time. A chunk with a draw inside a
    window, as is every chunk of an _EXACT_ONLY plan, goes through the scalar
    loop instead, so the counts are those of deciding each draw alone. The
    equivalence, planted-draw and partition tests in tests/test_montecarlo.py
    pin the mix, the lane layout and the cut points.
    """
    base, ratio = log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma)
    thresholds = _cut_thresholds(base, ratio, plan.theta, plan.alpha_b)
    count = exact = 0
    for start, stop, kept in _packed_chunks(plan.seed, lo, hi, thresholds):
        if kept is None:
            rejected, in_window = _scalar_count(plan, start, stop, base, ratio, thresholds)
            count += rejected
            exact += in_window
        else:
            count += stop - start - kept
    return count, exact


def _report(
    plan: SimulationPlan, counts: tuple[int, int], analytic: float
) -> MonteCarloReport:
    rejections, exact_route_draws = counts
    estimate = rejections / plan.n
    std_error = math.sqrt(estimate * (1.0 - estimate) / plan.n)
    ci = (max(0.0, estimate - 1.96 * std_error), min(1.0, estimate + 1.96 * std_error))
    return MonteCarloReport(
        n=plan.n,
        rejections=rejections,
        estimate=estimate,
        std_error=std_error,
        ci95=ci,
        analytic_value=analytic,
        within_3se=abs(estimate - analytic) <= 3.0 * std_error,
        exact_route_draws=exact_route_draws,
    )


def simulate_type_i(plan: SimulationPlan) -> MonteCarloReport:
    """Empirical null rejection rate vs the analytic Type I error."""
    if plan.theta != 0.0:
        raise DomainError(f"Type I simulation draws under the null; got theta={plan.theta}")
    analytic = type_i_error(plan.sigma, plan.alpha_b, plan.scheme)
    return _report(plan, _rejection_count(plan, 0, plan.n), analytic)


def simulate_power(plan: SimulationPlan) -> MonteCarloReport:
    """Empirical rejection rate under x ~ N(theta, 1) vs the analytic power."""
    analytic = power_analytic(plan.theta, plan.sigma, plan.alpha_b, plan.scheme)
    return _report(plan, _rejection_count(plan, 0, plan.n), analytic)
