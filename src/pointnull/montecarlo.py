"""Seeded Monte Carlo checks of the calibrated test's rejection rates.

Variates are counter-based: sample i of stream `seed` is a pure function
of (seed, i), a splitmix64 bit-mix fed through std_normal_quantile. There
is no sequential generator state, so a simulation can be split across any
partition of its index range and reproduce bit-identical counts — reports
only ever depend on the plan.

Most draws are counted without computing the normal itself: the rule
P(H0|x) < alpha_b with x = theta + quantile(u) holds exactly when u falls
below Phi(-r - theta) or above Phi(r - theta). Rounding blurs r only between
the radii of psi at the level -+ twice calibration._band, computed once per
plan, and only a draw whose u lies between the cut points of those two radii
is drawn in full and decided by calibration.decide.

The comparisons run _LANES draws at a time, one splitmix64 state in each
128-bit lane of a single Python int: whole-int operations mix every lane
and flag it before the mix's last xorshift, against thresholds widened to
whole 2^33 blocks; the kept flags add up in one accumulator read once per
run, and only the lanes flagged inside a window are drawn again by index.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress

from . import _EXPORTS
from .calibration import _band, _cut, _log_rejection_odds, decide, power_analytic
from .model import Observation, variance_ratio
from .numerics import (DomainError, _check_finite, _check_prob, _check_sigma, std_normal_cdf,
                       std_normal_quantile)
from .priors import PriorScheme, log_m_of_sigma

__all__ = _EXPORTS["montecarlo"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_TWO_NEG53 = 2.0**-53  # also the unit roundoff of a float64
_REJECT_ALL = (1 << 64,) * 4  # thresholds under which every draw rejects
_U_SLACK = 1.1e-12  # the quantile's and the cdf's error in u: step 4 of _cut_thresholds
_RADIUS_CAP = 1.3e154  # below sqrt(max float): x * x stays finite for |x| up to this


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

    The exact route computes x = theta + q, q = quantile(u), and the exponent
    t of calibration._band, whose eps, L* and tau are used here; L is the
    computed level. A real t >= L* + tau rejects and one <= L* - tau retains,
    so |theta + q| >= R_hi = sqrt(2 (L* + tau - base) / ratio) rejects and
    |theta + q| <= R_lo = sqrt(2 max(L* - tau - base, 0) / ratio) retains.

    1. Past the bound, L - base < -2 tau gives base > L* + tau, and t >= base,
       so every draw rejects, as it does for base = +inf: _REJECT_ALL.
    2. Radii. _cut at level L + 2 tau rounds the level and the gap once each,
       within eps (2 |L| + |base| + 5 tau), and L is within eps (3 |L| + 3)
       of L*. As tau >= 16 eps (2 + |L| + |base|), the computed gap exceeds
       L* + tau - base by more than 28 eps; at L - 2 tau it falls short of
       L* - tau - base by as much. The division and the square root add at
       most 2 eps, which the factors 1 +- 4 eps cover: r_lo <= R_lo and
       r_hi >= R_hi. A gap <= 0 gives radius 0, and ratio = 0 radius +inf.
    3. Overflow. _band's t is 0.5 x^2 ratio only while x * x is finite, so
       r_lo is capped at _RADIUS_CAP. If r_hi < _RADIUS_CAP, an x whose square
       overflows has x^2 > 1.06 r_hi^2, and _x2_term's other route still
       exceeds L* + tau - base: by that factor where ratio is normal; where
       ratio is k 2^-1074, sigma^2 > (k - 1/2) 2^-1074 puts it above
       (4 k - 2) eps, while the computed gap, below 3.77 k eps, is 28 eps
       above L* + tau - base. Once r_hi >= _RADIUS_CAP no draw surely rejects.
    4. The uniform. std_normal_quantile is within 7 ulp of Phi^-1(u), so q is
       within 7 * 2^-52 |q| (1 + 1e-15) of it, and as phi(z) |z| <= 1 / sqrt(2 pi e)
       < 0.25, Phi(q) is within 4e-16 of u. std_normal_cdf is within 1e-14 of
       Phi both at q and at the cut points, so |cdf(q) - u| <= 1e-12;
       rounding -r - theta moves Phi by at most 0.25 eps. The thresholds of
       _grid_below and _grid_above stay 1.5 grid steps (2^-53 each) clear of
       each band edge, which covers the rounding of the edge itself and of
       u = (k + 1/2) 2^-53 when k >= 2^52.

    So a draw below cdf(-r_hi - theta) - _U_SLACK or above cdf(r_hi - theta)
    + _U_SLACK rejects, and one between cdf(-r_lo - theta) + _U_SLACK and
    cdf(r_lo - theta) - _U_SLACK retains. On the bound r_lo = 0, and only a
    sliver around u = Phi(-theta) takes the exact route.
    """
    level = _log_rejection_odds(alpha_b)
    tau = _band(level, base, alpha_b)
    if level - base < -2.0 * tau or base == math.inf:
        return _REJECT_ALL
    r_lo = math.sqrt(max(_cut(level - 2.0 * tau, base, ratio), 0.0)) * (1.0 - 4.0 * _TWO_NEG53)
    r_hi = math.sqrt(max(_cut(level + 2.0 * tau, base, ratio), 0.0)) * (1.0 + 4.0 * _TWO_NEG53)
    r_lo = min(r_lo, _RADIUS_CAP)
    keep_lo = _grid_above(std_normal_cdf(-r_lo - theta) + _U_SLACK)
    # A large |theta| puts both cut points in one tail: clamping the empty
    # keep band keeps the bounds sorted, as _rejection_count's flags need.
    keep_hi = max(keep_lo, _grid_below(std_normal_cdf(r_lo - theta) - _U_SLACK))
    if r_hi >= _RADIUS_CAP:
        return keep_lo, keep_hi, 0, 1 << 64
    return (keep_lo, keep_hi, _grid_below(std_normal_cdf(-r_hi - theta) - _U_SLACK),
            _grid_above(std_normal_cdf(r_hi - theta) + _U_SLACK))


def _block_bounds(base: float, ratio: float, theta: float, alpha_b: float) -> tuple[int, ...]:
    """_cut_thresholds' bounds on z = y ^ (y >> 31) as bounds on y, moved to multiples of 2^33.

    y and z share bits 63..33, as y >> 31 < 2^33: y >= ceil33(t) gives z >= floor33(y) >= t, and
    y < floor33(t) gives z < floor33(y) + 2^33 <= t. The keep band shrinks, clamped to stay sorted.
    """
    keep_lo, keep_hi, reject_lo, reject_hi = _cut_thresholds(base, ratio, theta, alpha_b)
    keep_lo = -(-keep_lo >> 33) << 33
    return (keep_lo, max(keep_lo, keep_hi >> 33 << 33), reject_lo >> 33 << 33,
            -(-reject_hi >> 33) << 33)


def _lane_words(value: int, lanes: int) -> array:
    """The 64-bit words of lanes 0 .. lanes - 1 of value, least significant first.

    Word 2 j is the low half of lane j and word 2 j + 1 its high half on every
    machine: the bytes are written little-endian and swapped on a big-endian one.
    """
    words = array("Q", value.to_bytes(16 * lanes, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _rejection_count(plan: SimulationPlan, lo: int, hi: int) -> tuple[int, int]:
    """(rejections, exact_route_draws) among sample indices [lo, hi) of the stream.

    Draws are mixed _LANES at a time: lane j of a chunk holds the splitmix64
    state of draw start + j, and every lane is masked back to 64 bits after
    each xorshift and before each multiply, so no bit crosses a lane. The last
    product stays whole, H 2^64 + y with H <= 2^64 - 2 and y the mix before its
    last xorshift: adding 2^64 - t carries y >= t into H, and H + 1 stays in
    the lane, so bit 64 becomes bit0(H) ^ (y >= t) and XORing two flags
    cancels H. As the bounds of _block_bounds are sorted, a lane is kept
    exactly when y >= keep_lo differs from y >= keep_hi, lies in a window
    exactly when y >= reject_lo differs from y >= reject_hi and it is not
    kept, and rejects otherwise. The kept flags are added into one
    accumulator, whose lanes' high words sum to the kept count at the end.
    Each window lane's draw i takes the exact route: decide's verdict on
    Observation(theta + draw_standard_normal(seed, i)) is counted as it is.
    """
    theta, sigma, alpha_b = plan.theta, plan.sigma, plan.alpha_b
    base, ratio = log_m_of_sigma(plan.scheme, sigma), variance_ratio(sigma)
    ones, ramp = _lane_constants()
    flag = ones << 64
    mask = flag - ones  # the low 64 bits of every lane
    step = ones * ((_LANES * _GOLDEN) & _MASK64)  # one chunk on, in every lane
    state = (ones * ((plan.seed + (lo + 1) * _GOLDEN) & _MASK64) + ramp) & mask
    a, b, c, d = (ones * ((1 << 64) - t) for t in _block_bounds(base, ratio, theta, alpha_b))
    kept = exact = retained = 0
    for start in range(lo, hi, _LANES):
        lanes = min(_LANES, hi - start)
        if lanes < _LANES:  # the last chunk: drop, and stop flagging, lanes past hi
            low = (1 << (128 * lanes)) - 1
            state, flag = state & low, flag & low
        z = (state ^ (state >> 30)) & mask
        z = (z * _MIX_B) & mask
        z = (z ^ (z >> 27)) & mask
        z *= _MIX_C
        kept_here = ((z + a) ^ (z + b)) & flag
        kept += kept_here
        window = (((z + c) ^ (z + d)) & flag) ^ kept_here
        if window:
            for index in compress(range(start, start + lanes), _lane_words(window, lanes)[1::2]):
                exact += 1
                x = theta + draw_standard_normal(plan.seed, index)
                retained += not decide(Observation(x), sigma, alpha_b, plan.scheme).reject
        state = (state + step) & mask
    kept_lanes = sum(_lane_words(kept, min(_LANES, hi - lo))[1::2])
    return hi - lo - kept_lanes - retained, exact


def _report(
    plan: SimulationPlan, counts: tuple[int, int], analytic: float
) -> MonteCarloReport:
    """k of n rejections against the analytic rate p, judged by p's own standard error.

    within_3se: |k - n p| <= 3 sqrt(n p (1 - p)) + 1/2. ci95: the Wilson score interval.
    """
    (k, exact_route_draws), n = counts, plan.n
    estimate, z = k / n, 1.96
    centre = (k + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4.0) / (n + z * z)
    return MonteCarloReport(
        n=n,
        rejections=k,
        estimate=estimate,
        std_error=math.sqrt(estimate * (1.0 - estimate) / n),
        ci95=(max(0.0, centre - half), min(1.0, centre + half)),
        analytic_value=analytic,
        within_3se=abs(k - n * analytic) <= 3.0 * math.sqrt(n * analytic * (1.0 - analytic)) + 0.5,
        exact_route_draws=exact_route_draws,
    )


def simulate_type_i(plan: SimulationPlan) -> MonteCarloReport:
    """Empirical null rejection rate vs the analytic Type I error: simulate_power at theta = 0.

    power_analytic(0, ...) is cdf(-r) + cdf(-r), exactly type_i_error's 2 cdf(-r).
    """
    if plan.theta != 0.0:
        raise DomainError(f"Type I simulation draws under the null; got theta={plan.theta}")
    return simulate_power(plan)


def simulate_power(plan: SimulationPlan) -> MonteCarloReport:
    """Empirical rejection rate under x ~ N(theta, 1) vs the analytic power."""
    analytic = power_analytic(plan.theta, plan.sigma, plan.alpha_b, plan.scheme)
    return _report(plan, _rejection_count(plan, 0, plan.n), analytic)
