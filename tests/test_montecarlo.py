"""Deterministic counter-based sampling and the rejection-rate simulators."""

import functools
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointnull import montecarlo
from pointnull.calibration import (CalibrationSpec, Decision, PsiDomainError, _cut,
                                   _log_rejection_odds, decide, positivity_bound, power_analytic,
                                   psi, solve_sigma, type_i_error)
from pointnull.model import (
    AlternativeSpread,
    Observation,
    _stable_inv_logistic,
    _x2_term,
    posterior_h0,
    variance_ratio,
)
from pointnull.montecarlo import (
    _LANES,
    _RADIUS_CAP,
    _REJECT_ALL,
    MonteCarloReport,
    SimulationPlan,
    _block_bounds,
    _cut_thresholds,
    _lane_words,
    _rejection_count,
    draw_standard_normal,
    simulate_power,
    simulate_type_i,
    splitmix64,
    uniform_unit,
)
from pointnull.numerics import DomainError, std_normal_cdf, std_normal_quantile
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior, RobertPrior,
                              log_m_of_sigma, scheme_from_string)

SIGMA_STAR_005_KL = 2.1089733943720829818
KL = KLSelfInformationPrior()

# Published test vector for the splitmix64 stream seeded with 1234567.
SPLITMIX_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)

# The splitmix64 constants, written out here so the inverse below does not
# lean on the module it checks.
GOLDEN = 0x9E3779B97F4A7C15
MIX_B = 0xBF58476D1CE4E5B9
MIX_C = 0x94D049BB133111EB
MASK64 = 2**64 - 1
EXACT_ONLY = (0, 0, 0, 2**64)  # thresholds that send every draw to the exact route

seeds = st.integers(0, 2**64 - 1)
indices = st.integers(0, 2**20)


def make_plan(**overrides):
    plan = dict(n=1000, seed=0, theta=0.0, sigma=SIGMA_STAR_005_KL, alpha_b=0.05, scheme=KL)
    plan.update(overrides)
    return SimulationPlan(**plan)


# ---------------------------------------------------------------------------
# generator


def test_splitmix_published_vector():
    got = tuple(splitmix64(1234567, i) for i in range(5))
    assert got == SPLITMIX_1234567


@given(seeds, indices)
def test_splitmix_is_a_pure_64_bit_function(seed, index):
    first = splitmix64(seed, index)
    assert splitmix64(seed, index) == first
    assert 0 <= first <= 2**64 - 1


def test_splitmix_streams_differ_across_seeds_and_indices():
    stream_a = [splitmix64(0, i) for i in range(100)]
    stream_b = [splitmix64(1, i) for i in range(100)]
    assert len(set(stream_a)) == 100
    assert set(stream_a).isdisjoint(stream_b)


def unxorshift(y, shift):
    """The x with x ^ (x >> shift) == y, for 64-bit x."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix(z):
    """The splitmix64 state whose mix is z: each step undone in reverse."""
    z = unxorshift(z, 31)
    z = unxorshift((z * pow(MIX_C, -1, 2**64)) & MASK64, 27)
    return unxorshift((z * pow(MIX_B, -1, 2**64)) & MASK64, 30)


def planted_seed(z, index):
    """The seed whose stream outputs the raw value z at `index`."""
    return (unmix(z) - (index + 1) * GOLDEN) & MASK64


@given(st.integers(0, MASK64), indices)
def test_planted_seed_puts_the_value_at_the_index(z, index):
    assert splitmix64(planted_seed(z, index), index) == z


@given(seeds, indices)
def test_uniform_unit_stays_strictly_inside(seed, index):
    u = uniform_unit(seed, index)
    assert 0.0 < u < 1.0
    assert uniform_unit(seed, index) == u


@given(seeds, indices)
def test_normal_draws_are_deterministic_and_finite(seed, index):
    z = draw_standard_normal(seed, index)
    assert math.isfinite(z)
    assert draw_standard_normal(seed, index) == z


def test_normal_draws_have_sane_moments():
    n = 1_000_000
    total = total_sq = extreme = 0
    for i in range(n):
        z = draw_standard_normal(0, i)
        total += z
        total_sq += z * z
        if abs(z) > 1.9599639845400545:
            extreme += 1
    mean = total / n
    var = total_sq / n - mean * mean
    assert abs(mean) <= 0.004
    assert abs(var - 1.0) <= 0.005
    assert abs(extreme / n - 0.05) <= 0.0007


# ---------------------------------------------------------------------------
# plans and reports


def test_plan_validation():
    with pytest.raises(DomainError):
        make_plan(n=0)
    with pytest.raises(DomainError):
        make_plan(n=2.0)
    with pytest.raises(DomainError):
        make_plan(seed=-1)
    with pytest.raises(DomainError):
        make_plan(seed=2**64)
    with pytest.raises(DomainError):
        make_plan(theta=math.inf)
    with pytest.raises(DomainError):
        make_plan(sigma=-1.0)
    with pytest.raises(DomainError):
        make_plan(alpha_b=1.0)


def test_type_i_requires_null_effect():
    with pytest.raises(DomainError):
        simulate_type_i(make_plan(theta=0.5))


def test_runs_are_reproducible():
    plan = make_plan(n=2000)
    assert simulate_type_i(plan) == simulate_type_i(plan)


def test_rejection_count_is_partitionable():
    plan = make_plan(n=2000)
    full, _ = _rejection_count(plan, 0, plan.n)
    for split in (1, plan.n // 3, plan.n - 1):
        assert full == _rejection_count(plan, 0, split)[0] + _rejection_count(plan, split, plan.n)[0]


def scalar_count(plan, lo, hi, thresholds=None):
    """_rejection_count's (rejections, exact_route_draws) over [lo, hi), one draw at a time."""
    return count_words(plan, (splitmix64(plan.seed, i) for i in range(lo, hi)), thresholds)


def count_words(plan, words, thresholds=None):
    """(rejections, exact_route_draws) of the plan's decision over raw splitmix64 outputs.

    Without thresholds each output's word before the last xorshift, which
    unxorshift recovers, is compared against the plan's _block_bounds, as
    the packed kernel compares it. Given thresholds are compared against
    the output itself. Only a draw inside a window is decided by the
    quantile and the posterior.
    """
    base, ratio = log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma)
    if thresholds is None:
        keep_lo, keep_hi, reject_lo, reject_hi = _block_bounds(base, ratio, plan.theta,
                                                               plan.alpha_b)
    else:
        keep_lo, keep_hi, reject_lo, reject_hi = thresholds
    count = exact = 0
    for z in words:
        y = unxorshift(z, 31) if thresholds is None else z
        if keep_lo <= y < keep_hi:
            continue
        if y < reject_lo or y >= reject_hi:
            count += 1
            continue
        exact += 1
        x = plan.theta + std_normal_quantile(((z >> 11) + 0.5) * 2.0**-53)
        if _stable_inv_logistic(base + _x2_term(x, plan.sigma)) < plan.alpha_b:
            count += 1
    return count, exact


@pytest.fixture
def chunk_width(monkeypatch):
    """Sets montecarlo._LANES for one test; _lane_constants is rebuilt for it and after it."""

    def set_width(lanes):
        monkeypatch.setattr(montecarlo, "_LANES", lanes)
        montecarlo._lane_constants.cache_clear()

    yield set_width
    monkeypatch.undo()
    montecarlo._lane_constants.cache_clear()


# Chunk sizes are written out, so each test keeps its plans at any _LANES:
# 1024 and 2048 lanes and the sizes next to them are covered at once.
@pytest.mark.parametrize("lanes", (1, 3, 1023, 1024, 2047, 2048))
def test_lane_words_match_shift_and_mask(lanes):
    rng = random.Random(lanes)
    value = rng.getrandbits(128 * lanes)
    words = _lane_words(value, lanes)
    assert len(words) == 2 * lanes
    assert list(words) == [(value >> (64 * k)) & MASK64 for k in range(2 * lanes)]


def next_to_block_bounds(blocks):
    """The raw outputs whose words before the last xorshift lie on and next to each block bound."""
    words = {t + d for t in blocks for d in (-1, 0, 1)}
    return {y ^ (y >> 31) for y in words if 0 <= y <= MASK64}


@pytest.mark.parametrize("lanes", (2048, 1024, 3))
def test_full_last_products_carry_nothing_into_the_next_lane(lanes, monkeypatch, chunk_width):
    """Lanes of the largest last product next to lanes on and next to each block bound.

    A word of 2^64 - 1 before the multiply by MIX_C gives the largest high
    half, MIX_C - 1; a carry out of it would move the next lane's word by one
    across its bound. The lanes are planted through the kernel's lane ramp,
    in a full chunk of 2048 or 1024 lanes and in 3-lane tails, and counted
    like the exact route. The exact route draws by index, so each lane's
    draw is planted there too.
    """
    if lanes > 3:  # one full chunk of this width
        chunk_width(lanes)
    plan = make_plan(n=lanes, seed=-GOLDEN & MASK64, theta=0.5, sigma=2.0)  # lane j mixes ramp j
    base, ratio = log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma)
    top = (2**53 - 1) << 11  # grid index 2^53 - 1 rounds to u = 1.0
    blocks = _block_bounds(base, ratio, plan.theta, plan.alpha_b)
    bounded = sorted(z for z in next_to_block_bounds(blocks) if z < top)
    assert len(bounded) == 12
    y = MASK64 * MIX_C & MASK64
    widest = y ^ (y >> 31)
    if lanes > 3:  # one chunk, each bounded lane between two widest ones
        chunks = [[widest, *itertools.chain.from_iterable((z, widest) for z in bounded)]]
    else:  # one 3-lane tail per bounded lane
        chunks = [[widest, z, widest] for z in bounded]
    ones, _ = montecarlo._lane_constants()
    for planted in chunks:
        states = [unmix(z) for z in planted]
        states += [(j * GOLDEN) & MASK64 for j in range(len(states), lanes)]
        packed = sum(state << (128 * j) for j, state in enumerate(states))
        monkeypatch.setattr(montecarlo, "_lane_constants", lambda: (ones, packed))
        words = [splitmix64((state - GOLDEN) & MASK64, 0) for state in states]
        assert words[:len(planted)] == planted
        monkeypatch.setattr(montecarlo, "draw_standard_normal", lambda seed, i, words=words:
                            std_normal_quantile(((words[i] >> 11) + 0.5) * 2.0**-53))
        got = _rejection_count(plan, 0, lanes)
        assert got == count_words(plan, words)
        assert got[0] == count_words(plan, words, EXACT_ONLY)[0]


@pytest.mark.parametrize("index", (0, 1023, 1026, 2047, 2050))
def test_one_planted_window_draw_takes_the_exact_route(index):
    """A single draw between reject_lo and keep_lo, in a full chunk or the 3-lane tail.

    A plan of 2051 draws is one or two full chunks and a 3-lane tail.
    """
    sigma = SIGMA_STAR_005_KL
    keep_lo, _, reject_lo, _ = _cut_thresholds(
        log_m_of_sigma(KL, sigma), variance_ratio(sigma), 0.0, 0.05
    )
    plan = make_plan(n=2051, seed=planted_seed((reject_lo + keep_lo) // 2, index))
    report = simulate_type_i(plan)
    assert report.exact_route_draws == 1
    assert (report.rejections, 1) == scalar_count(plan, 0, plan.n)


@pytest.mark.parametrize("index", (0, 2050))  # the first draw and the 3-lane tail's last
def test_a_window_draw_is_decided_by_decide_on_the_public_draw(index, monkeypatch):
    """The exact route counts what decide says about theta + draw_standard_normal(seed, i)."""
    sigma, theta = SIGMA_STAR_005_KL, 0.5
    keep_lo, _, reject_lo, _ = _cut_thresholds(
        log_m_of_sigma(KL, sigma), variance_ratio(sigma), theta, 0.05
    )
    plan = make_plan(n=2051, theta=theta, seed=planted_seed((reject_lo + keep_lo) // 2, index))
    rejections, exact = _rejection_count(plan, 0, plan.n)
    assert exact == 1
    seen = []

    def opposite(obs, *args):
        seen.append((obs.x, args))
        reject = not decide(obs, *args).reject
        return Decision(reject, reject)

    monkeypatch.setattr(montecarlo, "decide", opposite)
    flipped, _ = _rejection_count(plan, 0, plan.n)
    x = theta + draw_standard_normal(plan.seed, index)
    assert seen == [(x, (sigma, 0.05, KL))]
    assert flipped - rejections == (-1 if decide(Observation(x), sigma, 0.05, KL).reject else 1)


@pytest.mark.parametrize("theta", (0.0, 1.5))
@pytest.mark.parametrize("n", (1, 1023, 1024, 1025, 2047, 2048, 2049, 4099))
def test_packed_chunks_count_like_the_scalar_loop(n, theta):
    plan = make_plan(n=n, seed=n, theta=theta)
    assert _rejection_count(plan, 0, n) == scalar_count(plan, 0, n)
    assert _rejection_count(plan, 5, 5 + n) == scalar_count(plan, 5, 5 + n)


def test_partitions_off_the_chunk_boundaries_add_up():
    plan = make_plan(n=6149, seed=9, theta=1.5)
    full = _rejection_count(plan, 0, plan.n)
    assert full == scalar_count(plan, 0, plan.n)
    for cuts in ((1, _LANES + 1), (_LANES - 1, 2 * _LANES + 7), (1000, 5000, 6000)):
        edges = (0, *cuts, plan.n)
        parts = [_rejection_count(plan, a, b) for a, b in zip(edges, edges[1:])]
        assert tuple(map(sum, zip(*parts))) == full, cuts


def test_counts_do_not_depend_on_the_chunk_width(chunk_width):
    """_LANES sets the speed only: chunks of 1, 3, 1024 and 2048 lanes count alike.

    A plain plan, one with a draw planted in a window, and the parts of a
    partition off the chunk boundaries are counted at each width.
    """
    sigma = SIGMA_STAR_005_KL
    keep_lo, _, reject_lo, _ = _cut_thresholds(
        log_m_of_sigma(KL, sigma), variance_ratio(sigma), 0.0, 0.05
    )
    plain = make_plan(n=5000, seed=9, theta=1.5)
    planted = make_plan(n=5000, seed=planted_seed((reject_lo + keep_lo) // 2, 3001))
    edges = (0, 1, 1025, 2047, 4099, 5000)
    spans = [(plain, 0, 5000), (planted, 0, 5000),
             *((plain, a, b) for a, b in zip(edges, edges[1:]))]
    counts = {}
    for lanes in (1, 3, 1024, 2048):
        chunk_width(lanes)
        counts[lanes] = [_rejection_count(plan, lo, hi) for plan, lo, hi in spans]
    expected = [scalar_count(plan, lo, hi) for plan, lo, hi in spans]
    assert expected[1][1] == 1  # the planted draw takes the exact route
    assert tuple(map(sum, zip(*expected[2:]))) == expected[0]
    assert counts == dict.fromkeys(counts, expected)


@pytest.mark.parametrize(
    "seed, theta, rejections",
    ((0, 0.0, 49988), (7, 0.0, 49939), (7, 1.5, 323220)),
)
def test_million_draw_counts_are_pinned(seed, theta, rejections):
    report = simulate_power(make_plan(n=1_000_000, seed=seed, theta=theta))
    assert (report.rejections, report.exact_route_draws) == (rejections, 0)


@pytest.mark.parametrize("alpha_b", (1e-6, 1e-12, 1e-20, 1e-100))
@pytest.mark.parametrize("scheme", ("kl", "robert"))
def test_small_alpha_b_plans_count_without_the_exact_route(scheme, alpha_b):
    """The cut band tau stays narrow at small alpha_b, so no draw needs the exact route.

    theta = sqrt(psi) puts about half the draws past a cut; the packed count
    equals deciding every draw by the exact route.
    """
    prior = scheme_from_string(scheme)
    theta = math.sqrt(psi(2.1, alpha_b, prior))
    plan = make_plan(n=20_000, seed=3, theta=theta, sigma=2.1, alpha_b=alpha_b, scheme=prior)
    exact = scalar_count(plan, 0, plan.n, EXACT_ONLY)
    assert exact[1] == plan.n
    assert _rejection_count(plan, 0, plan.n) == (exact[0], 0)


@pytest.mark.parametrize("alpha_b", (0.01, 0.05, 0.3))
@pytest.mark.parametrize("scheme", ("kl", "robert", "fixed:0.3", "fixed:0.9"))
def test_planted_draws_count_like_the_scalar_loop(scheme, alpha_b):
    """Raw values on and next to every threshold, and words before the last
    xorshift on and next to every block bound, at both ends of both chunk kinds.

    A plan of _LANES + 3 draws is one full chunk and a 3-lane tail, so each
    planted draw is checked on the chunk that holds it.
    """
    n = _LANES + 3
    prior = scheme_from_string(scheme)
    base, ratio = log_m_of_sigma(prior, 2.0), variance_ratio(2.0)
    top = (2**53 - 1) << 11  # grid index 2^53 - 1 rounds to u = 1.0
    for theta in (0.0, 0.5, -0.5, 1.5, 3.0, 40.0, -40.0):
        thresholds = _cut_thresholds(base, ratio, theta, alpha_b)
        planted = {t + d for t in thresholds for d in (-1, 0, 1)} | {thresholds[0] // 2}
        planted |= next_to_block_bounds(_block_bounds(base, ratio, theta, alpha_b))
        for z in sorted(v for v in planted if 0 <= v < top):
            for index in (0, _LANES - 1, _LANES, n - 1):
                plan = make_plan(n=n, seed=planted_seed(z, index), theta=theta, sigma=2.0,
                                 alpha_b=alpha_b, scheme=prior)
                lo, hi = (0, _LANES) if index < _LANES else (_LANES, n)
                got = _rejection_count(plan, lo, hi)
                assert got == scalar_count(plan, lo, hi), (theta, z, index)


@pytest.mark.parametrize(
    "scheme, sigma, alpha_b",
    (
        ("kl", 1e-5, 0.05),
        ("kl", 1e-100, 1e-10),
        ("kl", None, 0.05),  # on the positivity bound
        ("fixed:0.9999999", 0.01, 0.999999),
    ),
)
def test_plans_with_a_plain_answer_count_without_the_exact_route(scheme, sigma, alpha_b):
    """Cut points deep in the tails, or a cut radius next to 0 on the bound, leave no window draw.

    These plans once sent every draw to the exact route.
    """
    prior = scheme_from_string(scheme)
    sigma = positivity_bound(alpha_b, prior) if sigma is None else sigma
    plan = make_plan(n=20_000, seed=1, sigma=sigma, alpha_b=alpha_b, scheme=prior)
    exact = scalar_count(plan, 0, plan.n, EXACT_ONLY)
    assert _rejection_count(plan, 0, plan.n) == (exact[0], 0)


@pytest.mark.parametrize("scheme", ("kl", "robert", "fixed:0.3", "fixed:1e-6"))
def test_corner_plans_count_like_the_exact_route(scheme):
    """Draws on and next to every threshold, for plans at the ends of sigma, theta and alpha_b.

    The ratio underflows to 0 at sigma = 5e-324 and 1e-170, x * x overflows
    at |theta| = 1e200 and up, and alpha_b = 5e-324 widens tau past 4.
    """
    prior = scheme_from_string(scheme)
    top = (2**53 - 1) << 11  # grid index 2^53 - 1 rounds to u = 1.0
    for sigma, theta, alpha_b in itertools.product(
        (5e-324, 1e-170, 2.0, 1e300),
        (0.0, 1.5, 1e200, -1e200, -1.7976931348623157e308),
        (5e-324, 0.05, 1.0 - 2.0**-53),
    ):
        thresholds = _cut_thresholds(
            log_m_of_sigma(prior, sigma), variance_ratio(sigma), theta, alpha_b
        )
        planted = {t + d for t in thresholds for d in (-1, 0, 1)}
        planted |= next_to_block_bounds(
            _block_bounds(log_m_of_sigma(prior, sigma), variance_ratio(sigma), theta, alpha_b))
        for z in sorted(planted):
            if 0 <= z < top:
                plan = make_plan(n=2, seed=planted_seed(z, 1), theta=theta, sigma=sigma,
                                 alpha_b=alpha_b, scheme=prior)
                got = _rejection_count(plan, 0, 2)[0]
                assert got == scalar_count(plan, 0, 2, EXACT_ONLY)[0], (sigma, theta, alpha_b, z)


def exact_flip(lo, hi, rejects):
    """A grid index k in [lo, hi) where rejects(k) != rejects(k + 1).

    Bisection, so rejects(lo) must differ from rejects(hi).
    """
    low = rejects(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rejects(mid) == low else (lo, mid)
    return lo


def assert_margins_hold(prior, sigma, theta, alpha_b):
    """Draws between each threshold and the cut point of psi itself count like the exact route.

    The cut points are cdf(-+r - theta) with r^2 = _cut at the level; the
    thresholds lie outside them by the margins of _cut_thresholds' proof.
    Draws are planted spread over both gaps, next to the cut point, and
    next to the grid index where the exact route's decision flips. The
    thresholds themselves are checked by scalar_count too: the kernel
    compares whole 2^33 blocks, which send more draws to the exact route.
    """
    base, ratio = log_m_of_sigma(prior, sigma), variance_ratio(sigma)
    thresholds = _cut_thresholds(base, ratio, theta, alpha_b)
    keep_lo, keep_hi, reject_lo, reject_hi = (z >> 11 for z in thresholds)
    r = math.sqrt(max(_cut(_log_rejection_odds(alpha_b), base, ratio), 0.0))
    top = 2**53 - 1  # rounds to u = 1.0

    def rejects(k):
        x = theta + std_normal_quantile((k + 0.5) * 2.0**-53)
        return _stable_inv_logistic(base + _x2_term(x, sigma)) < alpha_b

    planted = set()
    for edge, outer, inner in ((-r - theta, reject_lo, keep_lo), (r - theta, reject_hi, keep_hi)):
        cut = math.floor(std_normal_cdf(edge) * 2.0**53)
        for a, b in ((outer, cut), (cut, inner)):
            planted |= {a + (b - a) * j // 4 for j in range(5)}
        planted |= {cut - 1, cut, cut + 1}
        lo, hi = max(min(outer, inner), 0), min(max(outer, inner), top - 1)
        if lo < hi and rejects(lo) != rejects(hi):
            flip = exact_flip(lo, hi, rejects)
            planted |= {flip - 1, flip, flip + 1, flip + 2}
    for k in sorted(k for k in planted if 0 <= k < top):
        plan = make_plan(n=2, seed=planted_seed(k << 11, 1), theta=theta, sigma=sigma,
                         alpha_b=alpha_b, scheme=prior)
        exact = scalar_count(plan, 0, 2, EXACT_ONLY)[0]
        got = _rejection_count(plan, 0, 2)[0], scalar_count(plan, 0, 2, thresholds)[0]
        assert got == (exact, exact), (sigma, theta, alpha_b, k)


@pytest.mark.parametrize(
    "scheme, alpha_b, ulps",
    (("kl", 0.05, 0), ("kl", 0.3, 0), ("kl", 1e-20, 0), ("kl", 1e-20, -4), ("kl", 0.45, -3),
     ("robert", 0.5, 0), ("robert", 0.3, 2), ("robert", 0.9, -3)),
)
@pytest.mark.parametrize("theta", (0.0, 1.5))
def test_near_bound_margins_hold(scheme, alpha_b, ulps, theta):
    """sigma within a few eps of the positivity bound, where the cut radius is worst conditioned.

    A keep or reject radius taken at the level itself, rather than at the
    level -+ 2 tau, lets a draw here skip the exact route and count wrong.
    """
    prior = scheme_from_string(scheme)
    sigma = positivity_bound(alpha_b, prior) * (1.0 + ulps * 2.0**-52)
    assert_margins_hold(prior, sigma, theta, alpha_b)


@pytest.mark.parametrize("scheme", ("kl", "robert", "fixed:0.3"))
@pytest.mark.parametrize(
    "sigma, alpha_b", ((2.0, 5e-324), (1e-5, 5e-324), (2.0, 1e-10), (1e-5, 1e-10), (2.0, 0.05))
)
def test_corner_margins_hold(scheme, sigma, alpha_b):
    """theta = r - 1/2 and -r - 3/2 bring a cut point of a wide radius into the grid.

    At sigma = 1e-5 r is about 1e5 or more, and alpha_b = 5e-324 makes tau
    its widest; a reject radius taken at the level itself counts wrong here.
    """
    prior = scheme_from_string(scheme)
    r = math.sqrt(_cut(_log_rejection_odds(alpha_b), log_m_of_sigma(prior, sigma),
                       variance_ratio(sigma)))
    for theta in (r - 0.5, -r - 1.5, 0.0):
        assert_margins_hold(prior, sigma, theta, alpha_b)


threshold_plans = (
    st.one_of(
        st.sampled_from((KL, RobertPrior())),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(FixedPrior),
    ),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@given(*threshold_plans)
def test_cut_thresholds_are_sorted_64_bit_bounds(scheme, sigma, theta, alpha_b):
    plan = make_plan(theta=theta, sigma=sigma, alpha_b=alpha_b, scheme=scheme)
    keep_lo, keep_hi, reject_lo, reject_hi = _cut_thresholds(
        log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma), plan.theta,
        plan.alpha_b,
    )
    assert 0 <= reject_lo <= keep_lo <= keep_hi <= reject_hi <= 2**64


@given(*threshold_plans)
def test_block_bounds_are_sorted_whole_blocks_inside_the_thresholds(scheme, sigma, theta, alpha_b):
    """Each block bound is a multiple of 2^33 (2^64 is one), less than a block from its threshold."""
    plan = make_plan(theta=theta, sigma=sigma, alpha_b=alpha_b, scheme=scheme)
    parts = (log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma), plan.theta,
             plan.alpha_b)
    keep_lo, keep_hi, reject_lo, reject_hi = _cut_thresholds(*parts)
    blocks = _block_bounds(*parts)
    block_keep_lo, block_keep_hi, block_reject_lo, block_reject_hi = blocks
    assert 0 <= block_reject_lo <= block_keep_lo <= block_keep_hi <= block_reject_hi <= 2**64
    assert all(t % 2**33 == 0 for t in blocks)
    assert 0 <= reject_lo - block_reject_lo < 2**33
    assert 0 <= block_reject_hi - reject_hi < 2**33
    assert 0 <= block_keep_lo - keep_lo < 2**33
    if block_keep_hi > block_keep_lo:
        assert 0 <= keep_hi - block_keep_hi < 2**33


# ---------------------------------------------------------------------------
# the share of the grid that each threshold pair covers, without draws

GOLDEN_TABLE = CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv"))
TOP = 2**53 - 1  # the top grid index, whose uniform (TOP + 1/2) 2^-53 rounds to 1.0


def assert_grid_shares_bracket_the_power(scheme, sigma, theta, alpha_b):
    """S / 2^53 <= p <= (S + W) / 2^53, with p = power_analytic within 2e-14.

    S grid points (2^-53 each) surely reject and W take the exact route;
    2e-14 covers power_analytic's two std_normal_cdf terms, each within 1e-14.
    The top index is "reject", "keep" or "window" as the thresholds classify
    it: never "keep", and "window" once cdf(r - theta) rounds to 1 (r^2 = psi),
    unless every draw rejects. Returns the thresholds, r and the top's class.
    """
    base, ratio = log_m_of_sigma(scheme, sigma), variance_ratio(sigma)
    thresholds = _cut_thresholds(base, ratio, theta, alpha_b)
    keep_lo, keep_hi, reject_lo, reject_hi = (z >> 11 for z in thresholds)
    surely = reject_lo + 2**53 - reject_hi
    window = (keep_lo - reject_lo) + (reject_hi - keep_hi)
    p = power_analytic(theta, sigma, alpha_b, scheme)
    assert surely <= (p + 2e-14) * 2**53
    assert (p - 2e-14) * 2**53 <= surely + window
    top = ("reject" if not reject_lo <= TOP < reject_hi
           else "keep" if keep_lo <= TOP < keep_hi else "window")
    assert top != "keep"
    r = math.sqrt(max(_cut(_log_rejection_odds(alpha_b), base, ratio), 0.0))
    if (r == math.inf or std_normal_cdf(r - theta) == 1.0) and thresholds != _REJECT_ALL:
        assert top == "window"
    return thresholds, r, top


@st.composite
def share_plans(draw):
    """Plans over kl, robert, fixed:rho and the golden table, weighted to the corners."""
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    scheme = draw(st.one_of(st.sampled_from((KL, RobertPrior(), GOLDEN_TABLE)),
                            unit.map(FixedPrior)))
    if scheme is GOLDEN_TABLE:
        sigma = draw(st.floats(0.5, 8.0))
    else:  # 1e-160..1e-150: the cut radius near and past _RADIUS_CAP
        sigma = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-160, 1e-150),
                               st.floats(5e-324, 1.7976931348623157e308)))
    theta = draw(st.one_of(st.floats(-6.0, 6.0), st.sampled_from((-40.0, 40.0)),
                           st.floats(allow_nan=False, allow_infinity=False)))
    alpha_b = draw(st.one_of(unit, st.floats(5e-324, 1e-12), st.floats(0.49, 0.51)))
    return scheme, sigma, theta, alpha_b


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(share_plans())
def test_grid_shares_bracket_the_analytic_power(plan):
    assert_grid_shares_bracket_the_power(*plan)


@pytest.mark.parametrize("scheme, sigma, theta, alpha_b, kind, top", (
    (KL, 1.0, 0.0, 0.05, "radii", "reject"),
    (KL, 1.0, 40.0, 0.05, "radii", "reject"),
    (KL, 1.0, -40.0, 0.05, "radii", "window"),  # cdf(r + 40) rounds to 1
    (KL, 3.0, 0.0, 0.05, "reject all", "reject"),  # past the bound, 2.845
    (KL, 1e-3, 0.0, 0.5, "reject all", "reject"),  # alpha_b = 1/2: kl's bound is 0
    (KL, 0.01, 0.0, 0.4999999, "radii", "reject"),
    (KL, 1.0, 0.0, 5e-324, "radii", "window"),  # r = 54.6, so both cut points round off
    (RobertPrior(), 1e-155, 0.0, 0.05, "radius cap", "window"),  # psi overflows to inf
    (FixedPrior(0.3), 1.55e-154, 0.0, 0.05, "radius cap", "window"),  # psi = 1.75e308
    (FixedPrior(0.3), 1e-200, 1.0, 0.05, "radius cap", "window"),  # sigma^2 underflows
    (FixedPrior(0.01), 1e-200, 1.0, 0.05, "reject all", "reject"),  # rho0 < alpha_b
    (RobertPrior(), 1e9, 0.0, 0.05, "radii", "reject"),
    (GOLDEN_TABLE, 2.0, 0.0, 0.05, "radii", "reject"),
    (GOLDEN_TABLE, 8.0, -40.0, 1e-300, "radii", "window"),
))
def test_grid_shares_at_the_corners(scheme, sigma, theta, alpha_b, kind, top):
    thresholds, r, got_top = assert_grid_shares_bracket_the_power(scheme, sigma, theta, alpha_b)
    got_kind = ("reject all" if thresholds == _REJECT_ALL
                else "radius cap" if r >= _RADIUS_CAP else "radii")
    assert (got_kind, got_top) == (kind, top)
    if kind == "radius cap":  # no draw surely rejects
        assert thresholds[2:] == (0, 2**64)


@pytest.mark.parametrize("scheme, sigma, theta, alpha_b", (
    (KL, 2.1089733943720677, 0.0, 0.05),
    (KL, 2.1089733943720677, 1.5, 0.05),
    (RobertPrior(), 1.0, -0.5, 0.01),
    (FixedPrior(0.3), 3.4, 0.0, 0.3),
    (GOLDEN_TABLE, 2.0, 0.5, 0.05),
))
def test_every_window_index_decided_bounds_the_simulation_bias(scheme, sigma, theta, alpha_b):
    """The generator's rejection probability P is within power_analytic's bound of p, exactly.

    The S surely rejecting grid points and the rejecting ones of the W window
    points (about 40 000 here), each decided as the kernel decides a window draw,
    give P = (S + rejecting) / 2^53 with no draw. 2e-14 covers power_analytic's
    two cdf terms; 4 grid steps cover the grid's and the quantile's rounding at
    the two cut points.
    """
    thresholds, _, top = assert_grid_shares_bracket_the_power(scheme, sigma, theta, alpha_b)
    assert top == "reject"  # its uniform rounds to 1.0, where the quantile is undefined
    keep_lo, keep_hi, reject_lo, reject_hi = (z >> 11 for z in thresholds)
    rejecting = sum(
        decide(Observation(theta + std_normal_quantile((k + 0.5) * 2.0**-53)), sigma, alpha_b,
               scheme).reject
        for k in itertools.chain(range(reject_lo, keep_lo), range(keep_hi, reject_hi)))
    exact = (reject_lo + 2**53 - reject_hi + rejecting) / 2**53
    assert abs(exact - power_analytic(theta, sigma, alpha_b, scheme)) <= 2e-14 + 4 * 2.0**-53


def test_counted_event_is_the_posterior_decision():
    plan = make_plan(n=500)
    spread = AlternativeSpread(plan.sigma)
    rho = plan.scheme.rho0(plan.sigma)
    expected = sum(
        posterior_h0(Observation(draw_standard_normal(plan.seed, i)), spread, rho) < plan.alpha_b
        for i in range(plan.n)
    )
    assert _rejection_count(plan, 0, plan.n)[0] == expected


def public_recount(plan):
    """Rejections counted through draw_standard_normal and posterior_h0 alone."""
    spread = AlternativeSpread(plan.sigma)
    rho = plan.scheme.rho0(plan.sigma)
    return sum(
        posterior_h0(Observation(plan.theta + draw_standard_normal(plan.seed, i)), spread, rho)
        < plan.alpha_b
        for i in range(plan.n)
    )


@pytest.fixture(scope="module")
def table_scheme(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "rho.csv"
    path.write_text("sigma,rho0\n0.5,0.6\n1.5,0.4\n3.0,0.2\n")
    return scheme_from_string(f"table:{path}")


@pytest.mark.parametrize("alpha_b", (0.01, 0.05, 0.3, 0.5))
@pytest.mark.parametrize("scheme", ("fixed:0.3", "fixed:0.9", "robert", "kl", "table"))
def test_cut_point_count_equals_public_recount(scheme, alpha_b, table_scheme):
    prior = table_scheme if scheme == "table" else scheme_from_string(scheme)
    for seed, theta in enumerate((0.0, 0.5, -0.5, 1.5, 3.0, 40.0)):
        plan = make_plan(n=1000, seed=seed, theta=theta, sigma=2.0, alpha_b=alpha_b, scheme=prior)
        assert simulate_power(plan).rejections == public_recount(plan), theta


@pytest.mark.parametrize("scheme, sigma, alpha_b", (("robert", 5.0, 0.3), ("kl", 3.0, 0.05)))
@pytest.mark.parametrize("theta", (0.0, 0.5, -0.5, 1.5, 3.0, 40.0))
def test_past_positivity_bound_count_equals_public_recount(scheme, sigma, alpha_b, theta):
    prior = scheme_from_string(scheme)
    with pytest.raises(PsiDomainError):
        psi(sigma, alpha_b, prior)
    plan = make_plan(n=300, theta=theta, sigma=sigma, alpha_b=alpha_b, scheme=prior)
    report = simulate_power(plan)
    assert report.rejections == public_recount(plan) == plan.n


@pytest.mark.parametrize(
    "scheme, sigma, alpha_b, theta",
    (
        ("kl", SIGMA_STAR_005_KL, 0.05, 0.0),
        ("kl", SIGMA_STAR_005_KL, 0.05, 1.5),
        ("robert", 1.0, 0.01, -0.5),
        ("fixed:0.9", 0.5, 0.3, 3.0),
        ("fixed:0.3", 3.4046108452636634, 0.5862895263957044, 0.0),
    ),
)
def test_grid_points_next_to_each_window_are_decided_like_the_exact_route(
    scheme, sigma, alpha_b, theta
):
    base, ratio = log_m_of_sigma(scheme_from_string(scheme), sigma), variance_ratio(sigma)
    keep_lo, keep_hi, reject_lo, reject_hi = (
        z >> 11 for z in _cut_thresholds(base, ratio, theta, alpha_b)
    )
    probes = [(k, True) for k in range(reject_lo - 64, reject_lo)]
    probes += [(k, False) for k in range(keep_lo, keep_lo + 64)]
    probes += [(k, False) for k in range(keep_hi - 64, keep_hi)]
    probes += [(k, True) for k in range(reject_hi, reject_hi + 64)]
    grid = range(2**53 - 1)  # the top index rounds to u = 1.0, outside the quantile's domain
    for k, rejects in probes:
        if k not in grid:
            continue
        x = theta + std_normal_quantile((k + 0.5) * 2.0**-53)
        assert (_stable_inv_logistic(base + _x2_term(x, sigma)) < alpha_b) == rejects, k


@pytest.mark.parametrize("alpha_b", (0.01, 0.05))
@pytest.mark.parametrize("seed", (0, 3))
def test_draw_on_a_cut_point_takes_the_exact_route(seed, alpha_b):
    probe = make_plan(seed=seed, alpha_b=alpha_b)
    r = math.sqrt(psi(probe.sigma, alpha_b, probe.scheme))
    plan = make_plan(n=200, seed=seed, alpha_b=alpha_b, theta=-r - draw_standard_normal(seed, 0))
    report = simulate_power(plan)
    assert report.exact_route_draws >= 1
    assert report.rejections == public_recount(plan)


def test_type_i_estimate_brackets_the_analytic_rate():
    report = simulate_type_i(make_plan(n=20000))
    assert report.analytic_value == type_i_error(SIGMA_STAR_005_KL, 0.05, KL)
    assert report.within_3se
    assert report.rejections == round(report.estimate * report.n)


def test_past_positivity_bound_every_draw_rejects():
    report = simulate_type_i(make_plan(n=500, sigma=3.0))
    assert report.rejections == 500
    assert report.exact_route_draws == 0
    assert report.estimate == 1.0
    assert report.std_error == 0.0
    z = 1.96  # the Wilson interval at k = n: (n / (n + z^2), 1)
    assert report.ci95 == (pytest.approx(500 / (500 + z * z), rel=1e-15), 1.0)
    assert report.within_3se  # analytic rate is also exactly 1


@pytest.mark.parametrize(
    "scheme, sigma, theta",
    (
        ("kl", 1e200, 0.0),  # the log prior odds are inf
        # sigma^2 underflows to 0 and x^2 overflows: the exponent is inf * 0
        ("fixed:0.01", 1e-200, 1e200),
    ),
)
def test_far_past_positivity_bound_every_draw_rejects(scheme, sigma, theta):
    plan = make_plan(n=100, theta=theta, sigma=sigma, scheme=scheme_from_string(scheme))
    report = simulate_power(plan)
    assert (report.rejections, report.exact_route_draws) == (100, 0)


def test_power_saturates_for_huge_effects():
    report = simulate_power(make_plan(n=200, theta=40.0))
    assert report.rejections == 200
    assert report.analytic_value == pytest.approx(1.0, abs=1e-12)


def test_power_at_null_equals_type_i_run():
    plan = make_plan(n=3000)
    assert simulate_power(plan) == simulate_type_i(plan)


def test_power_tracks_analytic_at_moderate_effect():
    report = simulate_power(make_plan(n=20000, theta=2.0))
    assert report.within_3se


def test_single_draw_report_is_well_formed():
    report = simulate_type_i(make_plan(n=1))
    assert isinstance(report, MonteCarloReport)
    assert report.n == 1
    assert report.estimate in (0.0, 1.0)
    assert 0.0 <= report.ci95[0] <= report.ci95[1] <= 1.0


def test_standard_error_formula():
    """std_error is the estimate's; ci95 is the Wilson score interval, z = 1.96."""
    report = simulate_type_i(make_plan(n=20000))
    p, n, k, z = report.estimate, report.n, report.rejections, 1.96
    assert report.std_error == math.sqrt(p * (1.0 - p) / n)
    centre = (k + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4.0) / (n + z * z)
    assert report.ci95 == (max(0.0, centre - half), min(1.0, centre + half))


def test_verdict_covers_a_run_that_expects_about_one_rejection():
    """kl at alpha = 0.01, n = 100: n p = 1, where the estimate's own SE failed 138 of 400."""
    sigma = solve_sigma(CalibrationSpec(0.01, 0.05, KL)).sigma_star
    hits = sum(simulate_type_i(make_plan(n=100, seed=seed, sigma=sigma)).within_3se
               for seed in range(400))
    assert hits >= 396


def test_zero_rejections_pass_a_tiny_analytic_rate():
    report = simulate_type_i(make_plan(sigma=0.5))
    assert report.rejections == 0
    assert report.analytic_value == pytest.approx(6.2e-8, rel=0.01)
    assert report.within_3se
    assert report.ci95[0] == 0.0 < report.ci95[1] < 0.004


def test_verdict_catches_a_miscount():
    """n p = 1: 3 sqrt(0.99) + 1/2 = 3.48, so 4 rejections pass and 5 fail."""
    plan = make_plan(n=100)
    assert montecarlo._report(plan, (4, 0), 0.01).within_3se
    assert not montecarlo._report(plan, (5, 0), 0.01).within_3se
    assert not montecarlo._report(plan, (1, 0), 0.0).within_3se  # p = 0 demands 0


def test_three_se_coverage_across_seeds():
    """The 3-standard-error check should cover near-certainly (99.7%) per run."""
    hits = sum(
        simulate_type_i(make_plan(n=10000, seed=seed)).within_3se for seed in range(100)
    )
    assert hits >= 95


def test_simulation_where_x_squared_overflows():
    """x = 1e155 + z squares past float range; (x sigma)^2 / 2 is 5e-11, so nothing rejects."""
    plan = make_plan(n=5000, theta=1e155, sigma=1e-160, scheme=scheme_from_string("fixed:0.5"))
    report = simulate_power(plan)
    assert (report.rejections, report.analytic_value, report.within_3se) == (0, 0.0, True)


# ---------------------------------------------------------------------------
# pinned outputs

MONTE_CARLO_DIGEST = "ca893dcbc93a1ac200d034368f91c2cdb1b7e966cd79fd9a7439e841333e070d"
MONTE_CARLO_COUNTS_DIGEST = "2529481a73006faab0576e0fc547319a3a38821c1eb33327e4f3dabff61f9b8f"
DIGEST_SCHEMES = (
    KL,
    RobertPrior(),
    FixedPrior(0.3),
    FixedPrior(1e-6),
    CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.35), (8.0, 0.1))),
)
DIGEST_ALPHA_BS = (1e-100, 1e-20, 1e-6, 0.01, 0.05, 0.3, 0.5)
DIGEST_THETAS = (0.0, 0.5, -0.5, 1.5, 3.0, 40.0, -40.0)
# Plan sizes and partition cuts: 1, 2048 +- 1 and 3 * 2048 + 5 draws. They are
# data, not derived from _LANES, so the digests pin the same plans at any chunk width.
DIGEST_SIZES = (1, 2047, 2049, 6149)
DIGEST_CUTS = (0, 1, 2049, 4095, 6149)


# Where the digest plants its draws: for each scheme and alpha_b in 0.01,
# 0.05 and 0.3, in the order _digest_plans visits them, the four cut
# thresholds of an older kernel that widened every cut point by 1e-9 in u.
# They are data, not the kernel's live thresholds, so the planted draws stay
# put when the kernel's windows change and the counts digest still compares.
DIGEST_PLANTED_THRESHOLDS = (
    (32763755282194432, 18413980318427359232, 32763718388699136, 18413980355320850432),
    (336790606450288640, 18109953467259262976, 336790569556795392, 18109953504152754176),
    (2**64,) * 4,
    (29724309504, 9791203096335779840, 0, 9791203133229271040),
    (1021691156480, 4529506495996751872, 984797663232, 4529506532890247168),
    (639892002849660928, 2180362447394893824, 639891965956167680, 2180362484288387072),
    (989021532307456, 18409316609273946112, 988984638812160, 18409316646167437312),
    (260793415562098688, 18433777309971001344, 260793378668603392, 18433777346864492544),
    (91739519830016, 1049029317039327232, 91702626334720, 1049029353932820480),
    (2**64,) * 4,
    (2**64,) * 4,
    (2**64,) * 4,
    (5553345507328, 18018222705773500416, 5516452014080, 18018222742666991616),
    (103032178379628544, 18343711895329923072, 103032141486135296, 18343711932223414272),
    (788067087423488, 15190023449526140928, 788030193928192, 15190023486419632128),
)


def _digest_line(plan, counts_only):
    """One hashed line: the report of the whole plan, or its refusal."""
    try:
        report = (simulate_type_i if plan.theta == 0.0 else simulate_power)(plan)
    except (ValueError, ArithmeticError) as error:  # every refusal is pinned too
        return f"{type(error).__name__}: {error}"
    exact = "" if counts_only else f" {report.exact_route_draws}"
    return f"{report.rejections}{exact} {report.analytic_value.hex()}"


def _digest_plans(rng):
    """(plan, partitioned) pairs over every scheme, alpha_b, theta and chunk shape."""
    for scheme in DIGEST_SCHEMES:
        for alpha_b in DIGEST_ALPHA_BS:
            if isinstance(scheme, CustomTablePrior):
                sigma = rng.uniform(0.5, 8.0)
            else:
                sigma = 10.0 ** rng.uniform(-0.5, 0.7)
            for theta in DIGEST_THETAS:
                yield make_plan(n=rng.choice(DIGEST_SIZES), seed=rng.getrandbits(64),
                                theta=theta, sigma=sigma, alpha_b=alpha_b, scheme=scheme), False
    # On the positivity bound only draws next to x = 0 take the exact route; past it none does.
    for scheme, alpha_b in ((KL, 0.05), (KL, 1e-20), (RobertPrior(), 0.3)):
        bound = positivity_bound(alpha_b, scheme)
        for sigma, theta in ((bound, 0.0), (bound, 1.5), (1.5 * bound, -0.5)):
            plan = make_plan(n=DIGEST_CUTS[-1], seed=rng.getrandbits(64), theta=theta,
                             sigma=sigma, alpha_b=alpha_b, scheme=scheme)
            yield plan, True
    # A draw planted on and next to each threshold, at a random lane of a random size.
    top = (2**53 - 1) << 11
    planted_thresholds = iter(DIGEST_PLANTED_THRESHOLDS)
    for scheme in DIGEST_SCHEMES:
        for alpha_b in (0.01, 0.05, 0.3):
            sigma = rng.uniform(0.5, 8.0) if isinstance(scheme, CustomTablePrior) else 2.0
            theta = rng.choice(DIGEST_THETAS)
            thresholds = next(planted_thresholds)
            planted = {t + d for t in thresholds for d in (-1, 0, 1)}
            planted.add((thresholds[0] + thresholds[2]) // 2)
            for z in sorted(v for v in planted if 0 <= v < top):
                n = rng.choice(DIGEST_SIZES)
                plan = make_plan(n=n, seed=planted_seed(z, rng.randrange(n)), theta=theta,
                                 sigma=sigma, alpha_b=alpha_b, scheme=scheme)
                yield plan, n == DIGEST_CUTS[-1]


@functools.cache
def monte_carlo_digests():
    """SHA-256s over the digest plans' report lines and partition counts.

    The first hashes every report in full; the second drops
    exact_route_draws, so it pins only what the kernel counts.
    """
    rng = random.Random(20261018)
    full, counts_only = hashlib.sha256(), hashlib.sha256()
    for plan, partitioned in _digest_plans(rng):
        full.update(_digest_line(plan, False).encode() + b"\n")
        counts_only.update(_digest_line(plan, True).encode() + b"\n")
        if partitioned:
            for lo, hi in zip(DIGEST_CUTS, DIGEST_CUTS[1:]):
                rejections, exact = _rejection_count(plan, lo, hi)
                full.update(f"{rejections} {exact}\n".encode())
                counts_only.update(f"{rejections}\n".encode())
    return full.hexdigest(), counts_only.hexdigest()


def test_monte_carlo_outputs_are_bit_identical():
    """Rejections, exact-route draws and the analytic value of seeded plans, pinned.

    The plans cover the kl, robert, fixed and table schemes, alpha_b from
    1e-100 to 0.5, theta out to +-40, plans of 1, 2047, 2049 and 6149
    draws with partitions off the chunk boundaries, plans on and past the
    positivity bound, and draws planted on and next to each of
    DIGEST_PLANTED_THRESHOLDS. A faster kernel must keep the digest.
    """
    assert monte_carlo_digests()[0] == MONTE_CARLO_DIGEST


def test_monte_carlo_counts_are_bit_identical():
    """Rejections and the analytic value of the same plans.

    exact_route_draws may change with the kernel's windows; what it counts
    may not, so this digest holds across such changes.
    """
    assert monte_carlo_digests()[1] == MONTE_CARLO_COUNTS_DIGEST


def exact_route_bound_holds(plan, report):
    """|exact_route_draws - n W / 2^64| <= 6 sqrt(n W / 2^64) + 2.

    W counts the 64-bit y that _rejection_count flags for the exact route: the two windows
    between _block_bounds' reject and keep bounds. Taking splitmix64's y as uniform on
    [0, 2^64), the count is binomial with that mean; the 2 leaves room for a planted draw.
    """
    keep_lo, keep_hi, reject_lo, reject_hi = _block_bounds(
        log_m_of_sigma(plan.scheme, plan.sigma), variance_ratio(plan.sigma), plan.theta,
        plan.alpha_b)
    expected = plan.n * ((keep_lo - reject_lo) + (reject_hi - keep_hi)) / 2**64
    return abs(report.exact_route_draws - expected) <= 6.0 * math.sqrt(expected) + 2.0


def test_exact_route_counts_stay_within_a_binomial_bound():
    checked = 0
    for plan, _ in _digest_plans(random.Random(20261018)):
        try:
            report = (simulate_type_i if plan.theta == 0.0 else simulate_power)(plan)
        except (ValueError, ArithmeticError):  # refusals count nothing
            continue
        assert exact_route_bound_holds(plan, report), plan
        checked += 1
    assert checked > 300
    # x = 1e155 + z overflows its square: no draw is surely decided, so all take the exact route.
    plan = make_plan(n=5000, theta=1e155, sigma=1e-160, scheme=scheme_from_string("fixed:0.5"))
    report = simulate_power(plan)
    assert report.exact_route_draws == 5000
    assert exact_route_bound_holds(plan, report)
