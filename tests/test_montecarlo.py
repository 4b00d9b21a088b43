"""Deterministic counter-based sampling and the rejection-rate simulators."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointnull.calibration import PsiDomainError, psi, type_i_error
from pointnull.model import (
    AlternativeSpread,
    Observation,
    _posterior_from_parts,
    _posterior_parts,
    posterior_h0,
)
from pointnull.montecarlo import (
    _EXACT_ONLY,
    _LANES,
    MonteCarloReport,
    SimulationPlan,
    _cut_thresholds,
    _rejection_count,
    _scalar_count,
    draw_standard_normal,
    simulate_power,
    simulate_type_i,
    splitmix64,
    uniform_unit,
)
from pointnull.numerics import DomainError, std_normal_quantile
from pointnull.priors import KLSelfInformationPrior, scheme_from_string

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


def scalar_count(plan, lo, hi):
    """The one-draw-at-a-time count of _rejection_count's plan over [lo, hi)."""
    base, ratio = _posterior_parts(
        AlternativeSpread(plan.sigma), plan.scheme.log_prior_odds(plan.sigma)
    )
    thresholds = _cut_thresholds(base, ratio, plan.theta, plan.alpha_b)
    return _scalar_count(plan, lo, hi, base, ratio, thresholds)


@pytest.mark.parametrize("theta", (0.0, 1.5))
@pytest.mark.parametrize("n", (1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 3))
def test_packed_chunks_count_like_the_scalar_loop(n, theta):
    plan = make_plan(n=n, seed=n, theta=theta)
    assert _rejection_count(plan, 0, n) == scalar_count(plan, 0, n)
    assert _rejection_count(plan, 5, 5 + n) == scalar_count(plan, 5, 5 + n)


def test_partitions_off_the_chunk_boundaries_add_up():
    plan = make_plan(n=3 * _LANES + 5, seed=9, theta=1.5)
    full = _rejection_count(plan, 0, plan.n)
    assert full == scalar_count(plan, 0, plan.n)
    for cuts in ((1, _LANES + 1), (_LANES - 1, 2 * _LANES + 7), (1000, 5000, 6000)):
        edges = (0, *cuts, plan.n)
        parts = [_rejection_count(plan, a, b) for a, b in zip(edges, edges[1:])]
        assert tuple(map(sum, zip(*parts))) == full, cuts


@pytest.mark.parametrize(
    "seed, theta, rejections",
    ((0, 0.0, 49988), (7, 0.0, 49939), (7, 1.5, 323220)),
)
def test_million_draw_counts_are_pinned(seed, theta, rejections):
    report = simulate_power(make_plan(n=1_000_000, seed=seed, theta=theta))
    assert (report.rejections, report.exact_route_draws) == (rejections, 0)


@pytest.mark.parametrize("alpha_b", (0.01, 0.05, 0.3))
@pytest.mark.parametrize("scheme", ("kl", "robert", "fixed:0.3", "fixed:0.9"))
def test_planted_draws_count_like_the_scalar_loop(scheme, alpha_b):
    """Raw values on and next to every threshold, at both ends of both chunk kinds.

    A plan of _LANES + 3 draws is one full chunk and a 3-lane tail, so each
    planted draw is checked on the chunk that holds it.
    """
    n = _LANES + 3
    prior = scheme_from_string(scheme)
    base, ratio = _posterior_parts(AlternativeSpread(2.0), prior.log_prior_odds(2.0))
    top = (2**53 - 1) << 11  # grid index 2^53 - 1 rounds to u = 1.0
    for theta in (0.0, 0.5, -0.5, 1.5, 3.0, 40.0, -40.0):
        thresholds = _cut_thresholds(base, ratio, theta, alpha_b)
        if thresholds == _EXACT_ONLY:
            continue  # the scalar loop counts every draw of this plan
        planted = {t + d for t in thresholds for d in (-1, 0, 1)} | {thresholds[0] // 2}
        for z in sorted(v for v in planted if 0 <= v < top):
            for index in (0, _LANES - 1, _LANES, n - 1):
                plan = make_plan(n=n, seed=planted_seed(z, index), theta=theta, sigma=2.0,
                                 alpha_b=alpha_b, scheme=prior)
                lo, hi = (0, _LANES) if index < _LANES else (_LANES, n)
                got = _rejection_count(plan, lo, hi)
                assert got == scalar_count(plan, lo, hi), (theta, z, index)


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
    log_odds = scheme_from_string(scheme).log_prior_odds(sigma)
    base, ratio = _posterior_parts(AlternativeSpread(sigma), log_odds)
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
        assert (_posterior_from_parts(x * x, base, ratio) < alpha_b) == rejects, k


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
    assert report.ci95 == (1.0, 1.0)
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
    report = simulate_type_i(make_plan(n=20000))
    p = report.estimate
    assert report.std_error == math.sqrt(p * (1.0 - p) / report.n)
    assert report.ci95[0] == max(0.0, p - 1.96 * report.std_error)
    assert report.ci95[1] == min(1.0, p + 1.96 * report.std_error)


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
