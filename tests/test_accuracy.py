"""Accuracy in ulps against 50-digit mpmath references.

Each reference is taken at the same float inputs the library sees (for the
positivity bound, the float level log(1/alpha_b - 1) it computes), so what
is measured is the library's own rounding, not the conditioning of its input.
"""

import math
import random
import shlex

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bit_identity import sigma_root_calls
from test_calibration import NoSlopeTable, WavyPrior, bracket_requests, threshold_route
from test_golden import CASES, GOLDEN

from pointnull.calibration import (CalibrationSpec, InfeasibleAlphaError, PsiDomainError, _band,
                                   _h_past_rounding, _log_rejection_odds, classical_threshold,
                                   decide, positivity_bound, psi, psi_sweep, solve_sigma,
                                   type_i_error)
from pointnull.model import Observation, _stable_inv_logistic, variance_ratio
from pointnull.numerics import _u_minus_log1p, std_normal_quantile
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior, RobertPrior,
                              log_m_of_sigma, scheme_from_string)

EPS = 2.0**-53
KL, ROBERT = KLSelfInformationPrior(), RobertPrior()


def ulps(value: float, reference) -> float:
    """|value - reference| in units of the last place of the float nearest reference."""
    with mpmath.workdps(50):
        reference = mpmath.mpf(reference)
        return float(abs(mpmath.mpf(value) - reference) / math.ulp(float(reference)))


def kl_bound_reference(level: float):
    """sqrt(u) with u - log1p(u) = 2 level, the root of log m(sigma) = level under kl."""
    with mpmath.workdps(50):
        k = 2 * mpmath.mpf(level)
        start = k + mpmath.log1p(k) if k > 1 else mpmath.sqrt(2 * k)
        return mpmath.sqrt(mpmath.findroot(lambda u: u - mpmath.log1p(u) - k, start))


def type_i_root_reference(log_odds, level: float, alpha: float, start: float):
    """The sigma near start whose Type I error erfc(sqrt(psi / 2)) is alpha.

    psi = 2 (level - log m) (1 + sigma^2) / sigma^2, log m = log_odds(sigma) - log1p(sigma^2) / 2.
    """
    with mpmath.workdps(50):
        level, target = mpmath.mpf(level), mpmath.log(alpha)

        def gap(sigma):
            log_m = log_odds(sigma) - mpmath.log1p(sigma**2) / 2
            psi = 2 * (level - log_m) * (1 + sigma**2) / sigma**2
            return mpmath.log(mpmath.erfc(mpmath.sqrt(psi / 2))) - target

        return mpmath.findroot(gap, mpmath.mpf(start))


def quantile_reference(p: float):
    """Phi^-1(p) for 0 < p < 1/2: Newton on log Phi, concave, from -sqrt(-2 log 2p)."""
    with mpmath.workdps(50):
        target = mpmath.log(p)
        x = -mpmath.sqrt(-2 * mpmath.log(2 * mpmath.mpf(p)))
        for _ in range(200):
            cdf = mpmath.ncdf(x)
            step = (mpmath.log(cdf) - target) * cdf / mpmath.npdf(x)
            x -= step
            if abs(step) <= abs(x) * mpmath.mpf(10) ** -45:
                return x
        raise AssertionError(f"no convergence at p={p}")


def _kl_draws(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    wide = [10.0 ** rng.uniform(-300.0, math.log10(0.45)) for _ in range(count // 2)]
    near_half = [rng.uniform(0.45, 0.5) for _ in range(count - count // 2)]
    return wide + [a for a in near_half if a < 0.5]


def test_u_minus_log1p_against_mpmath():
    rng = random.Random(3)
    for u in [10.0 ** rng.uniform(-12.0, 1.0) for _ in range(300)] + [0.5, 0.4999999999999999]:
        with mpmath.workdps(50):
            exact = mpmath.mpf(u) - mpmath.log1p(mpmath.mpf(u))
        assert ulps(_u_minus_log1p(u), exact) <= 2.0, u


def test_kl_bound_within_2_ulp():
    for alpha_b in _kl_draws(1200, seed=11):
        reference = kl_bound_reference(_log_rejection_odds(alpha_b))
        assert ulps(positivity_bound(alpha_b, KL), reference) <= 2.0, alpha_b


@pytest.mark.parametrize("alpha_b", [0.49, 0.4999999, 0.49999999999, 0.5 - 2.0**-54])
def test_kl_bound_within_2_ulp_next_to_one_half(alpha_b):
    reference = kl_bound_reference(_log_rejection_odds(alpha_b))
    assert ulps(positivity_bound(alpha_b, KL), reference) <= 2.0


def test_kl_log_odds_are_correctly_rounded():
    # (sigma / 2) * sigma rounds once, as one product; libm's pow is not always correctly rounded.
    rng = random.Random(7)
    for sigma in [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(20000)]:
        with mpmath.workdps(50):
            exact = mpmath.mpf(sigma) ** 2 / 2
        assert ulps(KL.log_prior_odds(sigma), exact) <= 0.5, sigma


def test_stable_inv_logistic_within_its_stated_2_ulp():
    # exp rounds, then the division does: the worst of these draws is 1.79 ulp.
    rng = random.Random(20261018)
    for t in [rng.uniform(-40.0, 40.0) for _ in range(20000)]:
        with mpmath.workdps(50):
            exact = 1 / (1 + mpmath.exp(mpmath.mpf(t)))
        assert ulps(_stable_inv_logistic(t), exact) <= 2.0, t


def test_robert_bound_within_its_stated_error():
    # Relative error <= 4 eps (1 + 1/(1 - q)), q = e^(2 L) / (2 pi): 1/(1 - q) is the
    # condition number of the root near robert's ceiling sqrt(2 pi).
    rng = random.Random(12)
    draws = [rng.uniform(0.2853, 0.5) for _ in range(600)]
    draws += [1.0 - 10.0 ** rng.uniform(-15.5, -0.31) for _ in range(600)]
    for alpha_b in draws:
        level = _log_rejection_odds(alpha_b)
        with mpmath.workdps(50):
            two_pi = 2 * mpmath.pi
            q = mpmath.exp(2 * mpmath.mpf(level)) / two_pi
            reference = mpmath.exp(level) / mpmath.sqrt(two_pi - mpmath.exp(2 * mpmath.mpf(level)))
            bound = positivity_bound(alpha_b, ROBERT)
            relative = float(abs(bound - reference) / reference)
            allowed = 4.0 * EPS * float(1 + 1 / (1 - q))
        assert relative <= allowed, alpha_b


def test_table_domain_end_within_2_ulp():
    # tests/golden/table.csv: rho0 falls linearly from 0.2 at sigma 4 to 0.1 at 8.
    table = CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.35), (4.0, 0.2), (8.0, 0.1)))
    level = _log_rejection_odds(0.48)
    with mpmath.workdps(50):
        def log_m(sigma):
            rho = mpmath.mpf(0.2) + (sigma - 4) / 4 * (mpmath.mpf(0.1) - mpmath.mpf(0.2))
            return mpmath.log((1 - rho) / rho) - mpmath.log1p(sigma**2) / 2 - mpmath.mpf(level)
        reference = mpmath.findroot(log_m, (mpmath.mpf(6.5), mpmath.mpf(8)), solver="anderson")
    assert mpmath.nstr(reference, 20) == "7.7960970855526606259"
    for lo, hi in ((6.5, 8.0), (4.0, 8.0), (7.7, 7.9)):
        assert ulps(psi_sweep(table, 0.48, [lo, hi])[1], reference) <= 2.0, (lo, hi)


def test_quantile_within_its_stated_7_ulp():
    # Lower half: log-uniform on [5e-324, 0.5], uniform on [0.45, 0.5), and 0.5 - 2^-k, where x is
    # near 0 and an absolute residual cdf(x) - p cannot resolve it. Upper half: the float 1 - p,
    # against minus the quantile of its exact mirror 1 - (1 - p).
    rng = random.Random(14)
    lower = [10.0 ** rng.uniform(-323.3, math.log10(0.5)) for _ in range(500)]
    lower += [rng.uniform(0.45, 0.5) for _ in range(300)]
    lower += [0.5 - 2.0**-k for k in range(2, 55)] + [5e-324, 1e-320, 2.0**-1022, 1e-300]
    lower = [p for p in lower if 0.0 < p < 0.5]
    upper = {1.0 - p for p in lower} - {1.0}
    for p in lower:
        assert ulps(std_normal_quantile(p), quantile_reference(p)) <= 7.0, p
    for p in upper:
        assert ulps(std_normal_quantile(p), -quantile_reference(1.0 - p)) <= 7.0, p


FIXED_03_LOG_ODDS = mpmath.log((1 - mpmath.mpf(0.3)) / mpmath.mpf(0.3))


@pytest.mark.parametrize(
    "scheme,log_odds,alpha",
    [(KL, lambda s: s**2 / 2, alpha) for alpha in (1e-12, 1e-20, 1e-100, 1e-300)]
    + [(FixedPrior(0.3), lambda s: FIXED_03_LOG_ODDS, alpha) for alpha in (1e-12, 0.005)],
)
def test_solve_sigma_meets_a_relative_tolerance(scheme, log_odds, alpha):
    # kl solves on its analytic bracket; fixed:0.3 is scanned and returns its smaller root.
    result = solve_sigma(CalibrationSpec(alpha, 0.05, scheme))
    assert abs(result.achieved_alpha / alpha - 1.0) <= 5e-12
    reference = type_i_root_reference(log_odds, _log_rejection_odds(0.05), alpha,
                                      result.sigma_star)
    with mpmath.workdps(50):
        assert abs(result.sigma_star / reference - 1) <= 1e-12, (result.sigma_star, reference)


def test_solve_sigma_meets_a_relative_tolerance_at_a_small_sigma_star():
    # sigma* is about 2.4e-5: a bracket width of 1e-15 would be 4e-11 of it, so the
    # width at which the polish stops is relative to the bracket.
    result = solve_sigma(CalibrationSpec(1e-300, 0.4999999, KL))
    assert abs(result.achieved_alpha / 1e-300 - 1.0) <= 5e-12
    reference = type_i_root_reference(lambda s: s**2 / 2, _log_rejection_odds(0.4999999), 1e-300,
                                      result.sigma_star)
    with mpmath.workdps(50):
        assert abs(result.sigma_star / reference - 1) <= 1e-12, (result.sigma_star, reference)


def _scheme_with_exact_odds(choice):
    """The scheme for "kl", "robert" or a fixed rho0, with its log prior odds in mpmath."""
    if choice == "kl":
        return KL, lambda s: s * s / 2
    if choice == "robert":
        return ROBERT, lambda s: mpmath.log(mpmath.sqrt(2 * mpmath.pi) * s)
    rho = mpmath.mpf(choice)
    return FixedPrior(choice), lambda s: mpmath.log((1 - rho) / rho)


def test_decide_is_right_outside_the_band(capsys):
    """Past _band of the cut, both routes give the exact decision t* > L*.

    t* = log odds - log(1 + sigma^2) / 2 + x^2 sigma^2 / (2 (1 + sigma^2)) and
    L* = log(1/alpha_b - 1), both in 80-digit arithmetic at the float inputs.
    Prints the widest gap |t* - L*| / tau at which the two routes split.
    """
    splits, worst = [0], [0.0]

    @given(st.one_of(st.sampled_from(("kl", "robert")), st.floats(1e-12, 0.999)),
           st.floats(-3.0, 3.0), st.floats(-323.3, -0.3), st.booleans(), st.integers(-64, 64))
    @settings(max_examples=500, deadline=None)
    def check(choice, log_sigma, log_alpha_b, negative, shift):
        scheme, log_odds = _scheme_with_exact_odds(choice)
        sigma, alpha_b = 10.0**log_sigma, max(10.0**log_alpha_b, 5e-324)
        try:
            x = math.sqrt(psi(sigma, alpha_b, scheme))
        except PsiDomainError:
            x = 1.0  # every x rejects
        x = (x + shift * math.ulp(x)) * (-1.0 if negative else 1.0)
        decision = decide(Observation(x), sigma, alpha_b, scheme)
        with mpmath.workdps(80):
            s, x_, a = mpmath.mpf(sigma), mpmath.mpf(x), mpmath.mpf(alpha_b)
            t = log_odds(s) - mpmath.log1p(s * s) / 2 + x_ * x_ * s * s / (2 * (1 + s * s))
            gap = float(t - mpmath.log(1 / a - 1))
        tau = _band(_log_rejection_odds(alpha_b), log_m_of_sigma(scheme, sigma), alpha_b)
        via_threshold = threshold_route(x, sigma, alpha_b, scheme)
        if decision.via_posterior != via_threshold:
            splits[0] += 1
            worst[0] = max(worst[0], abs(gap) / tau)
        if abs(gap) > tau:
            assert decision.via_posterior == via_threshold == (gap > 0.0)

    check()
    with capsys.disabled():
        print(f"\nroutes split {splits[0]} times, at most {worst[0]:.3f} tau from the cut")


def _log_odds_size(choice, s):
    """The sizes of the terms of a scheme's log odds, as _scheme_with_exact_odds names it."""
    if choice == "kl":
        return s * s / 2
    if choice == "robert":
        return mpmath.log(mpmath.sqrt(2 * mpmath.pi)) + abs(mpmath.log(s))
    rho = mpmath.mpf(choice)
    return abs(mpmath.log(rho)) + abs(mpmath.log1p(-rho))


def test_psi_and_type_i_error_within_their_stated_bounds(capsys):
    """psi within 6 eps (1 + kappa), the Type I error within 10 eps + 3 eps (1 + psi) (2 + kappa).

    The reference takes the float sigma and alpha_b, the exact log odds and 50 digits;
    kappa = S / |L - log m|, S the sizes of the terms of the gap L - log m. The bounds
    add the rounding steps, each op within eps, log and log1p within 1 ulp (2 eps):
    - L = log1p(-alpha_b) - log(alpha_b): 3 eps (|log1p(-alpha_b)| + |log alpha_b|).
    - log(1 + sigma^2): 5 eps of it (sigma > 1: 2 log sigma + log1p(1 / sigma^2), whose
      argument is 2 eps off; else log1p(sigma^2), 3 eps); half of it, 5 eps of that half.
    - log odds: kl one product, eps; robert log sqrt(2 pi) (3 eps) + log sigma, 4 eps
      of the sizes; fixed as L, 3 eps. log m = odds - half rounds once: at most
      5 eps of the odds' sizes plus 6 eps of the half.
    - The gap rounds once: 6 eps S + eps |gap|. The variance ratio is 4 eps off and
      2 gap / ratio rounds once: psi within 6 eps kappa + 6 eps.
    - z = sqrt(psi) / sqrt(2) is within 3 eps (1 + kappa) + 3 eps; erfc's condition
      2 z e^(-z^2) / (sqrt(pi) erfc z) is below 2 z^2 + 1 = 1 + psi (Abramowitz and
      Stegun 7.1.13), erfc itself adds its 5 ulp, and halving and doubling are
      exact at or above 2^-1021.
    Cases: 3165 seeded draws of kl, robert or fixed:0.3, alpha_b in {0.01, 0.05, 0.3,
    1e-300, 0.49999} and sigma log-uniform on [0.05, 30].
    """
    rng = random.Random(20261019)
    worst_psi = worst_error = 0.0
    for _ in range(3165):
        choice = rng.choice(("kl", "robert", 0.3))
        alpha_b = rng.choice((0.01, 0.05, 0.3, 1e-300, 0.49999))
        sigma = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
        scheme, log_odds = _scheme_with_exact_odds(choice)
        try:
            value = psi(sigma, alpha_b, scheme)
        except PsiDomainError:
            continue
        error = type_i_error(sigma, alpha_b, scheme)
        with mpmath.workdps(50):
            s, a = mpmath.mpf(sigma), mpmath.mpf(alpha_b)
            level = mpmath.log1p(-a) - mpmath.log(a)
            half = mpmath.log1p(s * s) / 2
            gap = level - (log_odds(s) - half)
            size = abs(mpmath.log(a)) + abs(mpmath.log1p(-a)) + half + _log_odds_size(choice, s)
            kappa = float(size / abs(gap))
            exact_psi = 2 * gap * (1 + s * s) / (s * s)
            psi_relative = float(abs(value - exact_psi) / exact_psi)
            exact_error = mpmath.erfc(mpmath.sqrt(exact_psi / 2))
            error_relative = float(abs(error - exact_error) / exact_error)
        psi_bound = 6.0 * EPS * (1.0 + kappa)
        assert psi_relative <= psi_bound, (choice, alpha_b, sigma)
        worst_psi = max(worst_psi, psi_relative / psi_bound)
        if error >= 2.0**-1021:
            error_bound = 10.0 * EPS + 3.0 * EPS * (1.0 + value) * (2.0 + kappa)
            assert error_relative <= error_bound, (choice, alpha_b, sigma)
            worst_error = max(worst_error, error_relative / error_bound)
    with capsys.disabled():
        print(f"\npsi used {worst_psi:.3f} of its bound at most, the Type I error {worst_error:.3f}")


def _golden_psi_sweep(name):
    """The exact-odds scheme choice, alpha_b, (sigma, psi, log_psi) rows and end a psi file printed.

    The scheme comes from the case's argv in test_golden.CASES, which the file's comments repeat.
    """
    argv = shlex.split(CASES[name])
    scheme = argv[argv.index("--scheme") + 1]
    lines = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    comments = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    assert lines[0] == "exit = 0" and comments["kind"] == "psi" and comments["scheme"] == scheme
    header = lines.index("sigma,psi,log_psi")
    rows = [tuple(map(float, line.split(","))) for line in lines[header + 1:] if line[0] != "#"]
    choice = "kl" if scheme == "kl" else float(scheme.removeprefix("fixed:"))
    end = comments.get("domain_end sigma")
    return choice, float(comments["alpha_b"]), rows, None if end is None else float(end)


@pytest.mark.parametrize("name", ("readme_sweep_psi_kl", "readme_sweep_psi_fixed"))
def test_printed_psi_columns_within_their_stated_bounds(name, capsys):
    """Each printed psi within psi's 6 eps (1 + kappa), log_psi within the bound it implies.

    The reference takes the printed sigma and alpha_b, the exact log odds and 50 digits; kappa
    is test_psi_and_type_i_error_within_their_stated_bounds' own. log_psi is math.log of the
    float v = psi (1 + d), |d| <= b = 6 eps (1 + kappa), so log v = log psi + log(1 + d) with
    |log(1 + d)| <= b / (1 - b), and math.log, within 1 ulp, adds at most 2 eps |log v|:
    |log_psi - log psi| <= b / (1 - b) + 2 eps (|log psi| + b / (1 - b)). kl's domain_end is
    positivity_bound, within 2 ulp of the root of log m = log(1/alpha_b - 1) at the float level.
    """
    choice, alpha_b, rows, end = _golden_psi_sweep(name)
    _, log_odds = _scheme_with_exact_odds(choice)
    assert rows and (end is not None) == (choice == "kl")
    worst = {"psi": 0.0, "log_psi": 0.0}  # ulps
    share = {"psi": 0.0, "log_psi": 0.0}  # of the bound
    for sigma, printed_psi, printed_log_psi in rows:
        with mpmath.workdps(50):
            s, a = mpmath.mpf(sigma), mpmath.mpf(alpha_b)
            level = mpmath.log1p(-a) - mpmath.log(a)
            half = mpmath.log1p(s * s) / 2
            gap = level - (log_odds(s) - half)
            size = abs(mpmath.log(a)) + abs(mpmath.log1p(-a)) + half + _log_odds_size(choice, s)
            kappa = float(size / abs(gap))
            exact_psi = 2 * gap * (1 + s * s) / (s * s)
            exact_log_psi = mpmath.log(exact_psi)
            psi_relative = float(abs(printed_psi - exact_psi) / exact_psi)
            log_psi_error = float(abs(printed_log_psi - exact_log_psi))
        b = 6.0 * EPS * (1.0 + kappa)
        log_psi_bound = b / (1.0 - b) + 2.0 * EPS * (abs(float(exact_log_psi)) + b / (1.0 - b))
        assert psi_relative <= b, sigma
        assert log_psi_error <= log_psi_bound, sigma
        share["psi"] = max(share["psi"], psi_relative / b)
        share["log_psi"] = max(share["log_psi"], log_psi_error / log_psi_bound)
        worst["psi"] = max(worst["psi"], ulps(printed_psi, exact_psi))
        worst["log_psi"] = max(worst["log_psi"], ulps(printed_log_psi, exact_log_psi))
    if end is not None:
        worst["domain_end"] = ulps(end, kl_bound_reference(_log_rejection_odds(alpha_b)))
        share["domain_end"] = worst["domain_end"] / 2.0
        assert worst["domain_end"] <= 2.0
    with capsys.disabled():
        columns = (f"{column} {worst[column]:.1f} ulp ({share[column]:.3f} of its bound)"
                   for column in worst)
        print(f"\n{name}, worst per column: " + ", ".join(columns))


TABLE = CustomTablePrior(CustomTablePrior.from_csv(str(GOLDEN / "table.csv")).points,
                         "table:table.csv")  # named as the golden calibration prints it
ROOT_SCHEMES = (KL, ROBERT, FixedPrior(0.3), FixedPrior(0.07), TABLE,
                NoSlopeTable(TABLE.points, "table:table.csv, no slope"))  # solved by Brent


def _exact_log_odds(scheme):
    """The scheme's log prior odds in mpmath and the sizes of their terms, as functions of sigma.

    A table's rho0 is interpolated exactly between its float rows; the wavy test scheme's
    0.5 + 0.45 sin(log sigma) is taken with its float constants.
    """
    if isinstance(scheme, WavyPrior):
        def rho(s):
            return mpmath.mpf(0.5) + mpmath.mpf(0.45) * mpmath.sin(mpmath.log(s))
    elif isinstance(scheme, CustomTablePrior):
        rows = [(mpmath.mpf(s), mpmath.mpf(r)) for s, r in scheme.points]

        def rho(s):
            i = max(next(k for k, (s_k, _) in enumerate(rows) if s_k >= s), 1)
            (s_lo, r_lo), (s_hi, r_hi) = rows[i - 1], rows[i]
            return r_lo + (s - s_lo) / (s_hi - s_lo) * (r_hi - r_lo)
    else:
        choice = scheme.scheme_id if scheme in (KL, ROBERT) else scheme.rho0_value
        return _scheme_with_exact_odds(choice)[1], lambda s: _log_odds_size(choice, s)

    return (lambda s: mpmath.log((1 - rho(s)) / rho(s)),
            lambda s: abs(mpmath.log(rho(s))) + abs(mpmath.log1p(-rho(s))))


def c_alpha_reference(alpha: float):
    """c with erfc(sqrt(c / 2)) = alpha, from Newton on log erfc at 60 digits."""
    with mpmath.workdps(60):
        target, t = mpmath.log(alpha), mpmath.mpf(-std_normal_quantile(0.5 * alpha) / math.sqrt(2))
        for _ in range(100):
            step = (mpmath.log(mpmath.erfc(t)) - target) * mpmath.erfc(t) / (
                -2 * mpmath.exp(-t * t) / mpmath.sqrt(mpmath.pi))
            t -= step
            if abs(step) <= abs(t) * mpmath.mpf(10) ** -55:
                return 2 * t * t
        raise AssertionError(f"no convergence at alpha={alpha}")


def h_root_reference(scheme, alpha: float, alpha_b: float, start: float):
    """The root of h_c near start at 60 digits, and its condition number kappa.

    h_c(sigma) = (L - log m) - (c/2) ratio with the exact L = log(1/alpha_b - 1) and c = c_alpha
    at the float alpha and alpha_b. kappa = S / (sigma |h_c'(sigma)|), S the sizes of h_c's terms:
    |log alpha_b|, |log1p(-alpha_b)|, log(1 + sigma^2) / 2, the log odds' terms and (c/2) ratio.
    """
    log_odds, odds_size = _exact_log_odds(scheme)
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha_b)
        level, half_c = mpmath.log1p(-a) - mpmath.log(a), c_alpha_reference(alpha) / 2

        def h(s):
            return level - (log_odds(s) - mpmath.log1p(s * s) / 2) - half_c * s * s / (1 + s * s)

        s0 = mpmath.mpf(start)
        root = mpmath.findroot(h, (s0, s0 * (1 + mpmath.mpf(2) ** -40)))
        size = (abs(mpmath.log(a)) + abs(mpmath.log1p(-a)) + mpmath.log1p(root**2) / 2
                + odds_size(root) + half_c * root**2 / (1 + root**2))
        return root, float(size / abs(root * mpmath.diff(h, root, h=root * mpmath.mpf(2) ** -100)))


def _sigma_star_bound(kappa: float) -> float:
    """|sigma* - root| in ulps, at most 2 + 21 kappa.

    Computed h_c is within 21 eps S of the real one: the gap L - log m within 6 eps S as in
    test_psi_and_type_i_error_within_their_stated_bounds; c_alpha within 15 eps (the
    quantile's 7 ulp, squared and rounded), the ratio within 4 eps and their product and the
    difference add 2 eps, all of (c/2) ratio <= S. So its sign changes lie within
    21 eps S / |h_c'| of the root, which is 21 kappa eps sigma <= 21 kappa ulp; Newton's last
    step (or Brent's stop at adjacent floats, for a scheme without a slope) and the pick of the
    end with the smaller |h_c| add 2 ulp.
    """
    return 2.0 + 21.0 * kappa


def _error_range(scheme, alpha_b: float) -> tuple[float, float]:
    """The least and greatest Type I error on the scan's finest pass (kl: 0 and its bound's)."""
    if scheme is KL:
        return 0.0, type_i_error(positivity_bound(alpha_b, KL), alpha_b, KL)
    lo, hi = scheme.sigma_domain()
    grid = [10.0 ** (k / 64) for k in range(-192, 193)] + [1e6, 1e12]
    sigmas = [s for s in grid if lo < s < hi] + [end for end in (lo, hi) if 0.0 < end < math.inf]
    errors = [type_i_error(s, alpha_b, scheme) for s in sigmas]
    return min(errors), max(errors)


def seeded_calibrations(count: int = 360, seed: int = 38):
    """Requests over ROOT_SCHEMES in turn, alpha_b in {0.01, 0.05, 0.1} and a log-uniform alpha.

    alpha runs from 1e-12, or the least error on a table's range, up to the greatest error
    the scheme reaches on the scan (kl: at its rounded positivity bound).
    """
    rng = random.Random(seed)
    for k in range(count):
        scheme, alpha_b = ROOT_SCHEMES[k % len(ROOT_SCHEMES)], rng.choice((0.01, 0.05, 0.1))
        floor, ceiling = _error_range(scheme, alpha_b)
        alpha = math.exp(rng.uniform(math.log(max(floor, 1e-12)), math.log(ceiling)))
        yield CalibrationSpec(alpha, alpha_b, scheme)


def test_sigma_star_is_within_its_stated_bound_of_the_root_of_h_c(capsys):
    """360 seeded solves: sigma* within 2 + 21 kappa ulp of the root, the error within 5e-12 alpha.

    Prints the median and worst error per scheme, in ulps and as a share of the bound.
    """
    errors = {scheme.scheme_id: [] for scheme in ROOT_SCHEMES}
    shares = dict.fromkeys(errors, 0.0)
    for spec in seeded_calibrations():
        result = solve_sigma(spec)
        assert abs(result.residual) <= 5e-12 * spec.alpha, spec
        root, kappa = h_root_reference(spec.scheme, spec.alpha, spec.alpha_b, result.sigma_star)
        error = ulps(result.sigma_star, root)
        assert error <= _sigma_star_bound(kappa), (spec, kappa)
        errors[spec.scheme.scheme_id].append(error)
        shares[spec.scheme.scheme_id] = max(shares[spec.scheme.scheme_id],
                                            error / _sigma_star_bound(kappa))
    with capsys.disabled():
        print("\nsigma* error in ulps, median / worst (share of its bound):")
        for name, found in errors.items():
            found.sort()
            print(f"  {name}: {found[len(found) // 2]:.2f} / {found[-1]:.2f} ({shares[name]:.3f})")


def edge_and_near_one_requests():
    """test_bit_identity's edges and kl targets within 1e-7 of 1, the two CLI targets next to 1
    (test_cli's CLI_DIGEST) and test_calibration's wavy target. Next to alpha = 1 the error
    moves by far more than its ulp between adjacent floats, so these are answered only because
    sigma* is accepted where h_c is within its rounding bound; many of the edges are refused."""
    specs = [CalibrationSpec(*args) for family, _, args in sigma_root_calls()
             if family in ("kl_refusals", "edges")]
    return specs + [CalibrationSpec(0.9999999999999999, 0.05, KL),
                    CalibrationSpec(0.9999999999999999, 0.5, TABLE),
                    CalibrationSpec(0.9999999999968855, 0.5, WavyPrior())]


def test_edge_and_near_one_answers_are_within_their_stated_bound_of_the_root(capsys):
    """Each answer to edge_and_near_one_requests within 2 + 21 kappa ulp of the root of h_c.

    alpha_b runs from 5e-324 to 1 - 2^-53 and alpha to within 2e-16 of 1, where the error
    moves by far more than its ulp between adjacent floats: the answer is held to the root of
    h_c, not its error to alpha. 38 of the 117 answers are fixed edges that the scan refused:
    their roots lie past its last point 1e12, and the scheme's bracket reaches them. Prints how
    many answered and the worst share of the bound.
    """
    answered, worst = 0, 0.0
    for spec in edge_and_near_one_requests():
        try:
            result = solve_sigma(spec)
        except InfeasibleAlphaError:
            continue
        root, kappa = h_root_reference(spec.scheme, spec.alpha, spec.alpha_b, result.sigma_star)
        error = ulps(result.sigma_star, root)
        assert error <= _sigma_star_bound(kappa), (spec, error, kappa)
        answered, worst = answered + 1, max(worst, error / _sigma_star_bound(kappa))
    assert answered == 117
    with capsys.disabled():
        print(f"\n{answered} edge and near-one answers, at most {worst:.3f} of their bound")


def test_robert_and_fixed_answers_are_within_their_stated_bound_of_the_root(capsys):
    """Each answer to test_calibration's bracket_requests, over robert and fixed masses from
    1e-300 to 0.99 with alpha from 1e-300 to within 1e-15 of 1, within 2 + 21 kappa ulp of the
    60-digit root of h_c; most of them solve on the scheme's analytic bracket. Prints how many
    answered and the worst share of the bound."""
    answered, worst = 0, 0.0
    for spec in bracket_requests():
        try:
            result = solve_sigma(spec)
        except InfeasibleAlphaError:
            continue
        root, kappa = h_root_reference(spec.scheme, spec.alpha, spec.alpha_b, result.sigma_star)
        error = ulps(result.sigma_star, root)
        assert error <= _sigma_star_bound(kappa), (spec, error, kappa)
        answered, worst = answered + 1, max(worst, error / _sigma_star_bound(kappa))
    assert answered > 200
    with capsys.disabled():
        print(f"\n{answered} robert and fixed answers, at most {worst:.3f} of their bound")


@pytest.mark.parametrize("alpha, rho0, near", [(0.007441, 0.3, 2.468), (1e-30, 0.01, 3.581e29)])
def test_fixed_targets_the_scan_refused_solve_to_the_root(alpha, rho0, near):
    """fixed:0.3 at alpha = 0.007441, just below its peak error 0.0074412442, and fixed:0.01 at
    alpha = 1e-30, whose root lies far past the scan's last point 1e12, both at alpha_b = 0.05:
    the scan refused them, and the scheme's bracket solves them to within 2 + 21 kappa ulp."""
    spec = CalibrationSpec(alpha, 0.05, FixedPrior(rho0))
    result = solve_sigma(spec)
    root, kappa = h_root_reference(spec.scheme, alpha, 0.05, result.sigma_star)
    assert ulps(result.sigma_star, root) <= _sigma_star_bound(kappa)
    assert abs(result.sigma_star / near - 1.0) < 1e-3
    assert abs(result.residual) <= 5e-12 * alpha


def fixed_peak_reference(rho0: float, alpha_b: float) -> float:
    """A fixed mass's greatest Type I error, erfc(sqrt((1 + v) / 2)) with v - log1p(v) = 2 D.

    D = log(1/alpha_b - 1) - log((1 - rho0) / rho0). With u = 1 + sigma^2, h_c = D + log(u)/2
    - (c/2)(1 - 1/u) is least at u = c, and that least value, D - (v - log1p(v))/2 with
    v = c - 1, is 0 at the peak's c. 60 digits, at the float rho0 and alpha_b.
    """
    with mpmath.workdps(60):
        a, r = mpmath.mpf(alpha_b), mpmath.mpf(rho0)
        d = mpmath.log1p(-a) - mpmath.log(a) - (mpmath.log1p(-r) - mpmath.log(r))
        v = mpmath.findroot(lambda v: v - mpmath.log1p(v) - 2 * d, 2 * (d + mpmath.sqrt(d)))
        return float(mpmath.erfc(mpmath.sqrt((1 + v) / 2)))


@pytest.mark.parametrize("k", (4, 8, 16))
@pytest.mark.parametrize("rho0", (0.3, 0.5, 0.7))
def test_fixed_targets_within_rounding_below_the_peak_solve_to_the_root(rho0, k):
    """alpha = peak (1 - k 2^-52) at alpha_b = 0.05, the peak from fixed_peak_reference.

    The upper end of fixed's cell, sqrt(c - 1), is where h_c is least, and there it is within
    its rounding bound E; the lower end is clear of it, so the cell is taken. The answer lies
    within 2 + 21 kappa ulp of the 60-digit root of h_c, and passes the acceptance predicate:
    psi > 0 and _h_past_rounding reads 0. Before the upper end was allowed within E the scan
    refused these targets.
    """
    alpha = fixed_peak_reference(rho0, 0.05) * (1.0 - k * 2.0**-52)
    spec = CalibrationSpec(alpha, 0.05, FixedPrior(rho0))
    result = solve_sigma(spec)
    root, kappa = h_root_reference(spec.scheme, alpha, 0.05, result.sigma_star)
    assert ulps(result.sigma_star, root) <= _sigma_star_bound(kappa), kappa
    sigma, level = result.sigma_star, _log_rejection_odds(0.05)
    assert result.psi_at_sigma > 0.0 and _h_past_rounding(
        level, classical_threshold(alpha), log_m_of_sigma(spec.scheme, sigma),
        variance_ratio(sigma)) == 0.0


SLOPE_SCHEMES = (KL, ROBERT, FixedPrior(0.3), FixedPrior(1e-12), TABLE)


def test_log_m_slopes_match_the_derivative_of_log_m():
    """Each _log_m_slope against a central difference of log m in mpmath, sigma up to 1e150.

    The closed forms (kl sigma ratio, robert 1 / sigma / (1 + sigma^2), fixed
    -1 / (sigma + 1/sigma) above 1) are within 5 eps, plus half the subnormal unit where the
    value underflows. A table's -rho0' / (rho0 (1 - rho0)) - sigma / (1 + sigma^2) is within
    8 eps of the first term's size over 1 - rho0 (rho0 rounds before 1 - rho0 is taken) plus
    4 eps of the second's.
    """
    rng = random.Random(150)
    for scheme in SLOPE_SCHEMES:
        log_odds, _ = _exact_log_odds(scheme)

        def log_m(t, log_odds=log_odds):
            return log_odds(t) - mpmath.log1p(t * t) / 2

        lo, hi = scheme.sigma_domain()
        for _ in range(200):
            if scheme is TABLE:
                sigma = rng.uniform(lo, hi)
            else:
                sigma = 10.0 ** rng.uniform(-3.0, 150.0) if rng.random() < 0.7 else \
                    10.0 ** rng.uniform(-3.0, 3.0)
            slope = scheme._log_m_slope(sigma)
            # A central difference of step 1e-30 sigma, with the digits its cancellation takes
            # (robert's log m varies as 1/sigma^2 at large sigma) on top of 60.
            with mpmath.workdps(90 + 2 * max(0, math.ceil(math.log10(sigma)))):
                s, h = mpmath.mpf(sigma), mpmath.mpf(sigma) * mpmath.mpf(10) ** -30
                exact = (log_m(s + h) - log_m(s - h)) / (2 * h)
                tau_slope = abs(s / (1 + s * s))
                if scheme is TABLE:
                    rho = scheme.rho0(sigma)
                    bound = (8 * EPS * abs(exact + tau_slope) / (1 - rho) + 4 * EPS * tau_slope)
                else:
                    bound = 5 * EPS * abs(exact) + mpmath.mpf(2) ** -1075
                assert abs(slope - exact) <= bound, (scheme.scheme_id, sigma)


CALIBRATE_GOLDEN = ("readme_calibrate", "calibrate_compare_paper", "calibrate_table")


def test_printed_calibrations_within_their_stated_bounds(capsys):
    """Each printed sigma_star within 2 + 21 kappa ulp of the root of h_c, psi_at_sigma within psi's
    6 eps (1 + kappa) at the printed sigma_star, both at 50 or more digits.

    Prints the worst error per column in ulps. The compare block's sigma_star repeats the
    printed one.
    """
    worst = {"sigma_star": 0.0, "psi_at_sigma": 0.0}
    for name in CALIBRATE_GOLDEN:
        lines = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        values = dict(line.split(" = ", 1) for line in lines if " = " in line
                      and not line.startswith("#"))
        assert values.pop("exit") == "0"
        scheme_id = values["scheme"]
        scheme = TABLE if scheme_id == TABLE.scheme_id else scheme_from_string(scheme_id)
        alpha, alpha_b = float(values["alpha"]), float(values["alpha_b"])
        sigma_star, printed_psi = float(values["sigma_star"]), float(values["psi_at_sigma"])
        root, kappa = h_root_reference(scheme, alpha, alpha_b, sigma_star)
        assert ulps(sigma_star, root) <= _sigma_star_bound(kappa), name
        worst["sigma_star"] = max(worst["sigma_star"], ulps(sigma_star, root))
        log_odds, odds_size = _exact_log_odds(scheme)
        with mpmath.workdps(50):
            s, a = mpmath.mpf(sigma_star), mpmath.mpf(alpha_b)
            level = mpmath.log1p(-a) - mpmath.log(a)
            half = mpmath.log1p(s * s) / 2
            gap = level - (log_odds(s) - half)
            size = abs(mpmath.log(a)) + abs(mpmath.log1p(-a)) + half + odds_size(s)
            exact_psi = 2 * gap * (1 + s * s) / (s * s)
            psi_relative = float(abs(printed_psi - exact_psi) / exact_psi)
        assert psi_relative <= 6.0 * EPS * (1.0 + float(size / abs(gap))), name
        worst["psi_at_sigma"] = max(worst["psi_at_sigma"], ulps(printed_psi, exact_psi))
        if name == "calibrate_compare_paper":
            assert f"solves sigma_star = {values['sigma_star']} at" in "\n".join(lines)
    with capsys.disabled():
        print("\ncalibrate golden files, worst per column: "
              + ", ".join(f"{column} {ulp:.1f} ulp" for column, ulp in worst.items()))


SIMULATE_GOLDEN = ("readme_simulate", "overflow_simulate", "simulate_past_bound",
                   "simulate_seed7_null", "simulate_seed7_theta")


def test_printed_simulations_within_their_stated_bounds(capsys):
    """Each printed estimate, std_error and ci95 end within montecarlo._report's stated bound of
    its value at 50 digits, from the printed n and rejections and the float z = 1.96.

    estimate within 1/2 ulp; std_error within 3 + a/2 ulp, a = k / (n - k), and exact at k = 0
    or n; each ci95 end within eps (5 centre + 6 half + |end|) absolutely. Prints the worst error
    per column in ulps of the reference (0 where both are 0). analytic_value waits for a stated
    bound of power_analytic.
    """
    worst = dict.fromkeys(("estimate", "std_error", "ci95_lo", "ci95_hi"), 0.0)
    for name in SIMULATE_GOLDEN:
        lines = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        values = dict(line.split(" = ", 1) for line in lines)
        assert values["exit"] == "0", name
        k, n = int(values["rejections"]), int(values["n"])
        printed = {column: float(values[column]) for column in worst}
        with mpmath.workdps(50):
            z2, e = mpmath.mpf(1.96) ** 2, mpmath.mpf(k) / n
            centre = (k + z2 / 2) / (n + z2)
            half = mpmath.sqrt(mpmath.mpf(k) * (n - k) / n + z2 / 4) * mpmath.mpf(1.96) / (n + z2)
            exact = {"estimate": e, "std_error": mpmath.sqrt(e * (1 - e) / n),
                     "ci95_lo": max(mpmath.mpf(0), centre - half),
                     "ci95_hi": min(mpmath.mpf(1), centre + half)}
            ends = EPS * (5 * centre + 6 * half)
            off = {column: abs(printed[column] - exact[column]) for column in worst}
        assert ulps(printed["estimate"], e) <= 0.5, name
        if 0 < k < n:
            assert ulps(printed["std_error"], exact["std_error"]) <= 3.0 + k / (n - k) / 2.0, name
        else:
            assert printed["std_error"] == 0.0, name
        for end in ("ci95_lo", "ci95_hi"):
            assert off[end] <= ends + EPS * abs(printed[end]), (name, end)
        for column in worst:
            if off[column]:
                worst[column] = max(worst[column], ulps(printed[column], exact[column]))
    with capsys.disabled():
        print("\nsimulate golden files, worst per column: "
              + ", ".join(f"{column} {ulp:.2f} ulp" for column, ulp in worst.items()))


def test_classical_threshold_within_its_stated_bound(capsys):
    """c_alpha within 1 + k (11 + c) ulp where one Newton step on erfc(sqrt(c/2)) = alpha refines
    it, 2^-1021 <= alpha <= 1/2, and within 15 + k 2^-1074 / (alpha eps) ulp elsewhere.

    k = alpha / (c |E'(c)|), E(c) = erfc(sqrt(c/2)), is c's condition number in alpha. The step
    leaves c off by k times E's relative error: erfc's 5 ulp, and the rounding of sqrt(c/2)
    times erfc's condition, at most 1 + c (as in test_psi_and_type_i_error_within_their_stated_
    bounds); adding the step rounds once more. Unrefined, c is the quantile's 7 ulp squared and
    rounded, at alpha/2, which rounds to the subnormal grid (2^-1074 / alpha of it) below
    alpha = 2^-1021. alpha is log-uniform over [1e-320, 0.5] and uniform over [0.5, 1), seeded,
    plus the refined range's ends.
    """
    rng = random.Random(71)
    alphas = ([10.0 ** rng.uniform(-320.0, math.log10(0.5)) for _ in range(600)]
              + [rng.uniform(0.5, 1.0) for _ in range(100)]
              + [2.0**-1021, math.nextafter(2.0**-1021, 0.0), 0.5, math.nextafter(0.5, 1.0)])
    worst = {"refined": 0.0, "quantile": 0.0}
    for alpha in alphas:
        c = classical_threshold(alpha)
        with mpmath.workdps(60):
            exact = c_alpha_reference(alpha)
            k = alpha / (exact * mpmath.exp(-exact / 2) / mpmath.sqrt(2 * mpmath.pi * exact))
        error = ulps(c, exact)
        refined = 2.0**-1021 <= alpha <= 0.5
        if refined:
            bound = 1.0 + float(k) * (11.0 + c)
        else:
            bound = 15.0 + float(k) * (2.0**-1074 / alpha / EPS)
        assert error <= bound, alpha
        key = "refined" if refined else "quantile"
        worst[key] = max(worst[key], error)
    with capsys.disabled():
        print(f"\nc_alpha worst: {worst['refined']:.2f} ulp refined, {worst['quantile']:.3g} ulp "
              "from the quantile alone, alpha/2 rounded to the subnormal grid included")
