"""Acceptance gate: end-to-end checks at stated tolerances.

Each test prints exactly one line, `criterion NN: PASS|FAIL — <label>`, so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist. Criterion 11
is expected to fail; its docstring and the decisions ledger explain why it is
kept as stated instead of being adjusted to pass.
"""

import contextlib
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from pointnull.calibration import (
    decide,
    positivity_bound,
    psi,
    solve_sigma,
    type_i_error,
    CalibrationSpec,
)
from pointnull.model import AlternativeSpread, Observation, bayes_factor, posterior_h0
from pointnull.montecarlo import SimulationPlan, simulate_type_i
from pointnull.numerics import Bracket, std_normal_pdf
from pointnull.priors import (
    FixedPrior,
    KLSelfInformationPrior,
    RobertPrior,
    classify_regime,
    log_m_of_sigma,
    m_of_sigma,
)
from quadrature import integrate_adaptive
from test_calibration import agrees_with_the_threshold_route

SRC = Path(__file__).resolve().parents[1] / "src"  # the child imports this checkout's package
KL = KLSelfInformationPrior()
ROBERT = RobertPrior()
SQRT_TWO_PI = 2.5066282746310005024
SIGMA_STAR_005_KL = 2.1089733943720829818
BOUND_KL_05 = 2.8454877865455884127
RHO_ROBERT_LIMIT = 0.28517422483431870054

X_GRID = [x * 0.5 for x in range(-10, 11)]
SIGMA_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL — {label}", flush=True)
        raise
    print(f"criterion {number:02d}: PASS — {label}", flush=True)


def normal_pdf(value, sd):
    return math.exp(-0.5 * (value / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def geometric_grid(lo, hi, n):
    step = (hi / lo) ** (1.0 / (n - 1))
    return [lo * step**k for k in range(n)]


def cli(*args):
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from pointnull.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_criterion_01_bayes_factor_matches_quadrature():
    with criterion(1, "closed-form Bayes factor vs quadrature marginal, rel 1e-8"):
        start = time.perf_counter()
        for sigma in SIGMA_GRID:
            spread = AlternativeSpread(sigma)
            half_width = 10.0 * max(1.0, sigma)
            for x in X_GRID:
                marginal = integrate_adaptive(
                    lambda t: normal_pdf(x - t, 1.0) * normal_pdf(t, sigma),
                    Bracket(-half_width, half_width),
                    tol=1e-12,
                ).value
                closed = bayes_factor(Observation(x), spread)
                assert abs(closed - std_normal_pdf(x) / marginal) <= 1e-8 * closed, (x, sigma)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"grid took {elapsed:.2f}s"


def test_criterion_02_expected_information_matches_quadrature():
    with criterion(2, "quadrature of the KL integrand recovers sigma^2/2, rel 1e-8"):
        for sigma in (0.5, 1.0, 2.0, 3.0):
            value = integrate_adaptive(
                lambda t: 0.5 * t * t * normal_pdf(t, sigma),
                Bracket(-10.0 * sigma, 10.0 * sigma),
                tol=1e-12,
            ).value
            expected = 0.5 * sigma * sigma
            assert abs(value - expected) <= 1e-8 * expected, sigma


def test_criterion_03_decision_routes_never_disagree():
    with criterion(3, "posterior and threshold decisions agree on 1e5 random cases/scheme"):
        rng = random.Random(987654321)
        for scheme in (FixedPrior(0.5), ROBERT, KL):
            for _ in range(100_000):
                x = rng.uniform(-8.0, 8.0)
                sigma = 10.0 ** rng.uniform(-3.0, 3.0)
                decision = decide(Observation(x), sigma, 0.05, scheme)
                assert decision.reject == decision.via_posterior
                assert agrees_with_the_threshold_route(decision, x, sigma, 0.05, scheme)


def test_criterion_04_psi_strictly_decreasing_inside_domain():
    with criterion(4, "psi strictly decreasing on 1000-point grids"):
        n = 1000
        lo, hi = 1e-3, BOUND_KL_05 - 1e-6
        kl_grid = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
        values = [psi(s, 0.05, KL) for s in kl_grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        values = [psi(s, 0.05, ROBERT) for s in geometric_grid(1e-3, 1e3, n)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_criterion_05_calibration_solver():
    with criterion(5, "solver residuals <= 1e-10 and agreement with plain bisection"):
        start = time.perf_counter()
        for alpha in (0.01, 0.05, 0.1):
            result = solve_sigma(CalibrationSpec(alpha, 0.05, KL))
            assert abs(result.residual) <= 1e-10, alpha
        result = solve_sigma(CalibrationSpec(0.05, 0.05, KL))
        assert abs(result.sigma_star - SIGMA_STAR_005_KL) <= 1e-8 * SIGMA_STAR_005_KL

        lo, hi = 0.5, BOUND_KL_05 - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if type_i_error(mid, 0.05, KL) < 0.05:
                lo = mid
            else:
                hi = mid
        assert abs(result.sigma_star - 0.5 * (lo + hi)) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"solves took {elapsed:.2f}s"


def test_criterion_06_regime_classification_with_evidence():
    with criterion(6, "three schemes land in their regimes with numeric evidence"):
        assert classify_regime(FixedPrior(0.5)).regime.kind == "vanishing"
        assert abs(1e6 * m_of_sigma(FixedPrior(0.5), 1e6) - 1.0) < 1e-6

        classified = classify_regime(ROBERT)
        assert classified.regime.kind == "finite"
        assert abs(m_of_sigma(ROBERT, 1e6) - SQRT_TWO_PI) < 1e-6 * SQRT_TWO_PI

        assert classify_regime(KL).regime.kind == "divergent"
        assert log_m_of_sigma(KL, 1e3) > 4.9e5


def test_criterion_07_fixed_mass_posterior_climbs_to_one():
    with criterion(7, "fixed rho0=1/2, x=1.96: posterior exceeds 0.999 and is monotone"):
        grid = geometric_grid(2.0, 1e4, 200)
        posteriors = [
            posterior_h0(Observation(1.96), AlternativeSpread(s), 0.5) for s in grid
        ]
        assert posteriors[-1] > 0.999
        assert all(b > a for a, b in zip(posteriors, posteriors[1:]))


def test_criterion_08_vanishing_mass_still_pins_the_posterior():
    with criterion(8, "linear-odds scheme at sigma=1e6: rho0 < 1e-5 yet posterior ~ 0.2852"):
        rho = ROBERT.rho0(1e6)
        assert rho < 1e-5
        post = posterior_h0(Observation(0.0), AlternativeSpread(1e6), rho)
        assert abs(post - RHO_ROBERT_LIMIT) < 1e-5


def test_criterion_09_million_sample_simulation():
    with criterion(9, "1e6-draw null simulation hits alpha=0.05 and reruns bit-identically"):
        plan = SimulationPlan(
            n=1_000_000, seed=0, theta=0.0, sigma=SIGMA_STAR_005_KL, alpha_b=0.05, scheme=KL
        )
        start = time.perf_counter()
        first = simulate_type_i(plan)
        second = simulate_type_i(plan)
        elapsed = time.perf_counter() - start
        assert abs(first.estimate - 0.05) <= 0.00065
        assert second == first
        assert first.exact_route_draws == 0
        assert elapsed < 10.0, f"two runs took {elapsed:.2f}s"


def test_criterion_10_cli_sweep_and_comparison_block():
    with criterion(10, "CLI psi sweep truncates at the bound; comparison block present"):
        done = cli("sweep", "--kind", "psi", "--scheme", "kl",
                   "--sigma-min", "0.2", "--sigma-max", "3.2", "--steps", "60")
        assert done.returncode == 0
        rows = [line for line in done.stdout.splitlines()
                if line and not line.startswith("#") and not line.startswith("sigma")]
        log_psi = [float(line.split(",")[2]) for line in rows]
        assert all(b < a for a, b in zip(log_psi, log_psi[1:]))
        trailer = [line for line in done.stdout.splitlines() if "domain_end" in line]
        assert len(trailer) == 1
        assert abs(float(trailer[0].split("sigma=")[1]) - BOUND_KL_05) <= 1e-9

        done = cli("calibrate", "--alpha", "0.05", "--alpha-b", "0.05",
                   "--scheme", "kl", "--compare-paper")
        assert done.returncode == 0
        assert "1.2930" in done.stdout


def test_criterion_11_robert_low_alpha_is_refused():
    """Expected to FAIL: the stated refusal never happens.

    This check requires `calibrate --alpha 0.01 --alpha-b 0.05 --scheme robert`
    to exit 3 (target unattainable). But the bounded-odds scheme's achievable
    Type I band is (0, ~0.044145): its error rate rises with sigma toward that
    ceiling, so 0.01 sits inside the band and solves at sigma ~ 1.4273, and
    the command exits 0. Only targets above the ceiling are refused — that
    direction is covered green in test_cli.py and test_calibration.py. Kept
    as stated rather than inverted; see the decisions ledger for the analysis.
    """
    with criterion(11, "calibrate robert alpha=0.01 exits 3 (expected red: it solves)"):
        done = cli("calibrate", "--alpha", "0.01", "--alpha-b", "0.05", "--scheme", "robert")
        assert done.returncode == 3, (
            f"exit code {done.returncode}; stdout: {done.stdout!r}"
        )


def test_positivity_bound_spot_check():
    # Not a numbered criterion: anchors the bound used by criteria 4, 5, 10.
    assert abs(positivity_bound(0.05, KL) - BOUND_KL_05) <= 1e-10
