"""Pinned SHA-256 digests over seeded outputs of the scalar sigma path and the sigma roots.

Each call of psi, type_i_error, power_analytic, decide and paradox_sweep
adds one line to the hash: every float as float.hex, every Decision as
three flags (reject, via_posterior and test_calibration.threshold_route,
the rule's classical form x^2 > psi), and every refusal as its class and
message. Inputs span kl, robert, fixed masses down to 1e-12 and a table;
alpha_b from 1e-300 to 0.999 and the invalid 0, 1, nan, inf and -0.5; sigma
from 1e-200 to 1e200 and the invalid 0, -1, nan and inf; x near sqrt(psi)
to within 40 ulps, log-uniform up to 1e300, and x = 0. A faster path must
keep the digest: any changed bit, refusal or message moves it.

The second digest pins the sigma roots: each call of solve_sigma,
positivity_bound and psi_sweep adds one line, with sigma*, psi(sigma*), the
achieved alpha, the residual and the bracket ends as float.hex, the number
of evaluations, and every refusal as its class and message. Requests span
kl, robert and fixed masses on both sides of alpha_b, fixed:0.3 at a
fine-pass level, fixed:0.07 with its root beyond the scan, the golden table
and the tables of test_calibration.scanned_requests, and kl's two refusals
(alpha_b >= 1/2, and alpha within 1e-7 of 1).
"""

import hashlib
import math
import random
from pathlib import Path

from test_calibration import scanned_requests, threshold_route

from pointnull.calibration import (CalibrationSpec, decide, positivity_bound, power_analytic, psi,
                                   psi_sweep, solve_sigma, type_i_error)
from pointnull.model import Observation
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior, RobertPrior,
                              paradox_sweep)

CALLS_PER_FUNCTION = 12_000
SWEEPS, ROWS_PER_SWEEP = 300, 25
DIGEST = "f55e6c4174994e7afa6c580b73579c22077373bda287d0e89c5d1950e1e4b4b4"
SOLVES, BOUNDS, PSI_SWEEPS = 2000, 500, 300
ROOT_DIGEST = "f9905ef0f1a9a38f3746c623a06f96199696ee2e84dbe96af5804dc3db1771a2"

TABLE = CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.35), (8.0, 0.1)))
BAD_ALPHA_BS = (0.0, 1.0, math.nan, math.inf, -0.5)
BAD_SIGMAS = (0.0, -1.0, math.nan, math.inf)


def _scheme(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return KLSelfInformationPrior()
    if kind == 1:
        return RobertPrior()
    if kind == 2:
        return FixedPrior(rng.choice((10.0 ** rng.uniform(-12.0, 0.0) * 0.999,
                                      rng.uniform(0.01, 0.99))))
    return TABLE


def _alpha_b(rng):
    if rng.random() < 0.02:
        return rng.choice(BAD_ALPHA_BS)
    return rng.choice((10.0 ** rng.uniform(-300.0, -1.0), rng.uniform(1e-3, 0.999), 0.05))


def _sigma(rng, scheme):
    if rng.random() < 0.02:
        return rng.choice(BAD_SIGMAS)
    if scheme is TABLE and rng.random() < 0.9:
        return rng.uniform(0.5, 8.0)
    return 10.0 ** rng.choice((rng.uniform(-200.0, 200.0), rng.uniform(-3.0, 3.0)))


def _x(rng, sigma, alpha_b, scheme):
    pick = rng.random()
    if pick < 0.5:
        try:
            x = math.sqrt(psi(sigma, alpha_b, scheme))
        except (ValueError, ArithmeticError):
            x = 1.0
        if x == math.inf:  # sigma^2 underflowed: no cut to sit next to
            x = 10.0 ** rng.uniform(150.0, 300.0)
        for _ in range(rng.randint(0, 40)):
            x = math.nextafter(x, rng.choice((0.0, math.inf)))
    elif pick < 0.95:
        x = 10.0 ** rng.uniform(-3.0, 300.0)
    else:
        x = 0.0
    return rng.choice((x, -x))


def _decide(x, sigma, alpha_b, scheme):
    decision = decide(Observation(x), sigma, alpha_b, scheme)
    return f"{decision.reject}{decision.via_posterior}{threshold_route(x, sigma, alpha_b, scheme)}"


def _line(call, *args):
    try:
        result = call(*args)
    except Exception as error:  # every refusal is part of the pinned behaviour
        return f"{type(error).__name__}: {error}"
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, list):
        return ";".join(",".join(map(float.hex, row)) for row in result)
    if result is None:
        return "None"
    if isinstance(result, tuple):  # psi_sweep: the rows, then the end
        return f"{_line(lambda: result[0])}|{_line(lambda: result[1])}"
    if hasattr(result, "sigma_star"):
        floats = (result.sigma_star, result.psi_at_sigma, result.achieved_alpha, result.residual,
                  result.bracket_used.lo, result.bracket_used.hi)
        return ",".join(map(float.hex, floats)) + f",{result.evaluations}"
    return result  # _decide's flags


def scalar_path_digest():
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(CALLS_PER_FUNCTION):
        scheme = _scheme(rng)
        alpha_b = _alpha_b(rng)
        sigma = _sigma(rng, scheme)
        x = _x(rng, sigma, alpha_b, scheme)
        for line in (_line(psi, sigma, alpha_b, scheme),
                     _line(type_i_error, sigma, alpha_b, scheme),
                     _line(power_analytic, x, sigma, alpha_b, scheme),
                     _line(_decide, x, sigma, alpha_b, scheme)):
            h.update(line.encode() + b"\n")
    for _ in range(SWEEPS):
        scheme = _scheme(rng)
        if scheme is TABLE:
            grid = sorted(rng.uniform(0.5, 8.0) for _ in range(ROWS_PER_SWEEP))
        else:
            lo = rng.uniform(-200.0, 190.0)
            grid = [10.0 ** (lo + 10.0 * k / ROWS_PER_SWEEP) for k in range(ROWS_PER_SWEEP)]
        if rng.random() < 0.05:
            grid[rng.randrange(ROWS_PER_SWEEP)] = rng.choice(BAD_SIGMAS)
        x = rng.choice((0.0, rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 300.0), math.nan))
        h.update(_line(paradox_sweep, scheme, x, grid).encode() + b"\n")
    return h.hexdigest()


def test_scalar_path_outputs_are_bit_identical():
    assert scalar_path_digest() == DIGEST


# Inline, so that no refusal message carries the checkout's path.
GOLDEN_TABLE = CustomTablePrior(
    CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv")).points)


def _root_scheme(rng, alpha_b):
    kind = rng.randrange(4)
    if kind == 0:
        return KLSelfInformationPrior()
    if kind == 1:
        return RobertPrior()
    if kind == 2:  # rho0 on either side of alpha_b
        return FixedPrior(min(alpha_b * 10.0 ** rng.uniform(-1.0, 1.0), 0.99))
    return GOLDEN_TABLE


def _solve(alpha, alpha_b, scheme):
    return solve_sigma(CalibrationSpec(alpha, alpha_b, scheme))


def sigma_root_digest():
    rng = random.Random(20261019)
    h = hashlib.sha256()

    def add(call, *args):
        h.update(_line(call, *args).encode() + b"\n")

    for spec in scanned_requests():
        add(_solve, spec.alpha, spec.alpha_b, spec.scheme)
    kl = KLSelfInformationPrior()
    for alpha_b in (0.5, 0.6, 0.999):
        add(_solve, 0.05, alpha_b, kl)
    for alpha_b in (0.01, 0.05, 0.3):
        for gap in (1e-7, 3e-8, 1e-8, 1e-9, 1e-12):
            add(_solve, 1.0 - gap, alpha_b, kl)
    for _ in range(SOLVES):
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.7),
                              10.0 ** rng.uniform(-12, -1)))
        alpha = rng.choice((10.0 ** rng.uniform(-12.0, -0.3), rng.uniform(0.001, 0.999)))
        add(_solve, alpha, alpha_b, _root_scheme(rng, alpha_b))
    for _ in range(BOUNDS):
        alpha_b = rng.choice((rng.uniform(1e-3, 0.999), 10.0 ** rng.uniform(-300.0, -1.0)))
        add(positivity_bound, alpha_b, _root_scheme(rng, alpha_b))
    for _ in range(PSI_SWEEPS):
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.9),
                              10.0 ** rng.uniform(-12, -1)))
        scheme = _root_scheme(rng, alpha_b)
        if scheme is GOLDEN_TABLE:
            grid = sorted(rng.uniform(0.5, 8.0) for _ in range(ROWS_PER_SWEEP))
        else:
            lo = rng.uniform(-3.0, 2.0)
            grid = [10.0 ** (lo + 3.0 * k / ROWS_PER_SWEEP) for k in range(ROWS_PER_SWEEP)]
        add(psi_sweep, scheme, alpha_b, grid)
    return h.hexdigest()


def test_sigma_roots_are_bit_identical():
    assert sigma_root_digest() == ROOT_DIGEST
