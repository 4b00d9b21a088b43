"""A pinned SHA-256 over seeded outputs of the scalar sigma path.

Each call of psi, type_i_error, power_analytic, decide and paradox_sweep
adds one line to the hash: every float as float.hex, every Decision as its
three flags, and every refusal as its class and message. Inputs span kl,
robert, fixed masses down to 1e-12 and a table; alpha_b from 1e-300 to
0.999 and the invalid 0, 1, nan, inf and -0.5; sigma from 1e-200 to 1e200
and the invalid 0, -1, nan and inf; x near sqrt(psi) to within 40 ulps,
log-uniform up to 1e300, and x = 0. A faster path must keep the digest:
any changed bit, refusal or message moves it.
"""

import hashlib
import math
import random

from pointnull.calibration import decide, power_analytic, psi, type_i_error
from pointnull.model import Observation
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior, RobertPrior,
                              paradox_sweep)

CALLS_PER_FUNCTION = 12_000
SWEEPS, ROWS_PER_SWEEP = 300, 25
DIGEST = "f55e6c4174994e7afa6c580b73579c22077373bda287d0e89c5d1950e1e4b4b4"

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


def _line(call, *args):
    try:
        result = call(*args)
    except Exception as error:  # every refusal is part of the pinned behaviour
        return f"{type(error).__name__}: {error}"
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, list):
        return ";".join(",".join(map(float.hex, row)) for row in result)
    return f"{result.reject}{result.via_posterior}{result.via_threshold}"


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
                     _line(decide, Observation(x), sigma, alpha_b, scheme)):
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
