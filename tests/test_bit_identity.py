"""Pinned SHA-256 digests over seeded outputs of the scalar sigma path, the sigma
roots and the root finder's iterates.

Each call of psi, type_i_error, power_analytic, decide and paradox_sweep adds
one line to that function's own digest, so a mismatch names the function that
moved: every float as float.hex, every Decision as three flags (reject,
via_posterior and test_calibration.threshold_route, the rule's classical form
x^2 > psi), and every refusal as its class and message. Inputs span kl,
robert, fixed masses down to 1e-12 and a table; alpha_b from 1e-300 to 0.999
and the invalid 0, 1, nan, inf and -0.5; sigma from 1e-200 to 1e200 and the
invalid 0, -1, nan and inf; x near sqrt(psi) to within 40 ulps, log-uniform
up to 1e300, and x = 0. A faster path must keep the digests: any changed
bit, refusal or message moves one.

The same digests pin the model's posterior and Bayes factor, which decide
and paradox_sweep compose: each call of bayes_factor,
posterior_from_log_odds and posterior_h0 adds one line, from its own seeded
draws. x reaches +-1.7e308 and sigma spans 5e-324 to 1.7e308, so the x^2 term
takes its overflow route, and the log odds include +-inf and NaN.

The second set pins the sigma roots, one digest per request family (scanned
requests, kl's refusals and targets next to 1, random solves, bounds, psi
sweeps and edges): each call of solve_sigma, positivity_bound and psi_sweep
adds one line, with sigma*, psi(sigma*), the achieved alpha, the residual and
the bracket ends as float.hex, and every refusal as its class and message.
The work is pinned apart from the answers: EVALUATIONS_DIGEST holds each
solve's evaluations, the sigma at which it computed psi or h_c, so a change
that evaluates fewer re-pins only it. Every answer among them is accepted as
solve_sigma states: psi(sigma*) > 0, and h_c = (ratio/2)(psi - c_alpha)
within its rounding bound E there.
Requests span kl, robert and fixed masses on both sides of alpha_b, fixed:0.3
at a fine-pass level, fixed:0.07 with its root beyond the scan, the golden
table and the tables of test_calibration.scanned_requests, kl's refusal for
alpha_b >= 1/2 and its targets within 1e-7 of 1, and the edges: alpha_b from
5e-324 to 1 - 2^-53, and alpha from 1e-300 to within 2e-16 of 1. The proven
family holds the cells robert and fixed prove, taken or left to the scan:
robert, fixed masses from 1e-300 to 1 - 1e-15, kl and the golden table, with
alpha and alpha_b each from 1e-300 to 1 - 1e-15. The slopeless family solves
custom schemes without _log_m_slope, which Brent's method polishes: one given
by rho0 alone, one by its log prior odds alone, and test_calibration's wavy one.

The third digest pins find_root_bracketed itself: for each of a fixed set of
objectives, every x it evaluates and its return value or refusal. The
objectives reach each branch of the loop: inverse quadratic interpolation,
the secant (the first step, and products that underflow or overflow),
bisection, a step discontinuity, roots at either end, the collapse exit,
NaN at lo, at hi and inside, infinite values read as signs, no sign change,
and the Type I error curves of kl and robert that solve_sigma once polished.

Run as a script, the module prints the lines behind the named digest families
(all when none is named; "cli" is test_cli's CLI_DIGEST), one
"family<TAB>line" each, so a re-pin is quoted from a diff of two checkouts:

    PYTHONPATH=src python tests/test_bit_identity.py kl_refusals evaluations cli

With --seed (and --count), the edges, proven and slopeless families draw fresh requests, so
two checkouts are compared on solves no digest pins:

    PYTHONPATH=src python tests/test_bit_identity.py --seed 7 --count 6000 proven evaluations
"""

import functools
import hashlib
import itertools
import math
import random
from pathlib import Path

from test_calibration import WavyPrior, h_c_and_its_bound, scanned_requests, threshold_route

from pointnull import calibration
from pointnull.calibration import (CalibrationSpec, classical_threshold, decide, positivity_bound,
                                   power_analytic, psi, psi_sweep, solve_sigma, type_i_error)
from pointnull.model import (AlternativeSpread, Observation, bayes_factor, posterior_from_log_odds,
                             posterior_h0, variance_ratio)
from pointnull.numerics import Bracket, DomainError, find_root_bracketed
from pointnull.priors import (CustomTablePrior, FixedPrior, KLSelfInformationPrior, PriorScheme,
                              RobertPrior, log_m_of_sigma, paradox_sweep)

CALLS_PER_FUNCTION = 12_000
SWEEPS, ROWS_PER_SWEEP = 300, 25
DIGEST = {
    "psi": "a690f57d9af53c4ca6a5c86babccb23e5db53f2a8b5c9cb8831c927af7b76246",
    "type_i_error": "916f85c87dfc4a5474584fb9936b43aa0ea88bf2a25c2880d1299542ef3d6603",
    "power_analytic": "c3fd50d46a4381230774f63e7163f0ca5dff062980444518f6a7df4b47b457bc",
    "decide": "defef8193282a11f360955f8c47ec7d898a5a13f705a4cfd00b603b13ab9aa61",
    "paradox_sweep": "c4da0e0de0f9596711bc4f0a5eecf238ccdcc62a0b535fabad3114e3db903c89",
    "bayes_factor": "93b6e5cda6370bfa39c29726d6d40cc6e42410150a4e34f7f5a43dd64ba5529f",
    "posterior_from_log_odds": "cd70dcb687140ec4b10179df0f233bdd54b90a03300c5f47d402902e671cbc5c",
    "posterior_h0": "7ee11ae8687290a58cb70ca8be052fc6069e81aeb53b2a2b90905f987136ab95",
}
SOLVES, BOUNDS, PSI_SWEEPS, EDGES, PROVEN, SLOPELESS = 2000, 500, 300, 300, 2000, 300
ROOT_DIGEST = {
    "scanned": "26f0de50bc7f593273c6b9f7439ff9b9157cd2f7090093a29ed7c06a22d1b717",
    "kl_refusals": "7649865b77b071e0a2ba25ea2632982c76df44bb156362dd54efa45a5319208d",
    "solves": "a76e4d90db042ef267dcb46835921cb875c17d7cb4d7d802df88c9fe09ed0aca",
    "bounds": "8fe395933128d1b8bef56506522f9e11704e77fa6a9080dd20acd9a1be021dea",
    "psi_sweeps": "3dc57ef01d776f7d5a020cba8690a811a97e05d0813f6a41dfcb02c2d0f643fe",
    "edges": "da8e1f13181739e9009b09107e965ef87dded1a501afe055544938012165d18d",
    "proven": "e6c02043fa622b6d57c65d51bb783ef627c4f2520cf5450e04546a3f6d720920",
    "slopeless": "138e42951a6f3fc84af4b630fa3184195cc98991b6e8cf2acd078d016cdb2982",
}
EVALUATIONS_DIGEST = "c0b936330d95a3aff0f664dfbaa07c3d7515cbb80cb47f439be3c7024de353d5"
ROOT_FINDER_DIGEST = "0ba3a8eb30fa9de75fa3396c4a9d82edc85fcaebe35e80dd51915159a176dfe1"

TABLE = CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.35), (8.0, 0.1)))
BAD_ALPHA_BS = (0.0, 1.0, math.nan, math.inf, -0.5)
BAD_SIGMAS = (0.0, -1.0, math.nan, math.inf)
BAD_XS = (math.nan, math.inf, -math.inf)


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
        return ",".join(map(float.hex, floats))
    return result  # _decide's flags


def _model_x(rng):
    pick = rng.random()
    if pick < 0.02:
        return rng.choice(BAD_XS)
    if pick < 0.1:
        return rng.choice((0.0, 1.7e308, 1.34e154, 5e-324))
    if pick < 0.4:
        return rng.choice((rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 3.0)))
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 308.2)


def _model_sigma(rng):
    pick = rng.random()
    if pick < 0.02:
        return rng.choice(BAD_SIGMAS)
    if pick < 0.1:
        return rng.choice((5e-324, 1e-162, 1.0, 1.7e308))
    return 10.0 ** rng.choice((rng.uniform(-323.3, 308.2), rng.uniform(-3.0, 3.0)))


def _log_odds(rng):
    pick = rng.random()
    if pick < 0.1:
        return rng.choice((math.inf, -math.inf, math.nan, 0.0, 1e308, -1e308))
    signed = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 300.0)
    return rng.choice((rng.uniform(-50.0, 50.0), signed))


def _rho0(rng):
    pick = rng.random()
    if pick < 0.05:
        return rng.choice((0.0, 1.0, math.nan, -0.5, 1.0 - 2.0**-53, 5e-324))
    return rng.choice((rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-300.0, 0.0) * 0.999))


def _digests(lines):
    """{family: SHA-256 over its lines, each ended by a newline} from (family, line) pairs."""
    hashes = {}
    for family, line in lines:
        hashes.setdefault(family, hashlib.sha256()).update(line.encode() + b"\n")
    return {family: h.hexdigest() for family, h in hashes.items()}


def scalar_path_lines():
    """(family, line) for each call the scalar-path digests pin, in the order of the calls."""
    rng = random.Random(20261018)
    for _ in range(CALLS_PER_FUNCTION):
        scheme = _scheme(rng)
        alpha_b = _alpha_b(rng)
        sigma = _sigma(rng, scheme)
        x = _x(rng, sigma, alpha_b, scheme)
        yield "psi", _line(psi, sigma, alpha_b, scheme)
        yield "type_i_error", _line(type_i_error, sigma, alpha_b, scheme)
        yield "power_analytic", _line(power_analytic, x, sigma, alpha_b, scheme)
        yield "decide", _line(_decide, x, sigma, alpha_b, scheme)
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
        yield "paradox_sweep", _line(paradox_sweep, scheme, x, grid)
    rng = random.Random(20261020)
    for _ in range(CALLS_PER_FUNCTION):
        x, sigma, log_odds, rho0 = _model_x(rng), _model_sigma(rng), _log_odds(rng), _rho0(rng)

        def parts(x=x, sigma=sigma):  # inside the call, so a refused x or sigma is a line too
            return Observation(x), AlternativeSpread(sigma)

        yield "bayes_factor", _line(lambda: bayes_factor(*parts()))
        yield "posterior_from_log_odds", _line(lambda: posterior_from_log_odds(*parts(), log_odds))
        yield "posterior_h0", _line(lambda: posterior_h0(*parts(), rho0))


def test_scalar_path_outputs_are_bit_identical():
    assert _digests(scalar_path_lines()) == DIGEST


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


def sigma_root_calls():
    """(family, call, args) for each sigma-root request, in order; each solve calls _solve."""
    rng = random.Random(20261019)
    for spec in scanned_requests():
        yield "scanned", _solve, (spec.alpha, spec.alpha_b, spec.scheme)
    kl = KLSelfInformationPrior()
    for alpha_b in (0.5, 0.6, 0.999):
        yield "kl_refusals", _solve, (0.05, alpha_b, kl)
    for alpha_b in (0.01, 0.05, 0.3):
        for gap in (1e-7, 3e-8, 1e-8, 1e-9, 1e-12):
            yield "kl_refusals", _solve, (1.0 - gap, alpha_b, kl)
    for _ in range(SOLVES):
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.7),
                              10.0 ** rng.uniform(-12, -1)))
        alpha = rng.choice((10.0 ** rng.uniform(-12.0, -0.3), rng.uniform(0.001, 0.999)))
        yield "solves", _solve, (alpha, alpha_b, _root_scheme(rng, alpha_b))
    for _ in range(BOUNDS):
        alpha_b = rng.choice((rng.uniform(1e-3, 0.999), 10.0 ** rng.uniform(-300.0, -1.0)))
        yield "bounds", positivity_bound, (alpha_b, _root_scheme(rng, alpha_b))
    for _ in range(PSI_SWEEPS):
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.9),
                              10.0 ** rng.uniform(-12, -1)))
        scheme = _root_scheme(rng, alpha_b)
        if scheme is GOLDEN_TABLE:
            grid = sorted(rng.uniform(0.5, 8.0) for _ in range(ROWS_PER_SWEEP))
        else:
            lo = rng.uniform(-3.0, 2.0)
            grid = [10.0 ** (lo + 3.0 * k / ROWS_PER_SWEEP) for k in range(ROWS_PER_SWEEP)]
        yield "psi_sweeps", psi_sweep, (scheme, alpha_b, grid)
    yield from (("edges", _solve, args) for args in edge_requests())


EDGE_ALPHA_BS = (5e-324, 1e-300, 1e-30, 0.05, 0.5, 0.999999, 1.0 - 2.0**-53)
EDGE_SCHEMES = (KLSelfInformationPrior(), RobertPrior(), FixedPrior(0.3), FixedPrior(0.01),
                FixedPrior(0.9), GOLDEN_TABLE)


def edge_requests(count=EDGES, seed=20261021):
    """(alpha, alpha_b, scheme) at the ends of alpha_b's range, over the built-in schemes and the
    golden table; alpha log-uniform from 1e-300, uniform, or within 1e-1 to 1.3e-16 of 1."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = rng.choice((10.0 ** rng.uniform(-300.0, -0.3), rng.uniform(0.001, 0.999),
                            1.0 - 10.0 ** rng.uniform(-15.9, -1.0)))
        yield alpha, rng.choice(EDGE_ALPHA_BS), rng.choice(EDGE_SCHEMES)


def proven_requests(count=PROVEN, seed=20261022):
    """(alpha, alpha_b, scheme) where robert and fixed may prove a cell, with kl and the golden
    table beside them: fixed masses, alpha and alpha_b each log-uniform from 1e-300, uniform, or
    within 1e-1 to 1e-15 of 1."""
    rng = random.Random(seed)

    def prob():
        return rng.choice((10.0 ** rng.uniform(-300.0, -0.3), rng.uniform(0.001, 0.999),
                           1.0 - 10.0 ** rng.uniform(-15.0, -1.0)))

    for _ in range(count):
        alpha, alpha_b, kind = prob(), prob(), rng.randrange(5)
        scheme = (FixedPrior(prob()) if kind < 2 else
                  (RobertPrior(), KLSelfInformationPrior(), GOLDEN_TABLE)[kind - 2])
        yield alpha, alpha_b, scheme


class RhoOnlyPrior(PriorScheme):
    """A null mass that falls with sigma, given by rho0 alone: the base class takes its log odds."""

    __slots__ = ()
    scheme_id = "rho-only"

    def rho0(self, sigma):
        return 0.5 / (1.0 + sigma)


class OddsOnlyPrior(PriorScheme):
    """Log prior odds 3/4 log1p(sigma), given alone: log m rises, then falls, as sigma grows."""

    __slots__ = ()
    scheme_id = "odds-only"

    def log_prior_odds(self, sigma):
        if not 0.0 < sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
        return 0.75 * math.log1p(sigma)


SLOPELESS_SCHEMES = (RhoOnlyPrior(), OddsOnlyPrior(), WavyPrior())


def slopeless_requests(count=SLOPELESS, seed=20261023):
    """(alpha, alpha_b, scheme) over three custom schemes without _log_m_slope, whose roots
    Brent's method finds: alpha log-uniform from 1e-300, uniform, or within 1e-1 to 1e-15 of 1,
    alpha_b as in the solves family."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = rng.choice((10.0 ** rng.uniform(-300.0, -0.3), rng.uniform(0.001, 0.999),
                            1.0 - 10.0 ** rng.uniform(-15.0, -1.0)))
        alpha_b = rng.choice((0.01, 0.05, 0.1, rng.uniform(1e-3, 0.9),
                              10.0 ** rng.uniform(-12.0, -1.0)))
        yield alpha, alpha_b, rng.choice(SLOPELESS_SCHEMES)


def sigma_root_lines():
    """(family, line) for each sigma-root call, and ("evaluations", count) after each answer."""
    counts = []

    def solve(*args):
        result = _solve(*args)
        counts.append(f"{result.evaluations}")
        return result

    proven = (("proven", _solve, args) for args in proven_requests())
    slopeless = (("slopeless", _solve, args) for args in slopeless_requests())
    for family, call, args in itertools.chain(sigma_root_calls(), proven, slopeless):
        line = _line(solve if call is _solve else call, *args)
        yield from (("evaluations", count) for count in counts)
        counts.clear()
        yield family, line


@functools.cache
def sigma_root_digests():
    """(the answer digest of each family, the digest of every solve's evaluation count)."""
    digests = _digests(sigma_root_lines())
    return {family: digests[family] for family in ROOT_DIGEST}, digests["evaluations"]


def test_sigma_roots_are_bit_identical():
    assert sigma_root_digests()[0] == ROOT_DIGEST


def test_sigma_root_evaluation_counts_are_pinned():
    assert sigma_root_digests()[1] == EVALUATIONS_DIGEST


def test_every_sigma_root_answer_has_positive_psi_and_meets_alpha():
    """Each sigma* solve_sigma returns for the sigma-root requests: psi > 0 there, and h_c, whose
    root is where the error meets alpha, within its stated bound E (h_c_and_its_bound). Every
    other request is refused. 36 answers are fixed targets that the scan refuses: 35 edges whose
    roots lie past its last point 1e12, and fixed:0.3 at alpha = 0.007441, next to its peak."""
    answered = 0
    for _, call, args in sigma_root_calls():
        if call is not _solve:
            continue
        try:
            spec = CalibrationSpec(*args)
            result = solve_sigma(spec)
        except DomainError:
            continue
        h_c, stated = h_c_and_its_bound(spec, result)
        assert result.psi_at_sigma > 0.0, (*args[:2], args[2].scheme_id)
        assert h_c <= stated, (*args[:2], args[2].scheme_id)
        answered += 1
    assert answered == 1506


def test_every_answer_passes_the_predicate_that_takes_a_proven_cell():
    """Each sigma* solve_sigma returns for the sigma-root and proven requests: psi > 0 there, and
    calibration._h_past_rounding, which also decides whether a proven cell is the bracket, reads
    h_c there as 0, with log m as computed."""
    proven = (("proven", _solve, args) for args in proven_requests())
    answered = 0
    for _, call, args in itertools.chain(sigma_root_calls(), proven):
        if call is not _solve:
            continue
        try:
            result = _solve(*args)
        except DomainError:
            continue
        alpha, alpha_b, scheme = args
        sigma, level, c = (result.sigma_star, calibration._log_rejection_odds(alpha_b),
                           classical_threshold(alpha))
        h_c = calibration._h_past_rounding(level, c, log_m_of_sigma(scheme, sigma),
                                           variance_ratio(sigma))
        assert result.psi_at_sigma > 0.0 and h_c == 0.0, (alpha, alpha_b, scheme.scheme_id)
        answered += 1
    assert answered == 1506 + 608  # the sigma-root requests' and the proven family's


def _step(at):
    return lambda x: -1.0 if x < at else 1.0


def _nan_at(bad, f):
    return lambda x: math.nan if x == bad else f(x)


# (objective, lo, hi); the kl and robert rows are the Type I error curves whose roots Brent's
# method once polished for solve_sigma, before its Newton steps on h_c, for alpha = 0.01 and
# 0.02 at alpha_b = 0.05 on the brackets their schemes return.
ROOT_FINDER_CASES = (
    (lambda x: x * x - 2.0, 0.0, 2.0),  # inverse quadratic steps
    (math.cos, 1.0, 2.0),
    (lambda x: x**3 - 2.0, 0.0, 3.0),
    (lambda x: 1e-160 * (x**3 - 2.0), 0.0, 3.0),  # denominators underflow
    (lambda x: 1e-200 * (x**3 - 2.0), 0.0, 3.0),
    (lambda x: 1e-300 * (x**3 - 2.0), 0.0, 3.0),
    (lambda x: 1.7e308 * math.tanh(4.0 * (x - 0.3)), -1.0, 1.0),  # they overflow
    (lambda x: math.floor(4.0 * x) / 4.0 - 1.1, 0.0, 3.0),  # f values repeat
    (lambda x: (x - 1.0) ** 9, 0.0, 3.0),  # bisection
    (lambda x: math.copysign(abs(x - 0.7) ** 0.1, x - 0.7), 0.0, 3.0),
    (_step(1.7), 0.0, 3.0),  # step discontinuity
    (_step(3.0), 2.0, 4.0),  # ends adjacent floats
    (lambda x: x - 1.0, 1.0, 5.0),  # root at lo
    (lambda x: x - 5.0, 1.0, 5.0),  # root at hi
    (lambda x: x - 5.0 + 1e-13, 1.0, 5.0),  # root just inside hi
    (_nan_at(0.0, lambda x: x - 0.5), 0.0, 1.0),  # NaN at lo
    (_nan_at(1.0, lambda x: x - 0.5), 0.0, 1.0),  # at hi
    (lambda x: math.nan, 0.0, 1.0),  # at both: lo is refused
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0),  # inside
    (lambda x: math.inf if x > 0.9 else x - 0.5, 0.0, 1.0),  # +inf read as a sign
    (lambda x: -math.inf if x < 2.5 else 1.0, 0.0, 5.0),  # -inf up to a jump
    (lambda x: -math.inf if x < 0.3 else math.inf, 0.0, 1.0),  # infinite at both ends
    (lambda x: x * x + 1.0, -1.0, 1.0),  # no sign change
    (lambda s: type_i_error(s, 0.05, KLSelfInformationPrior()) - 0.01,
     0.7594447199950886, 2.845487786545588),
    (lambda s: type_i_error(s, 0.05, RobertPrior()) - 0.02, 1.0, 10.0),
)


def root_finder_lines():
    """("root_finder", line) per case: every x find_root_bracketed evaluates, then its result."""
    for f, lo, hi in ROOT_FINDER_CASES:
        xs = []

        def traced(x, f=f):
            xs.append(x)
            return f(x)

        result = _line(find_root_bracketed, traced, Bracket(lo, hi))
        yield "root_finder", ",".join(map(float.hex, xs)) + f"|{result}"


def test_root_finder_iterates_are_bit_identical():
    assert _digests(root_finder_lines()) == {"root_finder": ROOT_FINDER_DIGEST}


def _cli_lines():
    """("cli", line) per argv of test_cli.test_cli_text_is_pinned, run with COLUMNS=80."""
    import os
    import tempfile

    from test_cli import cli_lines

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        yield from (("cli", line) for line in cli_lines(Path(tmp)))


FAMILIES = {**dict.fromkeys(DIGEST, scalar_path_lines),
            **dict.fromkeys([*ROOT_DIGEST, "evaluations"], sigma_root_lines),
            "root_finder": root_finder_lines, "cli": _cli_lines}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print the lines behind the digest families.")
    parser.add_argument("families", nargs="*", help=f"any of {', '.join(FAMILIES)} (all if none)")
    parser.add_argument("--seed", type=int, help="draw the edges, proven and slopeless requests "
                        "from this seed, in place of the pinned ones")
    parser.add_argument("--count", type=int, help="with --seed, the requests of each of them")
    options = parser.parse_args()
    if options.seed is not None:  # fresh requests: compare two checkouts, not the digests
        edge_requests = functools.partial(edge_requests, options.count or EDGES, options.seed)
        proven_requests = functools.partial(proven_requests, options.count or PROVEN, options.seed)
        slopeless_requests = functools.partial(slopeless_requests, options.count or SLOPELESS,
                                               options.seed)
    wanted = options.families or list(FAMILIES)
    for source in dict.fromkeys(FAMILIES[family] for family in wanted):
        for family, line in source():
            if family in wanted:
                print(f"{family}\t{line}")
