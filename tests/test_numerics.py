"""Scalar numerics against extended-precision references and basic identities."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointnull.numerics import (
    Bracket,
    BracketError,
    DomainError,
    EvaluationError,
    _check_sigma,
    find_root_bracketed,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from quadrature import PANEL_CAP, QuadratureAccuracyError, integrate_adaptive

mp.mp.dps = 50

# Reference values computed once at 50-digit precision and frozen.
PDF_AT_0 = 0.39894228040143267794
PDF_AT_1 = 0.2419707245191433498
CDF_AT_196 = 0.97500210485177956586
CDF_AT_M8 = 6.2209605742717841235e-16
QUANTILE_975 = 1.9599639845400542355
QUANTILE_2_POW_M54 = -8.2923610758135955382


def grid(lo, hi, step):
    n = round((hi - lo) / step)
    return [lo + i * step for i in range(n + 1)]


# ---------------------------------------------------------------- pdf / cdf


def test_pdf_reference_values():
    assert std_normal_pdf(0.0) == pytest.approx(PDF_AT_0, rel=1e-15)
    assert std_normal_pdf(1.0) == pytest.approx(PDF_AT_1, rel=1e-15)
    assert std_normal_pdf(-1.0) == std_normal_pdf(1.0)


def test_pdf_rejects_nonfinite():
    with pytest.raises(DomainError):
        std_normal_pdf(math.inf)
    with pytest.raises(DomainError):
        std_normal_pdf(math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checks_refuse_nonfinite_values_with_their_messages(bad):
    with pytest.raises(DomainError) as caught:
        _check_sigma(bad)
    assert str(caught.value) == f"sigma must be finite and positive, got {bad}"
    with pytest.raises(DomainError) as caught:
        std_normal_cdf(bad)
    assert str(caught.value) == f"z must be finite, got {bad}"


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
def test_sigma_check_refuses_zero_and_negatives(bad):
    with pytest.raises(DomainError) as caught:
        _check_sigma(bad)
    assert str(caught.value) == f"sigma must be finite and positive, got {bad}"


def test_checks_accept_the_float_extremes_and_an_int():
    for good in (5e-324, 1.7976931348623157e308, 3):
        assert _check_sigma(good) is good
    assert std_normal_cdf(5e-324) == std_normal_cdf(-5e-324) == 0.5
    assert std_normal_cdf(1.7976931348623157e308) == 1.0
    assert std_normal_cdf(-1.7976931348623157e308) == 0.0
    assert std_normal_cdf(3) == std_normal_cdf(3.0) > 0.998


def test_cdf_reference_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.96) == pytest.approx(CDF_AT_196, rel=1e-15)
    assert std_normal_cdf(-8.0) == pytest.approx(CDF_AT_M8, rel=1e-13)


def test_cdf_absolute_error_against_mpmath():
    """|cdf(z) - Phi(z)| <= 1e-14 across [-8.5, 8.5]."""
    for z in grid(-8.5, 8.5, 0.125):
        exact = mp.mpf(0.5) * mp.erfc(-mp.mpf(z) / mp.sqrt(2))
        assert abs(std_normal_cdf(z) - float(exact)) <= 1e-14


def test_cdf_symmetry_identity():
    """cdf(z) + cdf(-z) = 1 within 1e-15 for |z| <= 8."""
    for z in grid(-8.0, 8.0, 0.0625):
        assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-15


@given(st.floats(-38.0, 38.0), st.floats(-38.0, 38.0))
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert std_normal_cdf(lo) <= std_normal_cdf(hi)


# ----------------------------------------------------------------- quantile


def test_quantile_reference_values():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(QUANTILE_975, rel=1e-14)
    assert std_normal_quantile(2.0**-54) == pytest.approx(QUANTILE_2_POW_M54, rel=1e-13)


def test_quantile_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.25, 1.5, math.nan):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
def test_quantile_antisymmetry_exact(p):
    assert std_normal_quantile(p) == -std_normal_quantile(1.0 - p)


@given(st.floats(1e-12, 1.0, exclude_max=True))
@settings(max_examples=300)
def test_cdf_of_quantile_recovers_p(p):
    assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12


def test_quantile_cdf_roundtrip_inside_float_resolution():
    """quantile(cdf(z)) = z within 1e-10 wherever cdf retains that much information."""
    for z in grid(-6.0, 5.25, 0.25):
        assert abs(std_normal_quantile(std_normal_cdf(z)) - z) <= 1e-10, z


def test_quantile_cdf_roundtrip_full_stated_range():
    """quantile(cdf(z)) = z within 1e-10 on the whole grid z in [-6, 6].

    Held at the stated tolerance deliberately. cdf values at z >= 5.5 sit so
    close to 1 that a float64 carries too few bits for any inverse to get
    back within 1e-10: the rounding of cdf(z) alone displaces the true
    inverse by |fl(p) - p| / pdf(z), which is 1.1e-10 at z = 5.5, 1.7e-9 at
    z = 5.75, and 9.1e-9 at z = 6.0. The quantile is within 7 ulp of the
    true inverse of the rounded input (tests/test_accuracy.py), which near
    z = 6 is below 1e-14, so these three grid points fail at the floor for
    information-theoretic reasons, not implementation ones.
    """
    worst = max(
        abs(std_normal_quantile(std_normal_cdf(z)) - z) for z in grid(-6.0, 6.0, 0.25)
    )
    assert worst <= 1e-10


FALLBACK = """
import json, sys
sys.modules["_statistics"] = None  # as on an interpreter without CPython's accelerator
from pointnull.calibration import classical_threshold
from pointnull.numerics import DomainError, std_normal_quantile
import statistics


def threshold(alpha):
    try:
        return classical_threshold(alpha).hex()
    except DomainError:  # alpha = 5e-324
        return None


ps = [float.fromhex(h) for h in json.load(sys.stdin)]
print(json.dumps({"module": statistics._normal_dist_inv_cdf.__module__,
                  "quantiles": [std_normal_quantile(p).hex() for p in ps],
                  "thresholds": [threshold(p) for p in ps]}))
"""


def test_quantile_without_the_accelerator_has_its_bits():
    """Where _statistics is missing, NormalDist's Python inv_cdf answers bit for bit as the C one."""
    from pointnull.calibration import classical_threshold

    accelerated = pytest.importorskip("_statistics")._normal_dist_inv_cdf
    rng = random.Random(43)
    ps = [5e-324, 1e-320, 2.0**-1022, 0.5, 1.0 - 2.0**-53]
    ps += [rng.random() for _ in range(500)] + [2.0 ** -rng.uniform(1.0, 1074.0) for _ in range(500)]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", FALLBACK], input=json.dumps([p.hex() for p in ps]),
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["module"] == "statistics"  # the pure-Python quantile answered
    assert seen["quantiles"] == [accelerated(p, 0.0, 1.0).hex() for p in ps]
    assert seen["quantiles"] == [std_normal_quantile(p).hex() for p in ps]
    assert seen["thresholds"] == [None] + [classical_threshold(p).hex() for p in ps[1:]]


# --------------------------------------------------------------- quadrature


def test_quadrature_polynomial_is_exact():
    for k in (0, 1, 2, 5, 9, 13):
        res = integrate_adaptive(lambda x, k=k: x**k, Bracket(0.0, 1.0), 1e-12)
        assert res.value == pytest.approx(1.0 / (k + 1), abs=5e-15)
        assert res.subdivisions == 1


def test_quadrature_normal_density_mass():
    res = integrate_adaptive(std_normal_pdf, Bracket(-10.0, 10.0), 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.abs_error_estimate <= 1e-12


def test_quadrature_oscillatory():
    res = integrate_adaptive(lambda x: math.sin(50.0 * x), Bracket(0.0, 10.0), 1e-11)
    exact = (1.0 - math.cos(500.0)) / 50.0
    assert res.value == pytest.approx(exact, abs=1e-10)
    assert res.subdivisions > 1


@given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_quadrature_matches_cdf_difference(a, b):
    lo, hi = min(a, b), max(a, b)
    if hi - lo < 1e-6:
        return
    res = integrate_adaptive(std_normal_pdf, Bracket(lo, hi), 1e-12)
    assert res.value == pytest.approx(std_normal_cdf(hi) - std_normal_cdf(lo), abs=1e-11)


def test_quadrature_panel_cap(monkeypatch):
    import quadrature

    assert PANEL_CAP == 10**6
    monkeypatch.setattr(quadrature, "PANEL_CAP", 8)
    with pytest.raises(QuadratureAccuracyError) as excinfo:
        integrate_adaptive(
            lambda x: math.sqrt(abs(x)), Bracket(-1.0, 1.0), 1e-15
        )
    best = excinfo.value.result
    assert best.subdivisions == 8
    assert best.value == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_quadrature_rejects_nonfinite_integrand():
    with pytest.raises(EvaluationError):
        integrate_adaptive(
            lambda x: math.inf if abs(x) < 0.1 else 1.0, Bracket(-1.0, 1.0), 1e-9
        )


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        integrate_adaptive(std_normal_pdf, Bracket(0.0, 1.0), 0.0)


# -------------------------------------------------------------- root finder


def test_bracket_validation():
    with pytest.raises(DomainError):
        Bracket(2.0, 1.0)
    with pytest.raises(DomainError):
        Bracket(0.0, math.inf)


def test_root_simple():
    root = find_root_bracketed(lambda x: x * x - 2.0, Bracket(0.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    root = find_root_bracketed(math.cos, Bracket(1.0, 2.0))
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_root_at_endpoint_returned_immediately():
    assert find_root_bracketed(lambda x: x - 1.0, Bracket(1.0, 5.0)) == 1.0


def test_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))


def test_root_rejects_nonfinite_f():
    with pytest.raises(EvaluationError):
        find_root_bracketed(
            lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, Bracket(0.0, 1.0)
        )


def test_root_step_discontinuity_terminates():
    """A jump with no zero still terminates at machine resolution."""
    f = lambda x: -1.0 if x < 1.7 else 1.0
    root = find_root_bracketed(f, Bracket(0.0, 3.0))
    assert root == pytest.approx(1.7, abs=1e-12)


def test_root_returns_where_the_ends_are_adjacent_floats_wider_than_xtol():
    """The collapse exit: no float lies between 3.0 and its neighbour."""
    xs = []

    def step(x):
        xs.append(x)
        return -1.0 if x < 3.0 else 1.0

    assert find_root_bracketed(step, Bracket(2.0, 4.0)) == 3.0
    assert len(xs) == 54


def test_root_reads_an_infinite_value_as_its_sign():
    """-inf below 2.5 and +1 from there: the jump is found by bisection, inside the bracket."""
    xs = []

    def jump(x):
        xs.append(x)
        return -math.inf if x < 2.5 else 1.0

    assert find_root_bracketed(jump, Bracket(0.0, 5.0)) == 2.5
    assert len(xs) == 55
    assert all(0.0 <= x <= 5.0 for x in xs)


SHAPES = (lambda t: t, lambda t: t**3, lambda t: t**3 + t, lambda t: t / (1.0 + abs(t)),
          lambda t: math.tanh(40.0 * t), lambda t: -1.0 if t < 0.0 else 1.0,
          lambda t: math.copysign(abs(t) ** 0.1, t), lambda t: t * (1.0 + 0.9 * math.sin(30.0 * t)))


@given(st.floats(-1e6, 1e6), st.floats(-12.0, 6.0), st.floats(0.0, 1.0),
       st.sampled_from(range(len(SHAPES))), st.floats(-300.0, 300.0), st.booleans())
@settings(max_examples=300, derandomize=True)
def test_root_evaluates_only_inside_the_bracket(lo, log_width, share, shape, log_scale, flip):
    hi = max(lo + 10.0**log_width, math.nextafter(lo, math.inf))
    root = lo + share * (hi - lo)
    scale = (-1.0 if flip else 1.0) * 10.0**log_scale
    xs = []

    def f(x):
        xs.append(x)
        return scale * SHAPES[shape](x - root)

    try:
        found = find_root_bracketed(f, Bracket(lo, hi))
    except BracketError:  # a jump at lo changes no sign; an overflow to +-inf is a sign
        found = lo
    assert all(lo <= x <= hi for x in xs)
    assert lo <= found <= hi


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_root_survives_interpolation_denominators_that_underflow(scale):
    """(fa - fb)(fa - fc) underflows to 0 here; the step falls back to the secant."""
    root = find_root_bracketed(lambda x: scale * (x**3 - 2.0), Bracket(0.0, 3.0))
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)


@given(st.floats(-5.0, 5.0), st.floats(0.1, 3.0))
@settings(max_examples=100)
def test_root_monotone_cubic(center, scale):
    f = lambda x: (x - center) ** 3 + scale * (x - center)
    root = find_root_bracketed(f, Bracket(center - 7.0, center + 9.0))
    assert abs(f(root)) <= 1e-9
    assert root == pytest.approx(center, abs=1e-7)
