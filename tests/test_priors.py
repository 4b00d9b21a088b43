"""Prior-weight schemes, the odds-to-evidence map m(sigma), and regime classification."""

import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointnull import priors
from pointnull.model import (AlternativeSpread, Observation, _exp_or_inf, _stable_inv_logistic,
                             _x2_term, posterior_from_log_odds, posterior_h0)
from pointnull.numerics import DomainError, _check_sigma
from pointnull.priors import (
    SQRT_TWO_PI,
    CustomTablePrior,
    FixedPrior,
    KLSelfInformationPrior,
    PriorScheme,
    Regime,
    RobertPrior,
    SchemeParseError,
    TableRangeError,
    UnsupportedSchemeError,
    classify_regime,
    log_m_of_sigma,
    m_of_sigma,
    paradox_sweep,
    scheme_from_string,
)

# Frozen extended-precision references.
RHO_ROBERT_AT_1 = 0.28517422483431870054  # 1/(1 + sqrt(2 pi))
M_ROBERT_AT_1 = 1.7724538509055160273  # sqrt(pi)
M_KL_AT_2 = 3.3044863453536690043  # e^2 / sqrt(5)
LOG_M_KL_AT_10 = 47.692439741579370275
LOG_M_KL_AT_1000 = 499993.09224422101811


def geometric_grid(lo, hi, n):
    step = (hi / lo) ** (1.0 / (n - 1))
    return [lo * step**k for k in range(n)]


# ---------------------------------------------------------------------------
# rho0 values


def test_fixed_prior_is_constant():
    scheme = FixedPrior(0.3)
    for sigma in (0.01, 1.0, 1e5):
        assert scheme.rho0(sigma) == 0.3


def test_fixed_log_prior_odds_are_the_base_formula_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(2000):
        rho = rng.choice((rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-300.0, 0.0)))
        if not 0.0 < rho < 1.0:
            continue
        scheme, sigma = FixedPrior(rho), 10.0 ** rng.uniform(-300.0, 300.0)
        assert scheme.log_prior_odds(sigma) == PriorScheme.log_prior_odds(scheme, sigma)


@pytest.mark.parametrize("method", ("log_prior_odds", "rho0"))
@pytest.mark.parametrize("scheme", (KLSelfInformationPrior(), RobertPrior(), FixedPrior(0.3)),
                         ids=lambda scheme: scheme.scheme_id)
def test_builtin_schemes_refuse_sigma_outside_the_domain_as_check_sigma_does(scheme, method):
    """One comparison admits sigma; a refusal is _check_sigma's own, message and type."""
    evaluate = getattr(scheme, method)
    for bad in (0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError) as expected:
            _check_sigma(bad)
        with pytest.raises(DomainError) as refused:
            evaluate(bad)
        assert type(refused.value) is DomainError
        assert str(refused.value) == str(expected.value), bad
    for good in (5e-324, 1.7e308):
        assert not math.isnan(evaluate(good)), good


def test_a_scheme_with_only_rho0_still_refuses_sigma_outside_the_domain():
    """The base log_prior_odds checks sigma, which log_m_of_sigma leaves to it."""

    class Unchecked(PriorScheme):
        scheme_id = "unchecked"

        def rho0(self, sigma):
            return 0.5

    assert log_m_of_sigma(Unchecked(), 1.0) == -0.5 * math.log(2.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="sigma"):
            Unchecked().log_prior_odds(bad)
        with pytest.raises(DomainError, match="sigma"):
            log_m_of_sigma(Unchecked(), bad)


def test_the_base_log_prior_odds_admits_sigma_with_one_comparison(monkeypatch):
    """Tables and rho0-only schemes call _check_sigma only to refuse, with its own message."""

    class RhoOnly(PriorScheme):
        scheme_id = "rho-only"

        def rho0(self, sigma):
            return 0.5 / (1.0 + sigma)

    table = CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv"))
    calls = []

    def counting_check_sigma(sigma):
        calls.append(sigma)
        return _check_sigma(sigma)

    monkeypatch.setattr(priors, "_check_sigma", counting_check_sigma)
    rng = random.Random(37)
    valid = {table: [0.5, 8.0] + [rng.uniform(0.5, 8.0) for _ in range(998)],
             RhoOnly(): [5e-324, 1.7e308] + [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(998)]}
    for scheme, sigmas in valid.items():
        for sigma in sigmas:
            assert not math.isnan(log_m_of_sigma(scheme, sigma)), (scheme, sigma)
        assert calls == [], scheme
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError) as expected:
                _check_sigma(bad)
            with pytest.raises(DomainError) as refused:
                log_m_of_sigma(scheme, bad)
            assert type(refused.value) is DomainError
            assert str(refused.value) == str(expected.value), (scheme, bad)
        assert len(calls) == 4, scheme
        calls.clear()


def test_robert_rho0_reference():
    assert RobertPrior().rho0(1.0) == pytest.approx(RHO_ROBERT_AT_1, rel=1e-15)


def test_kl_rho0_limits():
    scheme = KLSelfInformationPrior()
    assert scheme.rho0(1e-8) == pytest.approx(0.5, abs=1e-15)
    # Far out the weight underflows; callers are told to expect exactly zero.
    assert scheme.rho0(100.0) == 0.0
    # Past sigma^2 overflow (about 1.34e154) the mass is 0, and so it stays once the
    # log odds are inf (about 1.9e154).
    assert scheme.rho0(1.35e154) == 0.0
    assert scheme.rho0(1.7e308) == 0.0


def test_rho0_always_a_probability():
    for scheme in (FixedPrior(0.7), RobertPrior(), KLSelfInformationPrior()):
        for sigma in geometric_grid(1e-3, 1e3, 25):
            assert 0.0 <= scheme.rho0(sigma) < 1.0


# ---------------------------------------------------------------------------
# m(sigma)


def test_m_reference_values():
    assert m_of_sigma(RobertPrior(), 1.0) == pytest.approx(M_ROBERT_AT_1, rel=1e-14)
    assert m_of_sigma(KLSelfInformationPrior(), 2.0) == pytest.approx(M_KL_AT_2, rel=1e-14)


def test_log_m_reference_values():
    assert log_m_of_sigma(KLSelfInformationPrior(), 10.0) == pytest.approx(
        LOG_M_KL_AT_10, rel=1e-14
    )
    assert log_m_of_sigma(KLSelfInformationPrior(), 1000.0) == pytest.approx(
        LOG_M_KL_AT_1000, rel=1e-14
    )


def test_m_overflows_to_inf_not_error():
    assert m_of_sigma(KLSelfInformationPrior(), 100.0) == math.inf
    assert m_of_sigma(KLSelfInformationPrior(), 40.0) == math.inf  # log m = 796.3
    assert classify_regime(KLSelfInformationPrior()).evidence.m_values == (math.inf, math.inf)


def _exp_overflows(t):
    try:
        math.exp(t)
    except OverflowError:
        return True
    return False


def test_exp_or_inf_is_exp_up_to_the_last_finite_exponent_and_inf_past_it():
    t = math.log(sys.float_info.max)  # the last finite exponent lies within an ulp or two
    while not _exp_overflows(math.nextafter(t, math.inf)):
        t = math.nextafter(t, math.inf)
    while _exp_overflows(t):
        t = math.nextafter(t, -math.inf)
    assert 709.78 < t < 709.79
    assert _exp_or_inf(t) == math.exp(t) < math.inf
    for past in (math.nextafter(t, math.inf), 709.79, 1e308, math.inf):
        assert _exp_or_inf(past) == math.inf, past
    assert math.isnan(_exp_or_inf(math.nan))
    assert _exp_or_inf(-math.inf) == 0.0


def test_kl_past_the_float_range_of_sigma_squared_is_inf_not_error():
    scheme = KLSelfInformationPrior()
    assert scheme.log_prior_odds(1e154) == 0.5 * 1e154**2
    # sigma^2 overflows from about 1.34e154, but sigma^2 / 2 only from about 1.9e154.
    assert scheme.log_prior_odds(1.35e154) == 0.5 * 1.35e154 * 1.35e154 < math.inf
    for sigma in (1.9e154, 1e200, 1.7e308):
        assert scheme.log_prior_odds(sigma) == math.inf
        assert scheme.rho0(sigma) == 0.0
        assert log_m_of_sigma(scheme, sigma) == math.inf


@given(st.floats(1e-3, 20.0), st.sampled_from(["fixed", "robert", "kl"]))
@settings(max_examples=300)
def test_m_satisfies_defining_identity(sigma, kind):
    """m rho0 sqrt(1+sigma^2) == 1 - rho0: the definition, recovered at float precision."""
    scheme = {"fixed": FixedPrior(0.37), "robert": RobertPrior(), "kl": KLSelfInformationPrior()}[
        kind
    ]
    rho = scheme.rho0(sigma)
    m = m_of_sigma(scheme, sigma)
    assert m * rho * math.sqrt(1.0 + sigma * sigma) == pytest.approx(1.0 - rho, rel=1e-12)


def test_log_m_and_m_round_trip():
    for scheme in (FixedPrior(0.5), RobertPrior(), KLSelfInformationPrior()):
        for sigma in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert math.exp(log_m_of_sigma(scheme, sigma)) == pytest.approx(
                m_of_sigma(scheme, sigma), rel=1e-13
            )


def test_robert_m_increasing_and_bounded():
    grid = geometric_grid(1e-3, 1e6, 60)
    values = [m_of_sigma(RobertPrior(), s) for s in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < SQRT_TWO_PI for v in values)
    assert values[-1] == pytest.approx(SQRT_TWO_PI, rel=1e-6)


def test_kl_log_m_increasing_and_unbounded():
    grid = geometric_grid(0.1, 1e6, 60)
    values = [log_m_of_sigma(KLSelfInformationPrior(), s) for s in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1e3


def test_fixed_m_vanishes_like_odds_over_sigma():
    for rho in (0.5, 0.2):
        odds = (1.0 - rho) / rho
        sigma = 1e6
        assert abs(sigma * m_of_sigma(FixedPrior(rho), sigma) - odds) < 1e-6


# ---------------------------------------------------------------------------
# regime classification


def test_classify_fixed_is_vanishing():
    classified = classify_regime(FixedPrior(0.5))
    assert classified.regime.kind == "vanishing"
    assert classified.regime.case_label == "i"
    assert classified.regime.limit is None


def test_classify_robert_is_finite_with_limit():
    classified = classify_regime(RobertPrior())
    assert classified.regime.kind == "finite"
    assert classified.regime.case_label == "ii"
    assert classified.regime.limit == pytest.approx(SQRT_TWO_PI, rel=1e-12)


def test_classify_kl_is_divergent():
    classified = classify_regime(KLSelfInformationPrior())
    assert classified.regime.kind == "divergent"
    assert classified.regime.case_label == "iii"


def test_classify_table_scheme_unsupported():
    table = CustomTablePrior(((0.5, 0.5), (2.0, 0.4)))
    with pytest.raises(UnsupportedSchemeError):
        classify_regime(table)


@pytest.mark.parametrize("scheme", [FixedPrior(0.5), RobertPrior(), KLSelfInformationPrior()],
                         ids=["fixed", "robert", "kl"])
def test_builtin_probes_agree_with_the_declared_regime(scheme):
    """A built-in scheme whose numbers drift from its label fails here, not at run time.

    The probe constants the library once checked at run time: vanishing needs m(1e6) < 1e-3
    and still falling, finite needs m(1e6) within 1e-6 relative of the limit, divergent needs
    log m(1e6) > 1e3.
    """
    classified = classify_regime(scheme)
    regime, evidence = classified.regime, classified.evidence
    assert evidence.sigma_probes == (1.0e3, 1.0e6)
    ms, log_ms = evidence.m_values, evidence.log_m_values
    assert ms == tuple(m_of_sigma(scheme, s) for s in evidence.sigma_probes)
    assert log_ms == tuple(log_m_of_sigma(scheme, s) for s in evidence.sigma_probes)
    if regime.kind == "vanishing":
        assert ms[1] < 1.0e-3 and ms[1] < ms[0]
    elif regime.kind == "finite":
        assert abs(ms[1] - regime.limit) < 1.0e-6 * regime.limit
    else:
        assert log_ms[1] > 1.0e3


def test_classify_reports_a_slowly_vanishing_custom_scheme():
    """Odds sigma^0.9 give m ~ sigma^-0.1 -> 0, though m(1e6) is still about 0.25."""

    class SlowPrior(PriorScheme):
        def rho0(self, sigma):
            return 1.0 / (1.0 + sigma**0.9)

        def declared_regime(self):
            return Regime("vanishing")

        @property
        def scheme_id(self):
            return "slow"

    classified = classify_regime(SlowPrior())
    assert classified.regime.kind == "vanishing"
    ms = classified.evidence.m_values
    assert 0.2 < ms[1] < ms[0] < 1.0


def test_regime_validation():
    with pytest.raises(DomainError):
        Regime("sideways")
    with pytest.raises(DomainError):
        Regime("finite")  # a finite regime must state its limit
    with pytest.raises(DomainError):
        Regime("vanishing", limit=1.0)


# ---------------------------------------------------------------------------
# table-backed scheme


def test_table_interpolates_linearly():
    table = CustomTablePrior(((1.0, 0.2), (3.0, 0.6)))
    assert table.rho0(2.0) == pytest.approx(0.4, rel=1e-15)
    assert table.rho0(1.5) == pytest.approx(0.3, rel=1e-15)


def test_table_exact_at_knots():
    table = CustomTablePrior(((1.0, 0.2), (3.0, 0.6), (4.0, 0.1)))
    assert table.rho0(1.0) == 0.2
    assert table.rho0(3.0) == 0.6
    assert table.rho0(4.0) == 0.1


def test_table_refuses_extrapolation():
    table = CustomTablePrior(((1.0, 0.2), (3.0, 0.6)))
    with pytest.raises(TableRangeError):
        table.rho0(0.999)
    with pytest.raises(TableRangeError):
        table.rho0(3.001)
    with pytest.raises(TableRangeError):  # not turned into log_prior_odds' rho0 refusal
        table.log_prior_odds(3.001)
    for bad in (0.0, -1.0, math.nan, math.inf):  # outside (0, inf): the sigma refusal
        with pytest.raises(DomainError) as expected:
            _check_sigma(bad)
        with pytest.raises(DomainError) as refused:
            table.rho0(bad)
        assert type(refused.value) is DomainError
        assert str(refused.value) == str(expected.value), bad


def test_sigma_domain_is_the_table_range_and_otherwise_unbounded():
    assert CustomTablePrior(((1.0, 0.2), (3.0, 0.6))).sigma_domain() == (1.0, 3.0)
    for scheme in (FixedPrior(0.3), RobertPrior(), KLSelfInformationPrior()):
        assert scheme.sigma_domain() == (0.0, math.inf)


def test_table_validation():
    with pytest.raises(DomainError):
        CustomTablePrior(((1.0, 0.2),))
    with pytest.raises(DomainError):
        CustomTablePrior(((1.0, 0.2), (1.0, 0.3)))
    with pytest.raises(DomainError):
        CustomTablePrior(((2.0, 0.2), (1.0, 0.3)))
    with pytest.raises(DomainError):
        CustomTablePrior(((1.0, 0.0), (2.0, 0.3)))
    with pytest.raises(DomainError):
        CustomTablePrior(((1.0, 0.5), (2.0, 1.0)))
    for rows in (((1.0, 0.5), (2.0,)), ((1.0, 0.5), (2.0, 0.4, 9.0)), (1.0, 2.0)):
        with pytest.raises(DomainError, match=r"rows must be \(sigma, rho0\) pairs"):
            CustomTablePrior(rows)
    for row in (("a", 0.5), (1.0, "0.5"), (1.0, None), (Decimal(1), 0.5), (1.0, Decimal("0.5"))):
        with pytest.raises(DomainError, match=re.escape(f"prior table row {row!r} is not two")):
            CustomTablePrior((row, (2.0, 0.4)))
    for row in ((10**400, 0.4), (Fraction(10**400), 0.4)):  # float(sigma) would overflow
        with pytest.raises(DomainError, match=re.escape(f"prior table row {row!r} is past float")):
            CustomTablePrior(((1, 0.5), row))
    # A Fraction or a bool mixes with floats, so such a row builds and answers.
    mixed = CustomTablePrior(((True, Fraction(1, 2)), (2.0, 0.4)))
    assert mixed.rho0(1.5) == 0.5 + 0.5 * (0.4 - 0.5)
    # The slope divides the entries as given: as floats, 1/3 and 1/2 would round it otherwise.
    for table in (mixed, CustomTablePrior(((True, Fraction(1, 3)), (2, Fraction(1, 2))))):
        (s_lo, r_lo), (s_hi, r_hi) = table.points
        for sigma in (1.5, 2.0):
            rho = table.rho0(sigma)
            assert table._log_m_slope(sigma) == (-(r_hi - r_lo) / (s_hi - s_lo) / (rho * (1.0 - rho))
                                                 - priors._log_tau_slope(sigma))
    # Each segment divides by its width, which here rounds to 0.0.
    with pytest.raises(DomainError, match="strictly increasing"):
        CustomTablePrior(((1.0, 0.5), (Fraction(10**20 + 1, 10**20), 0.4)))


def test_table_built_from_lists_is_the_table_built_from_tuples():
    from_lists = CustomTablePrior([[0.5, 0.6], [1.0, 0.5], [2.0, 0.3]])
    from_tuples = CustomTablePrior(((0.5, 0.6), (1.0, 0.5), (2.0, 0.3)))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.points == from_tuples.points
    assert from_lists.rho0(1.5) == from_tuples.rho0(1.5) == 0.4
    assert from_lists.rho0(2.0) == 0.3
    assert repr(CustomTablePrior([[1, 0.5], [2, 0.25]])) == (
        "CustomTablePrior(points=((1, 0.5), (2, 0.25)), source='table:<inline>')")


def test_table_from_csv(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text(
        "# prior weight by spread\n"
        "sigma,rho0\n"
        "0.5,0.45\n"
        "# midpoint comment\n"
        "1.5,0.25\n"
        "2.5,0.15\n"
    )
    table = CustomTablePrior.from_csv(path)
    assert table.rho0(0.5) == 0.45
    assert table.rho0(1.0) == pytest.approx(0.35, rel=1e-15)
    assert table.source == f"table:{path}"


def test_table_from_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sigma,rho0\n1.0,0.5,9\n")
    with pytest.raises(DomainError):
        CustomTablePrior.from_csv(path)
    path.write_text("sigma,rho0\none,0.5\n2.0,0.4\n")
    with pytest.raises(DomainError):
        CustomTablePrior.from_csv(path)
    path.write_text(f'sigma,rho0\n1.0,0.5\n2.0,"{"4" * 140_000}"\n')
    with pytest.raises(DomainError, match=r"field larger than field limit \(131072\)"):
        CustomTablePrior.from_csv(path)
    path.write_bytes(b"sigma,rho0\n1.0,0.5\n2.0,\xff0.4\n")
    with pytest.raises(DomainError, match=r"is not UTF-8 text \(invalid start byte\)"):
        CustomTablePrior.from_csv(path)
    path.write_text("# only a comment\n\n")
    with pytest.raises(DomainError, match="is empty"):
        CustomTablePrior.from_csv(path)


@pytest.mark.parametrize("bad_row,problem", [("2.0,abc", r"non-numeric entry \['2.0', 'abc'\]"),
                                             ("2.0,0.4,9", "expected 2 columns, got 3")])
def test_table_from_csv_refusals_name_the_line_of_the_file(tmp_path, bad_row, problem):
    # Comment and blank lines count: the bad row is line 5 of the file, the third kept one.
    path = tmp_path / "bad.csv"
    path.write_text(f"# a comment\nsigma,rho0\n\n1.0,0.5\n{bad_row}\n")
    with pytest.raises(DomainError, match=f"line 5: {problem}"):
        CustomTablePrior.from_csv(path)


# ---------------------------------------------------------------------------
# scheme grammar


def test_scheme_from_string_builtin_names():
    assert isinstance(scheme_from_string("robert"), RobertPrior)
    assert isinstance(scheme_from_string("kl"), KLSelfInformationPrior)
    fixed = scheme_from_string("fixed:0.25")
    assert isinstance(fixed, FixedPrior)
    assert fixed.rho0(1.0) == 0.25


def test_scheme_from_string_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sigma,rho0\n1.0,0.5\n2.0,0.4\n")
    scheme = scheme_from_string(f"table:{path}")
    assert isinstance(scheme, CustomTablePrior)
    assert scheme.rho0(1.0) == 0.5


@pytest.mark.parametrize(
    "text", ["banana", "fixed", "fixed:", "fixed:abc", "fixed:0", "fixed:1", "fixed:2", "table:"]
)
def test_scheme_from_string_rejects(text):
    with pytest.raises(SchemeParseError):
        scheme_from_string(text)


def test_scheme_from_string_missing_table_file(tmp_path):
    with pytest.raises(OSError):
        scheme_from_string(f"table:{tmp_path / 'absent.csv'}")


def test_scheme_ids():
    assert scheme_from_string("robert").scheme_id == "robert"
    assert scheme_from_string("kl").scheme_id == "kl"
    assert scheme_from_string("fixed:0.25").scheme_id == "fixed:0.25"


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_fixed_prior_lets_null_win_at_large_sigma():
    rows = paradox_sweep(FixedPrior(0.5), 1.96, [1.0, 10.0, 100.0, 1e3, 1e4])
    assert [row.sigma for row in rows] == [1.0, 10.0, 100.0, 1e3, 1e4]
    posteriors = [row.posterior_h0 for row in rows]
    assert all(b > a for a, b in zip(posteriors, posteriors[1:]))
    assert posteriors[-1] > 0.999


def test_sweep_robert_pins_posterior_at_its_limit():
    rows = paradox_sweep(RobertPrior(), 0.0, geometric_grid(1.0, 1e6, 40))
    final = rows[-1]
    assert final.rho0 < 1e-5
    assert abs(final.posterior_h0 - RHO_ROBERT_AT_1) < 1e-6


def test_sweep_robert_limit_depends_on_x():
    # The finite regime pins psi, not the posterior: at sigma = 1e9 each row is
    # 1 / (1 + sqrt(2 pi) e^(x^2 / 2)) for its own x.
    limits = []
    for x in (0.0, 1.0, 2.0):
        (row,) = paradox_sweep(RobertPrior(), x, [1e9])
        limit = 1.0 / (1.0 + math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x))
        assert abs(row.posterior_h0 - limit) <= 4e-15 * limit, x
        limits.append(row.posterior_h0)
    assert limits[0] > limits[1] > limits[2]


def test_sweep_kl_overwhelms_the_null():
    rows = paradox_sweep(KLSelfInformationPrior(), 0.0, geometric_grid(0.5, 10.0, 30))
    posteriors = [row.posterior_h0 for row in rows]
    assert all(b < a for a, b in zip(posteriors, posteriors[1:]))


def test_sweep_kl_underflowed_weight_gives_zero_posterior():
    rows = paradox_sweep(KLSelfInformationPrior(), 0.0, [50.0, 100.0])
    assert all(row.rho0 == 0.0 for row in rows)
    assert all(row.posterior_h0 == 0.0 for row in rows)
    assert all(row.m == math.inf for row in rows)


def test_sweep_past_kl_underflow_keeps_the_exact_odds():
    # rho0 is subnormal at sigma = 38.5; the row's posterior follows the exact
    # log odds sigma^2 / 2, not the odds rebuilt from the rounded rho0.
    (row,) = paradox_sweep(KLSelfInformationPrior(), 0.0, [38.5])
    assert 0.0 < row.rho0 < 1e-300
    assert row.m == math.inf
    expected = posterior_from_log_odds(Observation(0.0), AlternativeSpread(38.5), 0.5 * 38.5**2)
    assert row.posterior_h0 == expected > 0.0


def test_sweep_rows_match_pointwise_evaluation():
    scheme = RobertPrior()
    rows = paradox_sweep(scheme, 1.5, [0.5, 1.0, 2.0])
    for row in rows:
        expected = posterior_h0(
            Observation(1.5), AlternativeSpread(row.sigma), scheme.rho0(row.sigma)
        )
        assert row.posterior_h0 == expected


GOLDEN_TABLE = CustomTablePrior.from_csv(str(Path(__file__).parent / "golden" / "table.csv"))


@pytest.mark.parametrize("x", (0.0, 1e-160, -1e-160, 1.96, -1.96, 1.3e154, -1.3e154, 1.5e154,
                               -1.5e154, 1e200, -1.7e308))
def test_sweep_rows_are_the_pointwise_row_bit_for_bit(x):
    """Each row is (sigma, rho0, m, the posterior through _x2_term), whichever route x^2 takes.

    x * x overflows from |x| = 1.34e154, where _x2_term's overflow-safe route takes over;
    0.5 * x * x is finite at 1.5e154, so that grouping alone would pick the wrong route there,
    and at sigma 5e-155 and 1.3e-154, where the term is near 1, the routes' posteriors differ.
    At 1e-200 the ratio underflows to 0, which the finite route would multiply by inf.
    """
    assert 0.5 * 1.5e154 * 1.5e154 < math.inf == 1.5e154 * 1.5e154
    builtin_grid = [1e-308, 1e-200, 1e-160, 5e-155, 1.3e-154, 1e-3, 0.5, 1.0, 1.5, 30.0, 1e5, 1e200]
    cases = [(scheme_from_string(name), builtin_grid) for name in ("kl", "robert", "fixed:0.3")]
    cases.append((GOLDEN_TABLE, [0.5, 0.7, 1.0, 1.7, 3.0, 8.0]))
    for scheme, grid in cases:
        rows = paradox_sweep(scheme, x, grid)
        assert [row.sigma for row in rows] == grid
        for row in rows:
            sigma = row.sigma
            post = _stable_inv_logistic(log_m_of_sigma(scheme, sigma) + _x2_term(x, sigma))
            expected = (sigma, scheme.rho0(sigma), m_of_sigma(scheme, sigma), post)
            assert list(map(float.hex, row)) == list(map(float.hex, expected)), (scheme, sigma)


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [])
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [2.0, 1.0])
    with pytest.raises(DomainError, match="sigma must be finite"):  # NaN passes the order check
        paradox_sweep(FixedPrior(0.5), 0.0, [1.0, math.nan, 0.5])
