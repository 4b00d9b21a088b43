"""Prior-weight schemes, the odds-to-evidence map m(sigma), and regime classification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointnull.model import AlternativeSpread, Observation, posterior_from_log_odds, posterior_h0
from pointnull.numerics import DomainError
from pointnull.priors import (
    SQRT_TWO_PI,
    ConsistencyError,
    CustomTablePrior,
    FixedPrior,
    KLSelfInformationPrior,
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


def test_robert_rho0_reference():
    assert RobertPrior().rho0(1.0) == pytest.approx(RHO_ROBERT_AT_1, rel=1e-15)


def test_kl_rho0_limits():
    scheme = KLSelfInformationPrior()
    assert scheme.rho0(1e-8) == pytest.approx(0.5, abs=1e-15)
    # Far out the weight underflows; callers are told to expect exactly zero.
    assert scheme.rho0(100.0) == 0.0


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
    assert classified.evidence.m_values[-1] < 1e-3


def test_classify_robert_is_finite_with_limit():
    classified = classify_regime(RobertPrior())
    assert classified.regime.kind == "finite"
    assert classified.regime.case_label == "ii"
    assert classified.regime.limit == pytest.approx(SQRT_TWO_PI, rel=1e-12)
    assert classified.evidence.m_values[-1] == pytest.approx(SQRT_TWO_PI, rel=1e-6)


def test_classify_kl_is_divergent():
    classified = classify_regime(KLSelfInformationPrior())
    assert classified.regime.kind == "divergent"
    assert classified.regime.case_label == "iii"
    assert classified.evidence.log_m_values[-1] > 1e3


def test_classify_table_scheme_unsupported():
    table = CustomTablePrior(((0.5, 0.5), (2.0, 0.4)))
    with pytest.raises(UnsupportedSchemeError):
        classify_regime(table)


def test_classify_rejects_scheme_that_lies_about_its_regime():
    class LyingPrior(FixedPrior):
        def declared_regime(self):
            return Regime("divergent")

    with pytest.raises(ConsistencyError):
        classify_regime(LyingPrior(0.5))


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


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [])
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        paradox_sweep(FixedPrior(0.5), 0.0, [2.0, 1.0])
