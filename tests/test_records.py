"""The contract of the package's immutable records.

Each record is built from positional or keyword arguments with the same
defaults, validates its fields with the same exception types and messages,
compares and hashes by its fields and its class, has a fixed repr, refuses
every attribute assignment with AttributeError, and survives pickle and
deepcopy.
"""

import copy
import math
import pickle
import random

import pytest

from pointnull import (
    AlternativeSpread,
    Bracket,
    CalibrationResult,
    CalibrationSpec,
    ClassifiedRegime,
    CustomTablePrior,
    Decision,
    DomainError,
    FixedPrior,
    KLSelfInformationPrior,
    MonteCarloReport,
    Observation,
    Regime,
    RobertPrior,
    SimulationPlan,
)
from pointnull.priors import RegimeEvidence

POINTS = ((1.0, 0.5), (2.0, 0.25))
EVIDENCE = RegimeEvidence((1e3, 1e6), (0.5, 0.25), (-0.5, -1.5))
RESULT_VALUES = (2.0, 3.0, 0.05, -1e-12, Bracket(1.0, 4.0), 20)

#: name -> (positional, keyword, its repr, an unequal record of the same class)
RECORDS = {
    "Bracket": (Bracket(1.0, 2.0), Bracket(hi=2.0, lo=1.0), "Bracket(lo=1.0, hi=2.0)",
                Bracket(1.0, 3.0)),
    "Observation": (Observation(1.5), Observation(x=1.5), "Observation(x=1.5)",
                    Observation(-1.5)),
    "AlternativeSpread": (AlternativeSpread(2.0), AlternativeSpread(sigma=2.0),
                          "AlternativeSpread(sigma=2.0)", AlternativeSpread(3.0)),
    "Regime": (Regime("finite", 2.5), Regime(kind="finite", limit=2.5),
               "Regime(kind='finite', limit=2.5)", Regime("vanishing")),
    "FixedPrior": (FixedPrior(0.3), FixedPrior(rho0_value=0.3), "FixedPrior(rho0_value=0.3)",
                   FixedPrior(0.5)),
    "RobertPrior": (RobertPrior(), RobertPrior(), "RobertPrior()", KLSelfInformationPrior()),
    "KLSelfInformationPrior": (KLSelfInformationPrior(), KLSelfInformationPrior(),
                               "KLSelfInformationPrior()", RobertPrior()),
    "CustomTablePrior": (
        CustomTablePrior(POINTS, "table:t.csv"),
        CustomTablePrior(source="table:t.csv", points=POINTS),
        "CustomTablePrior(points=((1.0, 0.5), (2.0, 0.25)), source='table:t.csv')",
        CustomTablePrior(POINTS),
    ),
    "ClassifiedRegime": (
        ClassifiedRegime(Regime("divergent"), EVIDENCE),
        ClassifiedRegime(evidence=EVIDENCE, regime=Regime("divergent")),
        "ClassifiedRegime(regime=Regime(kind='divergent', limit=None), "
        "evidence=RegimeEvidence(sigma_probes=(1000.0, 1000000.0), m_values=(0.5, 0.25), "
        "log_m_values=(-0.5, -1.5)))",
        ClassifiedRegime(Regime("vanishing"), EVIDENCE),
    ),
    "CalibrationSpec": (
        CalibrationSpec(0.05, 0.01, KLSelfInformationPrior()),
        CalibrationSpec(alpha=0.05, alpha_b=0.01, scheme=KLSelfInformationPrior()),
        "CalibrationSpec(alpha=0.05, alpha_b=0.01, scheme=KLSelfInformationPrior())",
        CalibrationSpec(0.05, 0.01, RobertPrior()),
    ),
    "CalibrationResult": (
        CalibrationResult(*RESULT_VALUES),
        CalibrationResult(sigma_star=2.0, psi_at_sigma=3.0, achieved_alpha=0.05,
                          residual=-1e-12, bracket_used=Bracket(1.0, 4.0), evaluations=20),
        "CalibrationResult(sigma_star=2.0, psi_at_sigma=3.0, achieved_alpha=0.05, "
        "residual=-1e-12, bracket_used=Bracket(lo=1.0, hi=4.0), evaluations=20)",
        CalibrationResult(*RESULT_VALUES[:-1], 21),
    ),
    "Decision": (Decision(True, True),
                 Decision(reject=True, via_posterior=True),
                 "Decision(reject=True, via_posterior=True)",
                 Decision(False, False)),
}

NAMES = sorted(RECORDS)


def test_every_record_is_covered():
    assert len(RECORDS) == 12
    for name, (record, *_) in RECORDS.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    positional, keyword, _, _ = RECORDS[name]
    assert type(positional) is type(keyword)
    assert positional == keyword


def test_defaults():
    assert Regime("vanishing").limit is None
    assert Regime("divergent") == Regime("divergent", None)
    assert CustomTablePrior(POINTS).source == "table:<inline>"


def test_fields_read_back():
    lo_hi = Bracket(1.0, 2.0)
    assert (lo_hi.lo, lo_hi.hi) == (1.0, 2.0)
    assert Observation(1.5).x == 1.5
    assert AlternativeSpread(2.0).sigma == 2.0
    regime = Regime("finite", 2.5)
    assert (regime.kind, regime.limit, regime.case_label) == ("finite", 2.5, "ii")
    assert FixedPrior(0.3).rho0_value == 0.3
    table = CustomTablePrior(POINTS, "table:t.csv")
    assert (table.points, table.source, table.scheme_id) == (POINTS, "table:t.csv", "table:t.csv")
    classified = ClassifiedRegime(Regime("divergent"), EVIDENCE)
    assert (classified.regime, classified.evidence) == (Regime("divergent"), EVIDENCE)
    spec = CalibrationSpec(0.05, 0.01, RobertPrior())
    assert (spec.alpha, spec.alpha_b, spec.scheme) == (0.05, 0.01, RobertPrior())
    result = CalibrationResult(*RESULT_VALUES)
    assert (result.sigma_star, result.psi_at_sigma, result.achieved_alpha, result.residual,
            result.bracket_used, result.evaluations) == RESULT_VALUES
    decision = Decision(True, False)
    assert (decision.reject, decision.via_posterior) == (True, False)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Bracket(math.nan, 1.0), DomainError,
         "bracket endpoints must be finite, got [nan, 1.0]"),
        (lambda: Bracket(0.0, math.inf), DomainError,
         "bracket endpoints must be finite, got [0.0, inf]"),
        (lambda: Bracket(2.0, 1.0), DomainError, "bracket requires lo < hi, got [2.0, 1.0]"),
        (lambda: Bracket(1.0, 1.0), DomainError, "bracket requires lo < hi, got [1.0, 1.0]"),
        (lambda: Observation(math.inf), DomainError, "observation must be finite, got inf"),
        (lambda: Observation(math.nan), DomainError, "observation must be finite, got nan"),
        (lambda: AlternativeSpread(0.0), DomainError,
         "sigma must be finite and positive, got 0.0"),
        (lambda: AlternativeSpread(math.inf), DomainError,
         "sigma must be finite and positive, got inf"),
        (lambda: Regime("odd"), DomainError, "unknown regime kind 'odd'"),
        (lambda: Regime("finite"), DomainError,
         "exactly the finite regime carries a limit constant"),
        (lambda: Regime("vanishing", 1.0), DomainError,
         "exactly the finite regime carries a limit constant"),
        (lambda: Regime("finite", -1.0), DomainError,
         "finite-regime limit must be positive, got -1.0"),
        (lambda: Regime("finite", math.inf), DomainError,
         "finite-regime limit must be positive, got inf"),
        (lambda: FixedPrior(1.0), DomainError,
         "fixed rho0 must lie strictly between 0 and 1, got 1.0"),
        (lambda: FixedPrior(math.nan), DomainError,
         "fixed rho0 must lie strictly between 0 and 1, got nan"),
        (lambda: CustomTablePrior(((1.0, 0.5),)), DomainError,
         "a prior table needs at least two (sigma, rho0) rows"),
        (lambda: CustomTablePrior(((0.0, 0.5), (1.0, 0.5))), DomainError,
         "table sigma values must be positive, got 0.0"),
        (lambda: CustomTablePrior(((1.0, 0.5), (2.0, 1.5))), DomainError,
         "table rho0 values must lie strictly between 0 and 1, got 1.5"),
        (lambda: CustomTablePrior(((2.0, 0.5), (1.0, 0.5))), DomainError,
         "table sigma values must be strictly increasing"),
        (lambda: CalibrationSpec(0.0, 0.05, RobertPrior()), DomainError,
         "alpha must lie strictly between 0 and 1, got 0.0"),
        (lambda: CalibrationSpec(0.05, 1.0, RobertPrior()), DomainError,
         "alpha_b must lie strictly between 0 and 1, got 1.0"),
        (lambda: CalibrationSpec(2.0, 2.0, RobertPrior()), DomainError,
         "alpha must lie strictly between 0 and 1, got 2.0"),
    ],
)
def test_validation(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("name", NAMES)
def test_equality_follows_fields_and_class(name):
    record, keyword, _, other = RECORDS[name]
    assert record == keyword and not record != keyword
    assert record != other and not record == other
    assert record != object()


def test_equality_across_classes():
    assert FixedPrior(0.3) != RobertPrior()
    assert RobertPrior() == RobertPrior()
    assert RobertPrior() != KLSelfInformationPrior()
    assert KLSelfInformationPrior() == KLSelfInformationPrior()
    assert Observation(2.0) != AlternativeSpread(2.0)
    assert Decision(True, True) != (True, True)


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_hash_equal(name):
    record, keyword, _, _ = RECORDS[name]
    assert hash(record) == hash(keyword)
    assert {record: name}[keyword] == name


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    record, _, text, _ = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    record = RECORDS[name][0]
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


#: The first field of each record that has one.
FIRST_FIELD = {
    "Bracket": "lo", "Observation": "x", "AlternativeSpread": "sigma",
    "Regime": "kind", "FixedPrior": "rho0_value", "CustomTablePrior": "points",
    "ClassifiedRegime": "regime", "CalibrationSpec": "alpha", "CalibrationResult": "sigma_star",
    "Decision": "reject",
}


@pytest.mark.parametrize("name", sorted(FIRST_FIELD))
def test_fields_are_read_only(name):
    record, field = RECORDS[name][0], FIRST_FIELD[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


#: The Monte Carlo records are frozen dataclasses, not _Record classes, and refuse new names too.
DATACLASS_RECORDS = {
    "SimulationPlan": SimulationPlan(10, 1, 0.0, 2.0, 0.05, KLSelfInformationPrior()),
    "MonteCarloReport": MonteCarloReport(10, 1, 0.1, 0.09, (0.0, 0.3), 0.05, True, 0),
}


@pytest.mark.parametrize("name", NAMES + sorted(DATACLASS_RECORDS))
def test_assigning_a_new_name_raises_attribute_error(name):
    record = RECORDS[name][0] if name in RECORDS else DATACLASS_RECORDS[name]
    with pytest.raises(AttributeError):
        record.z = 1
    with pytest.raises(AttributeError):
        del record.z
    assert not hasattr(record, "z")


def test_fixed_prior_keeps_its_log_odds_beside_its_one_field():
    """The odds are computed once, in a slot that is not a field, so repr, equality, hashing
    and pickling (test_repr and the rest, above) see rho0_value alone; a copy or an unpickled
    record computes the odds again."""
    assert FixedPrior.__slots__ == ("rho0_value",)
    record = FixedPrior(0.3)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and hash(clone) == hash(record)
        assert clone.log_prior_odds(2.0) == record.log_prior_odds(2.0)
    for name in ("rho0_value", "_log_odds"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.5)
    assert record.log_prior_odds(1.0) == math.log1p(-0.3) - math.log(0.3)


def test_fixed_prior_log_odds_are_bit_for_bit_the_formula():
    rng = random.Random(20261019)
    masses = [rng.random() for _ in range(250)]
    masses += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(250)]
    masses += [5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]
    for r in masses:
        expected = math.log1p(-r) - math.log(r)
        for sigma in (5e-324, 1.0, 1.7976931348623157e308):
            assert FixedPrior(r).log_prior_odds(sigma) == expected, r


@pytest.mark.parametrize("sigma", [math.nan, 0.0, math.inf])
def test_fixed_prior_log_odds_still_refuse_a_bad_sigma(sigma):
    with pytest.raises(DomainError, match=f"sigma must be finite and positive, got {sigma}"):
        FixedPrior(0.3).log_prior_odds(sigma)
