"""Every value type is an immutable record: the constructor signature,
``repr``, ``==`` and ``hash`` that callers see, refusal of assignment,
and, for each field that a record checks on its own, the values it takes.

Each case pins one class: its parameters with their defaults, a sample
value built from positional arguments, the sample's ``repr``, and a
field whose change must break equality.
"""

import inspect
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from canopy import (
    AbsorptionReport,
    CarbonConstant,
    CarbonFactors,
    CensusInput,
    CohortResult,
    CreditMode,
    DiameterModel,
    DiameterSegment,
    FitResult,
    Measurement,
    PlantingCohort,
    PortfolioReport,
    ProjectParams,
    RemovalModel,
    SegmentAbsorption,
    SizeClass,
    SpeciesSpec,
    TimeSegment,
    WoodType,
)
from canopy.errors import Record, ValidationError

EMPTY = inspect.Parameter.empty
SPEC = SpeciesSpec(WoodType.EVERGREEN, SizeClass.TALL)
SEG = DiameterSegment(0.0, None, 0.5, 1.0)
MODEL = DiameterModel(None, (SEG,))
PIECE = SegmentAbsorption(0.0, 1.0, "a", 2.0)
SEG_REPR = "DiameterSegment(h_lo=0.0, h_hi=None, slope=0.5, intercept=1.0)"
SPEC_REPR = (
    "SpeciesSpec(wood=<WoodType.EVERGREEN: 'evergreen'>, "
    "size=<SizeClass.TALL: 'tall'>, continuous_cap=False)"
)

# class: (parameters with defaults, sample arguments, sample repr, a field
# and a value that must make an unequal record)
CASES = {
    SpeciesSpec: (
        [("wood", EMPTY), ("size", EMPTY), ("continuous_cap", False)],
        (WoodType.EVERGREEN, SizeClass.TALL),
        SPEC_REPR,
        ("continuous_cap", True),
    ),
    DiameterSegment: (
        [("h_lo", EMPTY), ("h_hi", EMPTY), ("slope", EMPTY), ("intercept", EMPTY)],
        (0.0, None, 0.5, 1.0),
        SEG_REPR,
        ("slope", 0.25),
    ),
    DiameterModel: (
        [("wood", EMPTY), ("segments", EMPTY)],
        (None, (SEG,)),
        f"DiameterModel(wood=None, segments=({SEG_REPR},))",
        ("wood", WoodType.CONIFER),
    ),
    TimeSegment: (
        [("t_lo", EMPTY), ("t_hi", EMPTY), ("label", EMPTY),
         ("diameter_segment", EMPTY), ("on_cap", EMPTY)],
        (0.0, 1.0, "a", SEG, False),
        f"TimeSegment(t_lo=0.0, t_hi=1.0, label='a', diameter_segment={SEG_REPR}, "
        "on_cap=False)",
        ("t_hi", 2.0),
    ),
    CarbonFactors: (
        [("bef", EMPTY), ("rtsr", EMPTY), ("bd", EMPTY), ("cf", EMPTY)],
        (1.5, 0.25, 0.5, 0.5),
        "CarbonFactors(bef=1.5, rtsr=0.25, bd=0.5, cf=0.5)",
        ("cf", 0.25),
    ),
    CarbonConstant: ([("c", EMPTY)], (1e-6,), "CarbonConstant(c=1e-06)", ("c", 2e-6)),
    SegmentAbsorption: (
        [("t_lo", EMPTY), ("t_hi", EMPTY), ("label", EMPTY), ("value", EMPTY)],
        (0.0, 1.0, "a", 2.0),
        "SegmentAbsorption(t_lo=0.0, t_hi=1.0, label='a', value=2.0)",
        ("label", "b"),
    ),
    AbsorptionReport: (
        [("spec", EMPTY), ("p", EMPTY), ("horizon", EMPTY), ("segments", EMPTY),
         ("creditable", EMPTY), ("expected_total", EMPTY)],
        (SPEC, 0.5, 10.0, (PIECE,), 1.0, 3.0),
        f"AbsorptionReport(spec={SPEC_REPR}, p=0.5, horizon=10.0, "
        "segments=(SegmentAbsorption(t_lo=0.0, t_hi=1.0, label='a', value=2.0),), "
        "creditable=1.0, expected_total=3.0)",
        ("horizon", 20.0),
    ),
    RemovalModel: ([("p", EMPTY)], (0.5,), "RemovalModel(p=0.5)", ("p", 0.25)),
    CensusInput: (
        [("standing_stock", EMPTY), ("assumed_lifespan", EMPTY), ("horizon", EMPTY),
         ("storm_felled", 0.0)],
        (100.0, 30.0, 10.0),
        "CensusInput(standing_stock=100.0, assumed_lifespan=30.0, horizon=10.0, "
        "storm_felled=0.0)",
        ("storm_felled", 1.0),
    ),
    Measurement: (
        [("wood", EMPTY), ("height", EMPTY), ("girth", None), ("diameter", None)],
        (WoodType.CONIFER, 300.0, None, 5.0),
        "Measurement(wood=<WoodType.CONIFER: 'conifer'>, height=300.0, girth=None, "
        "diameter=5.0)",
        ("diameter", 6.0),
    ),
    FitResult: (
        [("model", EMPTY), ("per_segment_r2", EMPTY), ("residual_rms", EMPTY)],
        (MODEL, (0.5,), 0.1),
        f"FitResult(model=DiameterModel(wood=None, segments=({SEG_REPR},)), "
        "per_segment_r2=(0.5,), residual_rms=0.1)",
        ("residual_rms", 0.2),
    ),
    PlantingCohort: (
        [("spec", EMPTY), ("count", EMPTY), ("label", "")],
        (SPEC, 3),
        f"PlantingCohort(spec={SPEC_REPR}, count=3, label='')",
        ("count", 4),
    ),
    ProjectParams: (
        [("horizon", 100.0), ("project_emissions", 0.0), ("steward_years", 3.0),
         ("credit_mode", CreditMode.SURVIVOR_ONLY)],
        (),
        "ProjectParams(horizon=100.0, project_emissions=0.0, steward_years=3.0, "
        "credit_mode=<CreditMode.SURVIVOR_ONLY: 'survivor_only'>)",
        ("credit_mode", CreditMode.INCLUDE_IN_PROCESS),
    ),
    CohortResult: (
        [("label", EMPTY), ("count", EMPTY), ("per_tree_total", EMPTY),
         ("per_tree_creditable", EMPTY), ("cohort_credit", EMPTY),
         ("steward_share", EMPTY)],
        ("a", 1, 2.0, 1.0, 1.0, 0.5),
        "CohortResult(label='a', count=1, per_tree_total=2.0, per_tree_creditable=1.0, "
        "cohort_credit=1.0, steward_share=0.5)",
        ("steward_share", 0.25),
    ),
    PortfolioReport: (
        [("per_cohort", EMPTY), ("gross_credit", EMPTY), ("project_emissions", EMPTY),
         ("net_credit", EMPTY), ("shortfall", EMPTY)],
        ((), 0.0, 1.0, -1.0, True),
        "PortfolioReport(per_cohort=(), gross_credit=0.0, project_emissions=1.0, "
        "net_credit=-1.0, shortfall=True)",
        ("shortfall", False),
    ),
}


def test_every_record_class_has_a_case():
    assert set(Record.__subclasses__()) == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_surface(cls):
    params, args, text, (changed, other) = CASES[cls]
    signature = inspect.signature(cls)
    assert [(p.name, p.default) for p in signature.parameters.values()] == params
    value = cls(*args)
    assert repr(value) == text
    # keywords build the same record, and equal records hash alike
    twin = cls(**{name: getattr(value, name) for name, _ in params})
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert value != cls(**{name: getattr(value, name) for name, _ in params} | {changed: other})
    assert value != tuple(getattr(value, name) for name, _ in params)
    with pytest.raises(AttributeError):
        setattr(value, changed, other)
    with pytest.raises(AttributeError):
        delattr(value, changed)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert getattr(value, changed) != other


def test_time_segment_compares_bounds_only():
    piece = TimeSegment(0.0, 1.0, "a", SEG, False)
    relabelled = TimeSegment(0.0, 1.0, "b", DiameterSegment(0.0, None, 1.0, 0.0), True)
    assert piece == relabelled and hash(piece) == hash((0.0, 1.0)) == hash(relabelled)
    assert repr(piece) != repr(relabelled)


def test_hash_is_the_compared_fields_tuple():
    value = CohortResult("a", 1, 2.0, 1.0, 1.0, 0.5)
    assert hash(value) == hash(("a", 1, 2.0, 1.0, 1.0, 0.5))
    assert hash(SPEC) == hash((WoodType.EVERGREEN, SizeClass.TALL, False))


def test_post_init_validates_positional_and_keyword_construction():
    with pytest.raises(ValueError):
        RemovalModel(1.5)
    with pytest.raises(ValueError):
        RemovalModel(p=0.0)
    with pytest.raises(TypeError):
        RemovalModel()
    with pytest.raises(TypeError):
        RemovalModel(0.5, p=0.5)


FACTORS = dict(bef=1.6, rtsr=0.27, bd=0.4, cf=0.51)
CENSUS = dict(standing_stock=100.0, assumed_lifespan=30.0, horizon=10.0, storm_felled=1.0)
# steward_years 0 leaves the horizon only its own rule
PROJECT = dict(horizon=100.0, project_emissions=0.0, steward_years=0.0)
REPORT = dict(spec=SPEC, p=0.5, horizon=10.0, segments=(PIECE,), creditable=1.0, expected_total=3.0)
INF = math.inf


def _one(cls, base, field):
    return lambda value: cls(**{**base, field: value})


# every field a record checks on its own, with its valid values stated
# here: (record built from value, field, low, low closed?, high, high
# closed?, None allowed?, pattern that the field's refusals match, or None
# where each refusal is the table's, built from the stated interval)
TABLED = [
    (_one(CarbonFactors, FACTORS, "bef"), "bef", 0.0, False, 10.0, False, False, None),
    (_one(CarbonFactors, FACTORS, "rtsr"), "rtsr", 0.0, True, 5.0, False, False, None),
    (_one(CarbonFactors, FACTORS, "bd"), "bd", 0.0, False, 2.0, False, False, None),
    (_one(CarbonFactors, FACTORS, "cf"), "cf", 0.0, False, 1.0, True, False, None),
    (CarbonConstant, "c", 0.0, False, 1e-3, False, False, None),
    *[(_one(DiameterSegment, dict(h_lo=0.0, h_hi=10.0, slope=0.5, intercept=1.0), field), field,
       -INF, False, INF, False, field == "h_hi", None)
      for field in ("h_lo", "h_hi", "slope", "intercept")],
    (RemovalModel, "p", 0.0, False, 1.0, False, False, None),
    (_one(CensusInput, CENSUS, "standing_stock"), "standing_stock", 0.0, False, INF, False, False,
     None),
    (_one(CensusInput, CENSUS, "assumed_lifespan"), "assumed_lifespan", 0.0, False, INF, False,
     False, None),
    (_one(CensusInput, CENSUS, "horizon"), "horizon", 1.0, True, INF, False, False, None),
    (_one(CensusInput, CENSUS, "storm_felled"), "storm_felled", 0.0, True, INF, False, False, None),
    (_one(ProjectParams, PROJECT, "horizon"), "horizon", 0.0, False, INF, False, False, None),
    (_one(ProjectParams, PROJECT, "project_emissions"), "project_emissions", 0.0, True, INF, False,
     False, None),
    # at most the horizon of 100: the one rule across fields
    (_one(ProjectParams, PROJECT, "steward_years"), "steward_years", 0.0, True, 100.0, True,
     False, "steward_years"),
    *[(_one(Measurement, dict(wood="conifer", height=300.0, girth=15.0, diameter=5.0), field), field,
       0.0, False, INF, False, field != "height", None)
      for field in ("height", "girth", "diameter")],
    # a girth alone: 5e-324 / 3.14 rounds to a diameter of 0.0, which is refused
    (_one(Measurement, dict(wood="conifer", height=300.0), "girth"), "girth", 5e-324, False, INF,
     False, False, r"^(girth|diameter) must lie in \(0, inf\), got "),
    (_one(AbsorptionReport, REPORT, "p"), "p", -INF, False, INF, False, False, None),
    (_one(AbsorptionReport, REPORT, "horizon"), "horizon", -INF, False, INF, False, False, None),
    # the total follows, so only the creditable term's own rule applies
    (lambda v: AbsorptionReport(**{**REPORT, "creditable": v,
                                   "expected_total": 2.0 + v if math.isfinite(v) else 3.0}),
     "creditable", 0.0, True, INF, False, False, None),
    # one segment of the total's value: the total must be finite, and a
    # total below 0 needs a segment below 0, which the segment rule refuses
    (lambda v: AbsorptionReport(**{**REPORT, "creditable": 0.0, "expected_total": v,
                                   "segments": (SegmentAbsorption(0.0, 1.0, "a", v),)}),
     "expected_total", 0.0, True, INF, False, False,
     r"^expected_total must lie in \(-inf, inf\), got |^absorption values"),
]


def _inside(value, low, low_closed, high, high_closed):
    above = low <= value if low_closed else low < value
    below = value <= high if high_closed else value < high
    return math.isfinite(value) and above and below


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", TABLED, ids=lambda case: f"{case[1]}-{TABLED.index(case)}")
def test_each_field_is_refused_exactly_outside_its_interval(case, data):
    """nan, ±inf, ±0.0, each finite end and its two neighbours, and a
    drawn value inside: each is accepted, or refused with a
    ValidationError, as the stated interval says.  The refusal reads
    ``<field> must lie in <interval>, got <value>``, or matches the case's
    pattern where a rule across fields refuses."""
    build, field, low, low_closed, high, high_closed, optional, pattern = case
    interval = f"{'[' if low_closed else '('}{low:g}, {high:g}{']' if high_closed else ')'}"
    ends = [end for end in (low, high) if math.isfinite(end)]
    values = [math.nan, INF, -INF, 0.0, -0.0, *ends]
    values += [math.nextafter(end, toward) for end in ends for toward in (-INF, INF)]
    values.append(data.draw(st.floats(
        low, high, allow_nan=False, allow_infinity=False,
        exclude_min=not low_closed, exclude_max=not high_closed,
    )))
    if optional:
        build(None)
    for value in values:
        if _inside(value, low, low_closed, high, high_closed):
            assert getattr(build(value), field) == value
        else:
            with pytest.raises(ValidationError) as refused:
                build(value)
            message = str(refused.value)
            if pattern is None:
                assert message == f"{field} must lie in {interval}, got {value}"
            else:
                assert re.search(pattern, message), (value, message)
