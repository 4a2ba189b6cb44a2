"""Boundary checks (hypothesis): any float, nan, infinities and subnormals
included, either raises a CanopyError or yields only finite numbers.

Each case puts one drawn value into one field of an otherwise valid
value object, or into the horizon argument of the absorption functions.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from canopy import (
    CanopyError,
    CarbonConstant,
    CarbonFactors,
    CensusInput,
    DiameterSegment,
    ProjectParams,
    RemovalModel,
    SizeClass,
    WoodType,
    carbon_constant,
    creditable_absorption,
    default_carbon_constant,
    default_carbon_factors,
    default_diameter_models,
    default_removal_model,
    derive_removal_probability,
    expected_absorption,
    integration_segments,
    species,
)
from canopy.errors import Record

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# the absorption functions integrate up to the horizon, so finite draws
# stay within 1e4 years; the special values are drawn on their own
HORIZONS = st.one_of(
    st.floats(-1e4, 1e4, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0, 2.0]),
)
SPECS = st.sampled_from(
    [species(w, s, continuous_cap=c) for w in WoodType for s in SizeClass for c in (False, True)]
)
MODELS = default_diameter_models()
CONSTANT = default_carbon_constant()
FACTORS = default_carbon_factors()


def _numbers(value):
    """Every float reachable from ``value`` through record fields,
    tuples and lists."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, Record):
        for name in value._fields:
            yield from _numbers(getattr(value, name))


def test_numbers_walks_every_float_of_a_report():
    spec = species("evergreen", "medium")
    report = expected_absorption(
        spec, MODELS[spec.wood], default_removal_model(spec.size), CONSTANT
    )
    segments = [x for s in report.segments for x in (s.t_lo, s.t_hi, s.value)]
    assert len(report.segments) >= 3
    assert list(_numbers(report)) == [
        report.p, report.horizon, *segments, report.creditable, report.expected_total
    ]


def _raises_or_finite(call):
    try:
        result = call()
    except CanopyError:
        return
    numbers = list(_numbers(result))
    assert all(math.isfinite(x) for x in numbers), (result, numbers)


# (type, valid keyword arguments, what a caller derives from it)
VALUE_TYPES = {
    "CarbonFactors": (
        CarbonFactors, {name: getattr(FACTORS, name) for name in FACTORS._fields},
        lambda f: (f, carbon_constant(f)),
    ),
    "CarbonConstant": (CarbonConstant, {"c": CONSTANT.c}, lambda c: c),
    "ProjectParams": (
        ProjectParams,
        {"horizon": 100.0, "project_emissions": 25.0, "steward_years": 3.0},
        lambda p: p,
    ),
    "CensusInput": (
        CensusInput,
        {"standing_stock": 6.67e6, "assumed_lifespan": 35.0, "horizon": 15.0,
         "storm_felled": 3.8e5},
        lambda c: (c, derive_removal_probability(c)),
    ),
    "RemovalModel": (RemovalModel, {"p": 0.027309}, lambda m: m),
    "DiameterSegment": (
        DiameterSegment,
        {"h_lo": 300.0, "h_hi": 400.0, "slope": 0.0332, "intercept": -5.6785},
        lambda s: s,
    ),
}
FIELDS = [
    (name, field)
    for name, (_, valid, _) in VALUE_TYPES.items()
    for field in valid
]


@pytest.mark.parametrize("name,field", FIELDS, ids=[f"{n}.{f}" for n, f in FIELDS])
@settings(max_examples=200, deadline=None)
@given(value=ANY_FLOAT)
def test_value_type_field(name, field, value):
    cls, valid, derive = VALUE_TYPES[name]
    _raises_or_finite(lambda: derive(cls(**{**valid, field: value})))


@pytest.mark.parametrize(
    "function", [integration_segments, creditable_absorption, expected_absorption]
)
@settings(max_examples=100, deadline=None)
@given(spec=SPECS, horizon=HORIZONS)
def test_horizon_argument(function, spec, horizon):
    args = (spec, MODELS[spec.wood])
    if function is not integration_segments:
        args += (default_removal_model(spec.size), CONSTANT)
    _raises_or_finite(lambda: function(*args, horizon))
