"""Boundary checks (hypothesis): any float, nan, infinities and subnormals
included, either raises a CanopyError or yields only finite numbers.

Each case puts one drawn value into one field of an otherwise valid
value object, or into the horizon argument of the absorption functions.
The CSV cases write drawn cells into both input files: a load returns
its records or names its first bad row.
"""

import functools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from canopy import (
    CanopyError,
    CarbonConstant,
    CarbonFactors,
    CensusInput,
    DiameterSegment,
    Measurement,
    PlantingCohort,
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
    evaluate_portfolio,
    expected_absorption,
    integration_segments,
    load_inventory,
    load_measurements,
    species,
)
from canopy import fielddata
from canopy.errors import Record
from canopy.fielddata import _measurement
from canopy.portfolio import _cohort

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
    "Measurement": (
        functools.partial(Measurement, "conifer"),
        {"height": 300.0, "girth": 15.0, "diameter": 4.8},
        lambda m: m,
    ),
    "PlantingCohort": (
        functools.partial(PlantingCohort, species("evergreen", "tall")),
        {"count": 120},
        lambda c: (c, evaluate_portfolio([c], ProjectParams())),
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


@settings(max_examples=100, deadline=None)
@given(count=st.one_of(st.integers(), st.integers(-(10**400), 10**400)))
def test_cohort_count(count):
    def portfolio():
        cohort = PlantingCohort(species("evergreen", "tall"), count)
        return cohort, evaluate_portfolio([cohort], ProjectParams())

    _raises_or_finite(portfolio)


# cells that a survey file may hold: names in any case, numbers out of
# range or past the float range, and empty cells
CELLS = st.one_of(
    st.sampled_from(
        ["", "nan", "inf", "-inf", "1e400", "5e-324", "9" * 400, "-0.0", "0", "-3", "12", "250.5",
         "x", "oak", "Conifer", "EVERGREEN", "deciduous", "tall", "Medium", "SHRUB", "huge"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**20).map(str),
)
# a row of four drawn cells, not all empty (an all-empty row is a blank
# line, skipped), or a good row, so that a bad row can come after good ones
DRAWN_ROWS = st.lists(CELLS, min_size=4, max_size=4).filter(any)
TABLES = {
    "inventory": (
        load_inventory, "label,wood,size,count",
        [("a", "Conifer", "SHRUB", "0"), ("b", "evergreen", "tall", "12")],
    ),
    "measurements": (
        load_measurements, "wood,height_cm,girth_cm,diameter_cm",
        [("Conifer", "250", "11", ""), ("evergreen", "300.5", "", "3.5")],
    ),
}


@pytest.mark.parametrize("kind", list(TABLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_names_first_bad_row(kind, data, tmp_path_factory):
    load, header, good = TABLES[kind]
    rows = data.draw(st.lists(st.sampled_from(good) | DRAWN_ROWS, min_size=1, max_size=6))
    path = tmp_path_factory.getbasetemp() / f"drawn-{kind}.csv"

    def attempt(lines):
        path.write_text("\n".join([header, *map(",".join, lines)]) + "\n", encoding="utf-8")
        try:
            return load(path)
        except CanopyError as exc:
            return exc

    # a row is bad when a file holding it alone fails to load
    bad = [n for n, row in enumerate(rows, start=1) if isinstance(attempt([row]), CanopyError)]
    result = attempt(rows)
    if not bad:
        assert len(result) == len(rows)
    else:
        assert isinstance(result, CanopyError)
        assert str(result).startswith(f"row {bad[0]}: ") and result.row == bad[0], result


# each loader's row path: one row's cells made into its record alone
ROW_MAKERS = {"inventory": _cohort, "measurements": _measurement}
# cells that fail one check, or pass it at an edge, in an otherwise good row
NEAR_CELLS = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e400", "5e-324", "2e-323", "9" * 400, "9" * 5000, "-3", "0",
     "-0.0", "1.5", "Conifer", "EVERGREEN", "oak", "Medium", "tall"]
)
# lines that are not data rows: a comment, a blank line and a row of blank cells
SKIPPED = st.sampled_from(["# survey note", "", " ,  "])


@pytest.mark.parametrize("kind", list(TABLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chunks_agree_with_rows_alone(kind, data, tmp_path_factory):
    """A file read three data rows at a time, column by column, loads as its
    rows made one by one: the same records, or the first bad row's error."""
    load, header, good = TABLES[kind]
    # a good row with one drawn cell fails one check at a time
    near = st.tuples(st.sampled_from(good), st.integers(0, 3), NEAR_CELLS).map(
        lambda drawn: [*drawn[0][: drawn[1]], drawn[2], *drawn[0][drawn[1] + 1:]]
    )
    lines = data.draw(st.lists(st.sampled_from(good) | near | DRAWN_ROWS | SKIPPED, max_size=14))
    wood = data.draw(st.sampled_from([None, *WoodType])) if kind == "measurements" else None
    path = tmp_path_factory.getbasetemp() / f"chunked-{kind}.csv"
    text = [line if isinstance(line, str) else ",".join(line) for line in lines]
    path.write_text("\n".join([header, *text]) + "\n", encoding="utf-8")

    expected = []
    rows = [line for line in lines if not isinstance(line, str)]
    for number, cells in enumerate(rows, start=1):
        try:
            record = ROW_MAKERS[kind](*cells)
        except CanopyError as exc:
            expected = (exc.__class__, f"row {number}: {exc}", number)
            break
        if wood is None or record.wood is wood:
            expected.append(record)
    with mock.patch.object(fielddata, "_CHUNK_ROWS", 3):
        try:
            got = load(path) if wood is None else load(path, wood)
        except CanopyError as exc:
            got = (exc.__class__, str(exc), exc.row)
    assert got == expected
