"""Randomized invariant checks (hypothesis)."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from canopy import (
    CarbonConstant,
    CensusInput,
    PlantingCohort,
    ProjectParams,
    RemovalModel,
    WoodType,
    all_species,
    allocate_steward_share,
    default_diameter_models,
    derive_removal_probability,
    diameter_from_height,
    evaluate_portfolio,
    expected_absorption,
    fit_piecewise_linear,
    height,
    integrate,
    survival_fraction,
    time_at_height,
)
from canopy.growth import uncapped_height

SPECS = st.sampled_from(all_species())
MODELS = default_diameter_models()


def branch_end(spec) -> float:
    return spec.cap_time if spec.cap_time is not None else 150.0


@settings(max_examples=150, deadline=None)
@given(SPECS, st.floats(0.0, 1.0))
def test_inversion_round_trip(spec, frac):
    t = spec.domain_start + frac * (branch_end(spec) * 0.999 - spec.domain_start)
    h = uncapped_height(spec, t)
    assume(h > 0.0)
    assert time_at_height(spec, h) == pytest.approx(t, abs=1e-6)


@settings(max_examples=150, deadline=None)
@given(SPECS, st.floats(0.0, 1.0), st.floats(1e-6, 1.0))
def test_growth_monotone(spec, frac, step):
    end = branch_end(spec)
    t1 = spec.domain_start + frac * (end - spec.domain_start - 1e-3)
    t2 = min(t1 + step, end - 1e-6)
    assume(t2 > t1)
    assert uncapped_height(spec, t2) > uncapped_height(spec, t1)
    assert height(spec, t2) >= height(spec, t1)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(1e-5, 0.9),
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
)
def test_survival_multiplicative(p, t1, t2):
    model = RemovalModel(p)
    combined = survival_fraction(model, t1 + t2)
    product = survival_fraction(model, t1) * survival_fraction(model, t2)
    assert combined == pytest.approx(product, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(1e3, 1e9),
    st.floats(5.0, 100.0),
    st.floats(1.0, 50.0),
    st.floats(0.0, 0.5),
)
def test_derived_fraction_round_trip(stock, lifespan, window, storm_ratio):
    census = CensusInput(stock, lifespan, window, storm_ratio * stock)
    model = derive_removal_probability(census)
    planted = stock / lifespan * window
    fraction = (planted + census.storm_felled) / (stock + planted)
    assert 1.0 - (1.0 - model.p) ** window == pytest.approx(fraction, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(SPECS, st.floats(0.001, 0.5), st.floats(1e-8, 1e-5))
def test_report_sum_identity(spec, p, c):
    report = expected_absorption(
        spec, MODELS[spec.wood], RemovalModel(p), CarbonConstant(c)
    )
    total = math.fsum([s.value for s in report.segments] + [report.creditable])
    assert abs(total - report.expected_total) <= 1e-9 * report.expected_total
    assert 0.0 <= report.creditable <= report.expected_total


@settings(max_examples=100, deadline=None)
@given(SPECS, st.integers(0, 5000))
def test_portfolio_count_linearity(spec, count):
    single = evaluate_portfolio(
        [PlantingCohort(spec, count)], ProjectParams()
    ).gross_credit
    double = evaluate_portfolio(
        [PlantingCohort(spec, 2 * count)], ProjectParams()
    ).gross_credit
    assert double == 2.0 * single


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 1e3), st.floats(1.0, 200.0))
def test_allocation_additive(frac1, frac2, total, horizon):
    y1 = frac1 * horizon
    y2 = frac2 * (horizon - y1)
    # y1 + (horizon - y1) may round one ulp past the horizon, out of the domain
    assume(y1 + y2 <= horizon)
    whole = allocate_steward_share(total, y1 + y2, horizon)
    split = allocate_steward_share(total, y1, horizon) + allocate_steward_share(
        total, y2, horizon
    )
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-15)


@st.composite
def models_with_samples(draw):
    n_breaks = draw(st.integers(1, 2))
    breaks = sorted(
        draw(
            st.lists(
                st.integers(60, 400), min_size=n_breaks, max_size=n_breaks, unique=True
            )
        )
    )
    assume(all(b2 - b1 >= 40 for b1, b2 in zip(breaks, breaks[1:])))
    edges = [0] + breaks + [None]
    rules = []
    points = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        slope = draw(st.floats(0.005, 0.08))
        intercept = draw(st.floats(0.0, 8.0))
        span_hi = lo + 300 if hi is None else hi
        n_points = draw(st.integers(2, 4))
        heights = draw(
            st.lists(
                st.integers(lo + 5, span_hi - 5),
                min_size=n_points,
                max_size=n_points,
                unique=True,
            )
        )
        rules.append((float(lo), None if hi is None else float(hi), slope, intercept))
        points.extend((float(h), slope * h + intercept) for h in heights)
    return rules, [float(b) for b in breaks], points


@settings(max_examples=100, deadline=None)
@given(models_with_samples())
def test_fit_noiseless_recovery(case):
    rules, breakpoints, points = case
    result = fit_piecewise_linear(points, breakpoints)
    for fitted, (lo, hi, slope, intercept) in zip(result.model.segments, rules):
        assert fitted.slope == pytest.approx(slope, abs=1e-9)
        assert fitted.intercept == pytest.approx(intercept, abs=1e-9)
    assert result.residual_rms < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(WoodType, key=lambda w: w.value)),
    st.integers(0, 2),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_diameter_finite_differences(wood, seg_index, f1, f2):
    model = MODELS[wood]
    assume(seg_index < len(model.segments))
    seg = model.segments[seg_index]
    hi = seg.h_hi if seg.h_hi is not None else seg.h_lo + 1000.0
    h1 = seg.h_lo + f1 * (hi - seg.h_lo - 1e-9)
    h2 = seg.h_lo + f2 * (hi - seg.h_lo - 1e-9)
    assume(abs(h2 - h1) > 1.0)
    d1 = diameter_from_height(model, h1)
    d2 = diameter_from_height(model, h2)
    assert (d2 - d1) / (h2 - h1) == pytest.approx(seg.slope, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(-1.0, 1.0), st.floats(0.1, 0.9))
def test_integrate_additive(scale, shift, split_frac):
    f = lambda x: math.exp(-scale * x) * (x + shift) ** 2
    a, b = 0.0, 4.0
    c = a + split_frac * (b - a)
    whole = integrate(f, a, b)
    parts = integrate(f, a, c) + integrate(f, c, b)
    assert parts == pytest.approx(whole, rel=1e-9, abs=1e-13)
