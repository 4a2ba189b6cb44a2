"""Accuracy at the extremes: p near 0 and 1, long horizons where survival
underflows, and horizons just past the domain start.

Every spec in both cap modes is checked against the Decimal closed forms
of ``decimal_forms``.  The survivor term must come within 1e-12 relative
(the worst seen is 3.0e-13).  Cap pieces are closed form in canopy too, so
each must come within 1e-14 (the worst seen is 1.2e-15), and within 1e-13
at p = 1 - 1e-12, where they fall to between 2e-199 and 4e-48 (the worst
seen is 3.2e-16).  Where p is the least subnormal, p times the store
underflows to a few subnormal ulps or exactly 0, so only finiteness and
the report invariants are checked there.
"""

import math
from decimal import Decimal

import pytest

from canopy import (
    RemovalModel,
    SizeClass,
    WoodType,
    default_carbon_constant,
    default_diameter_models,
    expected_absorption,
    integration_segments,
    species,
)

from decimal_forms import cap_piece, survivor_term

MODELS = default_diameter_models()
C = default_carbon_constant().c
REL = Decimal("1e-12")

SPECS = [
    species(wood, size, continuous_cap=continuous)
    for continuous in (False, True)
    for size in SizeClass
    for wood in WoodType
]
SPEC_IDS = [
    f"{s.wood.value}-{s.size.value}{'-continuous' if s.continuous_cap else ''}"
    for s in SPECS
]
CHECKED_P = (1e-12, 0.027309, 0.06)
EXTREME_P = (1.0 - 1e-12, 5e-324)
# relative bound on cap pieces, by p
CAP_REL = {**dict.fromkeys(CHECKED_P, Decimal("1e-14")), 1.0 - 1e-12: Decimal("1e-13")}
START_OFFSETS = (1e-9, 0.5, 1.0, 1.001, 2.05)


def _rows(spec):
    return [(s.h_lo, s.h_hi, s.slope, s.intercept) for s in MODELS[spec.wood].segments]


def _check(spec, p, horizon):
    report = expected_absorption(
        spec, MODELS[spec.wood], RemovalModel(p), default_carbon_constant(), horizon
    )
    values = [s.value for s in report.segments] + [report.creditable, report.expected_total]
    assert all(math.isfinite(v) and v >= 0.0 for v in values), (p, values)
    assert report.creditable <= report.expected_total
    total = math.fsum([s.value for s in report.segments] + [report.creditable])
    assert abs(total - report.expected_total) <= 1e-9 * report.expected_total
    if p in CAP_REL:
        pieces = integration_segments(spec, MODELS[spec.wood], horizon)
        for piece, segment in zip(pieces, report.segments):
            if piece.on_cap:
                exact = cap_piece(spec.size.value, _rows(spec), p, C, piece.t_lo, piece.t_hi)
                assert abs(Decimal(segment.value) - exact) <= CAP_REL[p] * exact, (p, piece)
    if p in CHECKED_P:
        exact = survivor_term(
            spec.wood.value, spec.size.value, spec.continuous_cap, _rows(spec), p, C, horizon
        )
        assert abs(Decimal(report.creditable) - exact) <= REL * exact, (p, report.creditable)
    return report


@pytest.mark.parametrize("horizon", [100.0, 5000.0])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_long_horizons(spec, horizon):
    for p in CHECKED_P + EXTREME_P:
        report = _check(spec, p, horizon)
        if spec.size is not SizeClass.TALL:
            assert report.segments[-1].label.endswith("capped height")


@pytest.mark.parametrize("offset", START_OFFSETS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_horizons_just_past_start(spec, offset):
    horizon = spec.domain_start + offset
    for p in CHECKED_P + EXTREME_P:
        report = _check(spec, p, horizon)
        if horizon - 1.0 <= spec.domain_start:
            assert report.segments == ()
            assert integration_segments(spec, MODELS[spec.wood], horizon) == ()
        else:
            assert report.segments[-1].t_hi == horizon - 1.0
