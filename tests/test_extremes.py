"""Accuracy at the extremes: p near 0 and 1, long horizons where survival
underflows, and horizons just past the domain start.

Every spec in both cap modes is checked against the Decimal closed forms
of ``decimal_forms``.  The survivor term must come within 1e-12 relative
(the worst seen is 3.0e-13), also at horizons of 1e8 and 1e11 years with
p of 1e-12 and 1e-9, where rounding ``1 - p`` before the power would miss
it by up to 2.2e-6.  Held pieces (on a cap, or a tall tree's saturated
height) are closed form in canopy too, so each must come within 1e-14 (the
worst seen is 1.2e-15), and within 1e-13 at p = 1 - 1e-12, where cap
pieces fall to between 2e-199 and 4e-48 (the worst seen is 3.2e-16).  A
tall tree's tail starts at 966 to 6,324 years, where the float exponent
``lo ln(1 - p)`` nears 400 and its own rounding, up to 2^-52 of it,
passes 1e-14: there the bound is that rounding (the worst seen is 0.53 of
it; the largest error 3.3e-14), and a tail whose exact value lies below the least subnormal
must read 0.  Where p is the least subnormal, p times the store underflows
to a few subnormal ulps or exactly 0, so only finiteness and the report
invariants are checked there.
"""

import math
from decimal import Decimal

import pytest

from canopy import carbon
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

from decimal_forms import cap_piece, held_height, survivor_term

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
CHECKED_P = (1e-12, 1e-9, 0.027309, 0.06)
EXTREME_P = (1.0 - 1e-12, 5e-324)
HALF_LEAST_SUBNORMAL = Decimal(5e-324) / 2
# relative bound on cap pieces, by p
CAP_REL = {**dict.fromkeys(CHECKED_P, Decimal("1e-14")), 1.0 - 1e-12: Decimal("1e-13")}
START_OFFSETS = (1e-9, 0.5, 1.0, 1.001, 2.05)
# the first float age at which each tall tree's curve equals its supremum
SATURATION_AGE = {
    WoodType.DECIDUOUS: 966.1628152220591,
    WoodType.EVERGREEN: 1478.4039666255044,
    WoodType.CONIFER: 6323.626309161664,
}


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
                held = held_height(spec.wood.value, spec.size.value)
                exact = cap_piece(held, _rows(spec), p, C, piece.t_lo, piece.t_hi)
                bound = CAP_REL[p]
                if spec.size is SizeClass.TALL:
                    bound = max(bound, Decimal(2**-52 * abs(piece.t_lo * math.log1p(-p))))
                if exact < HALF_LEAST_SUBNORMAL:
                    assert segment.value == 0.0, (p, piece)
                else:
                    assert abs(Decimal(segment.value) - exact) <= bound * exact, (p, piece)
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
        last = report.segments[-1]
        if spec.size is not SizeClass.TALL:
            assert last.label.endswith("capped height")
        elif horizon - 1.0 > SATURATION_AGE[spec.wood]:
            assert last.label.endswith("saturated height")
            assert last.t_lo == SATURATION_AGE[spec.wood]
        else:
            assert last.label.endswith("growth branch")


@pytest.mark.parametrize("horizon", [1e8, 1e11])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_survivor_term_at_very_long_horizons(spec, horizon):
    for p in (1e-12, 1e-9):
        _check(spec, p, horizon)


@pytest.mark.parametrize("wood", list(WoodType))
def test_tall_tail_costs_no_evaluations(wood, monkeypatch):
    # past the saturation age the tail is closed form, so the longest
    # horizon integrates the same growth pieces as a horizon of 1e4
    spec = species(wood, SizeClass.TALL)
    calls = []
    integrate = carbon.integrate

    def counting(f, a, b):
        return integrate(lambda t: calls.append(t) or f(t), a, b)

    monkeypatch.setattr(carbon, "integrate", counting)
    counts = []
    for horizon in (1e4, 1e308):
        calls.clear()
        _check(spec, 0.027309, horizon)
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]


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
