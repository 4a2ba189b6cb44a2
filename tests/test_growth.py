import inspect
import math
import pickle
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canopy import (
    DiameterModel,
    DiameterSegment,
    DomainError,
    RangeError,
    SizeClass,
    SpeciesSpec,
    UnknownSpeciesError,
    ValidationError,
    WoodType,
    all_species,
    default_removal_model,
    diameter_from_height,
    expected_absorption,
    height,
    integration_segments,
    species,
    time_at_height,
)
from canopy.growth import (
    _BOUNDARY_EPS,
    MEDIUM_CAP_HEIGHT_CM,
    MEDIUM_CAP_TIME_YEARS,
    SHRUB_CAP_HEIGHT_CM,
    SHRUB_CAP_TIME_YEARS,
    _cap_boundary,
    uncapped_height,
)

from decimal_forms import conifer_time_at_height
from reference_values import BOUNDARIES

REL = 1e-6


class TestHeight:
    @pytest.mark.parametrize(
        "wood,size,t,expected",
        [
            ("evergreen", "tall", 100.0, 2301.206775),
            ("conifer", "tall", 100.0, 3242.616118),
            ("deciduous", "tall", 100.0, 2448.066545),
        ],
    )
    def test_reference_heights(self, wood, size, t, expected):
        assert height(species(wood, size), t) == pytest.approx(expected, rel=REL)

    def test_zero_at_planting(self):
        assert height(species("evergreen", "tall"), 0.0) == 0.0
        assert height(species("deciduous", "medium"), 0.0) == 0.0

    def test_medium_cap_value(self):
        # the cap applies from 16.412 on, for every wood type
        for wood in WoodType:
            assert height(species(wood, "medium"), 20.0) == 850.0
            assert height(species(wood, "medium"), MEDIUM_CAP_TIME_YEARS) == 850.0

    def test_shrub_linear(self):
        for wood in ("evergreen", "deciduous"):
            assert height(species(wood, "shrub"), 2.0) == pytest.approx(215.0)
        assert height(species("conifer", "shrub"), 2.0) == pytest.approx(215.0)

    def test_conifer_domain(self):
        spec = species("conifer", "tall")
        assert height(spec, 1.0) == pytest.approx(35.0)
        with pytest.raises(DomainError):
            height(spec, 0.5)
        with pytest.raises(DomainError):
            height(species("conifer", "shrub"), 0.0)

    def test_array_evaluation_matches_scalars(self):
        # vector and scalar SIMD paths may differ by an ulp; only the bare
        # curve takes an array
        for spec in all_species():
            ts = np.linspace(spec.domain_start, 99.0, 37)
            vectored = spec.curve(ts)
            looped = np.array([spec.curve(float(t)) for t in ts])
            np.testing.assert_allclose(vectored, looped, rtol=1e-14, atol=0.0)

    def test_tall_strictly_increasing_and_bounded(self):
        bounds = {"evergreen": 2500.0, "deciduous": 2500.0, "conifer": 35.0 + 5471.0}
        for wood, bound in bounds.items():
            spec = species(wood, "tall")
            hs = [height(spec, float(t)) for t in np.linspace(spec.domain_start, 300.0, 500)]
            assert all(a < b for a, b in zip(hs, hs[1:]))
            assert all(h < bound for h in hs)

    @pytest.mark.parametrize(
        "wood,t_sat,sup",
        [
            ("deciduous", 966.1628152220591, 2500.0),
            ("evergreen", 1478.4039666255044, 2500.0),
            ("conifer", 6323.626309161664, 35.0 + 5471.0),
        ],
    )
    def test_tall_height_saturates_at_one_float_age(self, wood, t_sat, sup):
        # the float curve reaches its supremum at t_sat and stays there, so
        # a tall tree holds its height from t_sat like a cap from its age
        spec = species(wood, "tall")
        assert _cap_boundary(spec) == _cap_boundary(species(wood, "tall", continuous_cap=True)) == t_sat
        before = math.nextafter(t_sat, 0.0)
        assert height(spec, before) == uncapped_height(spec, before) < sup
        assert height(spec, t_sat) == uncapped_height(spec, t_sat) == sup
        ages = np.geomspace(t_sat, 1e308, 2001)
        assert all(uncapped_height(spec, float(t)) == sup for t in ages)
        held = [height(spec, float(t)) for t in (before, *ages)]
        assert held[0] < sup and all(h == sup for h in held[1:])

    def test_medium_cap_continuity_evergreen_only(self):
        # evergreen reaches 850 at the cap age; the others drop onto it
        eps = 1e-9
        assert uncapped_height(species("evergreen", "medium"), MEDIUM_CAP_TIME_YEARS) == pytest.approx(
            MEDIUM_CAP_HEIGHT_CM, abs=0.1
        )
        assert uncapped_height(species("deciduous", "medium"), MEDIUM_CAP_TIME_YEARS) == pytest.approx(1176.24, abs=0.01)
        assert uncapped_height(species("conifer", "medium"), MEDIUM_CAP_TIME_YEARS) == pytest.approx(1137.34, abs=0.01)
        for wood in WoodType:
            assert height(species(wood, "medium"), MEDIUM_CAP_TIME_YEARS + eps) == 850.0

    def test_shrub_cap_continuity(self):
        assert 107.5 * SHRUB_CAP_TIME_YEARS == pytest.approx(400.0, abs=1e-3)
        assert height(species("evergreen", "shrub"), SHRUB_CAP_TIME_YEARS) == 400.0

    def test_continuous_cap_variant(self):
        spec = species("deciduous", "medium", continuous_cap=True)
        t_cross = time_at_height(spec, 850.0)
        assert height(spec, t_cross - 1e-6) == pytest.approx(850.0, abs=1e-3)
        assert height(spec, t_cross + 1e-6) == 850.0
        # before the crossing the curve is untouched
        assert height(spec, 5.0) == height(species("deciduous", "medium"), 5.0)


class TestTimeAtHeight:
    @pytest.mark.parametrize(
        "wood,size,h,expected",
        [
            ("evergreen", "tall", 250.0, 4.16151),
            ("deciduous", "tall", 300.0, 3.29970),
            ("conifer", "tall", 300.0, 2.68909),
        ],
    )
    def test_published_boundaries(self, wood, size, h, expected):
        assert time_at_height(species(wood, size), h) == pytest.approx(expected, abs=1e-3)

    def test_shrub_closed_form(self):
        t = time_at_height(species("evergreen", "shrub"), 400.0)
        assert t == pytest.approx(400.0 / 107.5, abs=1e-12)
        assert t == pytest.approx(3.72093, abs=1e-3)

    def test_inverts_height(self):
        for spec in all_species():
            upper = spec.cap_time if spec.cap_time is not None else 150.0
            for t in np.linspace(spec.domain_start, upper * 0.999, 17):
                h = uncapped_height(spec, float(t))
                if h <= 0.0:
                    continue
                assert time_at_height(spec, h) == pytest.approx(float(t), abs=1e-6)

    def test_conifer_inverse_matches_decimal(self):
        # 2,003 heights across [35, 5506): the inverse's condition number
        # grows without bound towards the supremum 5506, and stays below
        # about 300 on this grid
        spec = species("conifer", "tall")
        for k in range(2003):
            h = 35.0 + 5471.0 * k / 2003
            exact = conifer_time_at_height(h)
            assert abs(Decimal(time_at_height(spec, h)) - exact) <= Decimal("1e-12") * exact, h

    def test_unreachable_heights(self):
        with pytest.raises(RangeError):
            time_at_height(species("evergreen", "tall"), 2500.0)
        with pytest.raises(RangeError):
            time_at_height(species("conifer", "tall"), 20.0)  # below H(1) = 35
        with pytest.raises(RangeError):
            time_at_height(species("conifer", "shrub"), 50.0)  # below H(1) = 107.5
        with pytest.raises(DomainError):
            time_at_height(species("evergreen", "tall"), -1.0)


class TestDiameter:
    @pytest.mark.parametrize(
        "wood,h,expected",
        [
            ("evergreen", 850.0, 32.633),
            ("deciduous", 850.0, 26.8747),
            ("conifer", 400.0, 7.6015),
        ],
    )
    def test_reference_diameters(self, models, wood, h, expected):
        d = diameter_from_height(models[WoodType(wood)], h)
        assert d == pytest.approx(expected, rel=REL)

    def test_zero_height(self, models):
        assert diameter_from_height(models[WoodType.EVERGREEN], 0.0) == 0.0

    def test_boundary_belongs_to_upper_segment(self, models):
        eg = models[WoodType.EVERGREEN]
        # discontinuous at 300: upper rule owns the boundary
        assert diameter_from_height(eg, 300.0) == pytest.approx(0.051 * 300 - 10.717)
        assert diameter_from_height(eg, 299.999999) == pytest.approx(
            0.0318 * 299.999999 - 4.4586
        )
        assert diameter_from_height(eg, 250.0) == pytest.approx(0.0318 * 250 - 4.4586)

    def test_negative_height_rejected(self, models):
        with pytest.raises(DomainError):
            diameter_from_height(models[WoodType.CONIFER], -0.1)

    def test_default_model_coefficients(self, models):
        eg = [(s.slope, s.intercept) for s in models[WoodType.EVERGREEN].segments]
        assert eg == [(0.014, 0.0), (0.0318, -4.4586), (0.051, -10.717)]
        dc = [(s.slope, s.intercept) for s in models[WoodType.DECIDUOUS].segments]
        assert dc == [(0.0096, 1.2208), (0.0429, -9.5903)]
        cf = [(s.slope, s.intercept) for s in models[WoodType.CONIFER].segments]
        assert cf == [(0.0127, 0.9554), (0.0332, -5.6785)]

    def test_finite_differences_match_slope(self, models):
        probes = {
            WoodType.EVERGREEN: [(10.0, 200.0), (255.0, 295.0), (400.0, 900.0)],
            WoodType.DECIDUOUS: [(10.0, 250.0), (400.0, 1000.0)],
            WoodType.CONIFER: [(10.0, 250.0), (400.0, 1000.0)],
        }
        for wood, pairs in probes.items():
            model = models[wood]
            for (h1, h2), seg in zip(pairs, model.segments):
                d1 = diameter_from_height(model, h1)
                d2 = diameter_from_height(model, h2)
                assert (d2 - d1) / (h2 - h1) == pytest.approx(seg.slope, rel=1e-12)

    def test_model_validation(self):
        seg = DiameterSegment
        with pytest.raises(ValidationError):  # gap between segments
            DiameterModel(None, (seg(0.0, 100.0, 0.01, 0.0), seg(150.0, None, 0.02, 0.0)))
        with pytest.raises(ValidationError):  # nonpositive slope
            DiameterModel(None, (seg(0.0, None, -0.01, 5.0),))
        with pytest.raises(ValidationError):  # negative diameter at segment start
            DiameterModel(None, (seg(0.0, 100.0, 0.01, 0.0), seg(100.0, None, 0.05, -20.0)))
        with pytest.raises(ValidationError):  # must start at 0
            DiameterModel(None, (seg(10.0, None, 0.01, 0.0),))
        with pytest.raises(ValidationError):  # must end open
            DiameterModel(None, (seg(0.0, 100.0, 0.01, 0.0),))
        with pytest.raises(ValidationError, match="^diameter model needs at least one segment$"):
            DiameterModel(None, ())
        with pytest.raises(ValidationError, match="^empty segment at height 100.0$"):
            DiameterModel(None, (
                seg(0.0, 100.0, 0.01, 0.0), seg(100.0, 100.0, 0.01, 0.0), seg(100.0, None, 0.01, 0.0),
            ))

    @pytest.mark.parametrize(
        "field,row",
        [
            ("h_lo", (math.nan, None, 0.01, 0.0)),
            ("h_hi", (0.0, math.inf, 0.01, 0.0)),
            ("slope", (0.0, None, math.nan, 0.0)),
            ("intercept", (0.0, None, 0.01, -math.inf)),
        ],
    )
    def test_segment_rejects_non_finite(self, field, row):
        with pytest.raises(ValidationError, match=field):
            DiameterSegment(*row)


class TestSpecies:
    def test_all_species_covers_nine(self):
        specs = all_species()
        assert len(specs) == 9
        assert len({(s.wood, s.size) for s in specs}) == 9

    @pytest.mark.parametrize("continuous_cap", [False, True])
    @pytest.mark.parametrize("size", list(SizeClass))
    @pytest.mark.parametrize("wood", list(WoodType))
    def test_derived_attributes(self, wood, size, continuous_cap):
        caps = {"tall": (None, None), "medium": (850.0, 16.412), "shrub": (400.0, 3.72093)}
        spec = SpeciesSpec(wood, size, continuous_cap)
        assert (spec.cap_height, spec.cap_time) == caps[size.value]
        assert spec.domain_start == (1.0 if wood is WoodType.CONIFER else 0.0)
        sups = {"evergreen": 2500.0, "deciduous": 2500.0, "conifer": 5506.0}
        assert spec.sup_height == (math.inf if size is SizeClass.SHRUB else sups[wood.value])
        # the curve and its inverse undo each other
        h = spec.curve(spec.domain_start + 2.5)
        assert spec.inverse(h) == pytest.approx(spec.domain_start + 2.5, rel=1e-12)
        # instance attributes, set once, rather than properties
        derived = {"cap_height", "cap_time", "domain_start", "curve", "inverse", "sup_height"}
        assert derived <= set(vars(spec))
        assert spec == species(wood.value, size.value, continuous_cap=continuous_cap)
        # equality and hashing see (wood, size, continuous_cap) alone
        every = {
            SpeciesSpec(w, s, c) for w in WoodType for s in SizeClass for c in (False, True)
        }
        assert len(every) == 18
        assert [other for other in every if other == spec] == [spec]
        assert hash(spec) == hash((wood, size, continuous_cap))

    def test_constructor_takes_wood_size_and_cap_mode_only(self):
        assert list(inspect.signature(SpeciesSpec).parameters) == [
            "wood", "size", "continuous_cap",
        ]
        assert repr(species("conifer", "shrub")) == (
            "SpeciesSpec(wood=<WoodType.CONIFER: 'conifer'>, "
            "size=<SizeClass.SHRUB: 'shrub'>, continuous_cap=False)"
        )

    def test_species_hands_out_one_instance_per_case(self):
        spec = species("conifer", "medium", continuous_cap=True)
        assert spec is species(WoodType.CONIFER, SizeClass.MEDIUM, continuous_cap=True)
        assert spec is not species("conifer", "medium")
        built = SpeciesSpec(WoodType.CONIFER, SizeClass.MEDIUM, True)
        assert built == spec and hash(built) == hash(spec) and built is not spec
        assert len({id(species(w, s, continuous_cap=c))
                    for w in WoodType for s in SizeClass for c in (False, True)}) == 18

    @pytest.mark.parametrize(
        "wood,size,message",
        [
            ("oak", "tall", "'oak' is not a valid WoodType"),
            ("conifer", "huge", "'huge' is not a valid SizeClass"),
            ("Conifer", "huge", "'Conifer' is not a valid WoodType"),
        ],
    )
    def test_species_rejects_unknown_names(self, wood, size, message):
        with pytest.raises(UnknownSpeciesError, match=message):
            species(wood, size)

    def test_domain_start(self):
        assert species("conifer", "shrub").domain_start == 1.0
        assert species("deciduous", "shrub").domain_start == 0.0

    def test_spec_built_from_names_is_the_shared_spec(self, models, constant):
        built, shared = SpeciesSpec("conifer", "tall"), species("conifer", "tall")
        assert built.wood is WoodType.CONIFER and built.size is SizeClass.TALL
        assert built.domain_start == 1.0 and hash(built) == hash(shared)
        assert height(built, 2.0) == height(shared, 2.0)
        with pytest.raises(DomainError):
            height(built, 0.5)
        args = (models[WoodType.CONIFER], default_removal_model("tall"), constant)
        assert expected_absorption(built, *args) == expected_absorption(shared, *args)

    def test_pickled_spec_is_rebuilt_from_its_fields(self, models, constant):
        spec = species("conifer", "medium", continuous_cap=True)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and vars(copy) == vars(spec)
        args = (models[WoodType.CONIFER], default_removal_model("medium"), constant)
        report = expected_absorption(spec, *args)
        assert pickle.loads(pickle.dumps(report)) == report

    @pytest.mark.parametrize("wood,size", [("oak", "tall"), ("conifer", "huge")])
    def test_spec_rejects_unknown_names(self, wood, size):
        with pytest.raises(UnknownSpeciesError):
            SpeciesSpec(wood, size)


def _ulps(x, k):
    """``x`` moved ``k`` ulps (up for positive ``k``)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_SPECS18 = [species(w, s, continuous_cap=c) for w in WoodType for s in SizeClass for c in (False, True)]
# the highest growth-branch height a capped curve reaches: a snapped medium
# curve stands above 850 cm at the cap age
_TOP_CAPPED = max(s.curve(s.cap_time) for s in _SPECS18 if s.cap_time is not None)

_BOUNDARY_HEIGHTS = st.one_of(
    st.floats(1.0, 34.0),  # below the conifer curve's start height
    st.floats(35.0, 2499.0),  # inside the growth range
    st.floats(MEDIUM_CAP_HEIGHT_CM, _TOP_CAPPED),  # above the cap, below a snapped curve
    st.builds(_ulps, st.sampled_from([MEDIUM_CAP_HEIGHT_CM, SHRUB_CAP_HEIGHT_CM]), st.integers(-4, 4)),
    st.floats(5506.0, 9000.0, exclude_min=True),  # above every supremum
)


@st.composite
def _caller_models(draw):
    """A caller's model with one to four boundaries of the kinds above."""
    heights = sorted(set(draw(st.lists(_BOUNDARY_HEIGHTS, min_size=1, max_size=4))))
    edges = [0.0, *heights, None]
    slopes = draw(st.lists(st.floats(0.001, 0.06), min_size=len(heights) + 1, max_size=len(heights) + 1))
    return DiameterModel(None, tuple(
        DiameterSegment(lo, hi, slope, 1.0) for lo, hi, slope in zip(edges, edges[1:], slopes)
    ))


class TestIntegrationSegments:
    @settings(max_examples=300, deadline=None)
    @given(spec=st.sampled_from(_SPECS18), model=_caller_models(), data=st.data())
    def test_walk_cuts_each_crossing_once(self, spec, model, data):
        start, held_from = spec.domain_start, _cap_boundary(spec)
        # any horizon, or one whose last cut lies within a few _BOUNDARY_EPS of the held age
        near_held = st.builds(_ulps, st.just(held_from + 1.0), st.integers(-3000, 3000))
        horizon = data.draw(st.floats(start, 1e4, exclude_min=True) | near_held, label="horizon")
        pieces = integration_segments(spec, model, horizon)
        upper = horizon - 1.0
        if upper <= start:
            assert pieces == ()
            return
        # the pieces tile [start, horizon - 1], each wider than _BOUNDARY_EPS
        # unless it is the only one
        assert pieces[0].t_lo == start and pieces[-1].t_hi == upper
        assert all(a.t_hi == b.t_lo for a, b in zip(pieces, pieces[1:]))
        assert all(p.t_hi - p.t_lo > _BOUNDARY_EPS for p in pieces) or len(pieces) == 1
        for p in pieces:
            mid = 0.5 * (p.t_lo + p.t_hi)
            assert p.on_cap == (mid >= held_from)
            assert p.diameter_segment.covers(height(spec, mid))
            assert p.label.endswith("growth branch") != p.on_cap
        # a boundary crossed on the growth branch, clear of every other cut, is a bound
        crossings = []
        for seg in model.segments[1:]:
            try:
                crossings.append(time_at_height(spec, seg.h_lo))
            except RangeError:  # below the curve's start or at/above its supremum
                pass
        cuts = [start, upper, *([held_from] if held_from < upper else []), *crossings]
        lows = {p.t_lo for p in pieces}
        for t in crossings:
            clear = sum(abs(t - c) <= _BOUNDARY_EPS for c in cuts) == 1
            if start < t < min(held_from, upper) and clear:
                assert t in lows

    @pytest.mark.parametrize("wood,size", list(BOUNDARIES))
    def test_boundaries_match_published(self, models, wood, size):
        spec = species(wood, size)
        pieces = integration_segments(spec, models[spec.wood], 100.0)
        got = [pieces[0].t_lo] + [p.t_hi for p in pieces]
        expected = BOUNDARIES[(wood, size)]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-3)

    def test_shrub_diameter_crossing_exact(self, models):
        spec = species("deciduous", "shrub")
        pieces = integration_segments(spec, models[spec.wood], 100.0)
        assert pieces[0].t_hi == pytest.approx(300.0 / 107.5, abs=1e-12)

    def test_cover_without_gaps(self, models):
        for spec in all_species():
            pieces = integration_segments(spec, models[spec.wood], 100.0)
            assert pieces[0].t_lo == spec.domain_start
            assert pieces[-1].t_hi == 99.0
            for left, right in zip(pieces[:-1], pieces[1:]):
                assert left.t_hi == right.t_lo
                assert left.t_hi > left.t_lo

    def test_cap_pieces_flagged(self, models):
        spec = species("evergreen", "medium")
        pieces = integration_segments(spec, models[spec.wood], 100.0)
        assert [p.on_cap for p in pieces] == [False, False, False, True]
        assert "capped" in pieces[-1].label

    def test_active_rule_recorded(self, models):
        spec = species("evergreen", "tall")
        pieces = integration_segments(spec, models[spec.wood], 100.0)
        slopes = [p.diameter_segment.slope for p in pieces]
        assert slopes == [0.014, 0.0318, 0.051]

    def test_short_horizon_single_piece(self, models):
        spec = species("evergreen", "tall")
        pieces = integration_segments(spec, models[spec.wood], 4.0)
        assert len(pieces) == 1
        assert (pieces[0].t_lo, pieces[0].t_hi) == (0.0, 3.0)

    def test_degenerate_horizon(self, models):
        spec = species("evergreen", "tall")
        assert integration_segments(spec, models[spec.wood], 0.5) == ()
        with pytest.raises(DomainError):
            integration_segments(species("conifer", "tall"), models[WoodType.CONIFER], 1.0)

    @pytest.mark.parametrize(
        "horizon,message",
        [
            (math.nan, r"^horizon must lie in \(0, inf\), got nan$"),
            (math.inf, r"^horizon must lie in \(0, inf\), got inf$"),
            (-math.inf, r"^horizon must lie in \(0, inf\), got -inf$"),
            (0.0, r"^horizon must lie in \(0, inf\), got 0.0$"),
        ],
        # each case keeps the id it had before the message moved
        ids=["nan-finite", "inf-finite", "-inf-finite", "0.0-domain start 0.0"],
    )
    def test_horizon_rejected(self, models, horizon, message):
        spec = species("evergreen", "tall")
        with pytest.raises(DomainError, match=message):
            integration_segments(spec, models[spec.wood], horizon)

    def test_continuous_cap_moves_cap_boundary(self, models):
        spec = species("deciduous", "medium", continuous_cap=True)
        pieces = integration_segments(spec, models[spec.wood], 100.0)
        cap_start = next(p.t_lo for p in pieces if p.on_cap)
        # curve reaches 850 well before the fixed cap age
        assert cap_start == pytest.approx(
            math.log(1.0 - 850.0 / 2500.0) / math.log(0.962), abs=1e-6
        )
        assert cap_start < MEDIUM_CAP_TIME_YEARS
