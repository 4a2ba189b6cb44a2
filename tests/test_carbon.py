import math

import pytest

import canopy.carbon
from canopy import (
    AbsorptionReport,
    CarbonConstant,
    CarbonFactors,
    DiameterModel,
    DiameterSegment,
    DomainError,
    RemovalModel,
    SegmentAbsorption,
    SizeClass,
    TimeSegment,
    ValidationError,
    WoodType,
    all_species,
    carbon_constant,
    creditable_absorption,
    default_carbon_factors,
    default_removal_model,
    diameter_from_height,
    expected_absorption,
    height,
    integration_segments,
    species,
    stored_co2,
    survival_fraction,
    uncapped_height,
)
from canopy.carbon import segment_integrand

from midpoint import integrate_reference
from reference_values import (
    FACTOR_PRODUCT_CF_051,
    FACTOR_PRODUCT_CF_LONG,
    PUBLISHED_CONSTANT,
    SEGMENTS,
    SUMMARY,
)


class TestCarbonConstant:
    def test_default_factor_product(self):
        c = carbon_constant(default_carbon_factors()).c
        assert c == pytest.approx(FACTOR_PRODUCT_CF_051, rel=1e-15)
        # the published constant was multiplied out with 44/12 truncated to
        # 3.6666666, which puts it 1.8e-8 relative below the exact product
        assert c == pytest.approx(PUBLISHED_CONSTANT, rel=5e-8)

    def test_long_cf_reading(self):
        c = carbon_constant(
            CarbonFactors(1.664736867, 0.2715789378, 0.3978947401, 0.509999999905)
        ).c
        assert c == pytest.approx(FACTOR_PRODUCT_CF_LONG, rel=1e-15)
        # both carbon-fraction readings shift the product by < 2e-10
        assert abs(c - FACTOR_PRODUCT_CF_051) / FACTOR_PRODUCT_CF_051 < 2e-10

    def test_factors_cancel(self):
        c = carbon_constant(CarbonFactors(1.0, 0.0, 1.0, 12.0 / 44.0)).c
        assert c == pytest.approx(1e-6, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CarbonFactors(1.0, 0.2, 0.4, 1.5)  # cf > 1
        with pytest.raises(ValidationError):
            CarbonFactors(1.0, 5.0, 0.4, 0.5)  # rtsr sanity bound
        with pytest.raises(ValidationError):
            CarbonFactors(0.0, 0.2, 0.4, 0.5)
        with pytest.raises(ValidationError):
            CarbonFactors(1.0, -0.1, 0.4, 0.5)
        with pytest.raises(ValidationError):
            CarbonConstant(0.0)

    @pytest.mark.parametrize(
        "factors,message",
        [
            ((10.0, 0.2, 0.4, 0.5), r"^bef must lie in \(0, 10\), got 10.0$"),
            ((1.0, 5.0, 0.4, 0.5), r"^rtsr must lie in \[0, 5\), got 5.0$"),
            ((1.0, 0.2, 2.0, 0.5), r"^bd must lie in \(0, 2\), got 2.0$"),
        ],
        # each case keeps the id it had before the message moved
        ids=["factors0-bef 10.0 fails sanity bound 10.0", "factors1-rtsr 5.0 fails sanity bound 5.0",
             "factors2-bd 2.0 fails sanity bound 2.0"],
    )
    def test_factor_upper_bounds(self, factors, message):
        with pytest.raises(ValidationError, match=message):
            CarbonFactors(*factors)

    def test_largest_factors_stay_inside_constant_bound(self):
        below = [math.nextafter(bound, 0.0) for bound in (10.0, 5.0, 2.0)]
        factors = CarbonFactors(below[0], below[1], below[2], 1.0)
        assert carbon_constant(factors).c == pytest.approx(4.4e-4, rel=1e-12)
        assert CarbonConstant(math.nextafter(1e-3, 0.0)).c < 1e-3
        with pytest.raises(ValidationError, match=r"^c must lie in \(0, 0.001\), got 0.001$"):
            CarbonConstant(1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["bef", "rtsr", "bd", "cf"])
    def test_factors_reject_non_finite(self, field, bad):
        values = {"bef": 1.6, "rtsr": 0.27, "bd": 0.4, "cf": 0.51, field: bad}
        with pytest.raises(ValidationError, match=field):
            CarbonFactors(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constant_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match=rf"^c must lie in \(0, 0.001\), got {bad}$"):
            CarbonConstant(bad)


class TestSegmentIntegrand:
    P_VALUES = (1e-12, 0.027309, 0.5)

    @staticmethod
    def _specs():
        return [species(w, s, continuous_cap=c) for w in WoodType for s in SizeClass
                for c in (False, True)]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_growth_pieces_match_the_per_layer_expression_bitwise(self, models, constant, p):
        removal = RemovalModel(p)
        checked = 0
        for spec in self._specs():
            horizons = (2.05, 20.0, 100.0, 1000.0) + ((1.5,) if spec.domain_start == 0.0 else ())
            for horizon in horizons:
                for piece in integration_segments(spec, models[spec.wood], horizon):
                    if piece.on_cap:
                        continue
                    f = segment_integrand(spec, piece, removal, constant)
                    rule = piece.diameter_segment
                    width = piece.t_hi - piece.t_lo
                    for frac in (0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0):
                        t = piece.t_hi if frac == 1.0 else piece.t_lo + frac * width
                        h = uncapped_height(spec, t)
                        store = canopy.carbon._cylinder(h, rule.diameter(h), constant.c)
                        want = survival_fraction(removal, t) * removal.p * store
                        assert f(t) == want, (spec, horizon, piece.label, t)
                        checked += 1
        assert checked > 500

    def test_piece_before_domain_start_raises_when_built(self, models, constant):
        spec = species("conifer", "tall")
        rule = models[spec.wood].segments[0]
        piece = TimeSegment(0.5, 2.0, "hand-made", rule, False)
        with pytest.raises(DomainError, match="t must be >= 1.0 for conifer tall"):
            segment_integrand(spec, piece, default_removal_model(spec.size), constant)


class TestStoredCo2:
    def test_survivor_weighted_store_matches_reference(self, models, constant):
        spec = species("evergreen", "tall")
        removal = default_removal_model(spec.size)
        weighted = survival_fraction(removal, 100.0) * stored_co2(
            spec, models[spec.wood], constant, 100.0
        )
        assert weighted == pytest.approx(2.031006398, rel=1e-6)

    def test_zero_height_stores_nothing(self, models, constant):
        assert stored_co2(species("evergreen", "tall"), models[species("evergreen", "tall").wood], constant, 0.0) == 0.0

    def test_capped_store_direct_product(self, models, constant):
        # hand product of already-verified factors: 850 cm at d = 26.8747
        spec = species("deciduous", "medium")
        value = stored_co2(spec, models[spec.wood], constant, 50.0)
        assert value == pytest.approx(0.7594423029352575, rel=1e-12)
        weighted = survival_fraction(default_removal_model(spec.size), 100.0) * value
        assert weighted == pytest.approx(0.056216986, rel=1e-6)


    @pytest.mark.parametrize("size", list(SizeClass))
    def test_overflowing_store_is_domain_error(self, constant, size):
        # each model takes a store past the float range, which every call
        # refuses by one test, not store < inf: a finite diameter whose square
        # passes the range (1e200), an infinite diameter (1e306), and two
        # segments, where the height at 50 reads the second segment's infinite
        # diameter and the in-process pieces below 300 cm square the first's
        spec = species("evergreen", size)
        removal = default_removal_model(size)
        for rows in [
            ((0.0, None, 1e200, 0.0),),
            ((0.0, None, 1e306, 0.0),),
            ((0.0, 300.0, 1e305, 0.0), (300.0, None, 1e306, 0.0)),
        ]:
            model = DiameterModel(None, tuple(DiameterSegment(*row) for row in rows))
            calls = [
                lambda: stored_co2(spec, model, constant, 50.0),
                lambda: creditable_absorption(spec, model, removal, constant, 50.0),
                lambda: expected_absorption(spec, model, removal, constant, 50.0),
            ]
            for call in calls:
                with pytest.raises(DomainError, match="^stored CO2 overflows the float range$"):
                    call()

    def test_segment_that_does_not_cover_the_height_is_not_read(self, constant):
        # the first segment's diameter overflows above about 1.8e2 cm; a
        # height on the second segment reads that segment alone
        spec = species("evergreen", "tall")
        removal = default_removal_model(spec.size)
        model = DiameterModel(
            None, (DiameterSegment(0.0, 300.0, 1e306, 0.0), DiameterSegment(300.0, None, 0.05, -10.0))
        )
        h = height(spec, 50.0)
        assert diameter_from_height(model, h) == 0.05 * h - 10.0
        assert stored_co2(spec, model, constant, 50.0) == pytest.approx(14.1234, rel=1e-5)
        assert creditable_absorption(spec, model, removal, constant, 50.0) == pytest.approx(3.53739, rel=1e-5)
        # the in-process term still reaches the first piece, whose store overflows
        with pytest.raises(DomainError, match="^stored CO2 overflows the float range$"):
            expected_absorption(spec, model, removal, constant, 50.0)


class TestCreditable:
    @pytest.mark.parametrize(
        "wood,size",
        [("evergreen", "tall"), ("conifer", "tall"), ("evergreen", "shrub")],
    )
    def test_reference_values(self, models, constant, wood, size):
        spec = species(wood, size)
        value = creditable_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant
        )
        assert value == pytest.approx(SUMMARY[(wood, size)][3], rel=1e-6)

    def test_vanishes_as_p_approaches_one(self, models, constant):
        spec = species("evergreen", "tall")
        value = creditable_absorption(
            spec, models[spec.wood], RemovalModel(0.999999), constant
        )
        assert value < 1e-100

    @pytest.mark.parametrize("function", [creditable_absorption, expected_absorption])
    @pytest.mark.parametrize(
        "wood,horizon,message",
        [
            ("evergreen", math.nan, r"^horizon must lie in \(0, inf\), got nan$"),
            ("evergreen", math.inf, r"^horizon must lie in \(0, inf\), got inf$"),
            ("evergreen", -math.inf, r"^horizon must lie in \(0, inf\), got -inf$"),
            ("evergreen", -1.0, r"^horizon must lie in \(0, inf\), got -1.0$"),
            ("conifer", 0.5, r"^horizon must lie in \(1, inf\), got 0.5$"),
        ],
        # each case keeps the id it had before the message moved
        ids=["evergreen-nan-finite", "evergreen-inf-finite", "evergreen--inf-finite",
             "evergreen--1.0-domain start 0.0", "conifer-0.5-domain start 1.0"],
    )
    def test_horizon_rejected(self, models, constant, function, wood, horizon, message):
        spec = species(wood, "tall")
        with pytest.raises(DomainError, match=message):
            function(spec, models[spec.wood], RemovalModel(0.027309), constant, horizon)

    def test_monotone_in_p(self, models, constant):
        spec = species("deciduous", "tall")
        model = models[spec.wood]
        values = [
            creditable_absorption(spec, model, RemovalModel(p), constant)
            for p in (0.01, 0.02, 0.05, 0.2)
        ]
        assert values == sorted(values, reverse=True)


class TestExpectedAbsorption:
    def test_evergreen_tall_report(self, models, constant):
        spec = species("evergreen", "tall")
        report = expected_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant
        )
        for seg, expected in zip(report.segments, SEGMENTS[("evergreen", "tall")]):
            assert seg.value == pytest.approx(expected, rel=0.01)
        assert report.creditable == pytest.approx(2.031006398, rel=1e-6)
        assert report.expected_total == pytest.approx(8.505044143, rel=0.01)

    def test_deciduous_tall_total(self, models, constant):
        spec = species("deciduous", "tall")
        report = expected_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant
        )
        assert report.expected_total == pytest.approx(9.548861033, rel=0.01)

    def test_conifer_shrub_report(self, models, constant):
        spec = species("conifer", "shrub")
        report = expected_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant
        )
        for seg, expected in zip(report.segments, SEGMENTS[("conifer", "shrub")]):
            assert seg.value == pytest.approx(expected, rel=0.01)
        assert report.creditable == pytest.approx(0.002116508, rel=1e-6)
        assert report.expected_total == pytest.approx(0.026099973, rel=0.01)

    @pytest.mark.parametrize("horizon", [25.0, 50.0, 120.0])
    def test_other_horizons_keep_invariants(self, models, constant, horizon):
        spec = species("evergreen", "medium")
        report = expected_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant,
            horizon=horizon,
        )
        assert report.segments[0].t_lo == spec.domain_start
        assert report.segments[-1].t_hi == horizon - 1.0
        assert report.creditable <= report.expected_total
        weighted = survival_fraction(
            default_removal_model(spec.size), horizon
        ) * stored_co2(spec, models[spec.wood], constant, horizon)
        assert report.creditable == pytest.approx(weighted, rel=1e-12)

    @pytest.mark.parametrize("horizon", [5.0, 100.0, 5000.0])
    def test_cap_pieces_never_reach_the_quadrature(self, models, constant, monkeypatch, horizon):
        # a cap piece's store is constant, so its integral is closed form:
        # the quadrature sees exactly the growth-branch pieces
        bounds = []
        integrate = canopy.carbon.integrate

        def spy(f, a, b):
            bounds.append((a, b))
            return integrate(f, a, b)

        monkeypatch.setattr(canopy.carbon, "integrate", spy)
        cap_pieces = 0
        for continuous in (False, True):
            for case in all_species():
                spec = species(case.wood, case.size, continuous_cap=continuous)
                bounds.clear()
                removal = default_removal_model(spec.size)
                expected_absorption(spec, models[spec.wood], removal, constant, horizon)
                pieces = integration_segments(spec, models[spec.wood], horizon)
                assert bounds == [(piece.t_lo, piece.t_hi) for piece in pieces if not piece.on_cap]
                cap_pieces += sum(piece.on_cap for piece in pieces)
        assert cap_pieces >= 6

    def test_tiny_p_total_collapses_to_creditable(self, models, constant):
        spec = species("evergreen", "tall")
        report = expected_absorption(
            spec, models[spec.wood], RemovalModel(1e-12), constant
        )
        assert report.expected_total == pytest.approx(report.creditable, rel=1e-9)

    def test_sum_identity_all_specs(self, models, constant):
        for spec in all_species():
            report = expected_absorption(
                spec, models[spec.wood], default_removal_model(spec.size), constant
            )
            total = math.fsum([s.value for s in report.segments] + [report.creditable])
            assert abs(total - report.expected_total) <= 1e-9 * report.expected_total
            assert report.creditable <= report.expected_total
            assert all(s.value >= 0.0 for s in report.segments)

    def test_scale_linearity_in_c(self, models, constant):
        spec = species("conifer", "medium")
        removal = default_removal_model(spec.size)
        model = models[spec.wood]
        base = expected_absorption(spec, model, removal, constant)
        doubled = expected_absorption(spec, model, removal, CarbonConstant(2.0 * constant.c))
        # closed-form parts (the survivor term and the cap piece) double
        # bitwise; quadrature refinement decisions are not scale-free below
        # abs_tol, so growth pieces get 1e-12 slack
        assert doubled.creditable == 2.0 * base.creditable
        assert doubled.segments[-1].value == 2.0 * base.segments[-1].value
        for segment_double, segment_base in zip(doubled.segments, base.segments):
            assert segment_double.value == pytest.approx(
                2.0 * segment_base.value, rel=1e-12
            )

    def test_reference_rule_cross_check(self, models, constant):
        # light panel count here; the full n=1e7 check runs in acceptance
        for spec in all_species():
            removal = default_removal_model(spec.size)
            report = expected_absorption(spec, models[spec.wood], removal, constant)
            pieces = integration_segments(spec, models[spec.wood], 100.0)
            for seg, piece in zip(report.segments, pieces):
                ref = integrate_reference(
                    segment_integrand(spec, piece, removal, constant),
                    piece.t_lo,
                    piece.t_hi,
                    200_000,
                )
                assert seg.value == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize(
        "wood, size, horizon, p, factors",
        [
            ("conifer", "medium", 289.4250906448233, 0.009137236305112987,
             (1.7162508777662937, 0.17503088720973936, 0.392962292335077, 0.48050007394849925)),
            ("deciduous", "tall", 145.59111549769898, 0.0074715771512194485,
             (2.010834691126849, 0.35909051831012684, 0.48694050705576386, 0.5119971228773788)),
        ],
    )
    def test_chance_agreement_on_coarse_interval_is_refined(
        self, models, wood, size, horizon, p, factors
    ):
        # on these growth pieces the Simpson estimates of a coarse interval
        # agree by chance while both are ~2e-8 off; accepting that match
        # would miss the midpoint reference
        spec = species(wood, size, continuous_cap=True)
        removal = RemovalModel(p)
        constant = carbon_constant(CarbonFactors(*factors))
        report = expected_absorption(spec, models[spec.wood], removal, constant, horizon)
        pieces = integration_segments(spec, models[spec.wood], horizon)
        for seg, piece in zip(report.segments, pieces):
            ref = integrate_reference(
                segment_integrand(spec, piece, removal, constant),
                piece.t_lo,
                piece.t_hi,
                10**6,
            )
            assert seg.value == pytest.approx(ref, rel=1e-9)

    def test_report_tampering_detected(self, models, constant):
        spec = species("evergreen", "tall")
        report = expected_absorption(
            spec, models[spec.wood], default_removal_model(spec.size), constant
        )
        with pytest.raises(ValidationError):
            AbsorptionReport(
                spec=report.spec,
                p=report.p,
                horizon=report.horizon,
                segments=report.segments,
                creditable=report.creditable,
                expected_total=report.expected_total * 1.01,
            )
        with pytest.raises(ValidationError):
            AbsorptionReport(
                spec=report.spec,
                p=report.p,
                horizon=report.horizon,
                segments=(
                    SegmentAbsorption(t_lo=0.0, t_hi=1.0, label="x", value=-1.0),
                ),
                creditable=0.5,
                expected_total=-0.5,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["p", "horizon", "creditable", "expected_total", "segment"])
    def test_report_rejects_non_finite_values(self, field, bad):
        # a check of the invalid condition (x < 0) once let nan through
        segment = SegmentAbsorption(t_lo=0.0, t_hi=1.0, label="x", value=1.0)
        fields = dict(spec=species("evergreen", "tall"), p=0.5, horizon=10.0,
                      segments=(segment,), creditable=0.5, expected_total=1.5)
        AbsorptionReport(**fields)
        if field == "segment":
            fields["segments"] = (SegmentAbsorption(t_lo=0.0, t_hi=1.0, label="x", value=bad),)
        else:
            fields[field] = bad
        interval = r"\[0, inf\)" if field == "creditable" else r"\(-inf, inf\)"
        message = "finite" if field == "segment" else rf"^{field} must lie in {interval}, got {bad}$"
        with pytest.raises(ValidationError, match=message):
            AbsorptionReport(**fields)

    def test_report_refuses_creditable_above_total(self):
        # the sum check passes (5e-10 relative), but the survivor term
        # cannot exceed the total it is part of
        fields = dict(spec=species("evergreen", "tall"), p=0.5, horizon=10.0,
                      segments=(SegmentAbsorption(0.0, 1.0, "x", 0.0),), expected_total=1.0)
        assert AbsorptionReport(**fields, creditable=1.0).creditable == 1.0
        with pytest.raises(ValidationError, match="^creditable term exceeds expected total$"):
            AbsorptionReport(**fields, creditable=1.0 + 5e-10)

    def test_report_rejects_an_overflowing_sum(self):
        # each value is finite, but their exact sum lies past the float range
        pieces = tuple(SegmentAbsorption(t, t + 1.0, "x", 1e308) for t in (0.0, 1.0))
        with pytest.raises(ValidationError, match="^segment sum overflows the float range$"):
            AbsorptionReport(species("evergreen", "tall"), 0.5, 10.0, pieces, 0.0, 1e308)
