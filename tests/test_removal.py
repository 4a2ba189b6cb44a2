import math
import random
from decimal import Decimal

import pytest

from canopy import (
    CensusInput,
    DomainError,
    RemovalModel,
    SizeClass,
    UnknownSpeciesError,
    ValidationError,
    default_removal_model,
    derive_removal_probability,
    expected_lifespan,
    survival_fraction,
)

from decimal_forms import removal_probability
from reference_values import CENSUS_MEDIUM_SHRUB, CENSUS_TALL


class TestDerive:
    @pytest.mark.parametrize("census", [CENSUS_TALL, CENSUS_MEDIUM_SHRUB])
    def test_published_probabilities(self, census):
        stock, lifespan, window, storm, p_expected, life_expected = census
        model = derive_removal_probability(CensusInput(stock, lifespan, window, storm))
        assert model.p == pytest.approx(p_expected, rel=1e-5)
        assert expected_lifespan(model) == pytest.approx(life_expected, abs=0.01)

    def test_no_removals_limit(self):
        model = derive_removal_probability(CensusInput(1e6, 1e12, 15.0, 0.0))
        assert model.p == pytest.approx(0.0, abs=1e-10)

    def test_removals_exceeding_population(self):
        with pytest.raises(DomainError):
            derive_removal_probability(CensusInput(1e5, 35.0, 15.0, 2e5))

    def test_overflowing_census_names_the_census(self):
        # the planted count overflows, so F = inf / inf is nan, which no comparison catches
        with pytest.raises(DomainError, match="census figures overflow"):
            derive_removal_probability(CensusInput(1e308, 5e-324, 1e308))

    def test_p_underflowing_to_zero_names_the_census(self):
        # replanting 5e-324 / 1e308 per year underflows to 0, so F = 0 and
        # p is 0 however it is computed
        with pytest.raises(DomainError, match="census removals are too few"):
            derive_removal_probability(CensusInput(5e-324, 1e308, 1e308))

    def test_p_matches_the_exact_back_out(self):
        # F log-uniform in [1e-300, 0.99]: 1 - (1 - F)^(1/h) in floats
        # cancels for small F, by up to 161% of p
        rng = random.Random(16)
        for _ in range(200):
            target = 10.0 ** rng.uniform(-300.0, math.log10(0.99))
            horizon = rng.uniform(1.0, 100.0)
            census = CensusInput(1.0, horizon * (1.0 - target) / target, horizon)
            planted = census.standing_stock / census.assumed_lifespan * census.horizon
            fraction = planted / (census.standing_stock + planted)  # F as canopy forms it
            exact = removal_probability(fraction, horizon)
            p = derive_removal_probability(census).p
            assert abs(Decimal(p) - exact) <= Decimal("1e-15") * exact, (fraction, horizon)

    def test_fraction_round_trip(self):
        census = CensusInput(*CENSUS_TALL[:4])
        model = derive_removal_probability(census)
        annual = census.standing_stock / census.assumed_lifespan
        planted = annual * census.horizon
        fraction = (planted + census.storm_felled) / (census.standing_stock + planted)
        recovered = 1.0 - (1.0 - model.p) ** census.horizon
        assert recovered == pytest.approx(fraction, rel=1e-12)

    def test_monotonicity(self):
        base = CensusInput(1e6, 35.0, 15.0, 1e4)
        p0 = derive_removal_probability(base).p
        more_storms = derive_removal_probability(CensusInput(1e6, 35.0, 15.0, 2e4)).p
        longer_lived = derive_removal_probability(CensusInput(1e6, 50.0, 15.0, 1e4)).p
        assert more_storms > p0
        assert longer_lived < p0

    def test_census_validation(self):
        with pytest.raises(ValidationError):
            CensusInput(0.0, 35.0, 15.0)
        with pytest.raises(ValidationError):
            CensusInput(1e6, -1.0, 15.0)
        with pytest.raises(ValidationError):
            CensusInput(1e6, 35.0, 0.5)
        with pytest.raises(ValidationError):
            CensusInput(1e6, 35.0, 15.0, -1.0)


class TestSurvival:
    def test_published_century_survival(self):
        assert survival_fraction(RemovalModel(0.027309), 100.0) == pytest.approx(
            0.062732089, rel=1e-6
        )
        assert survival_fraction(RemovalModel(0.0256977), 100.0) == pytest.approx(
            0.074024039, rel=1e-6
        )

    def test_at_zero(self):
        assert survival_fraction(RemovalModel(0.3), 0.0) == 1.0

    def test_multiplicative(self):
        model = RemovalModel(0.0317)
        s = lambda t: survival_fraction(model, t)
        assert s(12.5 + 31.25) == pytest.approx(s(12.5) * s(31.25), rel=1e-12)

    def test_strictly_decreasing(self):
        model = RemovalModel(0.05)
        values = [survival_fraction(model, t) for t in (0.0, 1.0, 5.0, 50.0)]
        assert values == sorted(values, reverse=True)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            survival_fraction(RemovalModel(0.05), -1.0)


class TestLifespan:
    def test_closed_form(self):
        assert expected_lifespan(RemovalModel(0.027309)) == pytest.approx(36.12, abs=0.01)
        assert expected_lifespan(RemovalModel(0.0256977)) == pytest.approx(38.41, abs=0.01)

    @pytest.mark.parametrize("p", [5e-324, 1e-310, 5e-309])
    def test_lifespan_past_float_range_raises(self, p):
        with pytest.raises(DomainError, match="overflows"):
            expected_lifespan(RemovalModel(p))

    def test_tiny_p_lifespan_stays_finite(self):
        assert expected_lifespan(RemovalModel(1e-300)) == pytest.approx(1e300, rel=1e-12)

    def test_unit_lifespan(self):
        assert expected_lifespan(RemovalModel(1.0 - math.exp(-1.0))) == pytest.approx(
            1.0, rel=1e-12
        )


class TestDefaults:
    def test_by_size_class(self):
        assert default_removal_model(SizeClass.TALL).p == 0.027309
        assert default_removal_model(SizeClass.MEDIUM).p == 0.0256977
        assert default_removal_model(SizeClass.SHRUB).p == 0.0256977

    def test_by_size_name(self):
        assert default_removal_model("tall") == default_removal_model(SizeClass.TALL)
        assert default_removal_model("shrub") == default_removal_model(SizeClass.SHRUB)
        with pytest.raises(UnknownSpeciesError, match="^'huge' is not a valid SizeClass$"):
            default_removal_model("huge")

    def test_probability_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                RemovalModel(bad)
