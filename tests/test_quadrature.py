import math

import numpy as np
import pytest

from canopy import (
    DomainError,
    IntegrationError,
    integrate,
)

from midpoint import integrate_reference


class TestIntegrate:
    def test_exact_for_quadratic(self):
        # Simpson is exact through cubics; only the final Richardson
        # correction can contribute an ulp
        assert abs(integrate(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) <= 1e-15

    def test_exponential(self):
        assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_empty_interval_is_exactly_zero(self):
        assert integrate(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(math.exp, 1.0, 0.0)

    def test_discontinuity_exhausts_depth(self):
        step = lambda x: 0.0 if x < 0.5 else 1.0
        with pytest.raises(IntegrationError):
            integrate(step, 0.0, 1.0)

    def test_chance_agreement_is_not_accepted(self):
        # x^4 - 0.8 x^6 makes the 3- and 5-point Simpson sums on [-1, 1]
        # equal (2/15) while the integral is 0.4 - 1.6/7
        f = lambda x: x**4 - 0.8 * x**6
        assert integrate(f, -1.0, 1.0) == pytest.approx(0.4 - 1.6 / 7.0, rel=1e-10)

    def test_non_finite_integrand(self):
        with pytest.raises(IntegrationError):
            integrate(lambda x: math.inf, 0.0, 1.0)

    def test_additivity(self):
        f = lambda x: math.sin(x) * math.exp(-0.3 * x)
        for split in (0.1, 1.3, 2.7):
            whole = integrate(f, 0.0, 3.0)
            parts = integrate(f, 0.0, split) + integrate(f, split, 3.0)
            assert parts == pytest.approx(whole, rel=1e-9, abs=1e-13)

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: x**3
        combined = integrate(lambda x: 2.5 * f(x) - 1.25 * g(x), 0.0, 2.0)
        separate = 2.5 * integrate(f, 0.0, 2.0) - 1.25 * integrate(g, 0.0, 2.0)
        assert combined == pytest.approx(separate, rel=1e-10)

    def test_production_integrand_segment(self):
        # the dominant evergreen-tall in-process segment
        from canopy import (
            default_carbon_constant,
            default_diameter_models,
            default_removal_model,
            integration_segments,
            segment_integrand,
            species,
        )

        spec = species("evergreen", "tall")
        model = default_diameter_models()[spec.wood]
        piece = integration_segments(spec, model, 100.0)[-1]
        assert (piece.t_lo, piece.t_hi) == (pytest.approx(5.04914, abs=1e-5), 99.0)
        f = segment_integrand(
            spec, piece, default_removal_model(spec.size), default_carbon_constant()
        )
        assert integrate(f, piece.t_lo, piece.t_hi) == pytest.approx(6.4738, rel=0.005)


class TestReferenceRule:
    def test_constant(self):
        assert integrate_reference(lambda x: 1.0, 0.0, 5.0, 10) == 5.0

    def test_quadratic_error_bound(self):
        assert integrate_reference(lambda x: x * x, 0.0, 1.0, 10**6) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_vectorized_evaluation(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.exp(x)

        value = integrate_reference(f, 0.0, 1.0, 1000)
        assert value == pytest.approx(math.e - 1.0, rel=1e-6)
        assert calls == [(1000,)]

    def test_bad_panel_count(self):
        with pytest.raises(DomainError):
            integrate_reference(lambda x: x, 0.0, 1.0, 0)

    def test_empty_interval(self):
        assert integrate_reference(lambda x: x, 1.0, 1.0, 100) == 0.0

    def test_agreement_with_adaptive(self):
        f = lambda x: np.exp(-0.2 * x) * (1.0 + np.sin(x) ** 2)
        adaptive = integrate(lambda x: float(f(np.asarray(x))), 0.0, 10.0)
        reference = integrate_reference(f, 0.0, 10.0, 200_000)
        assert adaptive == pytest.approx(reference, rel=1e-9)
