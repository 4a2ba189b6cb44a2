"""canopy runs without numpy, yet the callables that the midpoint reference
evaluates still take ndarrays.

The runtime is written with ``math`` and operators, so ``import canopy``
must not load numpy.  Each ``SpeciesSpec.curve``, ``DiameterSegment.diameter``
and the callable that ``segment_integrand`` returns evaluate an ndarray a
caller passes in, element for element as they evaluate a float; the public
helpers (``height``, ``diameter_from_height``, ``survival_fraction`` and the
like) take a float.
"""

import subprocess
import sys

import numpy as np
import pytest

from canopy import (
    DomainError,
    all_species,
    default_carbon_constant,
    default_diameter_models,
    default_removal_model,
    diameter_from_height,
    height,
    girth_to_diameter,
    integration_segments,
    removed_fraction,
    species,
    survival_fraction,
    time_at_height,
    uncapped_height,
)
from canopy.carbon import _cylinder, segment_integrand
from canopy.growth import MEDIUM_CAP_TIME_YEARS, SHRUB_CAP_TIME_YEARS

REL = 1e-14


def test_import_leaves_numpy_unloaded():
    code = "import sys, canopy, canopy.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # records build their methods themselves; dataclasses would pull in
    # inspect, ast, dis and tokenize at every cold start
    code = (
        "import sys, canopy, canopy.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _specs():
    return all_species() + tuple(
        species(s.wood, s.size, continuous_cap=True)
        for s in all_species()
        if s.cap_height is not None
    )


def _times(spec):
    # out to 150 years, with both cap ages exactly
    grid = np.linspace(spec.domain_start, 150.0, 301)
    caps = np.array([MEDIUM_CAP_TIME_YEARS, SHRUB_CAP_TIME_YEARS])
    return np.concatenate([grid, caps[caps >= spec.domain_start]])


def _assert_parity(f, xs):
    vectored = f(xs)
    assert isinstance(vectored, np.ndarray) and vectored.shape == xs.shape
    looped = [f(float(x)) for x in xs]
    assert all(isinstance(value, float) for value in looped)
    np.testing.assert_allclose(vectored, looped, rtol=REL, atol=0.0)


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.wood.value}-{s.size.value}-{s.continuous_cap}")
def test_curves_match_per_element_floats(spec):
    _assert_parity(spec.curve, _times(spec))


@pytest.mark.parametrize("model", default_diameter_models().values(), ids=lambda m: m.wood.value)
def test_diameter_matches_per_element_floats(model):
    # every segment boundary, a hair either side of it, and the interiors
    edges = [seg.h_lo for seg in model.segments[1:]]
    hs = np.concatenate(
        [np.linspace(0.0, 3000.0, 301), edges, np.nextafter(edges, -np.inf)]
    )
    for seg in model.segments:
        _assert_parity(seg.diameter, hs)


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.wood.value}-{s.size.value}-{s.continuous_cap}")
def test_segment_integrand_matches_per_element_floats(spec):
    model = default_diameter_models()[spec.wood]
    removal = default_removal_model(spec.size)
    constant = default_carbon_constant()
    for piece in integration_segments(spec, model, 100.0):
        f = segment_integrand(spec, piece, removal, constant)
        _assert_parity(f, np.linspace(piece.t_lo, piece.t_hi, 41))


def test_store_of_an_array_equals_its_floats_bitwise():
    # the one stored-CO2 rule gives one answer on both paths, so a float and
    # an ndarray must square the radius alike (libm pow is not correctly
    # rounded, while numpy squares exactly)
    c = default_carbon_constant().c
    rng = np.random.default_rng(0)
    hs, ds = rng.uniform(0.0, 3000.0, 10_000), rng.uniform(0.0, 150.0, 10_000)
    looped = [_cylinder(float(h), float(d), c) for h, d in zip(hs, ds)]
    assert np.array_equal(_cylinder(hs, ds, c), looped)


def test_domain_error_for_float_and_inside_array():
    # the helpers take a float only and refuse nan with the rest of their domain
    conifer = species("conifer", "medium")
    removal = default_removal_model(conifer.size)
    model = default_diameter_models()[conifer.wood]
    nan = float("nan")
    cases = [
        (lambda t: height(conifer, t), 0.5),
        (lambda t: height(conifer, t), nan),
        (lambda t: uncapped_height(conifer, t), 0.5),
        (lambda t: uncapped_height(conifer, t), nan),
        (lambda t: survival_fraction(removal, t), -1.0),
        (lambda t: survival_fraction(removal, t), nan),
        (lambda t: removed_fraction(removal, t), -1.0),
        (lambda t: removed_fraction(removal, t), nan),
        (lambda h: diameter_from_height(model, h), -0.1),
        (lambda h: diameter_from_height(model, h), float("inf")),
        (lambda h: diameter_from_height(model, h), nan),
        (lambda h: time_at_height(conifer, h), nan),
        (girth_to_diameter, nan),
    ]
    for f, bad in cases:
        with pytest.raises(DomainError):
            f(bad)
