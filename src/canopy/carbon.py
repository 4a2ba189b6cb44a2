"""Stored CO2 per tree and the expected 100-year absorption integral.

A standing tree's stored CO2 is its trunk-cylinder volume times a carbon
constant c:

    stored(t) = H(t) * (d(t)/2)^2 * pi * c        [t-CO2]

The expected absorption per planted tree over a horizon (default 100
years) weights that store by the removal-time density p (1-p)^t for trees
removed in-process, plus the survivor term for trees still standing at the
horizon:

    total = integral_{t0}^{horizon-1} (1-p)^t p stored(t) dt
            + (1-p)^horizon stored(horizon)

The integral's upper limit is horizon - 1 while the survivor exponent is
horizon; the two are deliberately not harmonized (the tabulated reference
values require this exact form).  Conifers integrate from t = 1, losing
[0, 1), for the same reason.  Where height is held the integral is closed form.
"""

import math
from typing import Callable

from . import growth
from .errors import DomainError, Record, ValidationError
from .growth import DiameterModel, Numeric, SpeciesSpec, TimeSegment, _namespace
from .quadrature import integrate
from .removal import RemovalModel, removed_fraction, survival_fraction

__all__ = [
    "CarbonFactors",
    "CarbonConstant",
    "SegmentAbsorption",
    "AbsorptionReport",
    "carbon_constant",
    "default_carbon_factors",
    "default_carbon_constant",
    "stored_co2",
    "segment_integrand",
    "creditable_absorption",
    "expected_absorption",
    "CO2_PER_CARBON",
]

CO2_PER_CARBON = 44.0 / 12.0  # molar-mass ratio, t-C -> t-CO2
# raised as a DomainError where a caller's diameter model squares a diameter
# past the float range
_OVERFLOW = "stored CO2 overflows the float range"


class CarbonFactors(Record):
    """Biomass-to-carbon conversion factors from national inventory data.

    Attributes:
        bef: Biomass Expansion Factor (dimensionless) scaling trunk
            biomass to whole-aboveground biomass; below 10, several times
            any inventory's value (about 1.2 to 3).
        rtsr: Root-to-Shoot Ratio (dimensionless); (1 + rtsr) extends
            aboveground to whole-tree biomass; below 5.
        bd: Bulk Density, tonnes dry matter per m3 of green volume; below
            2, as no dry matter is denser than wood substance (about 1.5).
        cf: Carbon Fraction, tonnes carbon per tonne dry matter.
    """

    bef: float
    rtsr: float
    bd: float
    cf: float

    _domains = {"bef": "(0, 10)", "rtsr": "[0, 5)", "bd": "(0, 2)", "cf": "(0, 1]"}


class CarbonConstant(Record):
    """Tonnes of CO2 per cm3 of trunk cylinder; always derived from
    :class:`CarbonFactors`, never hand-set in reports.  Below 1e-3, over the factor
    bounds' 4.4e-4: a tree on the built-in models then stores under 1.4e5 t."""

    c: float

    _domains = {"c": "(0, 0.001)"}


def default_carbon_factors() -> CarbonFactors:
    """Factor values from Japan's Greenhouse Gas Inventory Report (2022)."""
    return CarbonFactors(bef=1.664736867, rtsr=0.2715789378, bd=0.3978947401, cf=0.51)


def carbon_constant(factors: CarbonFactors) -> CarbonConstant:
    """c = BEF * (1 + RtSR) * BD * CF * (44/12) * 1e-6.

    The 1e-6 converts cm3 of trunk volume to m3 (matching BD's units);
    44/12 converts tonnes of carbon to tonnes of CO2, so the constant and
    everything downstream are in t-CO2 despite BD/CF being carbon-mass
    factors.
    """
    c = (
        factors.bef
        * (1.0 + factors.rtsr)
        * factors.bd
        * factors.cf
        * CO2_PER_CARBON
        * 1e-6
    )
    return CarbonConstant(c=c)


def default_carbon_constant() -> CarbonConstant:
    return carbon_constant(default_carbon_factors())


def _cylinder(h: Numeric, d: Numeric, c: float) -> Numeric:
    """Trunk-cylinder store ``H (d/2)^2 pi c``: the one stored-CO2 rule.  The
    radius is squared by one multiplication, which a float and an ndarray
    round alike and which cannot raise OverflowError."""
    r = 0.5 * d
    return h * (r * r) * math.pi * c


def stored_co2(
    spec: SpeciesSpec,
    model: DiameterModel,
    constant: CarbonConstant,
    t: float,
) -> float:
    """CO2 stored in one standing tree at a float age ``t``:
    ``H(t) (d(t)/2)^2 pi c`` with the trunk taken as a cylinder.

    Raises:
        DomainError: If the store passes the float range (a caller's
            diameter model can make it).
    """
    h = growth.height(spec, t)
    store = _cylinder(h, growth.diameter_from_height(model, h), constant.c)
    if not store < math.inf:
        raise DomainError(_OVERFLOW)
    return store


def segment_integrand(
    spec: SpeciesSpec,
    segment: TimeSegment,
    removal: RemovalModel,
    constant: CarbonConstant,
) -> Callable[[Numeric], Numeric]:
    """First-term integrand ``(1-p)^t p stored(t)`` on one integration piece.

    The piece's single affine diameter rule (and, where height is held,
    its constant height) is applied directly, so the integrand stays smooth
    across the whole piece even where floating-point height evaluation
    would land a hair on the wrong side of a model boundary.  Only growth
    pieces are integrated with it; on a held piece it checks the closed form.
    The callable is defined on the piece (a float or an ndarray ``t`` in
    ``[t_lo, t_hi]``) and checks no ``t``: the piece is checked once, here,
    raising DomainError if it starts before ``spec.domain_start``.
    """
    growth.uncapped_height(spec, segment.t_lo)  # the piece's one domain check
    diameter, p, log_q, c = segment.diameter_segment.diameter, removal.p, removal.log_q, constant.c
    curve = (lambda t: spec.held_height) if segment.on_cap else spec.curve

    def f(t: Numeric) -> Numeric:
        h = curve(t)
        return _namespace(t).exp(t * log_q) * p * _cylinder(h, diameter(h), c)

    return f


def _absorbed(
    spec: SpeciesSpec, piece: TimeSegment, removal: RemovalModel, constant: CarbonConstant
) -> float:
    """In-process absorption over one piece.  Where height is held the store S
    is constant, so the integral is exactly ``p S q^lo (1 - q^(hi - lo)) / -ln q``
    with ``q = 1 - p``; only a growth-branch piece goes to the quadrature.
    The store is largest at the piece's top, so a finite store there bounds
    the integrand; raises DomainError if it is not finite."""
    top = spec.held_height if piece.on_cap else spec.curve(piece.t_hi)
    store = _cylinder(top, piece.diameter_segment.diameter(top), constant.c)
    if not store < math.inf:
        raise DomainError(_OVERFLOW)
    if not piece.on_cap:
        return integrate(segment_integrand(spec, piece, removal, constant), piece.t_lo, piece.t_hi)
    span = removed_fraction(removal, piece.t_hi - piece.t_lo) / -removal.log_q
    return removal.p * store * survival_fraction(removal, piece.t_lo) * span


def creditable_absorption(
    spec: SpeciesSpec,
    model: DiameterModel,
    removal: RemovalModel,
    constant: CarbonConstant,
    horizon: float = 100.0,
) -> float:
    """Survivor term ``(1-p)^horizon * stored(horizon)``: the CO2 in trees
    still standing at the horizon, the proposed credit basis.

    Raises:
        DomainError: If ``horizon`` is out of the spec's domain, or the
            store passes the float range (see :func:`stored_co2`).
    """
    growth._check_horizon(horizon, spec.domain_start)
    weight = survival_fraction(removal, float(horizon))
    return weight * stored_co2(spec, model, constant, float(horizon))


class SegmentAbsorption(Record):
    """In-process absorption accumulated over one time segment."""

    t_lo: float
    t_hi: float
    label: str
    value: float


class AbsorptionReport(Record):
    """Per-tree absorption over the horizon, segment by segment.

    ``expected_total`` always equals the segment sum plus ``creditable``;
    the constructor enforces this to 1e-9 relative along with finite
    values, nonnegativity and ``creditable <= expected_total``.
    """

    spec: SpeciesSpec
    p: float
    horizon: float
    segments: tuple[SegmentAbsorption, ...]
    creditable: float
    expected_total: float

    _domains = {"p": "(-inf, inf)", "horizon": "(-inf, inf)", "creditable": "[0, inf)",
                "expected_total": "(-inf, inf)"}

    def __post_init__(self):
        values = [s.value for s in self.segments]
        if not all(0.0 <= value < math.inf for value in values):
            raise ValidationError("absorption values must be nonnegative and finite")
        try:
            total = math.fsum([*values, self.creditable])
        except OverflowError:  # the exact sum lies past the float range
            raise ValidationError("segment sum overflows the float range") from None
        if abs(total - self.expected_total) > 1e-9 * abs(self.expected_total):
            raise ValidationError("segment sum does not reproduce expected_total")
        if self.creditable > self.expected_total:
            raise ValidationError("creditable term exceeds expected total")


def expected_absorption(
    spec: SpeciesSpec,
    model: DiameterModel,
    removal: RemovalModel,
    constant: CarbonConstant,
    horizon: float = 100.0,
) -> AbsorptionReport:
    """Expected CO2 absorption of one planted tree over ``horizon`` years.

    The in-process term sums :func:`canopy.growth.integration_segments`
    (upper limit ``horizon - 1``): held pieces in closed form, growth-branch
    pieces by :func:`canopy.quadrature.integrate`.  The survivor term uses
    exponent ``horizon``.

    Raises:
        DomainError: If ``horizon`` is not finite or ``<= spec.domain_start``,
            or a store passes the float range (see :func:`stored_co2`).
        IntegrationError: If the quadrature misses its tolerance on a growth piece.
    """
    segments = tuple(
        SegmentAbsorption(
            piece.t_lo, piece.t_hi, piece.label, _absorbed(spec, piece, removal, constant)
        )
        for piece in growth.integration_segments(spec, model, horizon)
    )
    creditable = creditable_absorption(spec, model, removal, constant, horizon)
    try:
        total = math.fsum([s.value for s in segments] + [creditable])
    except OverflowError:  # finite terms whose exact sum lies past the float range
        raise DomainError(_OVERFLOW) from None
    return AbsorptionReport(
        spec=spec, p=removal.p, horizon=float(horizon), segments=segments,
        creditable=creditable, expected_total=total,
    )
