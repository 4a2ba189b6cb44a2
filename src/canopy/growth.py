"""Growth curves and trunk-diameter models for the nine urban-tree cases.

Height H(t) (cm, t in years since planting) follows one curve per wood
type; shrubs of every wood type share a single linear curve.  Height is
held from one age on: medium trees and shrubs stop at a fixed cap (850 cm
from 16.412 y, 400 cm from 3.72093 y), tall trees at the curve's supremum,
which the float curve reaches at a finite age.  The cap is applied from
the cap age onward for every wood type, so deciduous and conifer medium
heights drop onto 850 cm at the cap age even though their curves sit above
it there; ``SpeciesSpec.continuous_cap`` selects the min-based alternative.

Trunk diameter d (cm) is piecewise linear in height.  Segments are
half-open ``[h_lo, h_hi)`` with the last segment closed above, i.e. the
upper segment owns each boundary height.
"""

import math
from enum import Enum
from functools import cache
from typing import Union

from .errors import DomainError, RangeError, Record, UnknownSpeciesError, ValidationError

__all__ = [
    "WoodType",
    "SizeClass",
    "SpeciesSpec",
    "DiameterSegment",
    "DiameterModel",
    "TimeSegment",
    "species",
    "all_species",
    "height",
    "uncapped_height",
    "time_at_height",
    "diameter_from_height",
    "default_diameter_models",
    "integration_segments",
    "MEDIUM_CAP_HEIGHT_CM",
    "MEDIUM_CAP_TIME_YEARS",
    "SHRUB_CAP_HEIGHT_CM",
    "SHRUB_CAP_TIME_YEARS",
    "CONIFER_DOMAIN_START_YEARS",
]

# Curve functions take a float or a numpy ndarray.  Each formula is written
# once, with operators, ndarray methods and the functions of ``_namespace``,
# so canopy itself never imports numpy.
Numeric = Union[float, "numpy.ndarray"]


class WoodType(str, Enum):
    EVERGREEN = "evergreen"
    DECIDUOUS = "deciduous"
    CONIFER = "conifer"


class SizeClass(str, Enum):
    TALL = "tall"
    MEDIUM = "medium"
    SHRUB = "shrub"


# a str enum member hashes and compares as its name, so it finds itself here
_MEMBERS = {kind: {m.value: m for m in kind} for kind in (WoodType, SizeClass)}


def _member(kind: type[Enum], value):
    """The member of ``kind`` that ``value`` is or names, else UnknownSpeciesError:
    the one name rule of every record and default taking a wood type or size."""
    try:
        return _MEMBERS[kind][value]
    except (KeyError, TypeError):
        raise UnknownSpeciesError(f"{value!r} is not a valid {kind.__name__}") from None


MEDIUM_CAP_HEIGHT_CM = 850.0
MEDIUM_CAP_TIME_YEARS = 16.412
SHRUB_CAP_HEIGHT_CM = 400.0
SHRUB_CAP_TIME_YEARS = 3.72093
CONIFER_DOMAIN_START_YEARS = 1.0

SHRUB_GROWTH_CM_PER_YEAR = 107.5
_EXP_SCALE_CM = 2500.0
_CONIFER_OFFSET_CM = 35.0
_CONIFER_SCALE_CM = 5471.0
_CONIFER_RATE = 0.00592
_CONIFER_SHAPE = 0.65669

_BOUNDARY_EPS = 1e-12

_CAP_BY_SIZE = {
    SizeClass.TALL: (None, None),
    SizeClass.MEDIUM: (MEDIUM_CAP_HEIGHT_CM, MEDIUM_CAP_TIME_YEARS),
    SizeClass.SHRUB: (SHRUB_CAP_HEIGHT_CM, SHRUB_CAP_TIME_YEARS),
}


def _namespace(t: Numeric):
    """``math`` for a float (tested first: a failed ``hasattr`` is slow); for
    an array, its own Array API namespace (numpy's module for an ndarray,
    which the caller has already imported)."""
    if t.__class__ is float or not hasattr(t, "__array_namespace__"):
        return math
    return t.__array_namespace__()


# The curves take 1 - b^t as -expm1(t ln b): the difference form cancels
# near planting, where it turns a last-place difference between two pow/exp
# implementations (libm for floats, numpy for arrays) into ~5e-14 of the
# integrand.
def _exponential(base: float) -> tuple:
    log_base = math.log(base)
    return (lambda t: -_EXP_SCALE_CM * _namespace(t).expm1(log_base * t),
            lambda h: math.log(1.0 - h / _EXP_SCALE_CM) / log_base, _EXP_SCALE_CM)


def _conifer_curve(t: Numeric) -> Numeric:
    decay = -_namespace(t).expm1(-_CONIFER_RATE * (t - 1.0))
    return _CONIFER_OFFSET_CM + _CONIFER_SCALE_CM * decay**_CONIFER_SHAPE


def _conifer_inverse(h: float) -> float:
    frac = ((h - _CONIFER_OFFSET_CM) / _CONIFER_SCALE_CM) ** (1.0 / _CONIFER_SHAPE)
    return 1.0 - math.log1p(-frac) / _CONIFER_RATE


# The one choice of growth curve: (curve, inverse, supremum) per wood type, the
# shrubs of every wood type on one line.  Every bounded float curve reaches its supremum.
_CURVES = {
    WoodType.EVERGREEN: _exponential(0.975),
    WoodType.DECIDUOUS: _exponential(0.962),
    WoodType.CONIFER: (_conifer_curve, _conifer_inverse, _CONIFER_OFFSET_CM + _CONIFER_SCALE_CM),
    SizeClass.SHRUB: (lambda t: SHRUB_GROWTH_CM_PER_YEAR * t,
                      lambda h: h / SHRUB_GROWTH_CM_PER_YEAR, math.inf),
}


class SpeciesSpec(Record):
    """One of the nine wood-type x size-class growth cases.

    Attributes:
        wood: Wood type, or its name, selecting the growth curve and
            diameter model; an unknown name raises UnknownSpeciesError.
        size: Size class, or its name, selecting the cap rule.
        continuous_cap: Use ``min(curve, cap_height)`` instead of snapping
            to the cap height at the cap age.  Non-default variant; the
            reference tables are reproduced with ``False``.

    Derived from ``wood`` and ``size`` on construction, as plain
    attributes left out of ``__init__``, equality, hashing and ``repr``:
        cap_height: Height held after the cap age (cm); ``None`` for tall.
        cap_time: Age at which growth stops (years); ``None`` for tall.
        domain_start: First valid age (1 for conifers, whose curve is
            undefined below t = 1; 0 otherwise).
        curve, inverse, sup_height: The bare growth branch H(t) for a float
            or ndarray ``t``, its inverse for a float height, both unchecked
            (see :func:`uncapped_height`), and its supremum (``inf`` for shrubs).
        held_height: Height held from the held age on: ``cap_height``, or
            for a tall tree ``sup_height``.
    """

    wood: WoodType
    size: SizeClass
    continuous_cap: bool = False

    def __post_init__(self):
        object.__setattr__(self, "wood", _member(WoodType, self.wood))
        object.__setattr__(self, "size", _member(SizeClass, self.size))
        family = SizeClass.SHRUB if self.size is SizeClass.SHRUB else self.wood
        start = CONIFER_DOMAIN_START_YEARS if self.wood is WoodType.CONIFER else 0.0
        for name, value in zip(
            ("cap_height", "cap_time", "domain_start", "curve", "inverse", "sup_height"),
            (*_CAP_BY_SIZE[self.size], start, *_CURVES[family]),
        ):
            object.__setattr__(self, name, value)
        held = self.sup_height if self.cap_height is None else self.cap_height
        object.__setattr__(self, "held_height", held)

    def __reduce__(self):  # the derived curves do not pickle; the fields rebuild them
        return SpeciesSpec, (self.wood, self.size, self.continuous_cap)


# all 18 specs, built once and found by members or by names (see _MEMBERS)
_SPECS = {
    (w, s, c): SpeciesSpec(w, s, c) for w in WoodType for s in SizeClass for c in (False, True)
}


def species(
    wood: WoodType | str,
    size: SizeClass | str,
    *,
    continuous_cap: bool = False,
) -> SpeciesSpec:
    """The spec for a wood type and size class, shared between calls.

    Raises:
        UnknownSpeciesError: If ``wood`` or ``size`` names no known value.
    """
    try:
        return _SPECS[wood, size, bool(continuous_cap)]
    except (KeyError, TypeError):  # the name rule raises for the unknown name
        return _SPECS[_member(WoodType, wood), _member(SizeClass, size), bool(continuous_cap)]


def all_species() -> tuple[SpeciesSpec, ...]:
    """The nine default specs, size-major (tall, medium, shrub)."""
    return tuple(
        species(wood, size) for size in SizeClass for wood in WoodType
    )


class DiameterSegment(Record):
    """Affine height->diameter rule active on ``[h_lo, h_hi)`` (cm)."""

    h_lo: float
    h_hi: float | None  # None = open above
    slope: float
    intercept: float

    _domains = {"h_lo": "(-inf, inf)", "h_hi": "(-inf, inf) or None",
                "slope": "(-inf, inf)", "intercept": "(-inf, inf)"}

    def covers(self, h: float) -> bool:
        """Whether ``h`` lies in ``[h_lo, h_hi)``: the one rule that picks
        a height's segment."""
        return self.h_lo <= h < (math.inf if self.h_hi is None else self.h_hi)

    def diameter(self, h: Numeric) -> Numeric:
        return self.slope * h + self.intercept

    def describe(self) -> str:
        return f"d = {self.slope:g}*H{self.intercept:+g}"


class DiameterModel(Record):
    """Piecewise-linear height->diameter map for one wood type.

    Segments must be contiguous (each ``h_lo`` equals the previous
    ``h_hi``), start at 0, end open, have positive slope, and evaluate to
    a nonnegative diameter throughout.  ``wood``, a wood type or its name,
    may be ``None`` for models fitted from bare (height, diameter) points;
    an unknown name raises UnknownSpeciesError.
    """

    wood: WoodType | None
    segments: tuple[DiameterSegment, ...]

    def __post_init__(self):
        if self.wood is not None:
            object.__setattr__(self, "wood", _member(WoodType, self.wood))
        if not self.segments:
            raise ValidationError("diameter model needs at least one segment")
        if self.segments[0].h_lo != 0.0:
            raise ValidationError("first segment must start at height 0")
        if self.segments[-1].h_hi is not None:
            raise ValidationError("last segment must be open above")
        prev_hi = 0.0
        for seg in self.segments:
            if seg.h_lo != prev_hi:
                raise ValidationError(f"segments not contiguous at height {seg.h_lo}")
            if seg.h_hi is not None and seg.h_hi <= seg.h_lo:
                raise ValidationError(f"empty segment at height {seg.h_lo}")
            if seg.slope <= 0.0:
                raise ValidationError(f"segment at height {seg.h_lo} has nonpositive slope")
            # slope > 0, so the minimum diameter sits at h_lo; the tiny
            # slack absorbs round-off when a fit recovers an exact zero
            if seg.diameter(seg.h_lo) < -1e-9:
                raise ValidationError(f"segment at height {seg.h_lo} gives negative diameter")
            prev_hi = seg.h_hi


_DEFAULT_SEGMENTS: dict[WoodType, tuple[tuple[float, float | None, float, float], ...]] = {
    WoodType.EVERGREEN: (
        (0.0, 250.0, 0.014, 0.0),
        (250.0, 300.0, 0.0318, -4.4586),
        (300.0, None, 0.051, -10.717),
    ),
    WoodType.DECIDUOUS: (
        (0.0, 300.0, 0.0096, 1.2208),
        (300.0, None, 0.0429, -9.5903),
    ),
    WoodType.CONIFER: (
        (0.0, 300.0, 0.0127, 0.9554),
        (300.0, None, 0.0332, -5.6785),
    ),
}


def default_diameter_models() -> dict[WoodType, DiameterModel]:
    """The three built-in diameter models, keyed by wood type."""
    return {
        wood: DiameterModel(
            wood=wood,
            segments=tuple(DiameterSegment(*row) for row in rows),
        )
        for wood, rows in _DEFAULT_SEGMENTS.items()
    }


def uncapped_height(spec: SpeciesSpec, t: float) -> float:
    """Bare growth-branch height ``spec.curve(t)``, ignoring any cap, for a
    float ``t`` checked against ``spec.domain_start``."""
    if not t >= spec.domain_start:
        raise DomainError(f"t must be >= {spec.domain_start} for {spec.wood.value} {spec.size.value}")
    return spec.curve(t)


def height(spec: SpeciesSpec, t: float) -> float:
    """Tree height in cm at ``t`` years since planting.

    Growth curves by wood type:

        evergreen   H(t) = 2500 (1 - 0.975^t)
        deciduous   H(t) = 2500 (1 - 0.962^t)
        conifer     H(t) = 35 + 5471 (1 - e^(-0.00592 (t-1)))^0.65669
        shrub       H(t) = 107.5 t            (any wood type)

    Medium trees and shrubs return ``cap_height`` for ``t >= cap_time``
    and the bare curve before that; the pre-cap branch is not clamped even
    where it exceeds the cap height.  With ``spec.continuous_cap`` the cap
    holds once the curve reaches it, giving ``min(curve, cap_height)``.
    Tall trees hold the supremum from the first float age the curve hits it.

    Args:
        spec: Species case to evaluate.
        t: Years since planting, a float.

    Returns:
        Height in cm.

    Raises:
        DomainError: If ``t`` is nan or lies below ``spec.domain_start``
            (conifer curves are undefined below t = 1, where the base
            ``1 - e^(-0.00592 (t-1))`` turns negative).
    """
    curve = uncapped_height(spec, t)
    return spec.held_height if t >= _cap_boundary(spec) else curve


def time_at_height(spec: SpeciesSpec, h: float) -> float:
    """Years at which the growth branch reaches height ``h`` cm.

    Inverts the bare growth curve (the cap is ignored, so the result may
    exceed the cap age; callers placing integration boundaries filter by
    the cap themselves).  Every curve inverts in closed form; the conifer
    one as ``t = 1 - ln(1 - ((h - 35)/5471)^(1/0.65669)) / 0.00592``.

    Raises:
        DomainError: If ``h`` is negative.
        RangeError: If ``h`` is not attained on the increasing branch
            (below the height at ``domain_start`` or at/above the curve's
            supremum).
    """
    h = float(h)
    if not h >= 0.0:
        raise DomainError(f"height must be nonnegative, got {h}")
    if h < (start_h := spec.curve(spec.domain_start)):
        raise RangeError(
            f"height {h} cm is below the curve start ({start_h} cm at t = {spec.domain_start})"
        )
    if h >= spec.sup_height:
        raise RangeError(f"height {h} cm is never reached (supremum {spec.sup_height} cm)")
    return spec.inverse(h)


def diameter_from_height(model: DiameterModel, h: float) -> float:
    """Trunk diameter in cm for a float height ``h`` cm under ``model``.

    Selects the segment with ``h in [h_lo, h_hi)`` (last segment closed
    above) and returns ``slope * h + intercept``.
    """
    if not 0.0 <= h < math.inf:
        raise DomainError("height must be finite and nonnegative")
    return next(s for s in model.segments if s.covers(h)).diameter(h)


class TimeSegment(Record, compare=("t_lo", "t_hi")):
    """One piece of the time axis with a fixed height/diameter rule.

    ``diameter_segment`` is the single affine rule active throughout the
    piece and ``on_cap`` says whether height is held constant (on a cap,
    or at a tall tree's saturated height) or follows the growth branch.
    Equality and hashing look at the bounds only.
    """

    t_lo: float
    t_hi: float
    label: str
    diameter_segment: DiameterSegment
    on_cap: bool


@cache
def _cap_boundary(spec: SpeciesSpec) -> float:
    """Age from which height is held: the cap age (with a continuous cap,
    where the curve meets the cap), or for a tall tree the first float age
    at which the curve equals its supremum.  The float curve never
    decreases, so bisection finds that age in about 60 evaluations."""
    if spec.cap_time is not None:
        return time_at_height(spec, spec.cap_height) if spec.continuous_cap else spec.cap_time
    sup, below, at = spec.sup_height, spec.domain_start, 1e5  # at sup by 1e5 y
    while (mid := 0.5 * (below + at)) not in (below, at):
        below, at = (mid, at) if spec.curve(mid) < sup else (below, mid)
    return at


def _check_horizon(horizon: float, start: float) -> None:
    """The package's one horizon check: finite and past ``start``."""
    if not (math.isfinite(horizon) and start < horizon):
        raise DomainError(f"horizon must lie in ({start:g}, inf), got {horizon}")


def integration_segments(
    spec: SpeciesSpec,
    model: DiameterModel,
    horizon: float,
) -> tuple[TimeSegment, ...]:
    """Partition ``[domain_start, horizon - 1]`` into smooth pieces.

    Cuts are placed wherever H(t) crosses a diameter-segment boundary on
    the growth branch, and at the age from which height is held; each piece
    is labelled with the active diameter rule and whether height follows the
    growth branch, sits on the cap or is saturated.  Crossing ages come from
    each curve's closed-form inverse (``spec.inverse``), not hard-coded; a
    crossing within ``_BOUNDARY_EPS`` of an earlier cut, of the held age or
    of ``horizon - 1`` is dropped.

    Returns an empty tuple when ``horizon - 1 <= domain_start`` (no
    in-process interval to integrate).

    Raises:
        DomainError: If ``horizon`` is not finite or ``<= spec.domain_start``.
    """
    _check_horizon(horizon, spec.domain_start)
    upper = horizon - 1.0
    if upper <= spec.domain_start:
        return ()
    held_from = _cap_boundary(spec)
    # a boundary below the held age's curve height is crossed on the growth
    # branch, even above a snapped cap height
    h_start, h_held = spec.curve(spec.domain_start), spec.curve(held_from)
    top = min(held_from, upper) - _BOUNDARY_EPS
    bounds = [spec.domain_start]
    for cut in sorted(spec.inverse(s.h_lo) for s in model.segments[1:] if h_start < s.h_lo < h_held):
        if cut - bounds[-1] > _BOUNDARY_EPS and cut < top:
            bounds.append(cut)
    bounds += [held_from, upper] if held_from < upper - _BOUNDARY_EPS else [upper]

    held = "saturated height" if spec.cap_height is None else "capped height"
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        mid = 0.5 * (lo + hi)
        on_cap = mid >= held_from
        h_mid = spec.held_height if on_cap else spec.curve(mid)
        seg = next(s for s in model.segments if s.covers(h_mid))
        branch = held if on_cap else "growth branch"
        pieces.append(TimeSegment(lo, hi, f"{seg.describe()}, {branch}", seg, on_cap))
    return tuple(pieces)
