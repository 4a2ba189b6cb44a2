"""Exact references at 50 digits: the tests' Decimal closed forms.

They restate the paper's formulas for the growth curves, the conifer
inverse, the survivor term, the held-height pieces and the census back-out
of p.  Every float argument (p, a
horizon, a piece bound, a diameter coefficient, the carbon constant)
enters as its exact binary value, and the curve constants as the paper's
decimal figures, so a difference from canopy is canopy's own rounding and
quadrature error.  Nothing here imports canopy.
"""

from decimal import Decimal, localcontext

DIGITS = 50

_CONIFER_OFFSET = Decimal(35)
_CONIFER_SCALE = Decimal(5471)
_CONIFER_RATE = Decimal("0.00592")
_CONIFER_SHAPE = Decimal("0.65669")
_EXP_SCALE = Decimal(2500)
_EXP_BASE = {"evergreen": Decimal("0.975"), "deciduous": Decimal("0.962")}
_SHRUB_RATE = Decimal("107.5")
# size -> (cap height cm, cap age years)
_CAPS = {"medium": (Decimal(850), Decimal("16.412")), "shrub": (Decimal(400), Decimal("3.72093"))}
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582")


def _exact(function):
    """Run ``function`` at ``DIGITS`` significant digits."""

    def wrapped(*args):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return +function(*args)

    return wrapped


@_exact
def conifer_time_at_height(h: float) -> Decimal:
    """t = 1 - ln(1 - ((h - 35)/5471)^(1/0.65669)) / 0.00592."""
    frac = ((Decimal(h) - _CONIFER_OFFSET) / _CONIFER_SCALE) ** (1 / _CONIFER_SHAPE)
    return 1 - (1 - frac).ln() / _CONIFER_RATE


def _curve(wood: str, size: str, t: Decimal) -> Decimal:
    if size == "shrub":
        return _SHRUB_RATE * t
    if wood == "conifer":
        decay = 1 - (-_CONIFER_RATE * (t - 1)).exp()
        return _CONIFER_OFFSET + _CONIFER_SCALE * decay**_CONIFER_SHAPE
    return _EXP_SCALE * (1 - (t * _EXP_BASE[wood].ln()).exp())


def held_height(wood: str, size: str) -> Decimal:
    """Height held from the cap age on, or a tall tree's curve supremum."""
    if size in _CAPS:
        return _CAPS[size][0]
    return _CONIFER_OFFSET + _CONIFER_SCALE if wood == "conifer" else _EXP_SCALE


def _height(wood: str, size: str, continuous_cap: bool, t: Decimal) -> Decimal:
    curve = _curve(wood, size, t)
    if size not in _CAPS:
        return curve
    cap_height, cap_age = _CAPS[size]
    if continuous_cap:
        return min(curve, cap_height)
    return cap_height if t >= cap_age else curve


def _store(segments, c: float, h: Decimal) -> Decimal:
    """h (d/2)^2 pi c under the diameter rule owning height ``h``, given as
    (h_lo, h_hi or None, slope, intercept) rows."""
    for h_lo, h_hi, slope, intercept in segments:
        if Decimal(h_lo) <= h and (h_hi is None or h < Decimal(h_hi)):
            d = Decimal(slope) * h + Decimal(intercept)
            return h * (d / 2) ** 2 * _PI * Decimal(c)
    raise ValueError(f"height {h} outside the diameter rules")


@_exact
def survivor_term(wood, size, continuous_cap, segments, p, c, horizon) -> Decimal:
    """(1 - p)^horizon * stored(horizon)."""
    t = Decimal(horizon)
    weight = (t * (1 - Decimal(p)).ln()).exp()
    return weight * _store(segments, c, _height(wood, size, continuous_cap, t))


@_exact
def cap_piece(held, segments, p, c, lo, hi) -> Decimal:
    """Integral over [lo, hi] of (1 - p)^t p stored(held), with the height
    held at ``held`` cm: p S (q^hi - q^lo) / ln q."""
    log_q = (1 - Decimal(p)).ln()
    store = _store(segments, c, Decimal(held))
    span = (Decimal(hi) * log_q).exp() - (Decimal(lo) * log_q).exp()
    return Decimal(p) * store * span / log_q


def removal_probability(fraction: float, horizon: float) -> Decimal:
    """p = 1 - (1 - F)^(1/horizon), to ``DIGITS`` significant digits.

    Worked at 800 digits: at 50, ``1 - F`` rounds to 1 for F below 1e-50,
    while 800 keep every digit of any F down to 1e-300.
    """
    with localcontext() as ctx:
        ctx.prec = 800
        p = 1 - ((1 - Decimal(fraction)).ln() / Decimal(horizon)).exp()
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return +p
