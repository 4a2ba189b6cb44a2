"""Independent absorption oracle for the benchmark's correctness checks.

Everything here is restated from the paper's model, not imported from
``canopy``: the growth curves, caps, diameter rules, carbon factors and
removal probabilities, the placement of integration pieces and the
survivor term.  The in-process integral is exact wherever the mathematics
allows it:

- on a cap piece the integrand is a constant times q^t;
- on the evergreen and deciduous growth branch H = A (1 - b^t), so
  H (a + b' H)^2 is a sum of four exponentials in t;
- on the shrub branch H = g t, a cubic in t times q^t.

Those closed forms are evaluated in 50-digit decimal arithmetic, so the
cancellation between their terms near t = 0 costs no accuracy.  Only the
conifer growth branch, 35 + 5471 (1 - e^(-r (t-1)))^s, needs numerics: its
derivative is unbounded at t = 1, so the first year is mapped through
t = 1 + u^8, which leaves the singular terms at order u^12, and every part
is integrated with a composite 20-point Gauss-Legendre rule.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

WOODS = ("evergreen", "deciduous", "conifer")
SIZES = ("tall", "medium", "shrub")

# growth curves (cm, t in years)
EXP_SCALE = 2500.0
EXP_BASE = {"evergreen": 0.975, "deciduous": 0.962}
CONIFER_OFFSET = 35.0
CONIFER_SCALE = 5471.0
CONIFER_RATE = 0.00592
CONIFER_SHAPE = 0.65669
SHRUB_RATE = 107.5
CAPS = {"tall": None, "medium": (850.0, 16.412), "shrub": (400.0, 3.72093)}

# height -> diameter rules: (h_lo, h_hi or None, slope, intercept)
DIAMETER_RULES = {
    "evergreen": ((0.0, 250.0, 0.014, 0.0), (250.0, 300.0, 0.0318, -4.4586),
                  (300.0, None, 0.051, -10.717)),
    "deciduous": ((0.0, 300.0, 0.0096, 1.2208), (300.0, None, 0.0429, -9.5903)),
    "conifer": ((0.0, 300.0, 0.0127, 0.9554), (300.0, None, 0.0332, -5.6785)),
}

DEFAULT_P = {"tall": 0.027309, "medium": 0.0256977, "shrub": 0.0256977}
DEFAULT_FACTORS = (1.664736867, 0.2715789378, 0.3978947401, 0.51)  # bef, rtsr, bd, cf
GIRTH_PI = 3.14  # the published girth tables divide circumference by 3.14

_PREC = 50
_GL_POINTS = 20
_PANEL_YEARS = 8.0
_SUB_POWER = 8


@dataclass(frozen=True)
class Case:
    wood: str
    size: str
    continuous_cap: bool = False

    @property
    def start(self) -> float:
        return 1.0 if self.wood == "conifer" else 0.0


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    on_cap: bool
    rule: tuple  # (h_lo, h_hi, slope, intercept)


@dataclass(frozen=True)
class PerTree:
    pieces: tuple
    segments: tuple  # in-process value of each piece
    survivor: float
    total: float


def carbon_constant(bef, rtsr, bd, cf) -> float:
    """t-CO2 per cm^3 of trunk cylinder, with the exact ratio 44/12."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        d = Decimal
        value = d(bef) * (1 + d(rtsr)) * d(bd) * d(cf) * 44 / 12 / d(10) ** 6
    return float(value)


def curve(case: Case, t: float) -> float:
    """Bare growth-branch height, ignoring the cap."""
    if case.size == "shrub":
        return SHRUB_RATE * t
    if case.wood == "conifer":
        decay = -math.expm1(-CONIFER_RATE * (t - 1.0))
        return CONIFER_OFFSET + CONIFER_SCALE * decay ** CONIFER_SHAPE
    return EXP_SCALE * -math.expm1(t * math.log(EXP_BASE[case.wood]))


def curve_time(case: Case, h: float) -> float | None:
    """Time at which the growth branch reaches h, or None if never."""
    if case.size == "shrub":
        t = h / SHRUB_RATE
        return t if t >= case.start else None
    if case.wood == "conifer":
        if not CONIFER_OFFSET <= h < CONIFER_OFFSET + CONIFER_SCALE:
            return None
        frac = ((h - CONIFER_OFFSET) / CONIFER_SCALE) ** (1.0 / CONIFER_SHAPE)
        return 1.0 - math.log1p(-frac) / CONIFER_RATE
    if not 0.0 <= h < EXP_SCALE:
        return None
    return math.log1p(-h / EXP_SCALE) / math.log(EXP_BASE[case.wood])


def rule_for(wood: str, h: float) -> tuple:
    """The diameter rule owning height h (half-open, last one open above)."""
    for rule in DIAMETER_RULES[wood]:
        if h >= rule[0] and (rule[1] is None or h < rule[1]):
            return rule
    raise ValueError(f"height {h} outside the diameter rules")


def cap_time(case: Case) -> float | None:
    cap = CAPS[case.size]
    if cap is None:
        return None
    return curve_time(case, cap[0]) if case.continuous_cap else cap[1]


def height(case: Case, t: float) -> float:
    """Capped height: snapped to the cap from the cap age, or min(curve, cap)."""
    cap = CAPS[case.size]
    h = curve(case, t)
    if cap is None:
        return h
    if case.continuous_cap:
        return min(h, cap[0])
    return cap[0] if t >= cap[1] else h


def pieces(case: Case, horizon: float) -> tuple:
    """Smooth pieces of [start, horizon - 1]: cut where the growth branch
    crosses a diameter breakpoint and at the cap age."""
    upper = horizon - 1.0
    if upper <= case.start:
        return ()
    t_cap = cap_time(case)
    growth_end = upper if t_cap is None else min(t_cap, upper)
    cuts = []
    for rule in DIAMETER_RULES[case.wood][1:]:
        t = curve_time(case, rule[0])
        if t is not None and case.start < t < growth_end:
            cuts.append(t)
    if t_cap is not None and case.start < t_cap < upper:
        cuts.append(t_cap)
    bounds = [case.start, *sorted(cuts), upper]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        on_cap = t_cap is not None and mid >= t_cap
        h = CAPS[case.size][0] if on_cap else curve(case, mid)
        out.append(Piece(lo, hi, on_cap, rule_for(case.wood, h)))
    return tuple(out)


def _exp_integral(lam: Decimal, lo: Decimal, hi: Decimal) -> Decimal:
    return ((lam * hi).exp() - (lam * lo).exp()) / lam


def _poly_exp_integral(k: int, lam: Decimal, lo: Decimal, hi: Decimal) -> Decimal:
    """Integral of t^k e^(lam t) over [lo, hi]."""
    def antiderivative(t):
        acc = Decimal(0)
        falling = 1
        for i in range(k + 1):
            power = t ** (k - i) if k > i else 1  # Decimal rejects 0 ** 0
            acc += (-1) ** i * falling * power / lam ** (i + 1)
            falling *= k - i
        return (lam * t).exp() * acc
    return antiderivative(hi) - antiderivative(lo)


def _closed_form(case: Case, piece: Piece, p: float, lo: float, hi: float) -> float:
    """Integral of q^t H (a + b H)^2 over [lo, hi] on a cap, exponential
    or shrub piece, in decimal arithmetic."""
    _, _, slope, intercept = piece.rule
    with localcontext() as ctx:
        ctx.prec = _PREC
        b, a = Decimal(slope), Decimal(intercept)
        lnq = (1 - Decimal(p)).ln()
        dlo, dhi = Decimal(lo), Decimal(hi)
        if piece.on_cap:
            h = Decimal(CAPS[case.size][0])
            value = h * (a + b * h) ** 2 * _exp_integral(lnq, dlo, dhi)
        elif case.size == "shrub":
            g = Decimal(SHRUB_RATE)
            coefs = (a * a * g, 2 * a * b * g ** 2, b * b * g ** 3)
            value = sum(
                c * _poly_exp_integral(k, lnq, dlo, dhi)
                for k, c in enumerate(coefs, start=1)
            )
        else:
            scale = Decimal(EXP_SCALE)
            lnb = Decimal(EXP_BASE[case.wood]).ln()
            # H (a + bH)^2 = a^2 H + 2ab H^2 + b^2 H^3, H^k = A^k (1 - b^t)^k
            exps = [Decimal(0)] * 4
            for k, m in ((1, a * a), (2, 2 * a * b), (3, b * b)):
                for j in range(k + 1):
                    exps[j] += m * scale ** k * math.comb(k, j) * (-1) ** j
            value = sum(
                e * _exp_integral(lnq + j * lnb, dlo, dhi)
                for j, e in enumerate(exps)
            )
    return float(value)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _gauss(f, lo: float, hi: float, panels: int, n: int = _GL_POINTS) -> float:
    nodes, weights = gauss_legendre(n)
    width = (hi - lo) / panels
    parts = []
    for i in range(panels):
        a = lo + i * width
        half = 0.5 * width
        mid = a + half
        parts.append(half * math.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights)))
    return math.fsum(parts)


def _conifer_growth(piece: Piece, p: float, lo: float, hi: float, n: int = _GL_POINTS) -> float:
    """Integral of q^t H (a + b H)^2 on the conifer growth branch."""
    _, _, b, a = piece.rule
    log_q = math.log1p(-p)

    def integrand_of_offset(x):  # x = t - 1
        w = -math.expm1(-CONIFER_RATE * x)
        h = CONIFER_OFFSET + CONIFER_SCALE * w ** CONIFER_SHAPE
        return math.exp((1.0 + x) * log_q) * h * (a + b * h) ** 2

    parts = []
    split = lo
    if lo == 1.0:
        # t = 1 + u^m over the first year (or the whole piece if shorter)
        split = min(hi, 2.0)
        top = (split - 1.0) ** (1.0 / _SUB_POWER)
        m = _SUB_POWER
        parts.append(_gauss(
            lambda u: integrand_of_offset(u ** m) * m * u ** (m - 1), 0.0, top, 4, n
        ))
    if hi > split:
        panels = max(1, math.ceil((hi - split) / _PANEL_YEARS))
        parts.append(_gauss(lambda t: integrand_of_offset(t - 1.0), split, hi, panels, n))
    return math.fsum(parts)


def piece_value(case: Case, piece: Piece, p: float, c: float,
                lo: float | None = None, hi: float | None = None) -> float:
    """In-process absorption p c pi/4 * integral of q^t H d^2 over the
    piece, or over [lo, hi] with the piece's rule and branch."""
    lo = piece.lo if lo is None else lo
    hi = piece.hi if hi is None else hi
    if hi <= lo:
        return 0.0
    if case.wood == "conifer" and case.size != "shrub" and not piece.on_cap:
        integral = _conifer_growth(piece, p, lo, hi)
    else:
        integral = _closed_form(case, piece, p, lo, hi)
    return p * c * math.pi / 4.0 * integral


def survivor(case: Case, p: float, c: float, horizon: float) -> float:
    """(1-p)^horizon times the CO2 stored at the horizon."""
    h = height(case, horizon)
    _, _, slope, intercept = rule_for(case.wood, h)
    d = slope * h + intercept
    return math.exp(horizon * math.log1p(-p)) * h * d * d * math.pi / 4.0 * c


def per_tree(case: Case, p: float, c: float, horizon: float) -> PerTree:
    """Expected absorption of one planted tree, piece by piece."""
    ps = pieces(case, horizon)
    segs = tuple(piece_value(case, piece, p, c) for piece in ps)
    surv = survivor(case, p, c, horizon)
    return PerTree(ps, segs, surv, math.fsum(segs + (surv,)))


def removal_probability(stock, lifespan, window, storm) -> float:
    """Steady-state census back-out: p = 1 - (1 - F)^(1/window)."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        d = Decimal
        planted = d(stock) / d(lifespan) * d(window)
        fraction = (planted + d(storm)) / (d(stock) + planted)
        p = 1 - ((1 - fraction).ln() / d(window)).exp()
    return float(p)


def least_squares(points) -> tuple:
    """Slope, intercept, r^2 and residual sum of squares by centred sums."""
    n = len(points)
    mh = math.fsum(h for h, _ in points) / n
    md = math.fsum(d for _, d in points) / n
    sxx = math.fsum((h - mh) ** 2 for h, _ in points)
    sxy = math.fsum((h - mh) * (d - md) for h, d in points)
    slope = sxy / sxx
    intercept = md - slope * mh
    ss_res = math.fsum((d - slope * h - intercept) ** 2 for h, d in points)
    ss_tot = math.fsum((d - md) ** 2 for _, d in points)
    r2 = (1.0 if ss_res == 0.0 else 0.0) if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2, ss_res


def piecewise_fit(points, breakpoints) -> tuple:
    """Per-segment least squares; a point on a breakpoint belongs to both
    neighbouring segments.  Returns ((h_lo, h_hi, slope, intercept, r2),
    ...) and the residual rms over all assignments."""
    edges = list(zip([0.0, *breakpoints], [*breakpoints, None]))
    segments, ss, assigned = [], [], 0
    for lo, hi in edges:
        chosen = [(h, d) for h, d in points if h >= lo and (hi is None or h <= hi)]
        slope, intercept, r2, ss_res = least_squares(chosen)
        segments.append((lo, hi, slope, intercept, r2))
        ss.append(ss_res)
        assigned += len(chosen)
    return tuple(segments), math.sqrt(math.fsum(ss) / assigned)
