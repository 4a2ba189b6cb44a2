"""Quadrature engine: adaptive Simpson with Richardson correction.

The tests cross-check :func:`integrate` against a composite midpoint rule
of their own (``tests/midpoint.py``), so a shared bug cannot validate
itself.
"""

import math
from typing import Callable

from .errors import DomainError, IntegrationError

__all__ = ["integrate"]


# Fixed tolerances: the integrands are smooth within each piece, so the
# comparison slack against tabulated values is dominated by those tables'
# own rounding, and adaptive Simpson converges long before the depth limit.
_ABS_TOL = 1e-14
_REL_TOL = 1e-10
_MAX_DEPTH = 40


def _eval(f: Callable[[float], float], x: float) -> float:
    value = float(f(x))
    if not math.isfinite(value):
        raise IntegrationError(f"integrand not finite at x = {x}")
    return value


def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a, b, fa, fm, fb, whole, depth, parent_delta):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _eval(f, lm)
    frm = _eval(f, rm)
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    delta = left + right - whole
    # |S2 - S1| <= 15 tol bounds the extrapolated error by tol; the
    # per-interval tolerance is deliberately not halved on recursion, or
    # endpoints with unbounded derivative (the conifer curve at t = 1)
    # could never win the depth race
    tol = 15.0 * max(_ABS_TOL, _REL_TOL * abs(left + right))
    # Once the error terms scale as h^5, the parent's |S2 - S1| is about 32
    # times this one.  A parent far above that marks an interval still too
    # coarse for the estimate, where S1 and S2 can agree by chance (the
    # fourth derivative changing sign) while both are off: accepting such a
    # match left growth pieces 2e-8 relative off.  The top call passes inf,
    # so the whole interval is always split once.
    if abs(delta) <= tol and parent_delta <= 64.0 * tol:
        return left + right + delta / 15.0
    if depth <= 1:
        raise IntegrationError(
            f"max_depth exhausted before tolerance was met on [{a}, {b}]"
        )
    delta = abs(delta)
    return _adapt(f, a, m, fa, flm, fm, left, depth - 1, delta) + _adapt(
        f, m, b, fm, frm, fb, right, depth - 1, delta
    )


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson.

    Each interval is accepted once its Richardson-extrapolated error
    estimate falls below ``max(1e-14, 1e-10 * |estimate|)`` and its
    parent's estimate was at most 64 times that bound, so a chance
    agreement on a coarse interval is refined, not accepted.  Returns
    exactly 0.0 when ``a == b``.

    Raises:
        DomainError: If ``a > b``.
        IntegrationError: If 40 levels of bisection do not meet the
            tolerance, or ``f`` returns a non-finite value.
    """
    a = float(a)
    b = float(b)
    if a > b:
        raise DomainError("integration requires a <= b")
    if a == b:
        return 0.0
    fa = _eval(f, a)
    fb = _eval(f, b)
    m = 0.5 * (a + b)
    fm = _eval(f, m)
    whole = _simpson(a, b, fa, fm, fb)
    return _adapt(f, a, b, fa, fm, fb, whole, _MAX_DEPTH, math.inf)
