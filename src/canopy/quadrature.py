"""Quadrature engine: adaptive Simpson with Richardson correction.

The tests cross-check :func:`integrate` against a composite midpoint rule
of their own (``tests/midpoint.py``), so a shared bug cannot validate
itself.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, IntegrationError, ValidationError

__all__ = ["Quadrature", "DEFAULT_QUADRATURE", "integrate"]


@dataclass(frozen=True)
class Quadrature:
    """Tolerances for :func:`integrate`.

    The defaults leave the comparison slack against tabulated values
    dominated by those tables' own rounding: the integrands here are
    smooth within each segment, so adaptive Simpson converges long before
    ``max_depth``.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValidationError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be at least 1")


DEFAULT_QUADRATURE = Quadrature()


def _eval(f: Callable[[float], float], x: float) -> float:
    value = float(f(x))
    if not math.isfinite(value):
        raise IntegrationError(f"integrand not finite at x = {x}")
    return value


def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a, b, fa, fm, fb, whole, abs_tol, rel_tol, depth, parent_delta):
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
    tol = 15.0 * max(abs_tol, rel_tol * abs(left + right))
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
    return _adapt(
        f, a, m, fa, flm, fm, left, abs_tol, rel_tol, depth - 1, delta
    ) + _adapt(f, m, b, fm, frm, fb, right, abs_tol, rel_tol, depth - 1, delta)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson.

    Each interval is accepted once its Richardson-extrapolated error
    estimate falls below ``max(abs_tol, rel_tol * |estimate|)`` and its
    parent's estimate was at most 64 times that bound, so a chance
    agreement on a coarse interval is refined, not accepted.  Returns
    exactly 0.0 when ``a == b``.

    Raises:
        DomainError: If ``a > b``.
        IntegrationError: If ``max_depth`` is exhausted before the
            tolerance is met, or ``f`` returns a non-finite value.
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
    return _adapt(
        f, a, b, fa, fm, fb, whole,
        quadrature.abs_tol, quadrature.rel_tol, quadrature.max_depth, math.inf,
    )
