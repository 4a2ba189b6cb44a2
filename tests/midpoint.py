"""Composite midpoint rule: the tests' reference for canopy's quadrature.

It lives with the tests, apart from the program, so that a bug shared by
the production rule and its oracle cannot validate itself.  It evaluates
the integrand on numpy arrays, which is why numpy is a test dependency.
"""

import math
from typing import Callable

import numpy as np

from canopy import DomainError

_CHUNK = 1 << 20  # panels per numpy block


def integrate_reference(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n: int,
) -> float:
    """Composite midpoint rule with ``n`` uniform panels.

    Deterministic test oracle for :func:`canopy.integrate`; not adaptive,
    no error control.  ``f`` is evaluated on numpy arrays (a scalar return
    is broadcast, so constants work too).

    Raises:
        DomainError: If ``n < 1``.
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    h = (b - a) / n
    partials = []
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        x = a + (np.arange(start, stop, dtype=float) + 0.5) * h
        fx = np.asarray(f(x), dtype=float)
        if fx.ndim == 0:
            fx = np.full(x.shape, float(fx))
        partials.append(float(np.sum(fx)))
    return math.fsum(partials) * h
