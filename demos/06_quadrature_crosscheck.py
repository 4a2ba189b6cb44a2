"""Two quadrature rules checking each other.

The absorption integral runs on adaptive Simpson.  A composite midpoint
rule (a genuinely different method) serves as the reference: if both land
on the same value, a shared implementation bug is effectively ruled out.
This demo sweeps the midpoint panel count and watches it converge to the
adaptive result on the dominant evergreen-tall segment.  The midpoint sums
are written here, on numpy arrays: the integrand evaluates an ndarray as
it evaluates a float, although canopy itself does not use numpy (install
it with the test extra, ``pip install -e ".[test]"``).
"""

import math

import numpy as np

from canopy import (
    default_carbon_constant,
    default_diameter_models,
    default_removal_model,
    integrate,
    integration_segments,
    species,
)
from canopy.carbon import segment_integrand


def midpoint(f, a, b, n, chunk=1 << 20):
    """Composite midpoint rule with ``n`` panels, ``chunk`` at a time."""
    h = (b - a) / n
    sums = (
        float(f(a + (np.arange(start, min(start + chunk, n)) + 0.5) * h).sum())
        for start in range(0, n, chunk)
    )
    return math.fsum(sums) * h


spec = species("evergreen", "tall")
model = default_diameter_models()[spec.wood]
removal = default_removal_model(spec.size)
constant = default_carbon_constant()

piece = integration_segments(spec, model, 100.0)[-1]
f = segment_integrand(spec, piece, removal, constant)

adaptive = integrate(f, piece.t_lo, piece.t_hi)
print(
    f"in-process absorption, {spec.wood.value} {spec.size.value}, "
    f"t in [{piece.t_lo:.5f}, {piece.t_hi}]"
)
print(f"adaptive Simpson: {adaptive:.15f} t-CO2\n")
print(f"{'midpoint panels':>16}{'value':>22}{'rel diff vs adaptive':>24}")
for exponent in range(2, 8):
    n = 10**exponent
    reference = midpoint(f, piece.t_lo, piece.t_hi, n)
    rel = abs(reference - adaptive) / adaptive
    print(f"{n:>16,}{reference:>22.15f}{rel:>24.3e}")

print(
    "\nMidpoint error falls as 1/n^2 until it hits rounding noise; at ten"
    "\nmillion panels the two rules agree far inside 1e-8 relative."
)
