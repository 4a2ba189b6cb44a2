"""Period-by-period breakdown of the absorption integral.

Each tree case is integrated piecewise: boundaries fall where the growth
curve crosses a diameter-model breakpoint and where growth stops at the
cap age.  The rows show the in-process term (CO2 in trees felled during
that window, weighted by the removal-time density); the survivor term
appears on the final row.
"""

from canopy import (
    all_species,
    default_carbon_constant,
    default_diameter_models,
    default_removal_model,
    expected_absorption,
)

models = default_diameter_models()
constant = default_carbon_constant()

for spec in all_species():
    removal = default_removal_model(spec.size)
    report = expected_absorption(spec, models[spec.wood], removal, constant)
    print(f"{spec.wood.value} ({spec.size.value}), p = {removal.p}")
    print(f"  {'years since planting':<28}{'in-process (t)':>16}{'survivor (t)':>14}")
    last = len(report.segments) - 1
    for i, seg in enumerate(report.segments):
        period = f"{seg.t_lo:.6g} - {seg.t_hi:.6g}"
        survivor = f"{report.creditable:.9f}" if i == last else ""
        print(f"  {period:<28}{seg.value:>16.9f}{survivor:>14}")
    print(f"  {'total':<28}{report.expected_total:>16.9f}\n")
