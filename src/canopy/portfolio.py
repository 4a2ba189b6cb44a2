"""Portfolio aggregation: inventories, emissions deduction, steward shares.

Aggregates per-tree absorption over planting cohorts, subtracts the
project's own emissions from the gross credit, and attributes a share of
each cohort's credit to the greening business by its years of stewardship
(linear time share: ``total * steward_years / horizon``).
"""

import math
import sys
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

from . import carbon, growth, removal
from .carbon import CarbonConstant, expected_absorption
from .errors import (
    DomainError,
    Record,
    ValidationError,
    require_finite,
)
from .fielddata import _number, _read_table
from .growth import SizeClass, SpeciesSpec
from .removal import RemovalModel

__all__ = [
    "CreditMode",
    "PlantingCohort",
    "ProjectParams",
    "CohortResult",
    "PortfolioReport",
    "allocate_steward_share",
    "evaluate_portfolio",
    "load_inventory",
]


class CreditMode(str, Enum):
    """Which part of the absorption counts as credit."""

    SURVIVOR_ONLY = "survivor_only"
    INCLUDE_IN_PROCESS = "include_in_process"


class PlantingCohort(Record):
    """Identically-specified trees in the inventory; ``count`` must be an
    integer in [0, max float] (else ValidationError), so credits stay floats."""

    spec: SpeciesSpec
    count: int
    label: str = ""

    def __post_init__(self):
        count = self.count
        if not (isinstance(count, int) and 0 <= count <= sys.float_info.max):
            raise ValidationError(f"cohort count must be an integer in [0, max float], got {count}")


class ProjectParams(Record):
    """Project-level evaluation parameters.

    ``steward_years`` defaults to 3, the conventional greening-business
    involvement window used by the reference tables.
    """

    horizon: float = 100.0
    project_emissions: float = 0.0
    steward_years: float = 3.0
    credit_mode: CreditMode = CreditMode.SURVIVOR_ONLY

    def __post_init__(self):
        require_finite(
            "project",
            horizon=self.horizon,
            project_emissions=self.project_emissions,
            steward_years=self.steward_years,
        )
        if self.horizon <= 0.0:
            raise ValidationError("horizon must be positive")
        if self.project_emissions < 0.0:
            raise ValidationError("project_emissions must be nonnegative")
        if not 0.0 <= self.steward_years <= self.horizon:
            raise ValidationError(
                f"steward_years must lie in [0, {self.horizon}]"
            )


class CohortResult(Record):
    label: str
    count: int
    per_tree_total: float
    per_tree_creditable: float
    cohort_credit: float
    steward_share: float


class PortfolioReport(Record):
    """Aggregated credits; ``net_credit`` may be negative and is flagged
    by ``shortfall`` rather than clamped."""

    per_cohort: tuple[CohortResult, ...]
    gross_credit: float
    project_emissions: float
    net_credit: float
    shortfall: bool


def allocate_steward_share(total: float, steward_years: float, horizon: float) -> float:
    """Linear time share ``total * steward_years / horizon`` of a credit."""
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    if not 0.0 <= steward_years <= horizon:
        raise DomainError(f"steward_years must lie in [0, {horizon}]")
    return total * steward_years / horizon


def evaluate_portfolio(
    cohorts: Sequence[PlantingCohort],
    params: ProjectParams,
    *,
    removal_models: Mapping[SizeClass, RemovalModel] | None = None,
    constant: CarbonConstant | None = None,
) -> PortfolioReport:
    """Evaluate an inventory of cohorts into a portfolio report.

    Per-tree values come from :func:`canopy.carbon.expected_absorption`
    for each cohort's spec; the cohort credit is ``count`` times the
    creditable (survivor) term or the expected total, by ``credit_mode``.
    Cohort order is preserved; identical specs are computed once.

    Args:
        cohorts: Inventory, in report order.
        params: Horizon, emissions, steward years and credit mode.
        removal_models: Removal model per size class; defaults to the
            census-derived constants.
        constant: Carbon constant; defaults to the derived default.

    Raises:
        DomainError: If a credit or steward share passes the float range.
    """
    if constant is None:
        constant = carbon.default_carbon_constant()
    diameter_models = growth.default_diameter_models()

    def removal_for(size: SizeClass) -> RemovalModel:
        if removal_models is not None and size in removal_models:
            return removal_models[size]
        return removal.default_removal_model(size)

    steward_years, horizon = params.steward_years, params.horizon
    allocate_steward_share(0.0, steward_years, horizon)  # its checks, once for all shares
    survivor_only = params.credit_mode is CreditMode.SURVIVOR_ONLY
    reports: dict[SpeciesSpec, carbon.AbsorptionReport] = {}
    results = []
    for cohort in cohorts:
        spec = cohort.spec
        report = reports.get(spec)
        if report is None:
            report = reports[spec] = expected_absorption(
                spec, diameter_models[spec.wood], removal_for(spec.size), constant, horizon
            )
        basis = report.creditable if survivor_only else report.expected_total
        cohort_credit = cohort.count * basis
        # the steward share is allocate_steward_share's expression
        results.append(CohortResult(
            cohort.label, cohort.count, report.expected_total, report.creditable,
            cohort_credit, cohort_credit * steward_years / horizon,
        ))
    # the one finite-credit check: an overflowing credit or steward share
    # would print as inf, which JSON cannot even carry
    try:
        gross = math.fsum(r.cohort_credit for r in results)
    except OverflowError:
        gross = math.inf
    if not (math.isfinite(gross) and all(math.isfinite(r.steward_share) for r in results)):
        raise DomainError("portfolio credit overflows the float range")
    net = gross - params.project_emissions
    return PortfolioReport(
        per_cohort=tuple(results),
        gross_credit=gross,
        project_emissions=params.project_emissions,
        net_credit=net,
        shortfall=net < 0.0,
    )


def _cohort(label: str, wood: str, size: str, count: str) -> PlantingCohort:
    spec = growth.species(wood.lower(), size.lower())
    return PlantingCohort(spec, _number(count, "count", int), label)


def _cohorts(label: list, wood: list, size: list, count: list) -> list[PlantingCohort] | None:
    """A chunk's cohorts, or None if a row would fail :func:`_cohort`."""
    try:
        # the spec table finds a spec by its names (see growth._SPECS)
        keys = zip(map(str.lower, wood), map(str.lower, size), repeat(False))
        specs = list(map(growth._SPECS.__getitem__, keys))
        counts = list(map(int, count))
    except (KeyError, ValueError):
        return None
    if not 0 <= min(counts) <= max(counts) <= sys.float_info.max:
        return None
    return list(map(PlantingCohort, specs, counts, label))


def load_inventory(path: str | Path) -> list[PlantingCohort]:
    """Load planting cohorts from a CSV with header ``label,wood,size,count``.

    Wood and size names are case-insensitive; ``#``-prefixed and blank
    lines are skipped.

    Raises:
        ParseError: Missing columns, short row or unparseable count.
        UnknownSpeciesError: Wood or size not among the known values.
        ValidationError: A count out of range (see :class:`PlantingCohort`).
        Each with ``row N: `` and ``row`` set if a data row raised it.
    """
    return _read_table(path, _cohorts, _cohort, ("label", "wood", "size", "count"))
