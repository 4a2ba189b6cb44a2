"""Expected 100-year CO2 absorption of urban tree plantings.

Per-tree absorption combines a growth curve H(t), a piecewise-linear
height-to-diameter model d(H), an annual removal probability p, and a
carbon constant c converting trunk-cylinder volume to tonnes of CO2.
The survivor (creditable) term covers trees still standing at the
horizon; the in-process term integrates the removal-weighted store of
trees felled along the way.  Portfolio tools aggregate cohorts, deduct
project emissions, and attribute steward shares.
"""

__version__ = "0.1.0"

from .carbon import (
    AbsorptionReport,
    BreakdownRow,
    CarbonConstant,
    CarbonFactors,
    SegmentAbsorption,
    breakdown_table,
    carbon_constant,
    creditable_absorption,
    default_carbon_constant,
    default_carbon_factors,
    expected_absorption,
    segment_integrand,
    stored_co2,
)
from .errors import (
    CanopyError,
    DomainError,
    IntegrationError,
    ParseError,
    RangeError,
    UnderdeterminedError,
    UnknownSpeciesError,
    ValidationError,
)
from .fielddata import (
    FitResult,
    Measurement,
    default_breakpoints,
    fit_piecewise_linear,
    girth_to_diameter,
    load_measurements,
    reference_tables,
)
from .growth import (
    DiameterModel,
    DiameterSegment,
    SizeClass,
    SpeciesSpec,
    TimeSegment,
    WoodType,
    all_species,
    default_diameter_models,
    diameter_from_height,
    height,
    integration_segments,
    species,
    time_at_height,
    uncapped_height,
)
from .portfolio import (
    CohortResult,
    CreditMode,
    PlantingCohort,
    PortfolioReport,
    ProjectParams,
    allocate_steward_share,
    evaluate_portfolio,
    load_inventory,
)
from .quadrature import integrate
from .removal import (
    DEFAULT_P_MEDIUM_SHRUB,
    DEFAULT_P_TALL,
    CensusInput,
    RemovalModel,
    default_removal_model,
    derive_removal_probability,
    expected_lifespan,
    survival_fraction,
)

__all__ = [
    "__version__",
    # errors
    "CanopyError", "DomainError", "RangeError", "IntegrationError",
    "ParseError", "ValidationError", "UnderdeterminedError",
    "UnknownSpeciesError",
    # growth
    "WoodType", "SizeClass", "SpeciesSpec", "DiameterSegment",
    "DiameterModel", "TimeSegment", "species", "all_species", "height",
    "time_at_height", "diameter_from_height", "default_diameter_models",
    "integration_segments", "uncapped_height",
    # removal
    "RemovalModel", "CensusInput", "derive_removal_probability",
    "survival_fraction", "expected_lifespan", "default_removal_model",
    "DEFAULT_P_TALL", "DEFAULT_P_MEDIUM_SHRUB",
    # quadrature
    "integrate",
    # carbon
    "CarbonFactors", "CarbonConstant", "SegmentAbsorption",
    "AbsorptionReport", "BreakdownRow", "carbon_constant",
    "default_carbon_factors", "default_carbon_constant", "stored_co2",
    "segment_integrand", "creditable_absorption",
    "expected_absorption",
    "breakdown_table",
    # fielddata
    "Measurement", "FitResult", "girth_to_diameter", "load_measurements",
    "fit_piecewise_linear", "reference_tables", "default_breakpoints",
    # portfolio
    "CreditMode", "PlantingCohort", "ProjectParams", "CohortResult",
    "PortfolioReport", "allocate_steward_share", "evaluate_portfolio",
    "load_inventory",
]
