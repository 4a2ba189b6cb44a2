"""Annual removal probability of street trees and derived survival terms.

The removal probability p is backed out of census aggregates under a
steady-state assumption: a constant standing stock, replanting at
``stock / assumed_lifespan`` per year, and a count of storm-felled trees
over the census window.  Survival after t years is ``(1 - p)^t``, taken as
``exp(t log1p(-p))``: rounding ``1 - p`` first errs by up to t half-ulps.
"""

import math

from .errors import DomainError, Record
from .growth import SizeClass, _member

__all__ = [
    "RemovalModel",
    "CensusInput",
    "derive_removal_probability",
    "survival_fraction",
    "removed_fraction",
    "expected_lifespan",
    "default_removal_model",
    "DEFAULT_P_TALL",
    "DEFAULT_P_MEDIUM_SHRUB",
]

# Census-derived defaults; the medium value is shared by shrubs.
DEFAULT_P_TALL = 0.027309
DEFAULT_P_MEDIUM_SHRUB = 0.0256977


class RemovalModel(Record):
    """Annual probability p that a standing tree is felled or falls.  ``log_q``,
    the package's one ``log1p(-p)``, is derived and kept out of init, ==, hash, repr."""

    p: float

    _domains = {"p": "(0, 1)"}

    def __post_init__(self):
        object.__setattr__(self, "log_q", math.log1p(-self.p))


class CensusInput(Record):
    """Street-tree census aggregates over a steady-state window.

    Tree counts are real numbers, not integers: census figures are
    estimates and the replanting arithmetic divides them by a lifespan.
    """

    standing_stock: float
    assumed_lifespan: float
    horizon: float
    storm_felled: float = 0.0

    _domains = {"standing_stock": "(0, inf)", "assumed_lifespan": "(0, inf)",
                "horizon": "[1, inf)", "storm_felled": "[0, inf)"}


def derive_removal_probability(census: CensusInput) -> RemovalModel:
    """Back the annual removal probability out of census aggregates.

    Procedure: annual replanting is ``standing_stock / assumed_lifespan``;
    over the census window ``planted = annual * horizon`` trees were both
    planted and (together with ``storm_felled``) removed, so the removed
    fraction of everything that stood during the window is
    ``F = (planted + storm_felled) / (standing_stock + planted)`` and the
    annual removal probability is ``p = 1 - (1 - F)^(1/horizon) = -expm1(log1p(-F) / horizon)``.

    Raises:
        DomainError: If the implied removals reach the whole population
            (``F >= 1``), if the census figures overflow the float range
            on the way to F, or if the removals are so few against the
            window that p rounds to 0.
    """
    annual_planting = census.standing_stock / census.assumed_lifespan
    planted = annual_planting * census.horizon
    removed = planted + census.storm_felled
    fraction = removed / (census.standing_stock + planted)
    if not math.isfinite(fraction):
        raise DomainError(f"census figures overflow the float range (F = {fraction})")
    if fraction >= 1.0:
        raise DomainError(
            f"removals exceed the standing population (F = {fraction:.4f})"
        )
    p = -math.expm1(math.log1p(-fraction) / census.horizon)
    # F < 1 keeps p below 1, but a tiny F over a long window rounds p to 0
    if p == 0.0:
        raise DomainError(
            f"census removals are too few to give a positive p "
            f"(F = {fraction:.4g} over {census.horizon:g} years)"
        )
    return RemovalModel(p=p)


def survival_fraction(model: RemovalModel, t: float) -> float:
    """Probability ``(1 - p)^t`` that a tree still stands after a float
    ``t`` years, as ``exp(t ln(1 - p))``."""
    if not t >= 0.0:
        raise DomainError("t must be nonnegative")
    return math.exp(t * model.log_q)


def removed_fraction(model: RemovalModel, t: float) -> float:
    """Probability ``1 - (1 - p)^t`` that a tree is gone within a float ``t``
    years, as ``-expm1(t ln(1 - p))``, which does not cancel where it is small."""
    if not t >= 0.0:
        raise DomainError("t must be nonnegative")
    return -math.expm1(t * model.log_q)


def expected_lifespan(model: RemovalModel) -> float:
    """Mean standing time in years: the integral of ``(1 - p)^t`` over
    [0, inf), i.e. ``-1 / ln(1 - p)``.

    Raises:
        DomainError: If p is so small (below about 5.6e-309) that the
            lifespan passes the float range.
    """
    lifespan = -1.0 / model.log_q
    if lifespan == math.inf:
        raise DomainError(f"expected lifespan overflows for p = {model.p}")
    return lifespan


def default_removal_model(size: SizeClass | str) -> RemovalModel:
    """Census-derived default removal model for a size class or its name
    (an unknown name raises UnknownSpeciesError).

    Tall trees use p = 0.027309; medium trees and shrubs share
    p = 0.0256977.
    """
    if _member(SizeClass, size) is SizeClass.TALL:
        return RemovalModel(DEFAULT_P_TALL)
    return RemovalModel(DEFAULT_P_MEDIUM_SHRUB)
