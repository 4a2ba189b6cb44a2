"""Command-line surface: estimate, breakdown, portfolio, derive-p, fit.

A flagless run reproduces the built-in reference constants (p per size
class, carbon factors, 100-year horizon); every constant can be
overridden by flag or by a JSON config file (``--config`` or the
``CANOPY_CONFIG`` environment variable) for sensitivity analysis.

Exit codes: 0 success, 1 computation/data error, 2 usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

from . import __version__
from .carbon import (
    CarbonFactors,
    carbon_constant,
    default_carbon_factors,
    expected_absorption,
)
from .errors import CanopyError, Record, ValidationError
from .fielddata import (
    default_breakpoints,
    fit_piecewise_linear,
    load_measurements,
    reference_tables,
)
from .growth import (
    SizeClass,
    WoodType,
    default_diameter_models,
    diameter_from_height,
    height,
    species,
)
from .portfolio import (
    CohortResult,
    CreditMode,
    PlantingCohort,
    ProjectParams,
    evaluate_portfolio,
    load_inventory,
)
from .removal import (
    CensusInput,
    RemovalModel,
    default_removal_model,
    derive_removal_probability,
    expected_lifespan,
    survival_fraction,
)

__all__ = ["main", "CliConfig"]

CONFIG_ENV_VAR = "CANOPY_CONFIG"
_FORMATS = ("table", "json", "csv")

_WOODS = tuple(w.value for w in WoodType)
_SIZES = tuple(s.value for s in SizeClass)


class _UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


class CliConfig(Record):
    """Optional overrides loaded from a JSON config file."""

    p_tall: float | None = None
    p_medium_shrub: float | None = None
    bef: float | None = None
    rtsr: float | None = None
    bd: float | None = None
    cf: float | None = None
    horizon: float | None = None
    format: str | None = None
    output: str | None = None


def _load_config(path: str | None) -> CliConfig:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return CliConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    known = set(CliConfig._fields)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        if key in ("format", "output"):
            if not isinstance(value, str):
                raise _UsageError(f"config key {key} must be a string")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _UsageError(f"config key {key} must be a number")
    if "format" in raw and raw["format"] not in _FORMATS:
        raise _UsageError(f"config format must be one of {_FORMATS}")
    return CliConfig(**raw)


class _Settings(Record):
    """Fully-resolved run settings (flags > config > defaults)."""

    p_tall: RemovalModel
    p_medium_shrub: RemovalModel
    factors: CarbonFactors
    horizon: float
    fmt: str
    output: str | None
    continuous_cap: bool

    def removal_for(self, size: SizeClass) -> RemovalModel:
        return self.p_tall if size is SizeClass.TALL else self.p_medium_shrub


def _pick(flag, config_value, default):
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


def _resolve(args: argparse.Namespace) -> _Settings:
    config = _load_config(getattr(args, "config", None))
    defaults = default_carbon_factors()
    try:
        p_tall = RemovalModel(
            _pick(getattr(args, "p_tall", None), config.p_tall,
                  default_removal_model(SizeClass.TALL).p)
        )
        p_ms = RemovalModel(
            _pick(getattr(args, "p_medium_shrub", None), config.p_medium_shrub,
                  default_removal_model(SizeClass.MEDIUM).p)
        )
        factors = CarbonFactors(
            bef=_pick(getattr(args, "bef", None), config.bef, defaults.bef),
            rtsr=_pick(getattr(args, "rtsr", None), config.rtsr, defaults.rtsr),
            bd=_pick(getattr(args, "bd", None), config.bd, defaults.bd),
            cf=_pick(getattr(args, "cf", None), config.cf, defaults.cf),
        )
    except CanopyError as exc:
        raise _UsageError(str(exc)) from exc
    horizon = _pick(getattr(args, "horizon", None), config.horizon, 100.0)
    if not (math.isfinite(horizon) and horizon > 0):
        raise _UsageError(f"horizon must be positive and finite, got {horizon}")
    fmt = _pick(getattr(args, "format", None), config.format, "table")
    output = _pick(getattr(args, "output", None), config.output, None)
    return _Settings(
        p_tall=p_tall,
        p_medium_shrub=p_ms,
        factors=factors,
        horizon=float(horizon),
        fmt=fmt,
        output=output,
        continuous_cap=bool(getattr(args, "continuous_cap", False)),
    )


def _num(value: float) -> str:
    return f"{value:.6f}"


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(
    settings: _Settings, payload: dict, header: list[str] | None = None,
    rows: Sequence[Sequence] = (), footer: str = "",
) -> None:
    """Write a command's result to stdout or ``--output``.

    JSON writes ``payload``.  CSV and table write ``rows`` under
    ``header``, the table followed by ``footer``; without a header, the
    payload is one CSV row or a key/value table.  Floats print with six
    decimals outside JSON.
    """
    if settings.fmt == "json":
        text = _json_dumps(payload)
    else:
        pairs = header is None
        if pairs:
            header, rows = list(payload), [payload.values()]
        cells = [header] + [
            [_num(v) if isinstance(v, float) else str(v) for v in row] for row in rows
        ]
        if settings.fmt == "csv":
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(cells)
            text = buffer.getvalue()
        elif pairs:
            width = max(map(len, header))
            text = "".join(f"{k:<{width}}  {v}\n" for k, v in zip(*cells))
        else:
            widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
            lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in cells]
            lines.insert(1, "  ".join("-" * w for w in widths))
            text = "\n".join(lines) + "\n" + footer
    if settings.output is None:
        sys.stdout.write(text)
    else:
        with open(settings.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_estimate(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    spec = species(args.wood, args.size, continuous_cap=settings.continuous_cap)
    model = default_diameter_models()[spec.wood]
    removal = settings.removal_for(spec.size)
    constant = carbon_constant(settings.factors)
    report = expected_absorption(spec, model, removal, constant, settings.horizon)
    h = height(spec, settings.horizon)
    payload = {
        "wood": spec.wood.value,
        "size": spec.size.value,
        "horizon_years": settings.horizon,
        "p": removal.p,
        "carbon_constant": constant.c,
        "survival_rate": survival_fraction(removal, settings.horizon),
        "height_cm": h,
        "diameter_cm": diameter_from_height(model, h),
        "creditable_t": report.creditable,
        "expected_total_t": report.expected_total,
    }
    _emit(settings, payload)
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    spec = species(args.wood, args.size, continuous_cap=settings.continuous_cap)
    model = default_diameter_models()[spec.wood]
    removal = settings.removal_for(spec.size)
    constant = carbon_constant(settings.factors)
    report = expected_absorption(spec, model, removal, constant, settings.horizon)
    payload = {
        "wood": spec.wood.value,
        "size": spec.size.value,
        "horizon_years": settings.horizon,
        "p": removal.p,
        "segments": [
            {
                "t_start": seg.t_lo,
                "t_end": seg.t_hi,
                "rule": seg.label,
                "in_process_t": seg.value,
            }
            for seg in report.segments
        ],
        "creditable_t": report.creditable,
        "expected_total_t": report.expected_total,
    }
    last = len(report.segments) - 1
    rows = [
        [seg.t_lo, seg.t_hi, seg.value, _num(report.creditable) if i == last else ""]
        for i, seg in enumerate(report.segments)
    ]
    _emit(
        settings, payload, ["t_start", "t_end", "in_process_t", "creditable_t"], rows,
        f"expected_total_t  {_num(report.expected_total)}\n",
    )
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    try:
        params = ProjectParams(
            horizon=settings.horizon,
            project_emissions=args.emissions,
            steward_years=args.steward_years,
            credit_mode=CreditMode(args.credit_mode),
        )
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    cohorts = load_inventory(args.inventory)
    if settings.continuous_cap:
        cohorts = [
            PlantingCohort(species(c.spec.wood, c.spec.size, continuous_cap=True), c.count, c.label)
            for c in cohorts
        ]
    report = evaluate_portfolio(
        cohorts,
        params,
        removal_models={
            SizeClass.TALL: settings.p_tall,
            SizeClass.MEDIUM: settings.p_medium_shrub,
            SizeClass.SHRUB: settings.p_medium_shrub,
        },
        constant=carbon_constant(settings.factors),
    )
    # keys and columns are the PortfolioReport / CohortResult field names
    header = list(CohortResult._fields)
    per_cohort = [{name: getattr(r, name) for name in header} for r in report.per_cohort]
    payload = {
        "horizon_years": params.horizon,
        "credit_mode": params.credit_mode.value,
        "steward_years": params.steward_years,
        "per_cohort": per_cohort,
        "gross_credit": report.gross_credit,
        "project_emissions": report.project_emissions,
        "net_credit": report.net_credit,
        "shortfall": report.shortfall,
    }
    rows = [list(cohort.values()) for cohort in per_cohort]
    shares = math.fsum(r.steward_share for r in report.per_cohort)
    rows.append(["TOTAL", "", "", "", report.gross_credit, shares])
    rows.append(["NET", "", "", "", report.net_credit, ""])
    _emit(settings, payload, header, rows)
    if report.shortfall:
        print("canopy: warning: project emissions exceed gross credit",
              file=sys.stderr)
    return 0


def _cmd_derive_p(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    try:
        census = CensusInput(
            standing_stock=args.stock,
            assumed_lifespan=args.lifespan,
            horizon=args.census_horizon,
            storm_felled=args.storm_felled,
        )
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    model = derive_removal_probability(census)
    payload = {
        "standing_stock": census.standing_stock,
        "assumed_lifespan_years": census.assumed_lifespan,
        "census_horizon_years": census.horizon,
        "storm_felled": census.storm_felled,
        "removal_fraction": 1.0 - (1.0 - model.p) ** census.horizon,
        "p": model.p,
        "expected_lifespan_years": expected_lifespan(model),
    }
    _emit(settings, payload)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    if (args.measurements is None) == (args.reference is None):
        raise _UsageError("give either a measurements file or --reference")
    if args.reference is not None:
        wood = WoodType(args.reference)
        rows = reference_tables()[wood]
    else:
        measurements = load_measurements(args.measurements)
        woods = {m.wood for m in measurements}
        if args.wood is not None:
            wood = WoodType(args.wood)
            rows = tuple(m for m in measurements if m.wood is wood)
            if not rows:
                raise _UsageError(f"no {wood.value} rows in {args.measurements}")
        elif not measurements:
            raise _UsageError(f"no measurement rows in {args.measurements}")
        elif len(woods) == 1:
            wood = next(iter(woods))
            rows = tuple(measurements)
        else:
            raise _UsageError("file mixes wood types; pick one with --wood")
    breakpoints = (
        tuple(args.breakpoints)
        if args.breakpoints is not None
        else default_breakpoints(wood)
    )
    points = [(m.height, m.diameter) for m in rows]
    result = fit_piecewise_linear(points, breakpoints, wood=wood)
    fitted = list(zip(result.model.segments, result.per_segment_r2))
    payload = {
        "wood": wood.value,
        "breakpoints": list(breakpoints),
        "n_points": len(points),
        "segments": [
            {
                "h_lo": seg.h_lo,
                "h_hi": seg.h_hi,
                "slope": seg.slope,
                "intercept": seg.intercept,
                "r_squared": r2,
            }
            for seg, r2 in fitted
        ],
        "residual_rms_cm": result.residual_rms,
    }
    rows_out = [
        [seg.h_lo, "inf" if seg.h_hi is None else seg.h_hi, seg.slope, seg.intercept, r2]
        for seg, r2 in fitted
    ]
    _emit(
        settings, payload, ["h_lo", "h_hi", "slope", "intercept", "r_squared"], rows_out,
        f"residual_rms_cm   {_num(result.residual_rms)}\n",
    )
    return 0


def _breakpoint_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad breakpoint list {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"breakpoints must be finite, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    output_parent = argparse.ArgumentParser(add_help=False)
    output_parent.add_argument("--format", choices=_FORMATS, default=None,
                               help="output format (default: table)")
    output_parent.add_argument("--output", metavar="PATH", default=None,
                               help="write output to PATH instead of stdout")
    output_parent.add_argument("--config", metavar="PATH", default=None,
                               help=f"JSON config file (or ${CONFIG_ENV_VAR})")

    model_parent = argparse.ArgumentParser(add_help=False)
    model_parent.add_argument("--horizon", type=float, default=None,
                              help="project horizon in years (default 100)")
    model_parent.add_argument("--p-tall", type=float, default=None,
                              help="annual removal probability for tall trees")
    model_parent.add_argument("--p-medium-shrub", type=float, default=None,
                              help="annual removal probability for medium/shrubs")
    model_parent.add_argument("--bef", type=float, default=None,
                              help="biomass expansion factor")
    model_parent.add_argument("--rtsr", type=float, default=None,
                              help="root-to-shoot ratio")
    model_parent.add_argument("--bd", type=float, default=None,
                              help="bulk density, t-d.m./m3")
    model_parent.add_argument("--cf", type=float, default=None,
                              help="carbon fraction, t-C/t-d.m.")
    model_parent.add_argument("--continuous-cap", action="store_true",
                              help="cap heights with min(curve, cap) instead of "
                                   "snapping to the cap at the cap age")

    parser = argparse.ArgumentParser(
        prog="canopy",
        description="Expected 100-year CO2 absorption and creditable "
                    "sequestration of urban tree plantings.",
    )
    parser.add_argument("--version", action="version", version=f"canopy {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser(
        "estimate", parents=[output_parent, model_parent],
        help="per-tree survival, size and absorption at the horizon",
    )
    estimate.add_argument("--wood", choices=_WOODS, required=True)
    estimate.add_argument("--size", choices=_SIZES, required=True)
    estimate.set_defaults(func=_cmd_estimate)

    breakdown = commands.add_parser(
        "breakdown", parents=[output_parent, model_parent],
        help="per-period in-process absorption plus the survivor term",
    )
    breakdown.add_argument("--wood", choices=_WOODS, required=True)
    breakdown.add_argument("--size", choices=_SIZES, required=True)
    breakdown.set_defaults(func=_cmd_breakdown)

    portfolio_cmd = commands.add_parser(
        "portfolio", parents=[output_parent, model_parent],
        help="aggregate an inventory CSV into project credits",
    )
    portfolio_cmd.add_argument("inventory", help="CSV with label,wood,size,count")
    portfolio_cmd.add_argument("--emissions", type=float, default=0.0,
                               help="project emissions to deduct, t-CO2")
    portfolio_cmd.add_argument("--steward-years", type=float, default=3.0,
                               help="greening-business stewardship years (default 3)")
    portfolio_cmd.add_argument("--credit-mode",
                               choices=tuple(m.value for m in CreditMode),
                               default=CreditMode.SURVIVOR_ONLY.value)
    portfolio_cmd.set_defaults(func=_cmd_portfolio)

    derive = commands.add_parser(
        "derive-p", parents=[output_parent],
        help="derive the annual removal probability from census aggregates",
    )
    derive.add_argument("--stock", type=float, required=True,
                        help="standing stock at the window start (trees)")
    derive.add_argument("--lifespan", type=float, required=True,
                        help="assumed average lifespan (years)")
    derive.add_argument("--horizon", dest="census_horizon", type=float,
                        required=True, help="census window (years)")
    derive.add_argument("--storm-felled", type=float, default=0.0,
                        help="storm-felled trees over the window")
    derive.set_defaults(func=_cmd_derive_p)

    fit = commands.add_parser(
        "fit", parents=[output_parent],
        help="refit piecewise-linear diameter coefficients by OLS",
    )
    fit.add_argument("measurements", nargs="?", default=None,
                     help="measurement CSV (wood,height_cm,girth_cm,diameter_cm)")
    fit.add_argument("--reference", choices=_WOODS, default=None,
                     help="fit the embedded reference table instead of a file")
    fit.add_argument("--wood", choices=_WOODS, default=None,
                     help="wood type to select from a mixed file")
    fit.add_argument("--breakpoints", type=_breakpoint_list, default=None,
                     help="comma-separated segment boundaries in cm")
    fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"canopy: error: {exc}", file=sys.stderr)
        return 2
    except (CanopyError, OSError) as exc:
        print(f"canopy: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
