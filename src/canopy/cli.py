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
from functools import cache
from itertools import compress, repeat
from operator import itemgetter
from typing import Sequence

from . import __version__
from .carbon import (
    CarbonFactors,
    carbon_constant,
    default_carbon_factors,
    expected_absorption,
)
from .errors import CanopyError, ValidationError
from .fielddata import (
    _survey,
    default_breakpoints,
    fit_piecewise_linear,
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
    PortfolioReport,
    ProjectParams,
    evaluate_portfolio,
    load_inventory,
)
from .removal import (
    DEFAULT_P_MEDIUM_SHRUB,
    DEFAULT_P_TALL,
    CensusInput,
    RemovalModel,
    derive_removal_probability,
    expected_lifespan,
    removed_fraction,
    survival_fraction,
)

__all__ = ["main"]

CONFIG_ENV_VAR = "CANOPY_CONFIG"
_FORMATS = ("table", "json", "csv")

_WOODS = tuple(w.value for w in WoodType)
_SIZES = tuple(s.value for s in SizeClass)

_FACTORS = default_carbon_factors()

# Every setting that a flag or a config key can set: (name, flag, kind,
# default, help).  The name is the config key.  A float setting is a model
# flag of estimate, breakdown and portfolio; a str setting (a path) or one
# whose kind is a tuple of its choices is an output flag of every command.
# Each setting resolves flag > config > default.
_SETTINGS = (
    ("format", "--format", _FORMATS, "table", "output format (default: table)"),
    ("output", "--output", str, None, "write output to PATH instead of stdout"),
    ("horizon", "--horizon", float, 100.0, "project horizon in years (default 100)"),
    ("p_tall", "--p-tall", float, DEFAULT_P_TALL,
     "annual removal probability for tall trees"),
    ("p_medium_shrub", "--p-medium-shrub", float, DEFAULT_P_MEDIUM_SHRUB,
     "annual removal probability for medium/shrubs"),
    ("bef", "--bef", float, _FACTORS.bef, "biomass expansion factor"),
    ("rtsr", "--rtsr", float, _FACTORS.rtsr, "root-to-shoot ratio"),
    ("bd", "--bd", float, _FACTORS.bd, "bulk density, t-d.m./m3"),
    ("cf", "--cf", float, _FACTORS.cf, "carbon fraction, t-C/t-d.m."),
)
_KINDS = {name: kind for name, _, kind, _, _ in _SETTINGS}


class _UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def _load_config(path: str | None) -> dict:
    """The config file's settings by name, each checked against its kind."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            # integers parse as floats too: one past the float range reads as
            # inf, which its setting's finite check rejects, not OverflowError
            raw = json.load(handle, parse_int=float)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(_KINDS))
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        kind = _KINDS[key]
        if kind is float:
            if not isinstance(value, float):
                raise _UsageError(f"config key {key} must be a number")
        elif not isinstance(value, str):
            raise _UsageError(f"config key {key} must be a string")
        elif isinstance(kind, tuple) and value not in kind:
            raise _UsageError(f"config {key} must be one of {kind}")
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    """The run's settings by name, each from its flag, else the config,
    else its default, plus the ``removal`` model per size class and the
    carbon ``constant`` that they make.  A value that makes no valid model
    is a usage error."""
    config = _load_config(args.config)
    settings = {}
    for name, _, _, default, _ in _SETTINGS:
        flag = getattr(args, name, None)
        settings[name] = config.get(name, default) if flag is None else flag
    try:
        tall = RemovalModel(settings["p_tall"])
        medium_shrub = RemovalModel(settings["p_medium_shrub"])
        factors = CarbonFactors(**{name: settings[name] for name in CarbonFactors._fields})
        settings["constant"] = carbon_constant(factors)
    except CanopyError as exc:
        raise _UsageError(str(exc)) from exc
    settings["removal"] = {
        SizeClass.TALL: tall, SizeClass.MEDIUM: medium_shrub, SizeClass.SHRUB: medium_shrub,
    }
    horizon = settings["horizon"]
    if not (math.isfinite(horizon) and horizon > 0):
        raise _UsageError(f"horizon must be positive and finite, got {horizon}")
    return settings


def _column(values: Sequence) -> list[str]:
    """The printed cells of a column of values: a float with six decimals,
    or six significant digits if six decimals would hide a nonzero value;
    anything else as ``str`` gives it."""
    cells = [format(v, ".6f") if isinstance(v, float) else str(v) for v in values]
    for i in compress(range(len(cells)), map({"0.000000", "-0.000000"}.__contains__, cells)):
        if isinstance(values[i], float) and values[i]:
            cells[i] = format(values[i], ".6g")
    return cells


def _num(value: float) -> str:
    return _column((value,))[0]


@cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder whose item separator starts a line indented to ``depth``."""
    separators = (",\n" + "  " * depth, ": ")
    return json.JSONEncoder(separators=separators, sort_keys=True, allow_nan=False)


def _indented(value, depth: int) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it
    at ``depth``: a container holding no container takes one C encoder call."""
    encoder = _encoder(depth + 1)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))) or not value:
        return encoder.encode(value)
    if not any(map(isinstance, value.values() if is_dict else value, repeat((dict, list, tuple)))):
        body = encoder.encode(value)[1:-1]
    elif is_dict:
        key = json.encoder.encode_basestring_ascii
        body = encoder.item_separator.join(
            f"{key(k)}: {_indented(v, depth + 1)}" for k, v in sorted(value.items())
        )
    else:
        body = encoder.item_separator.join(_indented(v, depth + 1) for v in value)
    first, last = "{}" if is_dict else "[]"
    pad = "  " * depth
    return f"{first}\n{pad}  {body}\n{pad}{last}"


def _json_dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` and a newline."""
    try:
        return _indented(payload, 0) + "\n"
    except (TypeError, ValueError):
        # json.dumps itself: the error it raises, or the keys it converts
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(
    settings: dict, payload: dict, header: list[str] | None = None,
    rows: Sequence[Sequence] = (), footer: str = "",
) -> None:
    """Write a command's result to stdout or ``--output``.

    JSON writes ``payload``.  CSV and table write ``rows`` under
    ``header``, the table followed by ``footer``; without a header, the
    payload is one CSV row or a key/value table.  Outside JSON, floats print with
    six decimals, or six significant digits if six decimals would hide a nonzero value.
    """
    if settings["format"] == "json":
        text = _json_dumps(payload)
    else:
        pairs = header is None
        if pairs:
            header, rows = list(payload), [payload.values()]
        # each column headed by its name
        columns = [_column(column) for column in zip(header, *rows)]
        if settings["format"] == "csv":
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(zip(*columns))
            text = buffer.getvalue()
        elif pairs:
            width = max(map(len, header))
            text = "".join(f"{k:<{width}}  {v}\n" for k, v in columns)
        else:
            widths = [max(map(len, column)) for column in columns]
            layout = "  ".join(f"{{:<{w}}}" for w in widths)
            lines = list(map(str.rstrip, map(layout.format, *columns)))
            lines.insert(1, "  ".join("-" * w for w in widths))
            text = "\n".join(lines) + "\n" + footer
    if settings["output"] is None:
        sys.stdout.write(text)
    else:
        with open(settings["output"], "w", encoding="utf-8") as handle:
            handle.write(text)


def _absorption(args: argparse.Namespace, settings: dict):
    """Evaluate one planted tree, the step that estimate and breakdown
    share.  Returns the diameter model, the report and the payload fields
    that both commands print first."""
    spec = species(args.wood, args.size, continuous_cap=args.continuous_cap)
    model = default_diameter_models()[spec.wood]
    report = expected_absorption(
        spec, model, settings["removal"][spec.size], settings["constant"],
        settings["horizon"],
    )
    head = {
        "wood": spec.wood.value,
        "size": spec.size.value,
        "horizon_years": report.horizon,
        "p": report.p,
    }
    return model, report, head


def _cmd_estimate(args: argparse.Namespace, settings: dict) -> None:
    model, report, head = _absorption(args, settings)
    h = height(report.spec, report.horizon)
    payload = {
        **head,
        "carbon_constant": settings["constant"].c,
        "survival_rate": survival_fraction(settings["removal"][report.spec.size], report.horizon),
        "height_cm": h,
        "diameter_cm": diameter_from_height(model, h),
        "creditable_t": report.creditable,
        "expected_total_t": report.expected_total,
    }
    _emit(settings, payload)


def _cmd_breakdown(args: argparse.Namespace, settings: dict) -> None:
    _, report, head = _absorption(args, settings)
    payload = {
        **head,
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


def _cmd_portfolio(args: argparse.Namespace, settings: dict) -> None:
    try:
        params = ProjectParams(
            horizon=settings["horizon"],
            project_emissions=args.emissions,
            steward_years=args.steward_years,
            credit_mode=CreditMode(args.credit_mode),
        )
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    cohorts = load_inventory(args.inventory)
    if args.continuous_cap:
        specs = {c.spec for c in cohorts}
        capped = {s: species(s.wood, s.size, continuous_cap=True) for s in specs}
        cohorts = [PlantingCohort(capped[c.spec], c.count, c.label) for c in cohorts]
    report = evaluate_portfolio(
        cohorts,
        params,
        removal_models=settings["removal"],
        constant=settings["constant"],
    )
    # keys and columns are the PortfolioReport / CohortResult field names
    header = list(CohortResult._fields)
    # a record keeps its fields, in order, in its instance dict
    per_cohort = list(map(dict, map(vars, report.per_cohort)))
    payload = {name: getattr(report, name) for name in PortfolioReport._fields}
    payload.update(
        horizon_years=params.horizon,
        credit_mode=params.credit_mode.value,
        steward_years=params.steward_years,
        per_cohort=per_cohort,
    )
    shares = math.fsum(r.steward_share for r in report.per_cohort)
    rows = [*map(dict.values, per_cohort), ["TOTAL", "", "", "", report.gross_credit, shares],
            ["NET", "", "", "", report.net_credit, ""]]
    _emit(settings, payload, header, rows)
    if report.shortfall:
        print("canopy: warning: project emissions exceed gross credit",
              file=sys.stderr)


def _cmd_derive_p(args: argparse.Namespace, settings: dict) -> None:
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
        "removal_fraction": removed_fraction(model, census.horizon),
        "p": model.p,
        "expected_lifespan_years": expected_lifespan(model),
    }
    _emit(settings, payload)


def _cmd_fit(args: argparse.Namespace, settings: dict) -> None:
    if (args.measurements is None) == (args.reference is None):
        raise _UsageError("give either a measurements file or --reference")
    if args.reference is not None:
        if args.wood is not None:
            raise _UsageError("--wood selects rows of a measurements file, not of --reference")
        wood = WoodType(args.reference)
        points = [(m.height, m.diameter) for m in reference_tables()[wood]]
    else:
        # the checked (wood, height, girth, diameter) of each row: no records
        rows = _survey(args.measurements, args.wood)
        if not rows:
            kind = "measurement" if args.wood is None else args.wood
            raise _UsageError(f"no {kind} rows in {args.measurements}")
        woods = set(map(itemgetter(0), rows))
        if len(woods) > 1:
            raise _UsageError("file mixes wood types; pick one with --wood")
        (wood,) = woods
        points = list(map(itemgetter(1, 3), rows))
    breakpoints = (
        tuple(args.breakpoints)
        if args.breakpoints is not None
        else default_breakpoints(wood)
    )
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
    model_parent = argparse.ArgumentParser(add_help=False)
    for _, flag, kind, _, text in _SETTINGS:
        if kind is float:
            model_parent.add_argument(flag, type=float, help=text)
        elif kind is str:
            output_parent.add_argument(flag, metavar="PATH", help=text)
        else:
            output_parent.add_argument(flag, choices=kind, help=text)
    output_parent.add_argument("--config", metavar="PATH", default=None,
                               help=f"JSON config file (or ${CONFIG_ENV_VAR})")
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

    for name, func, text in (
        ("estimate", _cmd_estimate, "per-tree survival, size and absorption at the horizon"),
        ("breakdown", _cmd_breakdown, "per-period in-process absorption plus the survivor term"),
    ):
        tree = commands.add_parser(name, parents=[output_parent, model_parent], help=text)
        tree.add_argument("--wood", choices=_WOODS, required=True)
        tree.add_argument("--size", choices=_SIZES, required=True)
        tree.set_defaults(func=func)

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
        args.func(args, _resolve(args))
    except (_UsageError, CanopyError, OSError) as exc:
        print(f"canopy: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
