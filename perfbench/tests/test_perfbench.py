"""Tests of the benchmark's own parts: the oracle against the published
figures, the checks against deliberately wrong results, and the tracer.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "tests"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from reference_values import (  # noqa: E402
    BOUNDARIES,
    CENSUS_MEDIUM_SHRUB,
    CENSUS_TALL,
    CREDIT_ERRATA,
    CREDITS,
    PUBLISHED_CO2_PER_CARBON,
    PUBLISHED_CONSTANT,
    SEGMENT_ERRATA,
    SEGMENTS,
    SUMMARY,
)
from tracer import Tracer, layer_metrics  # noqa: E402

C = oracle.carbon_constant(*oracle.DEFAULT_FACTORS)


def rel(a, b):
    return abs(a - b) / abs(b)


def default_tree(wood, size, horizon=100.0):
    case = oracle.Case(wood, size)
    return case, oracle.per_tree(case, oracle.DEFAULT_P[size], C, horizon)


def test_oracle_constant_through_erratum():
    as_published = C * PUBLISHED_CO2_PER_CARBON / (44.0 / 12.0)
    assert rel(as_published, PUBLISHED_CONSTANT) <= 5e-9


@pytest.mark.parametrize("key", sorted(SUMMARY))
def test_oracle_summary_rows(key):
    survival, h_pub, d_pub, yield_pub = SUMMARY[key]
    case, tree = default_tree(*key)
    h = oracle.height(case, 100.0)
    _, _, slope, intercept = oracle.rule_for(case.wood, h)
    assert rel(math.exp(100.0 * math.log1p(-oracle.DEFAULT_P[case.size])), survival) <= 1e-6
    assert rel(h, h_pub) <= 1e-6
    assert rel(slope * h + intercept, d_pub) <= 1e-6
    assert rel(tree.survivor, yield_pub) <= 1e-6


@pytest.mark.parametrize("key", sorted(SEGMENTS))
def test_oracle_segments_and_cuts(key):
    _, tree = default_tree(*key)
    published = SEGMENTS[key]
    assert len(tree.segments) == len(published)
    for i, (value, figure) in enumerate(zip(tree.segments, published)):
        assert rel(value, SEGMENT_ERRATA.get((*key, i), figure)) <= 0.01
    bounds = [tree.pieces[0].lo] + [piece.hi for piece in tree.pieces]
    assert len(bounds) == len(BOUNDARIES[key])
    for got, figure in zip(bounds, BOUNDARIES[key]):
        assert abs(got - figure) <= 1e-3


@pytest.mark.parametrize("key", sorted(CREDITS))
def test_oracle_credits(key):
    survivor_total, survivor_share, total, share = CREDITS[key]
    total, share = CREDIT_ERRATA.get((*key, "include_in_process"), (total, share))
    _, tree = default_tree(*key)
    assert rel(tree.survivor, survivor_total) <= 0.01
    assert rel(tree.survivor * 3.0 / 100.0, survivor_share) <= 0.01
    assert rel(tree.total, total) <= 0.01
    assert rel(tree.total * 3.0 / 100.0, share) <= 0.01


@pytest.mark.parametrize("census", [CENSUS_TALL, CENSUS_MEDIUM_SHRUB])
def test_oracle_census(census):
    stock, lifespan, window, storm, p_pub, life_pub = census
    p = oracle.removal_probability(stock, lifespan, window, storm)
    assert rel(p, p_pub) <= 1e-5
    assert abs(-1.0 / math.log1p(-p) - life_pub) <= 0.01


@pytest.mark.parametrize("wood,size,cap,horizon", [
    ("evergreen", "tall", False, 100.0), ("deciduous", "medium", True, 37.5),
    ("evergreen", "shrub", False, 1.3), ("conifer", "shrub", True, 260.0),
    ("deciduous", "tall", False, 1.02),
])
def test_closed_forms_match_gauss_legendre(wood, size, cap, horizon):
    """The decimal closed forms agree with a fine Gauss-Legendre rule on
    the same integrand, so their algebra holds."""
    case = oracle.Case(wood, size, cap)
    p = 0.031
    for piece in oracle.pieces(case, horizon):
        _, _, b, a = piece.rule

        def f(t):
            h = oracle.CAPS[size][0] if piece.on_cap else oracle.curve(case, t)
            return math.exp(t * math.log1p(-p)) * h * (a + b * h) ** 2

        panels = max(1, math.ceil(piece.hi - piece.lo))
        gauss = oracle._gauss(f, piece.lo, piece.hi, panels, 30) * p * C * math.pi / 4.0
        assert rel(oracle.piece_value(case, piece, p, C), gauss) <= 1e-11


@pytest.mark.parametrize("horizon", [2.03, 2.7, 3.689, 41.0, 451.0])
def test_conifer_rule_converged(horizon):
    case = oracle.Case("conifer", "medium")
    pieces = oracle.pieces(case, horizon)
    assert pieces
    for piece in pieces:
        if piece.on_cap:
            continue
        coarse = oracle._conifer_growth(piece, 0.02, piece.lo, piece.hi, 20)
        fine = oracle._conifer_growth(piece, 0.02, piece.lo, piece.hi, 40)
        assert rel(coarse, fine) <= 1e-13


# ------------------------------------------------------- the checks can fail


@pytest.fixture(scope="module")
def canopy_pkg():
    import canopy
    import canopy.cli  # noqa: F401

    return canopy


def _report_view(report, **changes):
    view = SimpleNamespace(
        horizon=report.horizon, p=report.p, creditable=report.creditable,
        expected_total=report.expected_total, segments=list(report.segments),
    )
    for key, value in changes.items():
        setattr(view, key, value)
    return view


def test_sweep_check_rejects_wrong_reports(canopy_pkg, tmp_path):
    sweep = workloads.Sweep(canopy_pkg, tmp_path, 0)
    ops = [op for op in sweep.make_round(random.Random(4), 0) if not op.known_fault]
    for op in ops[::7]:
        report = sweep.run(op)
        assert sweep.check(op, report) == []
        if not report.segments:
            continue
        first = report.segments[0]
        nudged = SimpleNamespace(t_lo=first.t_lo, t_hi=first.t_hi, label=first.label,
                                 value=first.value * (1.0 + 1e-6))
        assert sweep.check(op, _report_view(report, segments=[nudged, *report.segments[1:]]))
        assert sweep.check(op, _report_view(report, creditable=report.creditable * (1 + 1e-7)))
        assert sweep.check(op, _report_view(report, expected_total=report.expected_total * 1.001))
        assert sweep.check(op, _report_view(report, segments=report.segments[1:]))


def test_known_fault_is_flagged(canopy_pkg, tmp_path):
    """The fixed conifer case just above the domain start is checked like
    any other, and marked as the one expected failure."""
    sweep = workloads.Sweep(canopy_pkg, tmp_path, 0)
    ops = sweep.make_round(random.Random(1), 0)
    faults = [op for op in ops if op.known_fault]
    assert len(faults) == 1 and faults[0].args == workloads.KNOWN_FAULT


def test_known_fault_value_is_the_oracles():
    """At the known fault the oracle agrees with a 30-digit tanh-sinh
    integration, so the disagreement is the program's."""
    mp = pytest.importorskip("mpmath")
    a = workloads.KNOWN_FAULT
    case = oracle.Case(a["wood"], a["size"], a["cap"])
    c = oracle.carbon_constant(*a["factors"])
    (piece,) = oracle.pieces(case, a["horizon"])
    _, _, b, d0 = piece.rule
    with mp.workdps(30):
        def f(t):
            h = 35 + 5471 * (1 - mp.exp(-mp.mpf(oracle.CONIFER_RATE) * (t - 1))) ** mp.mpf(
                oracle.CONIFER_SHAPE)
            return (1 - mp.mpf(a["p"])) ** t * h * (d0 + b * h) ** 2
        reference = float(mp.quad(f, [piece.lo, piece.hi]) * a["p"] * c * mp.pi / 4)
    assert rel(oracle.piece_value(case, piece, a["p"], c), reference) <= 1e-13


def _cli(canopy_pkg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert canopy_pkg.cli.main(argv) == 0
    return out.getvalue()


def test_portfolio_check_rejects_wrong_outputs(canopy_pkg, tmp_path):
    rng = random.Random(9)
    path = tmp_path / "inventory.csv"
    rows = workloads.write_inventory(path, rng, 40)
    for fmt in workloads.FORMATS:
        argv, params = workloads.portfolio_args(rng, path, fmt, 1, (50.0, 150.0), 5e3)
        text = _cli(canopy_pkg, argv)
        problems = []
        workloads.check_portfolio(text, fmt, rows, params, problems)
        assert problems == []
        if fmt != "json":
            wrong = text.replace(text.splitlines()[3].split(",")[0], "c99999", 1)
            problems = []
            workloads.check_portfolio(wrong, fmt, rows, params, problems)
            assert problems
            continue
        data = json.loads(text)
        dropped = dict(data, gross_credit=math.fsum(
            r["cohort_credit"] for r in data["per_cohort"][1:]))
        problems = []
        workloads.check_portfolio(json.dumps(dropped), fmt, rows, params, problems)
        assert problems
        nan = text.replace(repr(data["net_credit"]), "NaN", 1)
        with pytest.raises(ValueError):
            workloads.check_portfolio(nan, fmt, rows, params, [])
        nudged = dict(data, per_cohort=[dict(data["per_cohort"][0], cohort_credit=data[
            "per_cohort"][0]["cohort_credit"] * (1 + 1e-6)), *data["per_cohort"][1:]])
        problems = []
        workloads.check_portfolio(json.dumps(nudged), fmt, rows, params, problems)
        assert problems


def test_nan_token_is_refused():
    with pytest.raises(ValueError):
        workloads.parse_json('{"net_credit": NaN}')


def test_fit_check_rejects_wrong_coefficients(canopy_pkg, tmp_path):
    path = tmp_path / "measurements.csv"
    rows = workloads.write_measurements(path, random.Random(2), 600)
    for wood in oracle.WOODS:
        for fmt in workloads.FORMATS:
            text = _cli(canopy_pkg, ["fit", str(path), "--wood", wood, "--format", fmt])
            problems = []
            workloads.check_fit(text, fmt, rows, wood, problems)
            assert problems == []
        data = json.loads(text)
        data["segments"][-1]["slope"] *= 1.0 + 1e-6
        problems = []
        workloads.check_fit(json.dumps(data), "json", rows, wood, problems)
        assert problems


def test_cli_outputs_must_repeat(tmp_path):
    cli = workloads.Cli(tmp_path, 0, sys.executable, {})
    op = next(op for op in cli.make_round(random.Random(0), 0) if op.kind == "derive-p")
    text = json.dumps({"p": 0.5})
    cli.check(op, (0, text.encode(), ""))
    assert cli.check(op, (0, (text + " ").encode(), "")) == [
        "output differs from the first run of the same command"]


# ------------------------------------------------------------------ tracing


def test_tracer_counts_repeat_and_unwrap(canopy_pkg, tmp_path):
    original = canopy_pkg.carbon.expected_absorption
    sweep = workloads.Sweep(canopy_pkg, tmp_path, 0)
    counts = []
    for _ in range(2):
        ops = sweep.make_round(random.Random(3), 0)[:12]
        tracer = Tracer()
        tracer.install()
        try:
            for op in ops:
                sweep.run(op)
        finally:
            tracer.remove()
        metrics = layer_metrics(tracer, len(ops))
        counts.append({name: v for (name, unit), v in metrics.items() if unit == "count"})
        assert metrics[("carbon.expected_absorption.calls", "count")] == 1.0
        assert tracer.spans and all(span is not None for span in tracer.spans)
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.growth-conifer.evals"] > 0
    assert canopy_pkg.carbon.expected_absorption is original
    assert canopy_pkg.portfolio.expected_absorption is original
