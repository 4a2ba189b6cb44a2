"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[PASS]/[FAIL] criterion-N`` line (run with ``-s``
or ``-rP`` to see the lines for passing criteria).  Failures list every
offending value.  Two published reference figures contain slips, and
criteria 2, 3 and 5 check them through errata worked out from the
published figures alone (see tests/reference_values.py):

- the evergreen-shrub third segment entry exceeds the bound its own
  integrand sets and is read with the decimal point one place left; the
  include-in-process total and share built from it follow;
- the published carbon constant was multiplied out with the CO2/C ratio
  44/12 truncated to 3.6666666, so criterion 5 rescales the computed
  constant by that ratio before comparing.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from canopy import (
    CarbonConstant,
    CensusInput,
    PlantingCohort,
    ProjectParams,
    RemovalModel,
    all_species,
    allocate_steward_share,
    carbon_constant,
    default_carbon_constant,
    default_carbon_factors,
    default_diameter_models,
    default_removal_model,
    derive_removal_probability,
    diameter_from_height,
    evaluate_portfolio,
    expected_absorption,
    expected_lifespan,
    fit_piecewise_linear,
    height,
    integration_segments,
    species,
    survival_fraction,
    time_at_height,
)
from canopy.carbon import segment_integrand
from canopy.growth import uncapped_height

from midpoint import integrate_reference
from reference_values import (
    CENSUS_MEDIUM_SHRUB,
    CENSUS_TALL,
    CREDIT_ERRATA,
    CREDITS,
    INCONSISTENT_SEGMENT,
    INCONSISTENT_SEGMENT_BOUND,
    PUBLISHED_CO2_PER_CARBON,
    PUBLISHED_CONSTANT,
    SEGMENT_ERRATA,
    SEGMENTS,
    SUMMARY,
)

MODELS = default_diameter_models()
CONSTANT = default_carbon_constant()
STEWARD_YEARS = 3.0


def rel_err(computed: float, published: float) -> float:
    return abs(computed - published) / abs(published)


def finish(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}:\n" + "\n".join(failures)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for spec in all_species():
        removal = default_removal_model(spec.size)
        out[(spec.wood.value, spec.size.value)] = expected_absorption(
            spec, MODELS[spec.wood], removal, CONSTANT
        )
    return out


def test_criterion_1_summary_rows():
    """Closed-form survival, H(100), d(100) and survivor-weighted yield
    reproduce the published summary to 1e-6 relative."""
    failures = []
    for (wood, size), (surv_pub, h_pub, d_pub, yield_pub) in SUMMARY.items():
        spec = species(wood, size)
        removal = default_removal_model(spec.size)
        surv = survival_fraction(removal, 100.0)
        h = height(spec, 100.0)
        d = diameter_from_height(MODELS[spec.wood], h)
        weighted = surv * h * (0.5 * d) ** 2 * math.pi * CONSTANT.c
        for name, computed, published in (
            ("survival", surv, surv_pub),
            ("height", h, h_pub),
            ("diameter", d, d_pub),
            ("yield", weighted, yield_pub),
        ):
            if rel_err(computed, published) > 1e-6:
                failures.append(
                    f"{wood}/{size} {name}: {computed!r} vs published "
                    f"{published!r} (rel {rel_err(computed, published):.2e})"
                )
    finish("criterion-1 summary-row reproduction (1e-6 relative)", failures)


def test_criterion_2_segment_integrals(reports):
    """Every published in-process segment integral to 1% relative, the
    inconsistent entry through its erratum, which must respect the bound
    the published summary row sets while the published entry breaks it."""
    failures = []
    for (wood, size), published_values in SEGMENTS.items():
        report = reports[(wood, size)]
        assert len(report.segments) == len(published_values)
        for i, (seg, published) in enumerate(
            zip(report.segments, published_values)
        ):
            expected = SEGMENT_ERRATA.get((wood, size, i), published)
            err = rel_err(seg.value, expected)
            if err > 0.01:
                source = "erratum" if expected != published else "published"
                failures.append(
                    f"{wood}/{size} segment {i + 1} "
                    f"[{seg.t_lo:.5f}, {seg.t_hi:.5f}]: computed "
                    f"{seg.value:.9g} vs {source} {expected:.9g} "
                    f"(rel {err:.2e})"
                )
    wood, size, i = INCONSISTENT_SEGMENT
    published = SEGMENTS[(wood, size)][i]
    erratum = SEGMENT_ERRATA[INCONSISTENT_SEGMENT]
    if not published > INCONSISTENT_SEGMENT_BOUND >= erratum:
        failures.append(
            f"{wood}/{size} segment {i + 1} bound "
            f"{INCONSISTENT_SEGMENT_BOUND:.9g}: published {published:.9g} "
            f"should exceed it and erratum {erratum:.9g} should not"
        )
    finish("criterion-2 segment integrals (1% relative)", failures)


def test_criterion_3_credit_totals(reports):
    """Both credit modes, totals and steward shares, to 1% relative (the
    evergreen-shrub include-in-process column through its erratum); plus
    the internal sum identity on published and computed values."""
    failures = []
    for (wood, size), (st_pub, ss_pub, it_pub, is_pub) in CREDITS.items():
        report = reports[(wood, size)]
        survivor_total = report.creditable
        in_process_total = report.expected_total
        it_exp, is_exp = CREDIT_ERRATA.get(
            (wood, size, "include_in_process"), (it_pub, is_pub)
        )
        checks = (
            ("survivor total", survivor_total, st_pub),
            ("survivor share", allocate_steward_share(survivor_total, STEWARD_YEARS, 100.0), ss_pub),
            ("in-process total", in_process_total, it_exp),
            ("in-process share", allocate_steward_share(in_process_total, STEWARD_YEARS, 100.0), is_exp),
        )
        for name, computed, expected in checks:
            err = rel_err(computed, expected)
            if err > 0.01:
                failures.append(
                    f"{wood}/{size} {name}: computed {computed:.9g} vs "
                    f"expected {expected:.9g} (rel {err:.2e})"
                )
        # identity over the published numbers themselves (0.01%)
        published_sum = math.fsum(SEGMENTS[(wood, size)]) + st_pub
        if rel_err(published_sum, it_pub) > 1e-4:
            failures.append(
                f"{wood}/{size} published-sum identity: {published_sum!r} "
                f"vs {it_pub!r}"
            )
        # identity over computed values (1e-9 relative)
        computed_sum = math.fsum(
            [seg.value for seg in report.segments] + [report.creditable]
        )
        if rel_err(computed_sum, report.expected_total) > 1e-9:
            failures.append(f"{wood}/{size} computed-sum identity broken")
    finish("criterion-3 credit totals and shares (1% relative)", failures)


def test_criterion_4_removal_probability():
    """Census-derived p to 5 significant figures; life expectancy +-0.01."""
    failures = []
    for stock, lifespan, window, storm, p_pub, life_pub in (
        CENSUS_TALL,
        CENSUS_MEDIUM_SHRUB,
    ):
        model = derive_removal_probability(
            CensusInput(stock, lifespan, window, storm)
        )
        if rel_err(model.p, p_pub) > 1e-5:
            failures.append(f"p: computed {model.p!r} vs published {p_pub!r}")
        life = expected_lifespan(model)
        if abs(life - life_pub) > 0.01:
            failures.append(
                f"lifespan: computed {life!r} vs published {life_pub!r}"
            )
    finish("criterion-4 removal probability derivation (5 sig figs)", failures)


def test_criterion_5_carbon_constant():
    """Published constant to 9 significant figures, once the computed
    constant is rescaled from the exact 44/12 to the truncated 3.6666666
    the published product was multiplied out with."""
    failures = []
    computed = carbon_constant(default_carbon_factors()).c
    as_published = computed * PUBLISHED_CO2_PER_CARBON / (44.0 / 12.0)
    err = rel_err(as_published, PUBLISHED_CONSTANT)
    if err > 5e-9:
        failures.append(
            f"computed {computed!r}, rescaled to CO2/C = "
            f"{PUBLISHED_CO2_PER_CARBON!r}: {as_published!r} vs published "
            f"{PUBLISHED_CONSTANT!r} (rel {err:.3e})"
        )
    finish("criterion-5 carbon constant (9 sig figs)", failures)


def test_criterion_6_quadrature_oracle(reports):
    """Each reported piece (adaptive Simpson on the growth branch, the
    closed form on the cap) vs composite midpoint (n = 1e7) of its
    first-term integrand, to 1e-8 relative."""
    failures = []
    for spec in all_species():
        removal = default_removal_model(spec.size)
        report = reports[(spec.wood.value, spec.size.value)]
        pieces = integration_segments(spec, MODELS[spec.wood], 100.0)
        reference_values = []
        for seg, piece in zip(report.segments, pieces):
            reference = integrate_reference(
                segment_integrand(spec, piece, removal, CONSTANT),
                piece.t_lo,
                piece.t_hi,
                10**7,
            )
            reference_values.append(reference)
            if rel_err(seg.value, reference) > 1e-8:
                failures.append(
                    f"{spec.wood.value}/{spec.size.value} "
                    f"[{piece.t_lo:.5f}, {piece.t_hi:.5f}]: reported "
                    f"{seg.value!r} vs midpoint {reference!r}"
                )
        total_simpson = math.fsum(seg.value for seg in report.segments)
        total_reference = math.fsum(reference_values)
        if rel_err(total_simpson, total_reference) > 1e-8:
            failures.append(
                f"{spec.wood.value}/{spec.size.value} first-term totals "
                f"disagree: {total_simpson!r} vs {total_reference!r}"
            )
    finish("criterion-6 quadrature oracle agreement (1e-8 relative)", failures)


def test_criterion_7_property_suite():
    """Randomized invariants, >=100 cases each, deterministic seed."""
    rng = random.Random(20240607)
    failures = []
    specs = all_species()

    # growth inversion round-trip + monotonicity
    for _ in range(150):
        spec = rng.choice(specs)
        end = spec.cap_time if spec.cap_time is not None else 150.0
        t1 = spec.domain_start + rng.random() * (end - spec.domain_start) * 0.999
        t2 = min(t1 + rng.random(), end * 0.9995)
        h1 = uncapped_height(spec, t1)
        if h1 > 0.0:
            t_back = time_at_height(spec, h1)
            if abs(t_back - t1) > 1e-6:
                failures.append(f"round-trip {spec} t={t1}: {t_back}")
        if t2 > t1 and uncapped_height(spec, t2) <= h1:
            failures.append(f"monotonicity {spec} {t1} {t2}")

    # survival multiplicativity
    for _ in range(150):
        p = 10 ** rng.uniform(-5, -0.05)
        model = RemovalModel(p)
        t1, t2 = rng.uniform(0, 100), rng.uniform(0, 100)
        combined = survival_fraction(model, t1 + t2)
        product = survival_fraction(model, t1) * survival_fraction(model, t2)
        if abs(combined - product) > 1e-12 * combined:
            failures.append(f"survival multiplicativity p={p} {t1} {t2}")

    # report-sum identity under random p and c
    for _ in range(100):
        spec = rng.choice(specs)
        p = rng.uniform(0.001, 0.5)
        c = 10 ** rng.uniform(-8, -5)
        report = expected_absorption(
            spec, MODELS[spec.wood], RemovalModel(p), CarbonConstant(c)
        )
        total = math.fsum([s.value for s in report.segments] + [report.creditable])
        if abs(total - report.expected_total) > 1e-9 * report.expected_total:
            failures.append(f"report-sum identity {spec} p={p} c={c}")

    # portfolio count linearity (exact)
    for _ in range(100):
        spec = rng.choice(specs)
        count = rng.randrange(0, 5000)
        single = evaluate_portfolio(
            [PlantingCohort(spec, count)], ProjectParams()
        ).gross_credit
        double = evaluate_portfolio(
            [PlantingCohort(spec, 2 * count)], ProjectParams()
        ).gross_credit
        if double != 2.0 * single:
            failures.append(f"count linearity {spec} n={count}")

    # allocation additivity
    for _ in range(150):
        horizon = rng.uniform(1.0, 200.0)
        y1 = rng.uniform(0.0, horizon)
        y2 = rng.uniform(0.0, horizon - y1)
        total = rng.uniform(0.1, 1000.0)
        whole = allocate_steward_share(total, y1 + y2, horizon)
        split = allocate_steward_share(total, y1, horizon) + allocate_steward_share(
            total, y2, horizon
        )
        if abs(split - whole) > 1e-12 * max(abs(whole), 1e-12):
            failures.append(f"allocation additivity {y1} {y2} {horizon}")

    # fit noiseless recovery
    for _ in range(100):
        n_breaks = rng.randint(1, 2)
        while True:
            breaks = sorted(rng.sample(range(60, 400), n_breaks))
            if all(b2 - b1 >= 40 for b1, b2 in zip(breaks, breaks[1:])):
                break
        edges = [0] + breaks + [None]
        rules, points = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            slope = rng.uniform(0.005, 0.08)
            intercept = rng.uniform(0.0, 8.0)
            span_hi = lo + 300 if hi is None else hi
            heights = rng.sample(range(lo + 5, span_hi - 4), rng.randint(2, 4))
            rules.append((slope, intercept))
            points.extend((float(h), slope * h + intercept) for h in heights)
        result = fit_piecewise_linear(points, [float(b) for b in breaks])
        for fitted, (slope, intercept) in zip(result.model.segments, rules):
            if abs(fitted.slope - slope) > 1e-9 or abs(fitted.intercept - intercept) > 1e-9:
                failures.append(f"fit recovery breaks={breaks}")
                break

    finish("criterion-7 randomized property suite (>=100 cases each)", failures)


def test_criterion_8_cli_golden_run():
    """CLI golden run: values within criterion-3 tolerance, byte-identical
    stdout across runs."""
    failures = []
    command = [
        sys.executable, "-m", "canopy",
        "estimate", "--wood", "evergreen", "--size", "tall", "--format", "json",
    ]
    runs = [
        subprocess.run(command, capture_output=True, check=False)
        for _ in range(2)
    ]
    for run in runs:
        if run.returncode != 0:
            failures.append(f"exit code {run.returncode}: {run.stderr!r}")
    if runs[0].stdout != runs[1].stdout:
        failures.append("stdout differs between identical invocations")
    if not failures:
        payload = json.loads(runs[0].stdout)
        if rel_err(payload["creditable_t"], 2.031006398) > 0.01:
            failures.append(f"creditable {payload['creditable_t']!r}")
        if rel_err(payload["expected_total_t"], 8.505044143) > 0.01:
            failures.append(f"total {payload['expected_total_t']!r}")
    finish("criterion-8 CLI golden run (deterministic)", failures)
