import math

import pytest

from canopy import (
    CreditMode,
    DomainError,
    ParseError,
    PlantingCohort,
    ProjectParams,
    UnknownSpeciesError,
    ValidationError,
    allocate_steward_share,
    evaluate_portfolio,
    load_inventory,
    species,
)

from reference_values import CREDITS


class TestAllocation:
    def test_published_shares(self):
        assert allocate_steward_share(2.031006398, 3.0, 100.0) == pytest.approx(
            0.060930192, rel=1e-6
        )
        assert allocate_steward_share(9.548861033, 3.0, 100.0) == pytest.approx(
            0.286465831, rel=1e-6
        )

    def test_full_horizon_steward(self):
        assert allocate_steward_share(1.234, 100.0, 100.0) == 1.234

    def test_zero_years(self):
        assert allocate_steward_share(5.0, 0.0, 100.0) == 0.0

    def test_additive_over_disjoint_windows(self):
        whole = allocate_steward_share(7.5, 12.0, 100.0)
        split = allocate_steward_share(7.5, 4.5, 100.0) + allocate_steward_share(
            7.5, 7.5, 100.0
        )
        assert split == pytest.approx(whole, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            allocate_steward_share(1.0, -1.0, 100.0)
        with pytest.raises(DomainError):
            allocate_steward_share(1.0, 101.0, 100.0)
        # the package's one horizon check
        for horizon, message in [
            (math.inf, r"horizon must lie in \(0, inf\), got inf"),
            (math.nan, r"horizon must lie in \(0, inf\), got nan"),
            (0.0, r"horizon must lie in \(0, inf\), got 0.0"),
        ]:
            with pytest.raises(DomainError, match=f"^{message}$"):
                allocate_steward_share(1.0, 1.0, horizon)


class TestEvaluate:
    def test_single_evergreen_tall_survivor_only(self):
        report = evaluate_portfolio(
            [PlantingCohort(species("evergreen", "tall"), 1, "street-A")],
            ProjectParams(credit_mode=CreditMode.SURVIVOR_ONLY, steward_years=3.0),
        )
        assert report.gross_credit == pytest.approx(2.031006398, rel=0.01)
        assert report.per_cohort[0].steward_share == pytest.approx(0.060930192, rel=0.01)
        assert report.net_credit == report.gross_credit
        assert not report.shortfall

    def test_conifer_shrub_cohort_in_process(self):
        report = evaluate_portfolio(
            [PlantingCohort(species("conifer", "shrub"), 1000)],
            ProjectParams(credit_mode=CreditMode.INCLUDE_IN_PROCESS),
        )
        assert report.gross_credit == pytest.approx(26.099973, rel=0.01)

    def test_empty_portfolio(self):
        report = evaluate_portfolio([], ProjectParams(project_emissions=2.5))
        assert report.gross_credit == 0.0
        assert report.net_credit == -2.5
        assert report.shortfall

    def test_count_linearity_is_exact(self):
        spec = species("deciduous", "medium")
        single = evaluate_portfolio(
            [PlantingCohort(spec, 7)], ProjectParams()
        ).gross_credit
        double = evaluate_portfolio(
            [PlantingCohort(spec, 14)], ProjectParams()
        ).gross_credit
        assert double == 2.0 * single

    def test_survivor_only_never_exceeds_in_process(self):
        cohorts = [
            PlantingCohort(species("evergreen", "tall"), 3),
            PlantingCohort(species("conifer", "shrub"), 11),
            PlantingCohort(species("deciduous", "medium"), 5),
        ]
        survivor = evaluate_portfolio(
            cohorts, ProjectParams(credit_mode=CreditMode.SURVIVOR_ONLY)
        )
        in_process = evaluate_portfolio(
            cohorts, ProjectParams(credit_mode=CreditMode.INCLUDE_IN_PROCESS)
        )
        assert survivor.gross_credit <= in_process.gross_credit

    def test_gross_recomputes_bit_for_bit(self):
        cohorts = [
            PlantingCohort(species(w, s), n)
            for (w, s), n in zip(CREDITS, (12, 7, 3, 9, 1, 4, 8, 2, 5))
        ]
        report = evaluate_portfolio(cohorts, ProjectParams())
        assert math.fsum(r.cohort_credit for r in report.per_cohort) == report.gross_credit

    def test_negative_net_flagged_not_clamped(self):
        report = evaluate_portfolio(
            [PlantingCohort(species("evergreen", "tall"), 1)],
            ProjectParams(project_emissions=10.0),
        )
        assert report.net_credit == pytest.approx(
            report.gross_credit - 10.0, rel=1e-12
        )
        assert report.net_credit < 0.0
        assert report.shortfall

    def test_cohort_order_preserved(self):
        cohorts = [
            PlantingCohort(species("conifer", "shrub"), 1, "z"),
            PlantingCohort(species("evergreen", "tall"), 1, "a"),
        ]
        report = evaluate_portfolio(cohorts, ProjectParams())
        assert [r.label for r in report.per_cohort] == ["z", "a"]

    # with the default constant one evergreen tall tree's credit is about
    # 2.03 t, so 8e307 trees stay just inside the float range
    NEAR_MAX = 8 * 10**307

    @pytest.mark.parametrize(
        "counts,steward_years",
        [((10**308,), 0.0), ((NEAR_MAX, NEAR_MAX), 0.0), ((NEAR_MAX,), 3.0)],
        ids=["cohort-credit", "credit-sum", "steward-share"],
    )
    def test_credit_past_float_range_raises(self, counts, steward_years):
        cohorts = [PlantingCohort(species("evergreen", "tall"), n) for n in counts]
        params = ProjectParams(steward_years=steward_years)
        with pytest.raises(DomainError, match="float range"):
            evaluate_portfolio(cohorts, params)

    def test_credit_just_inside_float_range_passes(self):
        cohorts = [PlantingCohort(species("evergreen", "tall"), self.NEAR_MAX)]
        report = evaluate_portfolio(cohorts, ProjectParams(steward_years=0.0))
        assert math.isfinite(report.gross_credit) and report.gross_credit > 1e308

    def test_zero_count_cohort(self):
        report = evaluate_portfolio(
            [PlantingCohort(species("evergreen", "tall"), 0)], ProjectParams()
        )
        assert report.gross_credit == 0.0

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ProjectParams(steward_years=101.0)
        with pytest.raises(ValidationError):
            ProjectParams(project_emissions=-1.0)
        with pytest.raises(ValidationError):
            ProjectParams(horizon=0.0)
        with pytest.raises(ValidationError):
            PlantingCohort(species("evergreen", "tall"), -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["horizon", "project_emissions", "steward_years"])
    def test_params_reject_non_finite(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            ProjectParams(**{field: bad})


class TestLoadInventory:
    def test_good_file(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text(
            "label,wood,size,count\n"
            "street-A,evergreen,tall,120\n"
            "# a comment\n"
            "park-B,Conifer,SHRUB,40\n"
        )
        cohorts = load_inventory(path)
        assert len(cohorts) == 2
        assert cohorts[0].label == "street-A"
        assert cohorts[0].count == 120
        assert cohorts[1].spec is species("conifer", "shrub")

    def test_negative_count(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,size,count\nx,evergreen,tall,-1\n")
        with pytest.raises(ValidationError):
            load_inventory(path)

    def test_unknown_size(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,size,count\nx,evergreen,tall,5\ny,evergreen,bonsai,5\n")
        with pytest.raises(UnknownSpeciesError, match="^row 2: 'bonsai' is not a valid SizeClass$"):
            load_inventory(path)

    def test_unknown_wood(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,size,count\nx,Oak,tall,5\n")
        with pytest.raises(UnknownSpeciesError, match="^row 1: 'oak' is not a valid WoodType$"):
            load_inventory(path)

    def test_bad_count(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,size,count\nx,evergreen,tall,1.5\n")
        with pytest.raises(ParseError) as excinfo:
            load_inventory(path)
        assert excinfo.value.row == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,count\nx,evergreen,5\n")
        with pytest.raises(ParseError):
            load_inventory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("")
        assert load_inventory(path) == []

    def test_row_too_short_for_count(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("label,wood,size,count\nx,evergreen,tall,5\ny,evergreen,tall\n")
        with pytest.raises(ParseError, match="missing count value") as excinfo:
            load_inventory(path)
        assert excinfo.value.row == 2

    def test_rows_without_the_last_column(self, tmp_path):
        # the label comes last here, and no row has it
        path = tmp_path / "inv.csv"
        path.write_text("wood,size,count,label\nevergreen,tall,5\nconifer,shrub,3\n")
        with pytest.raises(ParseError, match="^row 1: missing label value$"):
            load_inventory(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("\ufefflabel,wood,size,count\nx,evergreen,tall,5\n", encoding="utf-8")
        (cohort,) = load_inventory(path)
        assert (cohort.label, cohort.spec, cohort.count) == ("x", species("evergreen", "tall"), 5)
