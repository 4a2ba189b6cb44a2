import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from canopy import fielddata, portfolio
from canopy import (
    CanopyError,
    DiameterModel,
    DomainError,
    Measurement,
    ParseError,
    UnderdeterminedError,
    UnknownSpeciesError,
    ValidationError,
    WoodType,
    default_breakpoints,
    default_diameter_models,
    fit_piecewise_linear,
    girth_to_diameter,
    load_inventory,
    load_measurements,
    reference_tables,
)

from reference_values import CONIFER_FIT_ORACLE, CONIFER_PUBLISHED_TOP


class TestGirthConversion:
    def test_published_values(self):
        assert girth_to_diameter(11.0) == pytest.approx(3.503185, rel=1e-6)
        assert girth_to_diameter(100.0) == pytest.approx(31.84713, rel=1e-6)

    def test_pi_girth(self):
        # the tables round pi to 3.14, so a girth of pi maps close to 1
        assert girth_to_diameter(math.pi) == pytest.approx(1.0, rel=1e-3)

    def test_linear(self):
        assert girth_to_diameter(7.0 * 13.0) == pytest.approx(
            7.0 * girth_to_diameter(13.0), rel=1e-12
        )

    def test_nonpositive(self):
        with pytest.raises(DomainError):
            girth_to_diameter(0.0)


class TestReferenceTables:
    def test_row_counts(self):
        tables = reference_tables()
        assert len(tables[WoodType.EVERGREEN]) == 14
        assert len(tables[WoodType.DECIDUOUS]) == 15
        assert len(tables[WoodType.CONIFER]) == 12

    def test_first_and_last_rows(self):
        tables = reference_tables()
        evergreen = tables[WoodType.EVERGREEN][0]
        assert (evergreen.height, evergreen.girth) == (250.0, 11.0)
        deciduous = tables[WoodType.DECIDUOUS][0]
        assert (deciduous.height, deciduous.girth) == (200.0, 10.0)
        conifer = tables[WoodType.CONIFER][-1]
        assert (conifer.height, conifer.girth) == (1100.0, 100.0)

    def test_diameters_consistent_with_conversion(self):
        for rows in reference_tables().values():
            for row in rows:
                assert girth_to_diameter(row.girth) == pytest.approx(
                    row.diameter, rel=1e-6
                )


class TestLoadMeasurements:
    def test_girth_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("wood,height_cm,girth_cm\nevergreen,250,11\n")
        (measurement,) = load_measurements(path)
        assert measurement.wood is WoodType.EVERGREEN
        assert measurement.height == 250.0
        assert measurement.diameter == pytest.approx(3.503185, rel=1e-6)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_measurements(path) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("wood,height_cm,girth_cm,diameter_cm\n")
        assert load_measurements(path) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "# survey export\nwood,height_cm,girth_cm,diameter_cm\n\n"
            "EVERGREEN,250,11,\n# trailing note\ndeciduous,200,,3.2\n"
        )
        rows = load_measurements(path)
        assert [m.wood for m in rows] == [WoodType.EVERGREEN, WoodType.DECIDUOUS]
        assert rows[1].diameter == 3.2
        assert rows[1].girth is None

    def test_both_columns_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("wood,height_cm,girth_cm,diameter_cm\nevergreen,250,11,3.5\n")
        with pytest.raises(ValidationError):
            load_measurements(path)

    def test_neither_column_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("wood,height_cm,girth_cm,diameter_cm\nevergreen,250,,\n")
        with pytest.raises(ValidationError):
            load_measurements(path)

    def test_nonpositive_value(self, tmp_path):
        path = tmp_path / "np.csv"
        path.write_text("wood,height_cm,girth_cm\nevergreen,-250,11\n")
        with pytest.raises(ValidationError):
            load_measurements(path)

    def test_parse_error_carries_row_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("wood,height_cm,girth_cm\nevergreen,250,11\nOak,300,12\n")
        with pytest.raises(UnknownSpeciesError, match="^row 2: 'oak' is not a valid WoodType$") as excinfo:
            load_measurements(path)
        assert excinfo.value.row == 2

    @pytest.mark.parametrize(
        "cells,message",
        [
            ("nan,11,", "height must be positive and finite, got nan"),
            ("250,inf,", "girth must be positive and finite, got inf"),
            ("250,,-0.0", "diameter must be positive and finite, got -0.0"),
            ("250,,1e400", "diameter must be positive and finite, got inf"),
            ("250,5e-324,", "diameter must be positive and finite, got 0.0"),
        ],
    )
    def test_record_check_names_its_row(self, tmp_path, cells, message):
        path = tmp_path / "r.csv"
        path.write_text(f"wood,height_cm,girth_cm,diameter_cm\nconifer,300,15,\nconifer,{cells}\n")
        with pytest.raises(ValidationError) as excinfo:
            load_measurements(path)
        assert str(excinfo.value) == f"row 2: {message}"
        assert excinfo.value.row == 2

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bn.csv"
        path.write_text("wood,height_cm,girth_cm\nevergreen,tallish,11\n")
        with pytest.raises(ParseError) as excinfo:
            load_measurements(path)
        assert excinfo.value.row == 1

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("wood,circumference\nevergreen,11\n")
        with pytest.raises(ParseError):
            load_measurements(path)

    def test_short_row_reads_missing_optional_cells_as_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wood,height_cm,girth_cm,diameter_cm\nevergreen,250,11\n")
        (measurement,) = load_measurements(path)
        assert (measurement.girth, measurement.diameter) == (11.0, girth_to_diameter(11.0))

    def test_row_too_short_for_height(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("wood,height_cm,girth_cm\nevergreen,250,11\ndeciduous\n")
        with pytest.raises(ParseError, match="missing height_cm value") as excinfo:
            load_measurements(path)
        assert excinfo.value.row == 2

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffwood,height_cm,girth_cm\nevergreen,250,11\n", encoding="utf-8")
        (measurement,) = load_measurements(path)
        assert (measurement.wood, measurement.height) == (WoodType.EVERGREEN, 250.0)


class TestChunks:
    """The reader hands the loaders chunks of rows; a chunk is checked
    column by column, and read again row by row only where a cell fails."""

    HEADER = "wood,height_cm,girth_cm,diameter_cm"
    GOOD = ["conifer,300,15,", "evergreen,250,,3.5", "DECIDUOUS,500,32,"]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # four data rows a chunk
        monkeypatch.setattr(fielddata, "_CHUNK_ROWS", 4)

    @pytest.fixture
    def row_reads(self, monkeypatch):
        """Rows built one at a time by either loader's row path."""
        reads = []
        for module, name in ((fielddata, "_measurement"), (portfolio, "_cohort")):
            make = getattr(module, name)

            def spy(*cells, make=make):
                reads.append(cells)
                return make(*cells)

            monkeypatch.setattr(module, name, spy)
        return reads

    def write(self, tmp_path, *lines, header=HEADER):
        path = tmp_path / "chunks.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        return path

    def whole(self, path, monkeypatch, **kwargs):
        """The load as one chunk reads it."""
        with monkeypatch.context() as patch:
            patch.setattr(fielddata, "_CHUNK_ROWS", 4096)
            return load_measurements(path, **kwargs)

    def test_clean_chunks_build_no_row_alone(self, tmp_path, monkeypatch, row_reads):
        path = self.write(tmp_path, *self.GOOD * 4)
        rows = load_measurements(path)
        assert rows == self.whole(path, monkeypatch) and len(rows) == 12
        inventory = tmp_path / "inv.csv"
        inventory.write_text("label,wood,size,count\n" + "a,Conifer,SHRUB,3\nb,evergreen,tall,0\n" * 5)
        assert len(load_inventory(inventory)) == 10
        assert row_reads == []

    def test_bad_row_opening_second_chunk(self, tmp_path, row_reads):
        path = self.write(tmp_path, *self.GOOD, self.GOOD[0], "conifer,-3,15,", *self.GOOD)
        with pytest.raises(ValidationError) as excinfo:
            load_measurements(path)
        assert str(excinfo.value) == "row 5: height must be positive and finite, got -3.0"
        assert excinfo.value.row == 5
        # the first chunk passed its column checks
        assert row_reads[0] == ("conifer", "-3", "15", "")

    def test_comments_and_blanks_across_a_boundary(self, tmp_path, monkeypatch):
        # rows 1-4, then rows 5-7
        lines = [*self.GOOD, "# block end", "", self.GOOD[0], "  ", "# block start",
                 self.GOOD[1], "", self.GOOD[2], "oak,300,15,"]
        path = self.write(tmp_path, *lines)
        with pytest.raises(UnknownSpeciesError, match="^row 7: 'oak' is not a valid WoodType$"):
            load_measurements(path)
        path = self.write(tmp_path, *lines[:-1])
        rows = load_measurements(path)
        assert rows == self.whole(path, monkeypatch) and len(rows) == 6

    def test_short_row_in_a_later_chunk(self, tmp_path, monkeypatch, row_reads):
        # a row without its trailing optional cells is read as ""
        path = self.write(tmp_path, *self.GOOD * 3, "evergreen,250,11", *self.GOOD)
        rows = load_measurements(path)
        assert len(row_reads) == 4  # the short row's chunk alone
        assert rows == self.whole(path, monkeypatch) and rows[9].girth == 11.0
        evergreen = [m for m in rows if m.wood is WoodType.EVERGREEN]
        assert load_measurements(path, "evergreen") == evergreen and len(evergreen) == 5
        path = self.write(tmp_path, *self.GOOD * 3, "deciduous", *self.GOOD)
        with pytest.raises(ParseError, match="^row 10: missing height_cm value$") as excinfo:
            load_measurements(path)
        assert excinfo.value.row == 10

    def test_header_without_an_optional_column(self, tmp_path, monkeypatch, row_reads):
        path = self.write(tmp_path, *["conifer,300,15", "evergreen,250,11"] * 5,
                          header="wood,height_cm,girth_cm")
        rows = load_measurements(path)
        assert rows == self.whole(path, monkeypatch) and len(rows) == 10
        assert row_reads == []

    def test_row_longer_than_the_header_fills_its_missing_column(self, tmp_path):
        # a cell past the header's end reads as the column the header lacks
        path = self.write(tmp_path, "conifer,300,15", "conifer,300,,4.5",
                          header="wood,height_cm,girth_cm")
        assert [m.diameter for m in load_measurements(path)] == [15.0 / 3.14, 4.5]

    def test_selected_wood(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, *self.GOOD * 4)
        every = self.whole(path, monkeypatch)
        for wood in WoodType:
            assert load_measurements(path, wood) == [m for m in every if m.wood is wood]
            assert load_measurements(path, wood=wood.value) == load_measurements(path, wood)
        with pytest.raises(UnknownSpeciesError, match="^'Conifer' is not a valid WoodType$"):
            load_measurements(path, "Conifer")

    @pytest.mark.parametrize("cells", ["evergreen,0,,3.5", "evergreen,250,11,3.5", "Oak,250,11,"])
    def test_bad_row_of_another_wood_fails(self, tmp_path, cells):
        path = self.write(tmp_path, *self.GOOD * 3, cells, *self.GOOD)
        with pytest.raises(CanopyError, match="^row 10: ") as excinfo:
            load_measurements(path, wood="conifer")
        assert excinfo.value.row == 10


class TestMeasurement:
    def test_girth_fills_diameter_in(self):
        measurement = Measurement("conifer", 300.0, girth=15.0)
        assert measurement.wood is WoodType.CONIFER
        assert measurement.diameter == 15.0 / 3.14
        assert measurement == Measurement(WoodType.CONIFER, 300.0, 15.0, 15.0 / 3.14)

    def test_both_given_keeps_diameter(self):
        assert Measurement("conifer", 300.0, 15.0, 4.8).diameter == 4.8

    @pytest.mark.parametrize("field", ["height", "girth", "diameter"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive(self, field, bad):
        values = {"height": 300.0, "girth": 15.0, "diameter": 4.8, field: bad}
        with pytest.raises(ValidationError, match=f"^{field} must be positive and finite"):
            Measurement("conifer", **values)

    def test_girth_whose_diameter_underflows(self):
        # 5e-324 passes the girth check, but 5e-324 / 3.14 rounds to 0.0
        with pytest.raises(ValidationError, match="^diameter must be positive and finite, got 0.0$"):
            Measurement("conifer", 300.0, girth=5e-324)
        assert Measurement("conifer", 300.0, girth=2e-323).diameter > 0.0

    def test_needs_girth_or_diameter(self):
        with pytest.raises(ValidationError, match="girth or a diameter"):
            Measurement("conifer", 300.0)

    @pytest.mark.parametrize("record", [Measurement, DiameterModel])
    def test_unknown_wood_name(self, record):
        segments = default_diameter_models()[WoodType.CONIFER].segments
        args = (300.0, 15.0) if record is Measurement else (segments,)
        assert record("conifer", *args).wood is WoodType.CONIFER
        with pytest.raises(UnknownSpeciesError, match="^'Conifer' is not a valid WoodType$"):
            record("Conifer", *args)


class TestFit:
    def test_noiseless_recovery_of_builtin_model(self):
        model = default_diameter_models()[WoodType.EVERGREEN]
        heights = [50.0, 120.0, 240.0, 255.0, 270.0, 295.0, 320.0, 500.0, 900.0]
        points = [
            (h, model.segments[0 if h < 250 else 1 if h < 300 else 2].diameter(h))
            for h in heights
        ]
        result = fit_piecewise_linear(points, [250.0, 300.0])
        for fitted, reference in zip(result.model.segments, model.segments):
            assert fitted.slope == pytest.approx(reference.slope, abs=1e-9)
            assert fitted.intercept == pytest.approx(reference.intercept, abs=1e-9)
        assert result.residual_rms < 1e-10
        assert all(r2 == pytest.approx(1.0, abs=1e-9) for r2 in result.per_segment_r2)

    def test_conifer_reference_fit(self):
        rows = reference_tables()[WoodType.CONIFER]
        result = fit_piecewise_linear(
            [(m.height, m.diameter) for m in rows], [300.0], wood=WoodType.CONIFER
        )
        low, high = result.model.segments
        slope_low, intercept_low, r2_low = CONIFER_FIT_ORACLE["low"]
        assert low.slope == pytest.approx(slope_low, abs=1e-9)
        assert low.intercept == pytest.approx(intercept_low, abs=1e-9)
        assert result.per_segment_r2[0] == pytest.approx(r2_low, abs=1e-9)
        slope_high, intercept_high, r2_high = CONIFER_FIT_ORACLE["high"]
        assert high.slope == pytest.approx(slope_high, abs=1e-9)
        assert high.intercept == pytest.approx(intercept_high, abs=1e-9)
        assert result.per_segment_r2[1] == pytest.approx(r2_high, abs=1e-9)
        assert result.residual_rms == pytest.approx(
            CONIFER_FIT_ORACLE["residual_rms"], abs=1e-9
        )
        # loose agreement with the published coefficients (different data)
        pub_slope, pub_intercept = CONIFER_PUBLISHED_TOP
        assert abs(high.slope - pub_slope) / abs(pub_slope) < 0.25
        assert abs(high.intercept - pub_intercept) / abs(pub_intercept) < 0.25

    def test_boundary_point_feeds_both_segments(self):
        # two points per segment only when the 300 row is shared
        points = [(250.0, 4.140127), (300.0, 4.77707), (350.0, 6.050955)]
        result = fit_piecewise_linear(points, [300.0])
        low, high = result.model.segments
        assert low.slope == pytest.approx((4.77707 - 4.140127) / 50.0, rel=1e-12)
        assert high.slope == pytest.approx((6.050955 - 4.77707) / 50.0, rel=1e-12)

    def test_collinear_points_interpolate_exactly(self):
        points = [(10.0, 1.0), (90.0, 2.0), (110.0, 5.0), (200.0, 8.0)]
        result = fit_piecewise_linear(points, [100.0])
        assert result.residual_rms < 1e-10
        assert result.per_segment_r2 == (pytest.approx(1.0), pytest.approx(1.0))

    def test_empty_segment_named(self):
        points = [(310.0, 5.0), (400.0, 8.0), (500.0, 11.0)]
        with pytest.raises(UnderdeterminedError) as excinfo:
            fit_piecewise_linear(points, [300.0])
        assert "[0, 300)" in str(excinfo.value)

    def test_duplicate_heights_underdetermined(self):
        points = [(50.0, 1.0), (50.0, 1.2), (400.0, 8.0), (500.0, 11.0)]
        with pytest.raises(UnderdeterminedError):
            fit_piecewise_linear(points, [300.0])

    def test_bad_breakpoints(self):
        points = [(10.0, 1.0), (20.0, 2.0)]
        with pytest.raises(ValidationError):
            fit_piecewise_linear(points, [300.0, 200.0])
        with pytest.raises(ValidationError):
            fit_piecewise_linear(points, [-5.0])

    @pytest.mark.parametrize("breakpoints", [[math.nan], [300.0, math.inf]])
    def test_non_finite_breakpoints(self, breakpoints):
        # nan passes both ``b <= 0`` and the sorted-set comparison
        points = [(10.0, 1.0), (20.0, 2.0), (400.0, 8.0), (500.0, 11.0)]
        with pytest.raises(ValidationError, match="finite"):
            fit_piecewise_linear(points, breakpoints)

    @pytest.mark.parametrize(
        "point", [(math.nan, 3.0), (math.inf, 3.0), (-math.inf, 3.0), (300.0, math.nan), (300.0, math.inf)]
    )
    def test_non_finite_point(self, point):
        # a nan height once fell out of every segment unseen, and an infinite
        # one escaped as fsum's bare ValueError
        points = [(10.0, 1.0), (90.0, 2.0), (110.0, 5.0), (200.0, 8.0)]
        fit_piecewise_linear(points, [100.0])
        with pytest.raises(ValidationError, match="^heights and diameters must be finite$"):
            fit_piecewise_linear(points + [point], [100.0])

    @settings(max_examples=50, deadline=None)
    @given(order=st.randoms(use_true_random=False))
    def test_point_order_does_not_matter(self, order):
        # noisy points with rows on both breakpoints and repeated heights
        rng = random.Random(7)
        points = [(h, 0.03 * h + 1.0 + rng.gauss(0.0, 0.3))
                  for h in [rng.uniform(50.0, 1200.0) for _ in range(60)] + [250.0, 300.0] * 3]
        expected = fit_piecewise_linear(points, [250.0, 300.0], wood=WoodType.EVERGREEN)
        order.shuffle(points)
        result = fit_piecewise_linear(points, [250.0, 300.0], wood=WoodType.EVERGREEN)
        assert result == expected and repr(result) == repr(expected)

    def test_decreasing_data_violates_model(self):
        points = [(10.0, 5.0), (50.0, 4.0), (90.0, 3.0)]
        with pytest.raises(ValidationError):
            fit_piecewise_linear(points, [])

    def test_single_segment_fit(self):
        points = [(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]
        result = fit_piecewise_linear(points, [])
        (segment,) = result.model.segments
        assert segment.slope == pytest.approx(0.1, rel=1e-9)

    def test_default_breakpoints(self):
        assert default_breakpoints(WoodType.EVERGREEN) == (250.0, 300.0)
        assert default_breakpoints("deciduous") == (300.0,)
        assert default_breakpoints("conifer") == (300.0,)
        with pytest.raises(UnknownSpeciesError, match="^'oak' is not a valid WoodType$"):
            default_breakpoints("oak")
