import contextlib
import csv
import io
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from canopy import default_breakpoints, fit_piecewise_linear, load_measurements
from canopy.cli import _FORMATS, _SETTINGS, _column, _json_dumps, _num, main

from reference_values import CONIFER_FIT_ORACLE

COMMANDS = ("estimate", "breakdown", "portfolio", "derive-p", "fit")
# the commands that take the model flags; every command reads the config
MODEL_COMMANDS = ("estimate", "breakdown", "portfolio")
# flag and config values that a settings check has to survive
EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e308)
# carbon factors past a sanity bound, or whose constant underflows: (factors, message)
OUT_OF_RANGE_FACTORS = [
    ({"bef": 1e308, "bd": 1e308}, "bef 1e+308 fails sanity bound 10.0"),
    ({"cf": 5e-324, "bef": 5e-324, "bd": 5e-324}, "carbon constant must be positive"),
    ({"bd": 2.0}, "bd 2.0 fails sanity bound 2.0"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_argv(command, directory):
    """Arguments that make ``command`` succeed under the default settings."""
    inventory = directory / "inventory.csv"
    inventory.write_text("label,wood,size,count\nstreet-A,evergreen,tall,1\n")
    return {
        "estimate": ["estimate", "--wood", "evergreen", "--size", "tall"],
        "breakdown": ["breakdown", "--wood", "conifer", "--size", "medium"],
        "portfolio": ["portfolio", str(inventory)],
        "derive-p": ["derive-p", "--stock", "6670000", "--lifespan", "35", "--horizon", "15"],
        "fit": ["fit", "--reference", "conifer", "--breakpoints", "300"],
    }[command]


class TestEstimate:
    def test_golden_json(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "json",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["creditable_t"] == pytest.approx(2.031006398, rel=0.01)
        assert payload["expected_total_t"] == pytest.approx(8.505044143, rel=0.01)
        assert payload["survival_rate"] == pytest.approx(0.062732089, rel=1e-6)
        assert payload["height_cm"] == pytest.approx(2301.206775, rel=1e-6)
        assert payload["diameter_cm"] == pytest.approx(106.644545, rel=1e-6)

    def test_conifer_medium(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--wood", "conifer", "--size", "medium",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["creditable_t"] == pytest.approx(0.039549949, rel=0.01)

    def test_json_round_trips_without_loss(self, capsys):
        _, out, _ = run(
            capsys, "estimate", "--wood", "deciduous", "--size", "shrub",
            "--format", "json",
        )
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_deterministic_output(self, capsys):
        args = ("estimate", "--wood", "conifer", "--size", "tall", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "estimate", "--wood", "evergreen", "--size", "tall")
        assert code == 0
        assert "creditable_t" in out and "2.031006" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "wood"
        assert row.split(",")[0] == "evergreen"

    def test_unknown_wood_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--wood", "oak", "--size", "tall"])
        assert excinfo.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "json", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["creditable_t"] > 0

    def test_horizon_override(self, capsys):
        _, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "json", "--horizon", "50",
        )
        payload = json.loads(out)
        assert payload["horizon_years"] == 50.0
        assert payload["height_cm"] == pytest.approx(2500 * (1 - 0.975**50), rel=1e-9)

    def test_p_override_changes_survival(self, capsys):
        _, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "json", "--p-tall", "0.05",
        )
        assert json.loads(out)["survival_rate"] == pytest.approx(0.95**100, rel=1e-9)

    def test_continuous_cap_variant_differs(self, capsys):
        _, literal, _ = run(
            capsys, "estimate", "--wood", "deciduous", "--size", "medium",
            "--format", "json",
        )
        _, continuous, _ = run(
            capsys, "estimate", "--wood", "deciduous", "--size", "medium",
            "--format", "json", "--continuous-cap",
        )
        assert (
            json.loads(continuous)["expected_total_t"]
            != json.loads(literal)["expected_total_t"]
        )


class TestBreakdown:
    def test_evergreen_shrub(self, capsys):
        code, out, _ = run(
            capsys, "breakdown", "--wood", "evergreen", "--size", "shrub",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["segments"]) == 4
        assert payload["creditable_t"] == pytest.approx(0.003434324, rel=0.01)

    def test_deciduous_tall_two_segments(self, capsys):
        _, out, _ = run(
            capsys, "breakdown", "--wood", "deciduous", "--size", "tall",
            "--format", "json",
        )
        assert len(json.loads(out)["segments"]) == 2

    def test_no_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["breakdown"])
        assert excinfo.value.code == 2

    def test_table_has_creditable_on_last_row(self, capsys):
        _, out, _ = run(capsys, "breakdown", "--wood", "conifer", "--size", "shrub")
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert rows[-1].count("0.002117") == 1
        assert all("0.002117" not in row for row in rows[:-1])


class TestPortfolio:
    def write_inventory(self, tmp_path, text="label,wood,size,count\nstreet-A,evergreen,tall,1\n"):
        path = tmp_path / "inventory.csv"
        path.write_text(text)
        return str(path)

    def test_steward_share(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "portfolio", self.write_inventory(tmp_path),
            "--steward-years", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_cohort"][0]["steward_share"] == pytest.approx(
            0.060930192, rel=0.01
        )
        assert payload["gross_credit"] == pytest.approx(2.031006398, rel=0.01)

    def test_emissions_deduction_flagged(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "portfolio", self.write_inventory(tmp_path),
            "--emissions", "10", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["net_credit"] == pytest.approx(
            payload["gross_credit"] - 10.0, rel=1e-12
        )
        assert payload["shortfall"] is True
        assert "emissions exceed" in err

    def test_credit_mode_switch(self, capsys, tmp_path):
        inventory = self.write_inventory(
            tmp_path, "label,wood,size,count\nx,conifer,shrub,1000\n"
        )
        _, out, _ = run(
            capsys, "portfolio", inventory, "--credit-mode", "include_in_process",
            "--format", "json",
        )
        assert json.loads(out)["gross_credit"] == pytest.approx(26.099973, rel=0.01)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_credit_is_data_error(self, capsys, tmp_path, fmt):
        # about 2.03 t a tree under the default constant: 1e308 trees overflow
        inventory = self.write_inventory(
            tmp_path, f"label,wood,size,count\nbig,evergreen,tall,{10**308}\n"
        )
        code, out, err = run(capsys, "portfolio", inventory, "--format", fmt)
        assert code == 1 and out == ""
        assert "float range" in err

    @pytest.mark.parametrize("count,row", [("-3", 2), ("9" * 400, 1)])
    def test_bad_count_names_its_row(self, capsys, tmp_path, count, row):
        lines = ["label,wood,size,count", f"x,evergreen,tall,{count}"]
        if row == 2:
            lines.insert(1, "ok,evergreen,tall,5")
        code, out, err = run(capsys, "portfolio", self.write_inventory(tmp_path, "\n".join(lines)))
        assert code == 1 and out == ""
        assert err.startswith(f"canopy: error: row {row}: cohort count must be an integer")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "portfolio", "/nonexistent/inventory.csv")
        assert code == 1
        assert "error" in err

    def test_csv_output(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "portfolio", self.write_inventory(tmp_path), "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,count,")
        assert lines[-2].startswith("TOTAL")
        assert lines[-1].startswith("NET")


class TestNonFiniteInput:
    """nan and inf are usage errors (exit 2) that name the parameter."""

    def test_emissions_nan(self, capsys, tmp_path):
        inventory = tmp_path / "inventory.csv"
        inventory.write_text("label,wood,size,count\nstreet-A,evergreen,tall,1\n")
        code, out, err = run(
            capsys, "portfolio", str(inventory), "--emissions", "nan", "--format", "json",
        )
        assert code == 2 and out == ""
        assert "project_emissions" in err

    def test_bef_nan(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall", "--bef", "nan",
        )
        assert code == 2 and out == ""
        assert "bef" in err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("factors,message", OUT_OF_RANGE_FACTORS)
    def test_carbon_constant_out_of_range(self, capsys, tmp_path, command, factors, message):
        # every command resolves the constant: from the config file always,
        # and from the flags where the command takes them
        argv = command_argv(command, tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(factors))
        sources = [["--config", str(config)]]
        if command in MODEL_COMMANDS:
            sources.append([f"--{name}={value!r}" for name, value in factors.items()])
        for source in sources:
            code, out, err = run(capsys, *argv, *source)
            assert code == 2 and out == ""
            assert message in err

    @pytest.mark.parametrize("key", ["horizon", "bef"])
    def test_config_integer_past_float_range(self, capsys, tmp_path, key):
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": 1{"0" * 400}}}')
        code, out, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config),
        )
        assert code == 2 and out == ""
        assert f"{key} must be" in err and "inf" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_horizon_non_finite(self, capsys, value):
        code, out, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--horizon", value,
        )
        assert code == 2 and out == ""
        assert "horizon" in err

    def test_json_never_prints_nan(self):
        from canopy.cli import _json_dumps

        with pytest.raises(ValueError):
            _json_dumps({"net_credit": float("nan")})


class TestLongestHorizon:
    """The largest finite horizon is valid input for all 18 specs."""

    @pytest.mark.parametrize("fmt", _FORMATS)
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_capped_sizes_at_the_longest_horizon(self, capsys, tmp_path, command, fmt):
        # a medium tree's or a shrub's last piece sits on the cap and runs
        # out to 1e308 - 1 years; its closed form needs no quadrature
        self._run(capsys, tmp_path, command, fmt, ("medium", "shrub"))

    @pytest.mark.parametrize("fmt", _FORMATS)
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_tall_trees_at_the_longest_horizon(self, capsys, tmp_path, command, fmt):
        # a tall tree's height saturates after at most 6,324 years; the
        # piece from there to 1e308 - 1 is closed form like a cap piece
        self._run(capsys, tmp_path, command, fmt, ("tall",))

    @staticmethod
    def _run(capsys, tmp_path, command, fmt, sizes):
        cohorts = [(wood, size) for wood in ("evergreen", "deciduous", "conifer")
                   for size in sizes]
        inventory = tmp_path / "inventory.csv"
        inventory.write_text("label,wood,size,count\n" + "".join(
            f"{wood}-{size},{wood},{size},10\n" for wood, size in cohorts))
        if command == "portfolio":
            runs = [[str(inventory)]]
        else:
            runs = [["--wood", wood, "--size", size] for wood, size in cohorts]
        for args in runs:
            for cap in ([], ["--continuous-cap"]):
                code, out, err = run(
                    capsys, command, *args, *cap, "--horizon", "1e308", "--format", fmt
                )
                assert (code, err) == (0, ""), args
                if fmt == "json":
                    json.loads(out, parse_constant=_refuse_constant)


class TestDeriveP:
    def test_golden(self, capsys):
        code, out, _ = run(
            capsys, "derive-p", "--stock", "6670000", "--lifespan", "35",
            "--horizon", "15", "--storm-felled", "380000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.027309, rel=1e-5)
        assert payload["expected_lifespan_years"] == pytest.approx(36.12, abs=0.01)

    def test_medium_inputs(self, capsys):
        _, out, _ = run(
            capsys, "derive-p", "--stock", "139790000", "--lifespan", "35",
            "--horizon", "15", "--storm-felled", "4650000", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.0256977, rel=1e-5)
        assert payload["expected_lifespan_years"] == pytest.approx(38.41, abs=0.01)

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--stock", "nan", "standing_stock"),
            ("--storm-felled", "nan", "storm_felled"),
            ("--lifespan", "inf", "assumed_lifespan"),
            ("--horizon", "inf", "horizon"),
            ("--stock", "-5", "standing_stock"),
        ],
    )
    def test_bad_census_is_usage_error(self, capsys, flag, value, field):
        census = {"--stock": "1000", "--lifespan": "35", "--horizon": "15"}
        census[flag] = value
        argv = ["derive-p"] + [part for item in census.items() for part in item]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert field in err

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_tiny_values_keep_six_significant_digits(self, capsys, fmt):
        # p is 1.0e-12, which six decimals would print as 0.000000
        code, out, _ = run(
            capsys, "derive-p", "--stock", "1e6", "--lifespan", "1e12", "--horizon", "30",
            "--format", fmt,
        )
        assert code == 0
        if fmt == "csv":
            values = dict(zip(*csv.reader(io.StringIO(out))))
        else:
            values = dict(line.split() for line in out.splitlines())
        assert (values["p"], values["removal_fraction"]) == ("1e-12", "3e-11")
        assert (values["storm_felled"], values["census_horizon_years"]) == ("0.000000", "30.000000")

    def test_overremoval_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "derive-p", "--stock", "1000", "--lifespan", "35",
            "--horizon", "15", "--storm-felled", "5000",
        )
        assert code == 1
        assert "exceed" in err


@pytest.mark.parametrize(
    "value,text",
    [
        (1e-12, "1e-12"), (-2.5e-9, "-2.5e-09"), (1.234567891e-7, "1.23457e-07"),
        (5e-7, "5e-07"), (1e-6, "0.000001"), (-1e-6, "-0.000001"), (0.0, "0.000000"),
        (-0.0, "-0.000000"), (2.0, "2.000000"), (math.inf, "inf"),
    ],
)
def test_num_shows_nonzero_values_six_decimals_would_hide(value, text):
    assert _num(value) == text


def num_reference(value: float) -> str:
    """The cell rule for one float, stated cell by cell."""
    text = f"{value:.6f}"
    return f"{value:.6g}" if value and not float(text) else text


# floats either side of where six decimals round to zero, subnormals and
# signed zeros, then any float
CELL_FLOATS = st.one_of(
    st.sampled_from([
        5e-7, -5e-7, math.nextafter(5e-7, 0.0), math.nextafter(5e-7, 1.0),
        math.nextafter(-5e-7, 0.0), math.nextafter(-5e-7, -1.0), 4.9999995e-7,
        5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0,
    ]),
    st.floats(-1e-6, 1e-6),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(CELL_FLOATS, st.integers(), st.text(max_size=5), st.booleans())))
def test_column_prints_each_cell_by_the_cell_rule(values):
    want = [num_reference(v) if isinstance(v, float) else str(v) for v in values]
    assert _column(values) == want
    assert [_num(v) for v in values if isinstance(v, float)] == [
        w for v, w in zip(values, want) if isinstance(v, float)
    ]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(payload=JSON_VALUES)
@example(payload={"per_cohort": [{"label": "caf\u00e9 \"A\"\\\n\t\u2028", "count": 3}, {}], "x": [[], ()]})
@example(payload=[{"a": [1.5, {"b": math.nan}]}])
@example(payload={"a": {"b": -math.inf}})
def test_json_dumps_is_json_dumps_indented(payload):
    try:
        want = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            _json_dumps(payload)
        assert str(excinfo.value) == str(exc)
    else:
        assert _json_dumps(payload) == want


class TestFit:
    def test_reference_conifer(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--reference", "conifer", "--breakpoints", "300",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        low, high = payload["segments"]
        assert low["slope"] == pytest.approx(CONIFER_FIT_ORACLE["low"][0], abs=1e-9)
        assert high["slope"] == pytest.approx(CONIFER_FIT_ORACLE["high"][0], abs=1e-9)
        assert payload["residual_rms_cm"] == pytest.approx(
            CONIFER_FIT_ORACLE["residual_rms"], abs=1e-9
        )

    def test_noiseless_file_recovery(self, capsys, tmp_path):
        # sample the built-in deciduous model away from its breakpoint
        rows = ["wood,height_cm,diameter_cm"]
        for h in (50.0, 150.0, 250.0, 290.0):
            rows.append(f"deciduous,{h},{0.0096 * h + 1.2208!r}")
        for h in (320.0, 500.0, 800.0, 1100.0):
            rows.append(f"deciduous,{h},{0.0429 * h - 9.5903!r}")
        path = tmp_path / "m.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "fit", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakpoints"] == [300.0]
        low, high = payload["segments"]
        assert low["slope"] == pytest.approx(0.0096, abs=1e-9)
        assert low["intercept"] == pytest.approx(1.2208, abs=1e-9)
        assert high["slope"] == pytest.approx(0.0429, abs=1e-9)
        assert high["intercept"] == pytest.approx(-9.5903, abs=1e-9)

    @pytest.mark.parametrize("wood", ["evergreen", "deciduous", "conifer"])
    def test_refit_prints_the_fit_of_the_records(self, capsys, tmp_path, wood):
        # girth and diameter rows, comments, blank lines and upper-case names
        # over three chunks of 4,096 rows
        rng = random.Random(19)
        lines = ["WOOD,Height_cm,girth_cm,DIAMETER_CM", "# survey"]
        for i in range(9000):
            name = ("evergreen", "deciduous", "conifer")[i % 3]
            h = rng.uniform(60.0, 1500.0)
            d = 0.03 * h + 1.0 + rng.gauss(0.0, 0.2)
            size = f"{d * 3.14:.4f}," if i % 5 < 2 else f",{d:.4f}"
            lines.append(f"{name.upper() if i % 7 == 0 else name},{h:.3f},{size}")
            if i % 1000 == 999:
                lines += ["", "# block end"]
        path = tmp_path / "survey.csv"
        path.write_text("\n".join(lines) + "\n")
        records = load_measurements(path, wood)
        result = fit_piecewise_linear(
            [(m.height, m.diameter) for m in records], default_breakpoints(wood)
        )
        # the records' own heights and diameters, as a file of that wood alone
        alone = tmp_path / "records.csv"
        alone.write_text("wood,height_cm,diameter_cm\n" + "".join(
            f"{wood},{m.height!r},{m.diameter!r}\n" for m in records
        ))
        outputs = {}
        for fmt in _FORMATS:
            code, outputs[fmt], err = run(capsys, "fit", str(path), "--wood", wood, "--format", fmt)
            assert (code, err) == (0, "")
            assert run(capsys, "fit", str(alone), "--format", fmt) == (0, outputs[fmt], "")
        payload = json.loads(outputs["json"])
        assert payload["n_points"] == len(records)
        assert payload["residual_rms_cm"] == result.residual_rms
        assert [(s["slope"], s["intercept"], s["r_squared"]) for s in payload["segments"]] == [
            (seg.slope, seg.intercept, r2)
            for seg, r2 in zip(result.model.segments, result.per_segment_r2)
        ]

    def test_empty_segment_exit_code(self, capsys):
        code, _, err = run(
            capsys, "fit", "--reference", "conifer", "--breakpoints", "100,200",
        )
        assert code == 1
        assert "segment" in err

    @pytest.mark.parametrize("breakpoints", ["nan", "300,inf"])
    def test_non_finite_breakpoints_are_usage_error(self, capsys, breakpoints):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--reference", "conifer", "--breakpoints", breakpoints])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_needs_source(self, capsys):
        code, _, err = run(capsys, "fit")
        assert code == 2

    def test_mixed_file_needs_wood_flag(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "wood,height_cm,girth_cm\nevergreen,250,11\ndeciduous,200,10\n"
        )
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2
        assert "--wood" in err

    @pytest.mark.parametrize("wood", ["evergreen", "conifer"])
    def test_reference_takes_no_wood(self, capsys, wood):
        code, out, err = run(capsys, "fit", "--reference", "conifer", "--wood", wood)
        assert (code, out) == (2, "")
        assert err == "canopy: error: --wood selects rows of a measurements file, not of --reference\n"

    def test_bad_row_of_another_wood_fails(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "wood,height_cm,girth_cm\nconifer,250,13\nconifer,300,15\n"
            "deciduous,-3,10\nconifer,350,19\n"
        )
        code, out, err = run(capsys, "fit", str(path), "--wood", "conifer")
        assert (code, out) == (1, "")
        assert err == "canopy: error: row 3: height must be positive and finite, got -3.0\n"

    def test_wood_without_rows_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("wood,height_cm,girth_cm\nconifer,250,13\n")
        code, out, err = run(capsys, "fit", str(path), "--wood", "evergreen")
        assert (code, out) == (2, "")
        assert err == f"canopy: error: no evergreen rows in {path}\n"

    @pytest.mark.parametrize("content", ["", "wood,height_cm,girth_cm\n"])
    def test_file_without_rows_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "m.csv"
        path.write_text(content)
        code, out, err = run(capsys, "fit", str(path))
        assert (code, out) == (2, "")
        assert err == f"canopy: error: no measurement rows in {path}\n"


class TestConfig:
    def test_config_file_overrides(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_tall": 0.05, "format": "json"}))
        _, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config),
        )
        assert json.loads(out)["p"] == 0.05

    def test_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"horizon": 60}))
        _, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config), "--horizon", "80", "--format", "json",
        )
        assert json.loads(out)["horizon_years"] == 80.0

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cf": 0.25, "format": "json"}))
        monkeypatch.setenv("CANOPY_CONFIG", str(config))
        _, out, _ = run(capsys, "estimate", "--wood", "evergreen", "--size", "tall")
        payload = json.loads(out)
        # halving cf halves the constant relative to the default 0.51 run
        assert payload["carbon_constant"] == pytest.approx(
            1.5750658950981182e-06 * 0.25 / 0.51, rel=1e-12
        )

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pi": 3.14}))
        code, _, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config),
        )
        assert code == 2
        assert "unknown config" in err

    def test_invalid_override_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_tall": 1.5}))
        code, _, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config),
        )
        assert code == 2

    def test_missing_config_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", "/nonexistent/config.json",
        )
        assert code == 2

    def test_non_numeric_config_value_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_tall": "0.5"}))
        code, _, err = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--config", str(config),
        )
        assert code == 2
        assert "must be a number" in err

    def test_carbon_factor_flags(self, capsys):
        _, out, _ = run(
            capsys, "estimate", "--wood", "evergreen", "--size", "tall",
            "--format", "json", "--bef", "1.0", "--rtsr", "0.0",
            "--bd", "1.0", "--cf", str(12.0 / 44.0),
        )
        payload = json.loads(out)
        assert payload["carbon_constant"] == pytest.approx(1e-6, rel=1e-12)


def _non_finite(token):
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# half the draws are typical, so that many runs get past the checks
def _values(typical, *others):
    return st.sampled_from(EXTREMES + others + (typical,) * len(EXTREMES + others))


# a huge integer, a string and a bool are not numbers to a config
NOT_NUMBERS = (10**400, "0.5", True)

# each command's own numeric flags, with a typical value
OWN_FLAGS = {
    "portfolio": [("--emissions", 10.0), ("--steward-years", 3.0)],
    "derive-p": [("--stock", 6670000.0), ("--lifespan", 35.0), ("--horizon", 15.0),
                 ("--storm-felled", 380000.0)],
    "fit": [("--breakpoints", 300.0)],
}


@st.composite
def cli_runs(draw):
    """A subcommand with up to four of its flags and config keys drawn
    from the extremes or a typical value.  Returns the command, the drawn
    flags, the config, the format that applies and where the output path
    is given: by ``--output``, by the config's ``output`` key, or not."""
    command = draw(st.sampled_from(COMMANDS))
    # every numeric value a run reads: (flag or None, config key or None, typical)
    slots = [(None, name, default) for name, _, kind, default, _ in _SETTINGS if kind is float]
    if command in MODEL_COMMANDS:
        slots += [(flag, None, default)
                  for _, flag, kind, default, _ in _SETTINGS if kind is float]
    slots += [(flag, None, typical) for flag, typical in OWN_FLAGS.get(command, [])]
    argv, config = [], {}
    for flag, key, typical in draw(st.lists(st.sampled_from(slots), max_size=4, unique=True)):
        if flag is not None:
            argv.append(f"{flag}={draw(_values(typical))!r}")
        else:
            config[key] = draw(_values(typical, *NOT_NUMBERS))
    if draw(st.booleans()):
        config["format"] = draw(st.sampled_from(_FORMATS + ("xml",)))
    fmt = draw(st.sampled_from((None,) + _FORMATS))
    if fmt is not None:
        argv.append(f"--format={fmt}")
    fmt = fmt or config.get("format", "table")
    return command, argv, config, fmt, draw(st.sampled_from((None, "--output", "output")))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-runs")


@settings(max_examples=300, deadline=None)
@given(run_=cli_runs())
def test_any_settings_exit_cleanly_without_non_finite_output(workdir, run_):
    """Any mix of extreme flag and config values exits 0, 1 or 2 without
    an exception, and what it prints holds no inf or nan."""
    command, extra, config, fmt, output_by = run_
    config_path, output = workdir / "config.json", workdir / "out.txt"
    output.unlink(missing_ok=True)
    # later flags win, so the drawn ones override the base arguments
    argv = command_argv(command, workdir) + extra + ["--config", str(config_path)]
    if output_by == "--output":
        argv += ["--output", str(output)]
    elif output_by == "output":
        config["output"] = str(output)
    config_path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    text = out.getvalue()
    if code != 0:
        assert text == ""
        return
    if output_by is not None:
        assert text == ""
        text = output.read_text()
    tokens = [t for t in re.split(r"[\s,]+", text) if _non_finite(t)]
    if fmt == "json":
        json.loads(text, parse_constant=_refuse_constant)
        assert tokens == []
    else:
        # fit marks its open last segment's upper bound as inf
        assert tokens == (["inf"] if command == "fit" else [])
