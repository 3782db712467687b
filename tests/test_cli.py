from pathlib import Path

import pytest
from click.testing import CliRunner

from edgelca.cli import main
from edgelca.defaults import DATA_DIR_ENV, example_profile_path

FIXTURES = Path(__file__).parent / "fixtures"
ERROR_FIXTURES = sorted(
    p for p in FIXTURES.glob("*.iotprof") if p.name != "valid.iotprof"
)


@pytest.fixture()
def runner():
    return CliRunner()


class TestEstimate:
    def test_table_output(self, runner):
        result = runner.invoke(main, ["estimate", str(FIXTURES / "valid.iotprof")])
        assert result.exit_code == 0
        assert "profile: sensor_node" in result.output
        assert "profile: battery_device" in result.output
        assert "TOTAL" in result.output

    def test_csv_output(self, runner):
        result = runner.invoke(
            main, ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "profile,block,level,low,typical,up"
        assert len(lines) == 1 + 2 * 13

    def test_jsonl_output(self, runner):
        result = runner.invoke(
            main, ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "jsonl"]
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2 * 13

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "csv",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert out.read_text().startswith("profile,block,level,low,typical,up\n")

    def test_bundled_example(self, runner):
        result = runner.invoke(
            main, ["estimate", str(example_profile_path("all_hsl0"))]
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("fixture", ERROR_FIXTURES, ids=lambda p: p.stem)
    def test_malformed_input_exits_one(self, runner, fixture):
        result = runner.invoke(main, ["estimate", str(fixture)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr

    def test_missing_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["estimate", "no_such_file.iotprof"])
        assert result.exit_code == 2

    def test_unknown_format_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "yaml"]
        )
        assert result.exit_code == 2

    def test_repeated_runs_identical(self, runner):
        args = ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "csv"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestValidate:
    def test_valid_file(self, runner):
        result = runner.invoke(main, ["validate", str(FIXTURES / "valid.iotprof")])
        assert result.exit_code == 0
        assert "OK (2 profile(s))" in result.output

    @pytest.mark.parametrize("fixture", ERROR_FIXTURES, ids=lambda p: p.stem)
    def test_invalid_file(self, runner, fixture):
        result = runner.invoke(main, ["validate", str(fixture)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        # Diagnostics carry file, position and a stable code.
        assert f"{fixture}:" in result.output


class TestSensitivity:
    def test_headline_numbers(self, runner):
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 0
        assert "max sum-of-up: 47.41 kgCO2-eq" in result.output
        assert "min sum-of-low: 0.29 kgCO2-eq" in result.output
        assert "spread ratio (exact): 163.5x" in result.output
        assert "spread ratio (published rounding): 158.0x" in result.output

    def test_series_out(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        result = runner.invoke(main, ["sensitivity", "--series-out", str(series)])
        assert result.exit_code == 0
        lines = series.read_text().splitlines()
        assert lines[0] == "block,level,low,typical,up,absent"
        assert len(lines) == 49


class TestProject:
    def test_default_projection(self, runner):
        result = runner.invoke(main, ["project"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "scenario,source,psi,year,low,typical,up"
        # 6 scenarios x 2 sources x 10 annual years.
        assert len(lines) == 1 + 6 * 2 * 10

    def test_scenario_and_source_filters(self, runner):
        result = runner.invoke(
            main, ["project", "--scenario", "sc1", "--trend", "CISCO"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 1 + 10
        assert lines[1] == "sc1,CISCO,1,2018,2.24,4.54,6.89"

    def test_psi_override_doubles(self, runner):
        base = runner.invoke(main, ["project", "--scenario", "sc3", "--trend", "CISCO"])
        doubled = runner.invoke(
            main, ["project", "--scenario", "sc3", "--trend", "CISCO", "--psi", "2"]
        )
        row = base.output.splitlines()[1].split(",")
        row2 = doubled.output.splitlines()[1].split(",")
        assert float(row2[4]) == pytest.approx(2 * float(row[4]), abs=0.02)

    def test_unknown_scenario_is_usage_error(self, runner):
        result = runner.invoke(main, ["project", "--scenario", "sc9"])
        assert result.exit_code == 2

    def test_unknown_trend_is_usage_error(self, runner):
        result = runner.invoke(main, ["project", "--trend", "Nokia"])
        assert result.exit_code == 2

    def test_nonfinite_psi_exits_one(self, runner):
        result = runner.invoke(main, ["project", "--psi", "inf"])
        assert result.exit_code == 1
        assert "finite" in result.stderr

    def test_repeated_runs_identical(self, runner):
        first = runner.invoke(main, ["project"])
        second = runner.invoke(main, ["project"])
        assert first.output == second.output


class TestPathway:
    def test_default(self, runner):
        result = runner.invoke(main, ["pathway"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "year,low,high"
        assert lines[1] == "2020,281.00,543.00"
        assert lines[2] == "2021,259.64,501.73"
        assert lines[-1].startswith("2028,")

    def test_custom_start(self, runner):
        result = runner.invoke(
            main,
            ["pathway", "--start-low", "100", "--start-high", "200",
             "--end-year", "2021"],
        )
        assert result.output == "year,low,high\n2020,100.00,200.00\n2021,92.40,184.80\n"

    def test_bad_start_exits_one(self, runner):
        result = runner.invoke(main, ["pathway", "--start-low", "-5"])
        assert result.exit_code == 1

    def test_nonfinite_start_exits_one(self, runner):
        result = runner.invoke(main, ["pathway", "--start-low", "nan"])
        assert result.exit_code == 1
        assert result.stdout == ""


class TestDataDirOverride:
    def test_env_var_redirects_factor_table(self, runner, tmp_path, monkeypatch, table):
        from edgelca.factors import serialize_factor_table
        # Double every cell in a copy of the bundled table.
        doubled = {k: v.scale(2.0) for k, v in table.cells.items()}
        from edgelca.factors import EmissionFactorTable

        text = serialize_factor_table(
            EmissionFactorTable(cells=doubled, metadata=table.metadata)
        )
        (tmp_path / "factors.csv").write_text(text)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 0
        assert "max sum-of-up: 94.82 kgCO2-eq" in result.output

    def test_env_var_missing_directory_exits_one(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "missing"))
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 1
        assert DATA_DIR_ENV in result.stderr
        assert result.stdout == ""
