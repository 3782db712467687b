import csv
import io
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from edgelca.cli import main
from edgelca.defaults import DATA_DIR_ENV, example_profile_path
from edgelca.estimator import batch_evaluate
from edgelca.factors import EmissionFactorTable, serialize_factor_table
from edgelca.model import OVERRIDE_QUANTITY_UNITS, FunctionalBlock, OverrideKind, valid_levels
from edgelca.profiles_io import REPORT_FORMATS, parse_profiles, render_reports

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


    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_override_warnings_reach_every_format(self, runner, tmp_path, table, units, fmt):
        # Overrides on blocks at hsl0, whose cells are zero, each earn a warning.
        text = "format_version = 1\n"
        for name, overrides in [
            ("first", ["override.user_interface = mass_scaled:10g@ndfeb_speaker_per_kg",
                       "override.actuators = unit_count:2u@alkaline_aa_per_unit"]),
            ("quiet", []),
            ("second", ["override.actuators = unit_count:1u@alkaline_aa_per_unit"]),
        ]:
            text += f"[{name}]\n" + "".join(f"{b.key} = hsl0\n" for b in FunctionalBlock)
            text += "".join(line + "\n" for line in overrides)
        path = tmp_path / "warned.iotprof"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        assert result.exit_code == 0
        reports = batch_evaluate(parse_profiles(text).profiles, table, units)
        assert result.stdout == render_reports(reports, fmt)
        warnings = [(name, f"override on {block} replaces an absent-feature cell "
                                 f"({block} at hsl0 is zero); check the profile")
                    for name, block in [("first", "actuators"), ("first", "user_interface"),
                                        ("second", "actuators")]]
        if fmt == "table":
            assert result.stderr == ""
            assert [line for line in result.stdout.splitlines() if line.startswith("warning:")] \
                == [f"warning: {warning}" for _, warning in warnings]
        else:
            assert result.stderr == "".join(
                f"warning: profile '{name}': {warning}\n" for name, warning in warnings)


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

    def test_nonfinite_override_quantity_agrees_with_estimate(self, runner, tmp_path):
        path = tmp_path / "huge.iotprof"
        path.write_text(
            (FIXTURES / "valid.iotprof").read_text(encoding="utf-8").replace(":48g@", ":1e999g@"),
            encoding="utf-8",
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert result.stdout.startswith(f"{path}:31:25: syntax: override quantity must be")
        result = runner.invoke(main, ["estimate", str(path)])
        assert result.exit_code == 1
        assert "31:25: syntax" in result.stderr


    def test_second_override_of_a_block_agrees_with_estimate(self, runner, tmp_path):
        path = tmp_path / "twice.iotprof"
        path.write_text(
            (FIXTURES / "valid.iotprof").read_text(encoding="utf-8")
            + "override.power_supply = unit_count:2u@alkaline_aa_per_unit\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (f"{path}:32:1: duplicate-block: block 'power_supply' "
                                 "already overridden on line 31\n")
        result = runner.invoke(main, ["estimate", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "32:1: duplicate-block" in result.stderr


#: Factor-entry unit each override kind needs.
FACTOR_UNITS = {
    OverrideKind.MASS_SCALED: "kgCO2-eq/kg",
    OverrideKind.UNIT_COUNT: "kgCO2-eq/unit",
    OverrideKind.MEMORY_CAPACITY: "kgCO2-eq/Gb",
    OverrideKind.SOLDER_FROM_IC_AREA: "kgCO2-eq/kg",
}


@st.composite
def override_lines(draw, units):
    """`override.<block> = ...` with a registry key of the unit its kind needs."""
    keys = {kind: sorted(k for k, e in units.entries.items() if e.unit == unit)
            for kind, unit in FACTOR_UNITS.items()}
    kind = draw(st.sampled_from([kind for kind in keys if keys[kind]]))
    block = draw(st.sampled_from(FunctionalBlock))
    quantity = draw(st.integers(min_value=0, max_value=10**6))
    unit = draw(st.sampled_from(OVERRIDE_QUANTITY_UNITS[kind]))
    return f"override.{block.key} = {kind.value}:{quantity}{unit}@{draw(st.sampled_from(keys[kind]))}"


class TestValidateAgreesWithEstimate:
    """With the bundled data files, `validate` accepts exactly what `estimate` does."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(REPORT_FORMATS))
    def test_same_exit_status(self, units, data, fmt):
        lines = ["format_version = 1"]
        for name in ("p0", "p1")[:data.draw(st.integers(1, 2))]:
            lines.append(f"[{name}]")
            lines += [f"{b.key} = {data.draw(st.sampled_from(valid_levels(b))).key}"
                      for b in FunctionalBlock]
            lines += data.draw(st.lists(override_lines(units), max_size=4))
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "doc.iotprof"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            validated = runner.invoke(main, ["validate", str(path)])
            estimated = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        assert {validated.exit_code, estimated.exit_code} <= {0, 1}
        assert validated.exit_code == estimated.exit_code, (validated.output, estimated.output)


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

    def test_env_var_entry_that_is_a_directory_exits_one(self, runner, tmp_path, monkeypatch):
        (tmp_path / "factors.csv").mkdir()
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {tmp_path / 'factors.csv'}: cannot read (Is a directory)\n"

    def test_env_var_missing_directory_exits_one(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "missing"))
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 1
        assert DATA_DIR_ENV in result.stderr
        assert result.stdout == ""


DATA = example_profile_path("use_cases").parents[1]

#: data flag -> (bundled file it replaces, a command that reads that file)
DATA_FLAGS = {
    "--factors": ("factors.csv", ["sensitivity"]),
    "--units": ("units.csv", ["estimate", str(FIXTURES / "valid.iotprof"), "--format", "csv"]),
    "--trends": ("trends.csv", ["project"]),
    "--scenarios-file": ("scenarios.csv", ["project"]),
}


def bundled(name):
    return (DATA / name).read_text(encoding="utf-8")


def edited_copy(tmp_path, name, old, new):
    """A copy of bundled `name` with `old` replaced by `new`, and the line it is on."""
    text = bundled(name)
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return path, text[:text.index(old)].count("\n") + 1


class TestDataFlags:
    @pytest.fixture(autouse=True)
    def no_data_dir(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)

    def test_factors_flag(self, runner, tmp_path, table, units):
        doubled = EmissionFactorTable({k: v.scale(2.0) for k, v in table.cells.items()})
        path = tmp_path / "doubled.csv"
        path.write_text(serialize_factor_table(doubled), encoding="utf-8")
        result = runner.invoke(main, ["sensitivity", "--factors", str(path)])
        assert result.exit_code == 0
        assert "max sum-of-up: 94.82 kgCO2-eq" in result.stdout
        profile_file = FIXTURES / "valid.iotprof"
        result = runner.invoke(
            main, ["estimate", str(profile_file), "--format", "csv", "--factors", str(path)]
        )
        assert result.exit_code == 0
        document = parse_profiles(profile_file.read_text(encoding="utf-8"))
        assert result.stdout == render_reports(batch_evaluate(document.profiles, doubled, units), "csv")

    def test_units_flag(self, runner, tmp_path):
        path, _ = edited_copy(tmp_path, "units.csv", "li_ion_per_kg,25,", "li_ion_per_kg,50,")
        result = runner.invoke(main, DATA_FLAGS["--units"][1] + ["--units", str(path)])
        assert result.exit_code == 0
        assert "battery_device,power_supply,override,2.40,2.40,2.40\n" in result.stdout
        assert "battery_device,TOTAL,,2.67,2.84,3.07\n" in result.stdout

    def test_scenarios_file_flag(self, runner, tmp_path):
        path = tmp_path / "mine.csv"
        path.write_text(
            "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up\n"
            "only,0.5,1,0.30,0.96,1.33,16.62,30.47,47.41\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["project", "--scenarios-file", str(path)])
        assert result.exit_code == 0
        sc2 = runner.invoke(main, ["project", "--scenario", "sc2"]).stdout
        assert result.stdout == sc2.replace("\nsc2,", "\nonly,")

    def test_scenario_names_are_quoted(self, runner, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up\n"
            '"a,b",0.5,1,0.30,0.96,1.33,16.62,30.47,47.41\n'
            '"say ""hi""",0.5,1,0.30,0.96,1.33,16.62,30.47,47.41\n',
            encoding="utf-8",
        )
        result = runner.invoke(main, ["project", "--scenarios-file", str(path)])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert {len(row) for row in rows} == {7}
        assert {row[0] for row in rows[1:]} == {"a,b", 'say "hi"'}

    def test_trends_flag(self, runner, tmp_path):
        text = bundled("trends.csv")
        path = tmp_path / "cisco_only.csv"
        path.write_text(
            "".join(line for line in text.splitlines(keepends=True)
                    if not line.startswith("Statista,")),
            encoding="utf-8",
        )
        result = runner.invoke(main, ["project", "--trends", str(path)])
        assert result.exit_code == 0
        assert result.stdout == runner.invoke(main, ["project", "--trend", "CISCO"]).stdout
        result = runner.invoke(main, ["project", "--trends", str(path), "--trend", "Statista"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", sorted(DATA_FLAGS))
    def test_flag_wins_over_data_dir(self, runner, tmp_path, monkeypatch, flag):
        name, args = DATA_FLAGS[flag]
        expected = runner.invoke(main, args)
        assert expected.exit_code == 0
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / name).write_text("not,a,header\n", encoding="utf-8")
        copy = tmp_path / name
        copy.write_text(bundled(name), encoding="utf-8")
        monkeypatch.setenv(DATA_DIR_ENV, str(data_dir))
        assert runner.invoke(main, args).exit_code == 1
        result = runner.invoke(main, args + [flag, str(copy)])
        assert result.exit_code == 0
        assert result.stdout == expected.stdout

    def test_flag_needs_no_data_dir(self, runner, tmp_path, monkeypatch):
        copy = tmp_path / "factors.csv"
        copy.write_text(bundled("factors.csv"), encoding="utf-8")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "missing"))
        result = runner.invoke(main, ["sensitivity", "--factors", str(copy)])
        assert result.exit_code == 0
        assert "max sum-of-up: 47.41 kgCO2-eq" in result.stdout
        # The unit registry is still looked up there.
        result = runner.invoke(
            main, ["estimate", str(FIXTURES / "valid.iotprof"), "--factors", str(copy)]
        )
        assert result.exit_code == 1
        assert DATA_DIR_ENV in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("flag, old, new", [
        ("--factors", "processing,hsl3,2.31,3.13,3.98", "processing,hsl3,2.31,3.13,inf"),
        ("--units", "li_ion_per_kg,25,", "li_ion_per_kg,-1,"),
        ("--units", "li_ion_per_kg,25,kgCO2-eq/kg,", "li_ion_per_kg,25,mm,"),
        ("--trends", "CISCO,cumulative,2019,", "CISCO,quarterly,2019,"),
        ("--trends", "CISCO,cumulative,2019,7.26,", "CISCO,cumulative,2019,inf,"),
        ("--scenarios-file", "sc2,0.5,1,", "sc2,0.5,inf,"),
    ])
    def test_bad_cell_in_flag_file_names_its_line(self, runner, tmp_path, flag, old, new):
        name, args = DATA_FLAGS[flag]
        path, line = edited_copy(tmp_path, name, old, new)
        result = runner.invoke(main, args + [flag, str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert f"line {line}" in result.stderr


class TestNotUtf8:
    """A file that is not UTF-8 gives one `error:` line naming it, exit 1."""

    @pytest.fixture()
    def latin1_profile(self, tmp_path):
        path = tmp_path / "latin1.iotprof"
        path.write_bytes((FIXTURES / "valid.iotprof").read_bytes().replace(b"corpus", b"caf\xe9"))
        return path

    @pytest.fixture()
    def latin1_factors(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_bytes((DATA / "factors.csv").read_bytes().replace(b"# ", b"# caf\xe9 ", 1))
        return path

    def check(self, result, path):
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: not UTF-8")
        assert len(result.stderr.splitlines()) == 1

    def test_validate(self, runner, latin1_profile):
        self.check(runner.invoke(main, ["validate", str(latin1_profile)]), latin1_profile)

    def test_estimate(self, runner, latin1_profile):
        self.check(runner.invoke(main, ["estimate", str(latin1_profile)]), latin1_profile)

    def test_factors_flag(self, runner, latin1_factors):
        result = runner.invoke(
            main, ["estimate", str(FIXTURES / "valid.iotprof"), "--factors", str(latin1_factors)]
        )
        self.check(result, latin1_factors)

    def test_data_dir(self, runner, latin1_factors, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(latin1_factors.parent))
        self.check(runner.invoke(main, ["sensitivity"]), latin1_factors)
