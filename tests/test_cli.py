import codecs
import contextlib
import csv
import dataclasses
import gc
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import edgelca.cli
from edgelca import defaults, projection
from edgelca.cli import REPORT_SLICE, main
from edgelca.defaults import DATA_DIR_ENV, example_profile_path
from edgelca.errors import InvalidOverrideUnit, InvalidProfile
from edgelca.estimator import apply_override, batch_evaluate
from edgelca.factors import (
    REGISTRY_UNITS,
    REQUIRED_BUILTINS,
    EmissionFactorTable,
    UnitFactor,
    UnitFactorRegistry,
    serialize_factor_table,
    serialize_unit_registry,
)
from edgelca.model import (
    ComponentOverride,
    EmissionTriple,
    FunctionalBlock,
    HardwareProfile,
    OverrideKind,
    valid_levels,
)
from edgelca.profiles_io import (
    REPORT_FORMATS,
    ProfileDocument,
    parse_profiles,
    render_reports,
    validate_profiles,
    warning_lines,
)

FIXTURES = Path(__file__).parent / "fixtures"
ERROR_FIXTURES = sorted(
    p for p in FIXTURES.glob("*.iotprof") if p.name != "valid.iotprof"
)


@pytest.fixture()
def runner():
    return CliRunner()


def many_profiles(count, more_names=()):
    """A document of profiles named p0 to p<count - 1>, then `more_names`,
    each block at a level chosen by the profile's index."""
    names = [f"p{i}" for i in range(count)] + list(more_names)
    levels = [(b.key, valid_levels(b)) for b in FunctionalBlock]
    return "format_version = 1\n" + "".join(
        f"[{name}]\n" + "".join(f"{key} = {allowed[index % len(allowed)].key}\n"
                                for key, allowed in levels)
        for index, name in enumerate(names))


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


    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_exit_one_writes_nothing_property(self, table, units, data):
        # Profiles whose override names an unknown factor key fail evaluation.
        count = data.draw(st.integers(1, 20))
        failing = sorted(data.draw(st.sets(st.integers(0, count - 1), max_size=2)))
        lines = ["format_version = 1"]
        for index in range(count):
            lines.append(f"[p{index}]")
            lines += [f"{b.key} = {data.draw(st.sampled_from(valid_levels(b))).key}"
                      for b in FunctionalBlock]
            if index in failing:
                lines.append("override.memory = mass_scaled:1g@no_such_key")
        text = "\n".join(lines) + "\n"
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "doc.iotprof"
            path.write_text(text, encoding="utf-8")
            for fmt in REPORT_FORMATS:
                for out in (None, "new", "existing"):
                    target = Path(directory) / f"{fmt}-{out}.out"
                    if out == "existing":
                        target.write_text("earlier output\n", encoding="utf-8")
                    result = runner.invoke(main, ["estimate", str(path), "--format", fmt]
                                           + (["--out", str(target)] if out else []))
                    written = target.read_text(encoding="utf-8") if target.exists() else None
                    if not failing:
                        assert result.exit_code == 0
                        reports = batch_evaluate(parse_profiles(text).profiles, table, units)
                        assert (written if out else result.stdout) == render_reports(reports, fmt)
                        continue
                    assert result.exit_code == 1
                    assert result.stdout == ""
                    assert result.stderr == (f"error: profile #{failing[0]} ('p{failing[0]}'): "
                                             "override on memory: unknown factor key "
                                             "'no_such_key'\n")
                    assert written == ("earlier output\n" if out == "existing" else None)

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

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_stderr_is_the_warning_lines(self, runner, tmp_path, table, units, fmt):
        text = "format_version = 1\n" + "".join(
            f"[{name}]\n" + "".join(f"{b.key} = hsl0\n" for b in FunctionalBlock)
            + "override.actuators = unit_count:1u@alkaline_aa_per_unit\n"
            for name in ["plain", "it's", 'say "hi"'])
        path = tmp_path / "warned.iotprof"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        assert result.exit_code == 0
        lines = warning_lines(batch_evaluate(parse_profiles(text).profiles, table, units), fmt)
        assert len(lines) == (0 if fmt == "table" else 3)
        assert result.stderr == "".join(line + "\n" for line in lines)

    def test_each_render_gets_at_most_one_slice(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "many.iotprof"
        path.write_text(many_profiles(2 * REPORT_SLICE + 1), encoding="utf-8")
        calls = []

        def recording(reports, fmt, continued=False):
            calls.append((len(reports), continued))
            return render_reports(reports, fmt, continued=continued)

        monkeypatch.setattr(edgelca.cli, "render_reports", recording)
        result = runner.invoke(main, ["estimate", str(path), "--format", "csv"])
        assert result.exit_code == 0
        assert calls == [(REPORT_SLICE, False), (REPORT_SLICE, True), (1, True)]

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_output_across_a_report_slice_is_the_same_bytes_everywhere(
            self, runner, tmp_path, table, units, fmt):
        # Quoted and non-ASCII names on both sides of the slice boundary.
        text = many_profiles(REPORT_SLICE - 3, ['a,"b"', "naïve", "€uro", 'é,"x"'])
        path = tmp_path / "long.iotprof"
        path.write_text(text, encoding="utf-8")
        expected = render_reports(batch_evaluate(parse_profiles(text).profiles, table, units),
                                  fmt).encode("utf-8")
        out = tmp_path / f"long.{fmt}"
        to_stdout = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        to_file = runner.invoke(main, ["estimate", str(path), "--format", fmt, "--out", str(out)])
        assert (to_stdout.exit_code, to_file.exit_code, to_file.stdout) == (0, 0, "")
        assert to_stdout.stdout_bytes == expected
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_bad_last_profile_writes_nothing(self, runner, tmp_path, fmt):
        # Every profile is evaluated before the first slice is written.
        count = REPORT_SLICE + 1
        text = many_profiles(count) + "override.memory = mass_scaled:1g@no_such_key\n"
        path = tmp_path / "bad.iotprof"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"bad.{fmt}"
        for args in ([], ["--out", str(out)]):
            result = runner.invoke(main, ["estimate", str(path), "--format", fmt, *args])
            assert (result.exit_code, result.stdout) == (1, "")
            assert result.stderr == (f"error: profile #{count - 1} ('p{count - 1}'): override on "
                                     "memory: unknown factor key 'no_such_key'\n")
            assert not out.exists()

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    def test_writing_adds_less_than_the_output_length(self, tmp_path, monkeypatch, to_stdout):
        # What the run holds once every profile is evaluated (0.63x the output
        # here) is measured apart, so the rest is what rendering and writing
        # add: one slice's chunks and string, or its string and encoded bytes.
        path = tmp_path / "many.iotprof"
        path.write_text(many_profiles(3000), encoding="utf-8")
        out = tmp_path / "many.jsonl"
        held = []

        def evaluating(*args):
            reports = batch_evaluate(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            return reports

        monkeypatch.setattr(edgelca.cli, "batch_evaluate", evaluating)
        argv = ["estimate", str(path), "--format", "jsonl"]
        if not to_stdout:
            argv += ["--out", str(out)]
        with open(tmp_path / "stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                main(argv, standalone_mode=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        written = (tmp_path / "stdout" if to_stdout else out).read_text(encoding="utf-8")
        assert written.startswith('{"profile": "p0", ') and written.endswith("}\n")
        assert peak - held[0] < len(written)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_crlf_copy_gives_the_golden_output(self, runner, tmp_path, fmt):
        text = example_profile_path("use_cases").read_text(encoding="utf-8")
        path = tmp_path / "use_cases.iotprof"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        result = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        assert result.exit_code == 0
        golden = FIXTURES / "golden" / f"estimate_{fmt}.out"
        assert result.stdout_bytes == golden.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_escape_in_a_profile_name_reaches_stdout(self, runner, tmp_path, fmt):
        # click strips what looks like an ANSI colour code from output that
        # is not a terminal; stdout must still carry what --out does. (jsonl
        # writes the ESC as "\u001b".)
        text = "format_version = 1\n[red\x1b[31mname]\n" + "".join(
            f"{b.key} = hsl1\n" for b in FunctionalBlock)
        path = tmp_path / "escape.iotprof"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"escape.{fmt}"
        to_stdout = runner.invoke(main, ["estimate", str(path), "--format", fmt])
        runner.invoke(main, ["estimate", str(path), "--format", fmt, "--out", str(out)])
        assert "red\x1b[31mname" in out.read_text(encoding="utf-8")
        assert to_stdout.stdout_bytes == out.read_bytes()


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


    @pytest.mark.parametrize("kind", ["MASS_Scaled", "MASS_SCALED", "Mass_Scaled"])
    @pytest.mark.parametrize("quantity", ["48g", "48kg"])
    def test_override_kind_is_case_insensitive(self, runner, tmp_path, kind, quantity):
        # 48kg is refused, so `validate` prints a diagnostic and its column.
        text = (FIXTURES / "valid.iotprof").read_text(encoding="utf-8").replace(
            ":48g@", f":{quantity}@")
        respelled = text.replace("= mass_scaled:", f"= {kind}:")
        assert respelled != text
        assert validate_profiles(respelled) == validate_profiles(text)
        path = tmp_path / "kind.iotprof"
        outputs = []
        for written in (text, respelled):
            path.write_text(written, encoding="utf-8")
            result = runner.invoke(main, ["validate", str(path)])
            outputs.append((result.exit_code, result.stdout))
        assert outputs[0] == outputs[1]

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

#: Quantity units each override kind accepts, in any case.
QUANTITY_UNITS = {
    OverrideKind.MASS_SCALED: {"g"},
    OverrideKind.UNIT_COUNT: {"u"},
    OverrideKind.MEMORY_CAPACITY: {"mb", "gb"},
    OverrideKind.SOLDER_FROM_IC_AREA: {"mm2"},
}


@pytest.mark.parametrize("kind", OverrideKind, ids=lambda kind: kind.key)
class TestOverrideKindRules:
    """Each kind's quantity units and factor unit, as the two tables above give them."""

    def test_multiplies_only_its_factor_unit(self, kind):
        entries = [UnitFactor(key, 1.0, unit) for key, unit in REQUIRED_BUILTINS.items()]
        entries += [UnitFactor(f"extra_{i}", 2.0, unit)
                    for i, unit in enumerate(sorted(REGISTRY_UNITS))]
        registry = UnitFactorRegistry({entry.key: entry for entry in entries})
        unit = min(QUANTITY_UNITS[kind])
        for entry in entries:
            override = ComponentOverride(FunctionalBlock.MEMORY, kind, 3.0, unit, entry.key)
            if entry.unit == FACTOR_UNITS[kind]:
                assert isinstance(apply_override(override, registry), EmissionTriple)
            else:
                with pytest.raises(InvalidOverrideUnit):
                    apply_override(override, registry)

    def test_accepts_only_its_quantity_units(self, kind):
        spellings = set().union(*QUANTITY_UNITS.values()) | {"", "kg", "mm", "b", "units"}
        for spelling in sorted(spellings):
            for unit in (spelling, spelling.upper()):
                if spelling in QUANTITY_UNITS[kind]:
                    ComponentOverride(FunctionalBlock.MEMORY, kind, 3.0, unit, "k")
                else:
                    with pytest.raises(InvalidProfile, match="invalid for kind"):
                        ComponentOverride(FunctionalBlock.MEMORY, kind, 3.0, unit, "k")


@st.composite
def override_lines(draw, units):
    """`override.<block> = ...` with a registry key of the unit its kind needs."""
    keys = {kind: sorted(k for k, e in units.entries.items() if e.unit == unit)
            for kind, unit in FACTOR_UNITS.items()}
    kind = draw(st.sampled_from([kind for kind in keys if keys[kind]]))
    block = draw(st.sampled_from(FunctionalBlock))
    quantity = draw(st.integers(min_value=0, max_value=10**6))
    unit = draw(st.sampled_from(kind.units))
    return f"override.{block.key} = {kind.key}:{quantity}{unit}@{draw(st.sampled_from(keys[kind]))}"


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


class TestMemoryCapacityOverride:
    """The bundled registry has no `kgCO2-eq/Gb` entry, so a `memory_capacity`
    override evaluates only with a `--units` registry that adds one."""

    @pytest.fixture()
    def profile(self, tmp_path):
        path = tmp_path / "memory.iotprof"
        path.write_text((FIXTURES / "valid.iotprof").read_text(encoding="utf-8").replace(
            "override.power_supply = mass_scaled:48g@li_ion_per_kg",
            "override.memory = memory_capacity:512MB@dram_per_gb"), encoding="utf-8")
        return path

    def test_bundled_registry_names_the_missing_key(self, runner, profile):
        assert runner.invoke(main, ["validate", str(profile)]).exit_code == 0
        result = runner.invoke(main, ["estimate", str(profile)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == ("error: profile #1 ('battery_device'): override on memory: "
                                 "unknown factor key 'dram_per_gb'\n")
        assert "Traceback" not in result.output

    def test_units_with_a_gb_factor_evaluate(self, runner, profile, tmp_path, units):
        registry = tmp_path / "units.csv"
        registry.write_text(serialize_unit_registry(units)
                            + "dram_per_gb,1.5/2.5/4,kgCO2-eq/Gb,DRAM die per gigabit\n",
                            encoding="utf-8")
        result = runner.invoke(main, ["estimate", str(profile), "--units", str(registry),
                                      "--format", "csv"])
        assert result.exit_code == 0, result.output
        rows = {(row[0], row[1]): row[2:] for row in csv_rows(result.stdout)}
        gigabits = 512 * 8 / 1000  # 512 MB
        assert rows["battery_device", "memory"] == (
            "override", *(f"{gigabits * factor:.2f}" for factor in (1.5, 2.5, 4.0)))


def table_rows(text):
    """(profile, block, level, low, typical, up) per row of the table format;
    titles, column headers, warnings and blank lines are skipped."""
    rows = []
    for chunk in text.removesuffix("\n").split("\n\n") if text else []:
        title, _, *lines = chunk.split("\n")
        for line in lines:
            if not line.startswith("warning: "):
                rows.append((title.removeprefix("profile: "), line[:16].rstrip(),
                             line[16:26].rstrip(),
                             *re.fullmatch(r" *(-?\d+\.\d\d)" * 3, line[26:]).groups()))
    return rows


def csv_rows(text):
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header == ["profile", "block", "level", "low", "typical", "up"]
    return [tuple(row) for row in rows]


def jsonl_rows(text):
    return [(row["profile"], row["block"], row["level"] or "",
             *(f"{row[c]:.2f}" for c in ("low", "typical", "up")))
            for row in map(json.loads, text.splitlines())]


ROWS = {"csv": csv_rows, "jsonl": jsonl_rows, "table": table_rows}


class TestFormatsAgree:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_same_rows_in_every_format_property(self, table, units, data):
        # Every format carries the evaluator's rows: 2-decimal cells, override
        # labels, and a TOTAL of the left-to-right sum of the unrounded cells.
        own_factors = data.draw(st.booleans(), label="--factors")
        if own_factors:
            table = EmissionFactorTable({
                cell: EmissionTriple(*sorted(data.draw(
                    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=3))))
                for cell in table.cells})
        own_units = data.draw(st.booleans(), label="--units")
        if own_units:
            units = UnitFactorRegistry({
                key: dataclasses.replace(entry, value=data.draw(
                    st.floats(min_value=0.001, max_value=100.0), label=key))
                if entry.unit in ("kgCO2-eq/kg", "kgCO2-eq/unit") else entry
                for key, entry in units.entries.items()})
        lines = ["format_version = 1"]
        for index in range(data.draw(st.integers(1, 20), label="profiles")):
            suffix = data.draw(st.text(alphabet='é,"x', max_size=3))
            lines.append(f"[p{index}{suffix}]")
            lines += [f"{b.key} = {data.draw(st.sampled_from(valid_levels(b))).key}"
                      for b in FunctionalBlock]
            lines += data.draw(st.lists(override_lines(units), max_size=3,
                                        unique_by=lambda line: line.split(" ")[0]))
        text = "\n".join(lines) + "\n"
        expected = []
        for report in batch_evaluate(parse_profiles(text).profiles, table, units):
            overridden = {ov.block for ov in report.applied_overrides}
            total = [0.0, 0.0, 0.0]
            for block, triple in zip(FunctionalBlock, report.estimate.triples):
                level = "override" if block in overridden else report.profile.level_of(block).key
                expected.append((report.profile.name, block.key, level,
                                 *(f"{v:.2f}" for v in triple.as_tuple())))
                total = [t + v for t, v in zip(total, triple.as_tuple())]
            expected.append((report.profile.name, "TOTAL", "", *(f"{v:.2f}" for v in total)))
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "doc.iotprof"
            path.write_text(text, encoding="utf-8")
            data_args = []
            for flag, own, written in (("--factors", own_factors, serialize_factor_table(table)),
                                       ("--units", own_units, serialize_unit_registry(units))):
                if own:
                    data_path = Path(directory) / f"{flag[2:]}.csv"
                    data_path.write_text(written, encoding="utf-8")
                    data_args += [flag, str(data_path)]
            for fmt in REPORT_FORMATS:
                args = ["estimate", str(path), *data_args, "--format", fmt]
                first, second = runner.invoke(main, args), runner.invoke(main, args)
                assert first.exit_code == 0, first.output
                assert first.stdout_bytes == second.stdout_bytes
                assert ROWS[fmt](first.stdout) == expected, fmt


class TestSensitivity:
    def test_headline_numbers(self, runner):
        result = runner.invoke(main, ["sensitivity"])
        assert result.exit_code == 0
        assert "max sum-of-up: 47.41 kgCO2-eq" in result.output
        assert "min sum-of-low: 0.29 kgCO2-eq" in result.output
        assert "spread ratio (exact): 163.5x" in result.output
        assert "spread ratio (published rounding): 158.0x" in result.output

    def test_overflowing_ratio_exits_one(self, runner, tmp_path, table):
        # Every nonzero up at 1e307: the maximum sum-of-up is finite, its
        # ratio to the minimum sum-of-low is not.
        cells = {cell: EmissionTriple(t.low, t.typical, 1e307 if t.up else 0.0)
                 for cell, t in table.cells.items()}
        path = tmp_path / "factors.csv"
        path.write_text(serialize_factor_table(EmissionFactorTable(cells)), encoding="utf-8")
        result = runner.invoke(main, ["sensitivity", "--factors", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: spread ratio overflows: maximum sum-of-up 1.2e+308 "
                                 "kgCO2-eq over minimum sum-of-low 0.29 kgCO2-eq\n")

    def test_series_out(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        result = runner.invoke(main, ["sensitivity", "--series-out", str(series)])
        assert result.exit_code == 0
        lines = series.read_text().splitlines()
        assert lines[0] == "block,level,low,typical,up,absent"
        assert len(lines) == 49


@pytest.mark.parametrize("args", [
    ["estimate", str(FIXTURES / "valid.iotprof"), "--out"],
    ["sensitivity", "--out"],
    ["sensitivity", "--series-out"],
    ["project", "--out"],
    ["pathway", "--out"],
], ids=" ".join)
@pytest.mark.parametrize("parent", ["missing", "file"])
def test_unwritable_output_exits_one(runner, tmp_path, args, parent):
    (tmp_path / "file").write_text("", encoding="utf-8")
    target = tmp_path / parent / "out.txt"
    result = runner.invoke(main, args + [str(target)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: {target}: cannot write (")
    assert not target.exists()


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

    def test_empty_trend_is_usage_error(self, runner):
        # An empty source names no trend; it is not the default of both.
        result = runner.invoke(main, ["project", "--trend", ""])
        assert result.exit_code == 2
        assert "no cumulative trend for ['']" in result.stderr
        assert result.stdout == ""

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

    @pytest.mark.parametrize("args, message", [
        (["--end-year", "2029"], "end year 2029 outside [2020, 2028]"),
        (["--start-low", "500", "--start-high", "100"],
         "pathway start low 500.0 is above start high 100.0"),
    ], ids=["end-year", "start-low-above-high"])
    def test_out_of_range_input_exits_one(self, runner, args, message):
        result = runner.invoke(main, ["pathway", *args])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def run_twice(args, files=None):
    """The (stdout, stderr, exit code) of `main args`, run twice, with each
    of `files` (name to text) written to a temporary directory first; `{dir}`
    in an argument names that directory."""
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        for name, text in (files or {}).items():
            (Path(directory) / name).write_text(text, encoding="utf-8")
        args = [arg.replace("{dir}", directory) for arg in args]
        for _ in range(2):
            result = CliRunner().invoke(main, args)
            # Only SystemExit is expected: any other exception is a traceback.
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args, result.exception)
            runs.append((result.stdout, result.stderr, result.exit_code))
    assert runs[0] == runs[1]
    return runs[0]


def assert_contract(stdout, stderr, exit_code):
    """Exit 0 or 2, or exit 1 with nothing on stdout and one `error:` line."""
    assert exit_code in (0, 1, 2)
    assert "Traceback" not in stdout + stderr
    if exit_code == 1:
        assert stdout == ""
        assert re.fullmatch(r"error: [^\n]*\n", stderr), stderr


def csv_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


#: About one draw in ten is True.
RARELY = st.sampled_from((False,) * 9 + (True,))

#: Field values that no data file accepts where a number or flag belongs.
JUNK_FIELDS = ("", "x", "nan", "inf", "1e999", "-3", "2018.5", "0", '"')

#: Trend sources: both that drive projections, in other cases, one that does
#: not, and one that needs quoting.
DRAWN_SOURCES = ("CISCO", "cisco", "Statista", "STATISTA", "Gartner", 'Acme, "IoT"')


@st.composite
def junked(draw, rows):
    """`rows`, shuffled, sometimes with one field made junk or dropped."""
    rows = [list(row) for row in draw(st.permutations(rows))]
    if rows and draw(RARELY):
        row = draw(st.sampled_from(rows))
        index = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[index] = draw(st.sampled_from(JUNK_FIELDS))
        else:
            del row[index]
    return rows


@st.composite
def mostly(draw, valid, wide):
    """A value of `valid` or, about one time in ten, of the wider `wide`."""
    return draw(wide if draw(RARELY) else valid)


@st.composite
def trends_files(draw):
    """A trends file of one to three series, each a run of years, mostly
    within 2018-2028, whose counts mostly increase."""
    rows = []
    for source in draw(st.lists(st.sampled_from(DRAWN_SOURCES), min_size=1, max_size=3,
                                unique=True)):
        kind = draw(st.sampled_from(("cumulative", "Cumulative", "annual")))
        first = draw(mostly(st.integers(2018, 2027), st.integers(2017, 2027)))
        last = draw(mostly(st.integers(first + 1, 2028), st.integers(first, 2029)))
        value = draw(st.floats(0.01, 50.0))
        for year in range(first, last + 1):
            rows.append([source, kind, str(year), repr(value), draw(st.sampled_from("01"))])
            value += draw(mostly(st.floats(0.01, 20.0), st.floats(-1.0, 20.0)))
    return csv_text(projection.TRENDS_HEADER, draw(junked(rows)))


@st.composite
def scenarios_files(draw):
    """A scenarios file of one to three rows; names may repeat once stripped,
    alpha and psi may leave their ranges, and a triple may be out of order."""
    rows = []
    for name in draw(st.lists(st.sampled_from(("sc1", "sc2", " sc1", "a,b", 'q"x')),
                              min_size=1, max_size=3, unique=True)):
        triples = [sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=3, max_size=3)))
                   for _ in range(2)]
        if draw(RARELY):
            triples[0].reverse()
        alpha = draw(mostly(st.floats(0.0, 1.0), st.floats(-0.25, 1.25)))
        psi = draw(mostly(st.floats(1.0, 4.0), st.floats(0.5, 4.0)))
        rows.append([name, repr(alpha), repr(psi), *map(repr, triples[0] + triples[1])])
    return csv_text(projection.SCENARIOS_HEADER, draw(junked(rows)))


#: An optional float option's value: absent, or a float as `repr` writes it,
#: mostly in [0, 1000].
OPTIONAL_FLOATS = st.one_of(st.none(), mostly(st.floats(0.0, 1000.0), st.floats()).map(repr))


def float_options(**values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()
            if value is not None]


class TestProjectionCommandsOnDrawnInputs:
    """`project` on drawn data files and `pathway` on drawn starts keep the
    exit-code contract, never print a traceback, and repeat byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(trends=trends_files(), scenarios=scenarios_files(), psi=OPTIONAL_FLOATS,
           alpha=OPTIONAL_FLOATS)
    def test_project(self, trends, scenarios, psi, alpha):
        args = ["project", "--trends", "{dir}/trends.csv",
                "--scenarios-file", "{dir}/scenarios.csv", *float_options(psi=psi, alpha=alpha)]
        assert_contract(*run_twice(args, {"trends.csv": trends, "scenarios.csv": scenarios}))

    @settings(max_examples=60, deadline=None)
    @given(low=OPTIONAL_FLOATS, high=OPTIONAL_FLOATS,
           end=st.one_of(st.none(), st.integers(2015, 2033)))
    def test_pathway(self, low, high, end):
        args = ["pathway", *float_options(start_low=low, start_high=high, end_year=end)]
        stdout, stderr, exit_code = run_twice(args)
        assert_contract(stdout, stderr, exit_code)
        if exit_code == 0:
            # Each year's bounds are the year before's times 1 - 7.6 %.
            low = float(low or projection.PARIS_START_RANGE[0])
            high = float(high or projection.PARIS_START_RANGE[1])
            rows = ["year,low,high"]
            for year in range(2020, (end or projection.LAST_YEAR) + 1):
                rows.append(f"{year},{low:.2f},{high:.2f}")
                low, high = low * (1 - 0.076), high * (1 - 0.076)
            assert stdout == "\n".join(rows) + "\n"


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


class TestByteOrderMark:
    """A leading UTF-8 byte order mark is skipped in every file read."""

    def bom_copy(self, tmp_path, source):
        path = tmp_path / source.name
        path.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        return path

    def test_profile_validates(self, runner, tmp_path):
        path = self.bom_copy(tmp_path, FIXTURES / "valid.iotprof")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert result.stdout == f"{path}: OK (2 profile(s))\n"

    def test_estimate_matches_golden(self, runner, tmp_path):
        path = self.bom_copy(tmp_path, example_profile_path("use_cases"))
        result = runner.invoke(main, ["estimate", str(path), "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == (FIXTURES / "golden" / "estimate_csv.out").read_text(
            encoding="utf-8")

    @pytest.mark.parametrize("load, name", [
        (defaults.default_factor_table, "factors.csv"),
        (defaults.default_unit_registry, "units.csv"),
        (defaults.default_trends, "trends.csv"),
        (defaults.default_scenarios, "scenarios.csv"),
    ])
    def test_data_file_loads_as_bundled(self, tmp_path, monkeypatch, load, name):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        assert load(self.bom_copy(tmp_path, DATA / name)) == load()

    def test_bad_byte_offset_counts_the_mark(self, runner, tmp_path):
        latin1 = (FIXTURES / "valid.iotprof").read_bytes().replace(b"corpus", b"caf\xe9")
        text = codecs.BOM_UTF8 + latin1
        path = tmp_path / "latin1.iotprof"
        path.write_bytes(text)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert f"at byte {text.index(b'caf') + 3})" in result.stderr


COMMANDS = ("estimate", "validate", "sensitivity", "project", "pathway")


def option_help(runner, command, option):
    """The help text `command --help` shows beside `option`."""
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    return re.search(rf"^  {option} FILE\b *(.*)$", result.stdout, re.M).group(1)


class TestCommandContract:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"Usage: main {command} ")

    @pytest.mark.parametrize("option, commands, text", [
        ("--out", ("estimate", "sensitivity", "project", "pathway"),
         "Write output to a file instead of stdout."),
        ("--factors", ("estimate", "sensitivity"), "Emission-factor table (default: bundled)."),
    ], ids=["out", "factors"])
    def test_shared_option_has_one_help_line(self, runner, option, commands, text):
        assert {c: option_help(runner, c, option) for c in commands} == dict.fromkeys(commands, text)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_domain_error_exits_one_with_one_error_line(self, runner, tmp_path, monkeypatch,
                                                        command):
        # A data directory that does not exist, a profile that is not UTF-8,
        # and an end year before the pathway starts.
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "nowhere"))
        latin1 = tmp_path / "latin1.iotprof"
        latin1.write_bytes(b"format_version = 1\n# caf\xe9\n")
        args = {
            "estimate": ["estimate", str(FIXTURES / "valid.iotprof")],
            "validate": ["validate", str(latin1)],
            "sensitivity": ["sensitivity"],
            "project": ["project"],
            "pathway": ["pathway", "--end-year", "2019"],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")


def override_document(count):
    """`many_profiles(count)` with two overrides per profile; the actuators
    cell of every fourth profile is zero, so its override warns."""
    return re.sub(r"^\[p\d+\]\n", lambda header: header[0]
                  + "override.power_supply = mass_scaled:48g@li_ion_per_kg\n"
                  + "override.actuators = unit_count:2u@alkaline_aa_per_unit\n",
                  many_profiles(count), flags=re.M)


@pytest.fixture()
def collector_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPause:
    """A command runs with cycle collection paused, and leaves the collector
    as it found it."""

    def test_commands_leave_no_cycles(self, tmp_path):
        # The premise of the pause: what a command builds is freed by
        # reference counting alone.
        clean = tmp_path / "clean.iotprof"
        clean.write_text(override_document(300), encoding="utf-8")
        dirty = tmp_path / "dirty.iotprof"
        dirty.write_text(override_document(300) + "[p7]\ncasing = hsl7\n"
                         "override.pcb = solder_from_ic_area:12,5mm2@solder_per_kg\n",
                         encoding="utf-8")
        commands = [["validate", str(dirty)], ["validate", str(clean)]] + [
            ["estimate", str(clean), "--format", fmt] for fmt in REPORT_FORMATS]
        codes = []
        gc.collect()
        gc.disable()
        with open(tmp_path / "stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
            for argv in commands:
                try:
                    main(argv, standalone_mode=False)
                    codes.append(0)
                except SystemExit as exc:
                    codes.append(exc.code)
        assert codes == [1, 0, 0, 0, 0]
        assert gc.collect() == 0

    def test_failed_validate_leaves_no_records_in_its_traceback(self, tmp_path, monkeypatch):
        # SystemExit's traceback keeps each frame of the command alive, so
        # the first collection after the command would scan what they hold.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirty.iotprof").write_bytes((FIXTURES / "dirty.iotprof").read_bytes())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as info:
            main(["validate", "dirty.iotprof"], standalone_mode=False)
        assert info.value.code == 1
        assert stdout.getvalue() == (FIXTURES / "golden" / "validate_dirty.out").read_text(
            encoding="utf-8")
        held = []
        tb = info.tb
        while tb is not None:
            for name, value in tb.tb_frame.f_locals.items():
                items = value if isinstance(value, (list, tuple)) else (value,)
                if any(isinstance(item, (ProfileDocument, HardwareProfile)) for item in items):
                    held.append((tb.tb_frame.f_code.co_name, name))
            tb = tb.tb_next
        assert held == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, code", [
        (["estimate", str(FIXTURES / "valid.iotprof")], 0),
        (["validate", str(FIXTURES / "syntax.iotprof")], 1),
        (["estimate", str(FIXTURES / "missing.iotprof")], 2),
    ], ids=["exit0", "exit1", "exit2"])
    def test_collector_is_left_as_found(self, runner, enabled, argv, code):
        (gc.enable if enabled else gc.disable)()
        result = runner.invoke(main, argv)
        assert result.exit_code == code
        assert gc.isenabled() is enabled

    def test_collector_is_off_during_a_command(self, runner, monkeypatch):
        seen = []

        def traced(function):
            def wrapper(*args, **kwargs):
                seen.append((function.__name__, gc.isenabled()))
                return function(*args, **kwargs)
            return wrapper

        for name in ("validate_profiles", "load_profiles", "batch_evaluate", "render_reports"):
            monkeypatch.setattr(edgelca.cli, name, traced(getattr(edgelca.cli, name)))
        gc.enable()
        path = str(FIXTURES / "valid.iotprof")
        assert runner.invoke(main, ["validate", path]).exit_code == 0
        assert runner.invoke(main, ["estimate", path]).exit_code == 0
        assert seen == [("validate_profiles", False), ("load_profiles", False),
                        ("batch_evaluate", False), ("render_reports", False)]
        assert gc.isenabled()
