import cProfile
import csv
import io
import json
import math
import pstats
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import InvalidProfile, ProfileParseError
from edgelca.estimator import EvaluationReport, batch_evaluate, evaluate_profile
from edgelca.factors import parse_unit_registry, serialize_unit_registry
from edgelca.model import (
    CELLS,
    OVERRIDE_QUANTITY_UNITS,
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    valid_levels,
)
from edgelca.profiles_io import (
    DUPLICATE_BLOCK,
    DUPLICATE_PROFILE_NAME,
    FORBIDDEN_COMBINATION,
    MISSING_BLOCK,
    REPORT_FORMATS,
    SYNTAX,
    UNKNOWN_BLOCK,
    UNKNOWN_LEVEL,
    UNSUPPORTED_VERSION,
    Diagnostic,
    ProfileDocument,
    parse_profiles,
    render_profiles,
    render_report,
    render_reports,
    validate_profiles,
)

FIXTURES = Path(__file__).parent / "fixtures"

ERROR_FIXTURES = {
    "syntax.iotprof": SYNTAX,
    "unknown_block.iotprof": UNKNOWN_BLOCK,
    "unknown_level.iotprof": UNKNOWN_LEVEL,
    "duplicate_block.iotprof": DUPLICATE_BLOCK,
    "missing_block.iotprof": MISSING_BLOCK,
    "forbidden_combination.iotprof": FORBIDDEN_COMBINATION,
    "duplicate_profile_name.iotprof": DUPLICATE_PROFILE_NAME,
    "unsupported_version.iotprof": UNSUPPORTED_VERSION,
}


def read(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)
#: Plain names, or arbitrary text that the renderer may have to refuse.
TEXTS = st.one_of(NAMES, st.text(max_size=8))


@st.composite
def overrides(draw):
    kind = draw(st.sampled_from(OverrideKind))
    units = OVERRIDE_QUANTITY_UNITS[kind]
    return ComponentOverride(
        block=draw(st.sampled_from(FunctionalBlock)),
        kind=kind,
        quantity=draw(st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))),
        unit=draw(st.sampled_from(units + tuple(u.upper() for u in units))),
        factor_key=draw(TEXTS),
    )


@st.composite
def documents(draw):
    profiles = tuple(
        HardwareProfile.from_mapping(
            name=name,
            assignments={b: draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock},
            overrides=tuple(draw(st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block))),
        )
        for name in draw(st.lists(TEXTS, unique=True, max_size=3))
    )
    annotations = draw(st.dictionaries(TEXTS, TEXTS, max_size=2))
    return ProfileDocument(format_version=1, profiles=profiles, annotations=annotations)


#: Finite values, including large ones and the halves that rounding to two
#: decimals has to break (0.125, 0.005).
REPORT_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e20),
    st.sampled_from([0.0, 0.005, 0.015, 0.125, 2.675, 1e16, 2.5e17, 123456789.125]),
)


@st.composite
def reports(draw, names):
    """An EvaluationReport built from drawn parts, not by the evaluator."""
    def triple():
        return EmissionTriple(*sorted(draw(st.tuples(REPORT_VALUES, REPORT_VALUES, REPORT_VALUES))))

    profile = HardwareProfile.from_mapping(
        draw(names),
        {b: draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock},
        draw(st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block)),
    )
    estimate = FootprintEstimate(profile.name, tuple(triple() for b in FunctionalBlock))
    return EvaluationReport(profile, estimate)


#: Cell objects that reports share: 0.0 and -0.0, and equal values held in
#: distinct objects (one EmissionTriple per entry).
SHARED_TRIPLES = [EmissionTriple(*values) for values in [
    (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
    (0.005, 0.125, 2.675), (0.005, 0.125, 2.675), (1.0, 1.5, 2.0),
]]


def report_rows(report):
    """(block, level column, triple) per row, as the report contract lays them out."""
    overridden = {ov.block for ov in report.applied_overrides}
    for block in FunctionalBlock:
        level = "override" if block in overridden else report.profile.level_of(block).key
        yield block.key, level, report.estimate.per_block[block]
    yield "TOTAL", "", report.estimate.total


def enum_files(work):
    """The enum.py files cProfile sees while `work()` runs. Hashing enum
    members, iterating an Enum class, calling one or reading a member's
    `value` runs Python code there."""
    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    files = {filename for filename, _, _ in pstats.Stats(profiler).stats}
    return [f for f in files if f.endswith("enum.py")]


def enum_frames(document, table, units):
    """The enum.py files seen while `document` is rendered, parsed back,
    evaluated and rendered in every report format."""
    def work():
        batch = batch_evaluate(parse_profiles(render_profiles(document)).profiles, table, units)
        for fmt in REPORT_FORMATS:
            render_reports(batch, fmt)
    return enum_files(work)


def single_override_document(override):
    levels = HardwareProfile.uniform("p", HSL.HSL1).levels
    return ProfileDocument(1, (HardwareProfile("p", levels, (override,)),))


class TestParsing:
    def test_valid_document(self):
        doc = parse_profiles(read("valid.iotprof"))
        assert doc.format_version == 1
        assert doc.annotations == {"author": "test corpus"}
        assert [p.name for p in doc.profiles] == ["sensor_node", "battery_device"]
        sensor = doc.profiles[0]
        assert sensor.level_of(FunctionalBlock.SENSING) is HSL.HSL1
        assert sensor.level_of(FunctionalBlock.CASING) is HSL.HSL0
        battery = doc.profiles[1]
        assert len(battery.overrides) == 1
        ov = battery.overrides[0]
        assert ov.block is FunctionalBlock.POWER_SUPPLY
        assert ov.kind is OverrideKind.MASS_SCALED
        assert ov.quantity == 48.0
        assert ov.unit == "g"
        assert ov.factor_key == "li_ion_per_kg"

    @pytest.mark.parametrize("fixture,code", sorted(ERROR_FIXTURES.items()))
    def test_error_fixture_reports_its_code(self, fixture, code):
        doc, diagnostics = validate_profiles(read(fixture))
        assert code in {d.code for d in diagnostics}, fixture

    @pytest.mark.parametrize("fixture", sorted(ERROR_FIXTURES))
    def test_error_fixture_raises_in_strict_mode(self, fixture):
        with pytest.raises(ProfileParseError):
            parse_profiles(read(fixture))

    def test_lenient_mode_keeps_clean_profiles(self):
        # The duplicated second section is dropped, the first one survives.
        doc, diagnostics = validate_profiles(read("duplicate_profile_name.iotprof"))
        assert [p.name for p in doc.profiles] == ["twin"]
        assert len(diagnostics) == 1

    def test_diagnostics_carry_position(self):
        _, diagnostics = validate_profiles(read("unknown_level.iotprof"))
        d = next(d for d in diagnostics if d.code == UNKNOWN_LEVEL)
        assert d.line == 7  # memory assignment in the fixture
        assert d.column > 1

    @pytest.mark.parametrize(
        "text, code, position",
        [
            ("[p]\nmemory = mem\n", UNKNOWN_LEVEL, (2, 10)),
            ("[p]\npcb = pcb\n", UNKNOWN_LEVEL, (2, 7)),
            ("[p]\noverride.pcb = pcb\n", SYNTAX, (2, 16)),
            ("[p]\n  security = hsl3  # hsl3\n", FORBIDDEN_COMBINATION, (2, 14)),
            ("[p]\nmemory =\n", UNKNOWN_LEVEL, (2, 9)),
            ("format_version = format\n", SYNTAX, (1, 18)),
        ],
    )
    def test_value_column_counts_from_after_equals(self, text, code, position):
        _, diagnostics = validate_profiles(text)
        assert (diagnostics[0].code, diagnostics[0].line, diagnostics[0].column) == (code, *position)

    def test_nonfinite_override_quantity_is_syntax(self):
        text = read("valid.iotprof").replace(":48g@", ":1e999g@")
        _, diagnostics = validate_profiles(text)
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(SYNTAX, 31, 25)]
        assert "finite" in diagnostics[0].message

    def test_second_override_of_a_block_is_duplicate_block(self):
        text = read("valid.iotprof") + "override.power_supply = unit_count:2u@alkaline_aa_per_unit\n"
        doc, diagnostics = validate_profiles(text)
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(DUPLICATE_BLOCK, 32, 1)]
        assert diagnostics[0].message == "block 'power_supply' already overridden on line 31"
        assert [p.name for p in doc.profiles] == ["sensor_node"]

    @pytest.mark.parametrize("value", ["mass_scaled:48@li_ion_per_kg", "mass_scaled:1e999g@k",
                                       "volume:1g@k"])
    def test_malformed_second_override_is_one_syntax_diagnostic(self, value):
        text = read("valid.iotprof") + f"override.power_supply = {value}\n"
        _, diagnostics = validate_profiles(text)
        assert [(d.code, d.line) for d in diagnostics] == [(SYNTAX, 32)]

    def test_diagnostic_str(self):
        d = Diagnostic(code=SYNTAX, message="boom", line=3, column=9)
        assert str(d) == "3:9: syntax: boom"

    def test_all_diagnostics_collected_in_one_pass(self):
        text = (
            "format_version = 1\n"
            "[p]\n"
            "antenna = hsl0\n"
            "memory = hsl9\n"
        )
        _, diagnostics = validate_profiles(text)
        codes = {d.code for d in diagnostics}
        assert {UNKNOWN_BLOCK, UNKNOWN_LEVEL, MISSING_BLOCK} <= codes

    def test_comments_and_blank_lines_ignored(self):
        text = read("valid.iotprof").replace(
            "[sensor_node]", "# leading comment\n\n[sensor_node]  # trailing"
        )
        doc = parse_profiles(text)
        assert len(doc.profiles) == 2


class TestRoundTrip:
    def test_render_parse_identity(self):
        doc = parse_profiles(read("valid.iotprof"))
        rendered = render_profiles(doc)
        reparsed = parse_profiles(rendered)
        assert reparsed == doc

    def test_render_is_stable(self):
        doc = parse_profiles(read("valid.iotprof"))
        rendered = render_profiles(doc)
        assert render_profiles(parse_profiles(rendered)) == rendered

    def test_shipped_use_cases_parse(self, use_cases):
        assert len(use_cases.profiles) == 4

    @pytest.mark.parametrize(
        "kind, quantity, unit, text",
        [
            (OverrideKind.MASS_SCALED, 1234567.0, "g", "1234567.0g"),
            (OverrideKind.MEMORY_CAPACITY, 0.1234567, "MB", "0.1234567MB"),
            (OverrideKind.MASS_SCALED, 48.0, "g", "48g"),
            (OverrideKind.UNIT_COUNT, 1e20, "u", "1e+20u"),
            (OverrideKind.MEMORY_CAPACITY, 2.5e-7, "GB", "2.5e-07GB"),
            (OverrideKind.MASS_SCALED, -0.0, "g", "0g"),
        ],
    )
    def test_override_quantity_round_trips(self, kind, quantity, unit, text):
        doc = single_override_document(
            ComponentOverride(FunctionalBlock.MEMORY, kind, quantity, unit, "k")
        )
        rendered = render_profiles(doc)
        assert f":{text}@k\n" in rendered
        assert parse_profiles(rendered) == doc

    @given(documents())
    def test_render_parse_identity_property(self, doc):
        try:
            rendered = render_profiles(doc)
        except InvalidProfile:
            return
        assert parse_profiles(rendered) == doc

    @pytest.mark.parametrize(
        "name, annotations, factor_key, quantity",
        [
            ("a#b", {}, "k", 1.0),
            (" p", {}, "k", 1.0),
            ("", {}, "k", 1.0),
            ("a]b", {}, "k", 1.0),
            ("a\nb", {}, "k", 1.0),
            ("p", {"k": "v # x"}, "k", 1.0),
            ("p", {"k ": "v"}, "k", 1.0),
            ("p", {"k=v": "v"}, "k", 1.0),
            ("p", {}, "li#x", 1.0),
            ("p", {}, "l i", 1.0),
        ],
    )
    def test_render_refuses_text_the_grammar_cannot_carry(
        self, name, annotations, factor_key, quantity
    ):
        override = ComponentOverride(
            FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, quantity, "g", factor_key
        )
        levels = HardwareProfile.uniform(name, HSL.HSL1).levels
        doc = ProfileDocument(1, (HardwareProfile(name, levels, (override,)),), annotations)
        with pytest.raises(InvalidProfile, match="cannot be written"):
            render_profiles(doc)

    @pytest.mark.parametrize("quantity", [math.inf, math.nan, -1.0])
    def test_override_quantity_outside_range_rejected(self, quantity):
        with pytest.raises(InvalidProfile, match="nonnegative and finite"):
            ComponentOverride(FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, quantity, "g", "k")

    def test_render_keeps_text_the_grammar_carries(self):
        override = ComponentOverride(
            FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, 1.0, "g", "a@b=[c]"
        )
        levels = HardwareProfile.uniform("p", HSL.HSL1).levels
        doc = ProfileDocument(
            1,
            (HardwareProfile("[a b=c", levels, (override,)),),
            {" k.x[": "v = w]", "": ""},
        )
        assert parse_profiles(render_profiles(doc)) == doc


class TestReportRendering:
    @pytest.fixture()
    def report(self, table, units):
        profile = HardwareProfile.uniform("minimal", HSL.HSL0)
        return evaluate_profile(profile, table, units)

    def test_csv_single_report(self, report):
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == "profile,block,level,low,typical,up"
        assert len(lines) == 1 + 12 + 1
        assert lines[1] == "minimal,actuators,hsl0,0.00,0.00,0.00"
        assert lines[-1] == "minimal,TOTAL,,0.45,0.96,1.33"

    def test_csv_empty_batch_is_header_only(self):
        assert render_reports([], "csv") == "profile,block,level,low,typical,up\n"

    def test_jsonl_rows(self, report):
        lines = render_report(report, "jsonl").splitlines()
        assert len(lines) == 13
        first = json.loads(lines[0])
        assert list(first) == ["profile", "block", "level", "low", "typical", "up"]
        last = json.loads(lines[-1])
        assert last == {
            "profile": "minimal",
            "block": "TOTAL",
            "level": None,
            "low": 0.45,
            "typical": 0.96,
            "up": 1.33,
        }

    def test_jsonl_empty_batch(self):
        assert render_reports([], "jsonl") == ""

    def test_table_mentions_warnings(self, table, units):
        doc = parse_profiles(read("valid.iotprof"))
        battery = doc.profiles[1]
        text = render_report(evaluate_profile(battery, table, units), "table")
        assert "profile: battery_device" in text
        assert "override" in text

    def test_override_rows_labelled(self, table, units):
        doc = parse_profiles(read("valid.iotprof"))
        battery = doc.profiles[1]
        lines = render_report(evaluate_profile(battery, table, units), "csv").splitlines()
        ps_row = next(ln for ln in lines if ",power_supply," in ln)
        assert ps_row == "battery_device,power_supply,override,1.20,1.20,1.20"

    @pytest.mark.parametrize("name", ['x,"y', "a\nb", "c\rd", 'q"', "plain name"])
    def test_csv_name_reads_back(self, table, units, name):
        report = evaluate_profile(HardwareProfile.uniform(name, HSL.HSL1), table, units)
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"), newline="")))
        assert [row[0] for row in rows[1:]] == [name] * 13
        assert all(len(row) == 6 for row in rows)

    @given(st.text(alphabet=st.characters(blacklist_characters="\x00")))
    def test_csv_name_reads_back_property(self, table, units, name):
        # csv.reader before Python 3.11 rejects NUL.
        report = evaluate_profile(HardwareProfile.uniform(name, HSL.HSL1), table, units)
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"), newline="")))
        assert [row[0] for row in rows[1:]] == [name] * 13

    @given(st.lists(reports(st.text()), max_size=3))
    def test_jsonl_lines_equal_json_dumps_property(self, batch):
        expected = [
            json.dumps({"profile": report.estimate.profile_name, "block": block,
                        "level": level or None, "low": round(triple.low, 2),
                        "typical": round(triple.typical, 2), "up": round(triple.up, 2)},
                       separators=(", ", ": "))
            for report in batch for block, level, triple in report_rows(report)
        ]
        assert render_reports(batch, "jsonl") == "".join(line + "\n" for line in expected)

    # csv.reader before Python 3.11 rejects NUL.
    @given(st.lists(reports(st.text(alphabet=st.characters(blacklist_characters="\x00"))),
                    max_size=3))
    def test_csv_rows_read_back_property(self, batch):
        rows = list(csv.reader(io.StringIO(render_reports(batch, "csv"), newline="")))
        assert rows[0] == ["profile", "block", "level", "low", "typical", "up"]
        assert rows[1:] == [
            [report.estimate.profile_name, block, level,
             f"{triple.low:.2f}", f"{triple.typical:.2f}", f"{triple.up:.2f}"]
            for report in batch for block, level, triple in report_rows(report)
        ]

    @given(st.lists(reports(st.text(alphabet=st.characters(blacklist_characters="\n"))),
                    max_size=3))
    def test_table_rows_property(self, batch):
        # Columns: block in 16 characters, level in 10, then the three values,
        # each with two decimals, right-aligned but unseparated once wider.
        text = render_reports(batch, "table")
        assert text == "" or text.endswith("\n")
        chunks = text.removesuffix("\n").split("\n\n") if text else []
        assert len(chunks) == len(batch)
        values = r" *(-?\d+\.\d\d)" * 3
        for report, chunk in zip(batch, chunks):
            title, header, *rows = chunk.split("\n")
            assert title == f"profile: {report.estimate.profile_name}"
            assert header.split() == ["block", "level", "low", "typical", "up"]
            assert [(row[:16].rstrip(), row[16:26].rstrip(),
                     *re.fullmatch(values, row[26:]).groups()) for row in rows] == [
                (block, level, f"{triple.low:.2f}", f"{triple.typical:.2f}", f"{triple.up:.2f}")
                for block, level, triple in report_rows(report)
            ]

    def test_estimate_path_runs_no_enum_code(self, table, units):
        document = ProfileDocument(1, tuple(
            HardwareProfile.uniform(f"p{level}", level) for level in HSL))
        assert not enum_frames(document, table, units)

    def test_override_path_runs_no_enum_code(self, table, units):
        # One override of each kind, on blocks at hsl1, so no warning is built.
        units = parse_unit_registry(serialize_unit_registry(units) + (
            "dram_per_gb,0.0875,kgCO2-eq/Gb,DRAM die per gigabit\n"
            "solder_paste_per_kg,27.4,kgCO2-eq/kg,SAC305 paste\n"))
        overrides = (
            ComponentOverride(FunctionalBlock.POWER_SUPPLY, OverrideKind.MASS_SCALED, 48.0, "g",
                              "li_ion_per_kg"),
            ComponentOverride(FunctionalBlock.ACTUATORS, OverrideKind.UNIT_COUNT, 2.0, "u",
                              "alkaline_aa_per_unit"),
            ComponentOverride(FunctionalBlock.MEMORY, OverrideKind.MEMORY_CAPACITY, 512.0, "MB",
                              "dram_per_gb"),
            ComponentOverride(FunctionalBlock.PCB, OverrideKind.SOLDER_FROM_IC_AREA, 120.0, "mm2",
                              "solder_paste_per_kg"),
        )
        levels = HardwareProfile.uniform("p", HSL.HSL1).levels
        document = ProfileDocument(1, (HardwareProfile("p", levels, overrides),))
        assert not enum_frames(document, table, units)
        parsed = parse_profiles(render_profiles(document))
        assert {ov.kind for ov in parsed.profiles[0].overrides} == set(OverrideKind)

    def test_block_names_in_messages_run_no_enum_code(self, table, units):
        # Forbidden-combination and missing-block diagnostics, and an
        # absent-feature override warning, each name a block.
        override = ComponentOverride(FunctionalBlock.ACTUATORS, OverrideKind.UNIT_COUNT, 2.0, "u",
                                     "alkaline_aa_per_unit")
        levels = HardwareProfile.uniform("p", HSL.HSL0).levels
        clean = render_profiles(ProfileDocument(1, (HardwareProfile("p", levels, (override,)),)))
        dirty = clean.replace("security = hsl0", "security = hsl3")
        outputs = []

        def work():
            outputs.append(validate_profiles(dirty)[1])
            outputs.append(render_reports(
                batch_evaluate(parse_profiles(clean).profiles, table, units), "table"))

        assert not enum_files(work)
        diagnostics, rendered = outputs
        assert [(d.code, d.message) for d in diagnostics] == [
            (FORBIDDEN_COMBINATION, "security cannot be assigned hsl3"),
            (MISSING_BLOCK, "profile 'p' misses blocks: security")]
        assert ("warning: override on actuators replaces an absent-feature cell "
                "(actuators at hsl0 is zero); check the profile") in rendered

    @given(st.lists(st.tuples(NAMES, st.lists(st.sampled_from(SHARED_TRIPLES),
                                              min_size=12, max_size=12),
                              st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block)),
                    max_size=4))
    def test_shared_cell_tuples_render_as_their_values_property(self, drawn):
        # Reports share cell objects, as the evaluator's do; equal values in
        # distinct objects, and 0.0 next to -0.0, each print as their own value.
        batch = []
        for name, triples, profile_overrides in drawn:
            levels = HardwareProfile.uniform(name, HSL.HSL1).levels
            batch.append(EvaluationReport(HardwareProfile(name, levels, profile_overrides),
                                          FootprintEstimate(name, tuple(triples))))
        csv_lines, jsonl_lines, table_chunks = ["profile,block,level,low,typical,up"], [], []
        for report in batch:
            name = report.estimate.profile_name
            table_lines = [f"profile: {name}", "block           level          low  typical      up"]
            for block, level, triple in report_rows(report):
                low, typical, up = triple.as_tuple()
                csv_lines.append(f"{name},{block},{level},{low:.2f},{typical:.2f},{up:.2f}")
                jsonl_lines.append(json.dumps(
                    {"profile": name, "block": block, "level": level or None,
                     "low": round(low, 2), "typical": round(typical, 2), "up": round(up, 2)},
                    separators=(", ", ": ")))
                table_lines.append(f"{block:<16}{level:<10}{low:>8.2f}{typical:>9.2f}{up:>8.2f}")
            table_chunks.append("\n".join(table_lines))
        assert render_reports(batch, "csv") == "\n".join(csv_lines) + "\n"
        assert render_reports(batch, "jsonl") == "".join(line + "\n" for line in jsonl_lines)
        assert render_reports(batch, "table") == (
            "\n\n".join(table_chunks) + "\n" if table_chunks else "")

    def test_jsonl_formats_each_table_cell_once(self, table, units):
        # A count, not a time: one formatting per distinct cell, plus the
        # TOTAL row of each profile.
        rng = random.Random(0)
        profiles = [HardwareProfile(f"p{i}", tuple(rng.choice(valid_levels(b)) for b in FunctionalBlock))
                    for i in range(1000)]
        batch = batch_evaluate(profiles, table, units)
        profiler = cProfile.Profile()
        profiler.enable()
        render_reports(batch, "jsonl")
        profiler.disable()
        calls = {func: nc for (_, _, func), (_, nc, _, _, _) in pstats.Stats(profiler).stats.items()}
        assert calls["<built-in method builtins.round>"] <= 3 * (len(CELLS) + len(profiles))

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, "yaml")

    def test_rendering_is_deterministic(self, report):
        for fmt in ("table", "csv", "jsonl"):
            assert render_report(report, fmt) == render_report(report, fmt)
