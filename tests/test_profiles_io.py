import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import InvalidProfile, ProfileParseError
from edgelca.estimator import evaluate_profile
from edgelca.model import (
    OVERRIDE_QUANTITY_UNITS,
    ComponentOverride,
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
        HardwareProfile(
            name=name,
            assignments={b: draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock},
            overrides=tuple(draw(st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block))),
        )
        for name in draw(st.lists(TEXTS, unique=True, max_size=3))
    )
    annotations = draw(st.dictionaries(TEXTS, TEXTS, max_size=2))
    return ProfileDocument(format_version=1, profiles=profiles, annotations=annotations)


def single_override_document(override):
    levels = HardwareProfile.uniform("p", HSL.HSL1).assignments
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
        levels = HardwareProfile.uniform(name, HSL.HSL1).assignments
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
        levels = HardwareProfile.uniform("p", HSL.HSL1).assignments
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

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, "yaml")

    def test_rendering_is_deterministic(self, report):
        for fmt in ("table", "csv", "jsonl"):
            assert render_report(report, fmt) == render_report(report, fmt)
